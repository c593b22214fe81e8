(** Wire protocol for [tqecc serve]: 4-byte big-endian length-prefixed
    JSON frames over a unix-domain socket, plus the request/response
    schema and its codec.

    The codec is the trust boundary of the daemon.  Encoding is total;
    decoding never raises — every malformed byte sequence comes back as
    [Error message] so the server can answer with a structured error
    response instead of dying.  [decode_request (encode_request r) = Ok r]
    for every request (and likewise for responses); the fuzz harness
    round-trips random cases through it. *)

(** {1 Framing} *)

exception Framing_error of string

(** Frames above this size (64 MiB) are rejected on both read and write:
    a corrupt or hostile length prefix must never demand an unbounded
    allocation from a long-running process. *)
val max_frame : int

(** [write_frame fd payload] writes the length prefix and payload,
    restarting on [EINTR].  Raises {!Framing_error} on oversized
    payloads and [Unix.Unix_error] (e.g. [EPIPE]) on a dead peer. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one complete frame.  Raises [End_of_file] on
    a clean close mid-frame, {!Framing_error} on an oversized length. *)
val read_frame : Unix.file_descr -> string

(** {1 Requests} *)

type input =
  | Qct of { name : string; text : string }
      (** an inline circuit in [.qct] text form *)
  | Named of { name : string; scale : int }
      (** a named suite benchmark (or [tier-x<k>] generator instance),
          optionally scaled as by [tqecc compress --scale] *)

(** The result-affecting pipeline knobs a request may carry.  [jobs] and
    [debug] do not affect the result bytes (the flow is deterministic in
    worker count; debug only traces) — the cache key ignores them. *)
type knobs = {
  variant : Tqec_compress.Pipeline.variant;
  effort : Tqec_place.Placer.effort;
  seed : int;
  restarts : int;
  jobs : int option;
  early_stop : float option;
  partition : int option;
  corridor : int option;
  debug : bool;
  verify : bool;
      (** run the whole-pipeline translation validation before
          answering; a violation becomes a structured error response *)
}

(** {!Tqec_compress.Knobs.defaults}: the [tqecc compress] flag defaults,
    so a request that sets nothing receives exactly the bytes a bare CLI
    run prints. *)
val default_knobs : knobs

(** The pipeline configuration a request runs with: {!Tqec_compress.Knobs.defaults}
    with the request's knobs, validation forced on or off by [verify]. *)
val config_of_knobs : knobs -> Tqec_compress.Pipeline.config

(** The request carrying [config]'s wire knobs ([verify] when
    [config.verify = Some true]). *)
val knobs_of_config : Tqec_compress.Pipeline.config -> knobs

type request =
  | Compress of { input : input; knobs : knobs }
  | Stats
  | Shutdown

(** {1 Responses} *)

type server_stats = {
  sv_hits : int;
  sv_misses : int;
  sv_entries : int;
  sv_bytes : int;
  sv_served : int;
  sv_busy : int;
  sv_errors : int;
  sv_in_flight : int;
  sv_capacity : int;
}

type response =
  | Progress of { stage : string; seconds : float }
      (** streamed as each pipeline stage completes; zero or more
          precede the terminal frame *)
  | Result of { payload : string; cached : bool; timings : (string * float) list }
      (** [payload] is byte-identical to [tqecc compress --porcelain]
          output for the same (input, seed, knobs) *)
  | Busy of { in_flight : int; capacity : int }
      (** admission control refused the request; retry later *)
  | Failed of { message : string }
  | Stats_reply of server_stats
  | Bye  (** acknowledges [Shutdown] *)

(** {1 Codec} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** [variant_name] is {!Tqec_compress.Knobs.variant_name}: the CLI
    spellings ["full" | "dual-only" | "modular"]. *)
val variant_name : Tqec_compress.Pipeline.variant -> string
