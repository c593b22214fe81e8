(** The knob table: one row per pipeline knob an outside caller can set.

    Every entry point derives from these rows — the [tqecc] flags, the
    [TQEC_*] variables the bench harness reads, the serve request
    fields and their cache key, and the fuzzer's replay line — so each
    knob has exactly one spelling, one validator and one printer.  A
    row's [parse] is the only validator for its knob: a value it
    rejects is a usage error on the CLI, a decode error on the wire and
    an exit-2 error naming the variable in an env reader. *)

type row = {
  flag : string;  (** CLI long flag without the dashes, e.g. [early-stop] *)
  alias : string option;  (** one-letter CLI alias, e.g. [e] *)
  env : string option;  (** [TQEC_*] variable read by {!of_env}, if any *)
  wire : string option;  (** serve request field, if the wire carries it *)
  affects_result : bool;
      (** whether the value can change the result bytes; the serve cache
          key ({!key}) is built from exactly these rows *)
  docv : string;  (** value placeholder in [--help] *)
  doc : string;  (** [--help] text (Cmdliner markup) *)
  unset : string option;
      (** spelling of an unset optional value ([off], [auto]) — what a
          wire [null] means; [None] for knobs that always carry a value *)
  print : Pipeline.config -> string;
      (** the knob's value in [config], in the text form [parse] reads *)
  parse : string -> (Pipeline.config -> Pipeline.config, string) result;
      (** validates a text value into a setter for the knob's field(s) *)
}

val rows : row list

(** The CLI defaults: {!Pipeline.default_config} at quick effort.  A
    serve request that sets nothing runs with these, and the fuzzer's
    replay line prints only the rows that differ from them. *)
val defaults : Pipeline.config

(** [apply row text config] parses [text] through [row] onto [config]. *)
val apply :
  row -> string -> Pipeline.config -> (Pipeline.config, string) result

(** [of_env ?vars getenv config] applies each row's variable that
    [getenv] reports set, restricted to [vars] when given.  An invalid
    value is [Error] naming the variable; the caller decides how to
    exit. *)
val of_env :
  ?vars:string list -> (string -> string option) -> Pipeline.config ->
  (Pipeline.config, string) result

(** [key config] prints every result-affecting row: two configs with
    the same key produce the same result bytes on the same input. *)
val key : Pipeline.config -> string

val variant_name : Pipeline.variant -> string
val effort_name : Tqec_place.Placer.effort -> string
