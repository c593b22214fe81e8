module Pipeline = Tqec_compress.Pipeline

(* A minimal ICM whose measurement constraints form a 2-cycle: gadget 0
   wants measurement 0 before 1, gadget 1 wants 1 before 0.  Never a
   legal pipeline input — used only by the [icm-cycle] fault seam to
   drive the acyclicity gate from a live daemon. *)
let cyclic_icm : Tqec_icm.Icm.t =
  let open Tqec_icm.Icm in
  {
    name = "planted-cycle";
    n_lines = 2;
    inits = [| Init_z; Init_z |];
    cnots = [||];
    meas =
      [|
        { m_line = 0; m_basis = Mz; m_order = Order_first 0 };
        { m_line = 1; m_basis = Mz; m_order = Order_first 1 };
      |];
    t_gadgets =
      [|
        {
          t_id = 0;
          t_wire = 0;
          t_seq = 0;
          t_lines = [];
          t_cnots = [];
          t_first_meas = 0;
          t_second_meas = [ 1 ];
        };
        {
          t_id = 1;
          t_wire = 1;
          t_seq = 0;
          t_lines = [];
          t_cnots = [];
          t_first_meas = 1;
          t_second_meas = [ 0 ];
        };
      |];
    line_of_wire = [| 0; 1 |];
  }

type config = {
  socket_path : string;
  capacity : int;
  cache_bytes : int;
  max_jobs : int option;
  hold_ms : int;
  fault : string option;
  verbose : bool;
}

let default_config =
  {
    socket_path = "/tmp/tqecc.sock";
    capacity = 2;
    cache_bytes = 16 * 1024 * 1024;
    max_jobs = None;
    hold_ms = 0;
    fault = None;
    verbose = false;
  }

type state = {
  cfg : config;
  lock : Mutex.t;
      (* guards cache, counters and [in_flight]; held only for O(1)
         bookkeeping, never across a pipeline run *)
  compute : Mutex.t;
      (* serializes pipeline execution: systhreads within a domain share
         Domain.DLS (the router's A* scratch, the pool's current key),
         so two interleaved pipelines in one domain would corrupt each
         other.  Parallelism still comes from the domain pool inside the
         single running pipeline. *)
  cache : Cache.t;
  mutable in_flight : int;  (* admitted cache-miss requests *)
  mutable served : int;
  mutable busy : int;
  mutable errors : int;
  mutable stopping : bool;
}

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let log st fmt =
  Printf.ksprintf
    (fun m -> if st.cfg.verbose then Printf.eprintf "[serve] %s\n%!" m)
    fmt

(* ------------------------------------------------------------------ *)
(* Request execution                                                  *)
(* ------------------------------------------------------------------ *)

let circuit_of_input = function
  | Protocol.Qct { name; text } -> (
      match Tqec_circuit.Qct.parse_string ~name text with
      | c -> Ok c
      | exception Tqec_circuit.Qct.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" name line message))
  | Protocol.Named { name; scale } -> (
      match Tqec_circuit.Suite.find name with
      | Some entry ->
          Ok (Tqec_circuit.Suite.scaled ~factor:(max 1 scale) entry)
      | None -> (
          match Tqec_circuit.Generator.tier_of_name name with
          | Some c ->
              if scale > 1 then
                Error
                  (Printf.sprintf
                     "scale applies to suite benchmarks only, not tier %S"
                     name)
              else Ok c
          | None -> Error (Printf.sprintf "unknown benchmark %S" name)))

let pipeline_config st (k : Protocol.knobs) =
  let jobs =
    match (k.Protocol.jobs, st.cfg.max_jobs) with
    | None, cap -> cap
    | Some j, None -> Some (max 1 j)
    | Some j, Some m -> Some (max 1 (min j m))
  in
  (* verify is explicit per request — a daemon never consults its own
     environment for request-scoped behavior *)
  { (Protocol.config_of_knobs k) with Pipeline.jobs }

let stats_snapshot st =
  {
    Protocol.sv_hits = Cache.hits st.cache;
    sv_misses = Cache.misses st.cache;
    sv_entries = Cache.entries st.cache;
    sv_bytes = Cache.bytes st.cache;
    sv_served = st.served;
    sv_busy = st.busy;
    sv_errors = st.errors;
    sv_in_flight = st.in_flight;
    sv_capacity = st.cfg.capacity;
  }

(* Best-effort frame write: the client may have hung up mid-run, and a
   dead progress stream must not kill the pipeline computing a result
   we still want to cache. *)
let send_opt fd resp =
  try
    Protocol.write_frame fd (Protocol.encode_response resp);
    true
  with Unix.Unix_error _ | Protocol.Framing_error _ -> false

type admission = Hit of string * (string * float) list | Admitted | Refused of int

let run_compress st fd input knobs =
  match circuit_of_input input with
  | Error message ->
      locked st (fun () -> st.errors <- st.errors + 1);
      ignore (send_opt fd (Protocol.Failed { message }))
  | Ok circuit -> (
      (* mirror Pipeline.run's preprocess exactly: the fingerprint (and
         thus the cache) keys on the ICM the pipeline will actually
         consume, and the served bytes must match the CLI's *)
      let circuit =
        if Tqec_circuit.Circuit.is_clifford_t circuit then circuit
        else Tqec_circuit.Clifford_t.decompose circuit
      in
      let icm = Tqec_icm.Decompose.run circuit in
      let config = pipeline_config st knobs in
      let key = Fingerprint.of_icm icm ~config in
      let admission =
        locked st (fun () ->
            match Cache.find st.cache key with
            | Some (payload, timings) ->
                st.served <- st.served + 1;
                Hit (payload, timings)
            | None ->
                if st.in_flight >= st.cfg.capacity then begin
                  st.busy <- st.busy + 1;
                  Refused st.in_flight
                end
                else begin
                  st.in_flight <- st.in_flight + 1;
                  Admitted
                end)
      in
      match admission with
      | Hit (payload, timings) ->
          log st "hit %s (%s)" (String.sub key 0 8) icm.Tqec_icm.Icm.name;
          ignore
            (send_opt fd (Protocol.Result { payload; cached = true; timings }))
      | Refused in_flight ->
          log st "busy (%d/%d)" in_flight st.cfg.capacity;
          ignore
            (send_opt fd
               (Protocol.Busy { in_flight; capacity = st.cfg.capacity }))
      | Admitted ->
          let finish resp ok =
            locked st (fun () ->
                st.in_flight <- st.in_flight - 1;
                if ok then st.served <- st.served + 1
                else st.errors <- st.errors + 1);
            ignore (send_opt fd resp)
          in
          (match
             Mutex.lock st.compute;
             Fun.protect
               ~finally:(fun () -> Mutex.unlock st.compute)
               (fun () ->
                 if st.cfg.hold_ms > 0 then
                   (* deliberate stall: lets the overload smoke test pin
                      the daemon in the computing state deterministically *)
                   Thread.delay (float_of_int st.cfg.hold_ms /. 1000.);
                 (match st.cfg.fault with
                 | Some "icm-cycle" ->
                     (* planted cyclic ICM: drives the real pipeline
                        acyclicity gate end-to-end — the crafted ICM has
                        two T gadgets whose first/second-order
                        measurements mutually constrain each other, so
                        [Pipeline.run_icm] raises the structured
                        [Stage_failure] that the handler below maps to a
                        Failed response *)
                     ignore (Pipeline.run_icm ~config cyclic_icm)
                 | Some stage ->
                     (* planted stage failure: proves the daemon maps a
                        pipeline exception to a structured error response
                        and keeps serving, instead of dying *)
                     raise
                       (Pipeline.Stage_failure
                          { stage; message = "planted fault" })
                 | None -> ());
                 let on_stage stage seconds =
                   ignore
                     (send_opt fd (Protocol.Progress { stage; seconds }))
                 in
                 Pipeline.run_icm ~config ~on_stage icm)
           with
          | r ->
              let payload = Pipeline.summary r in
              let timings = r.Pipeline.timings in
              locked st (fun () ->
                  Cache.add st.cache key ~payload ~timings);
              log st "miss %s (%s) -> %d bytes" (String.sub key 0 8)
                icm.Tqec_icm.Icm.name (String.length payload);
              finish
                (Protocol.Result { payload; cached = false; timings })
                true
          | exception Pipeline.Stage_failure { stage; message } ->
              finish
                (Protocol.Failed
                   { message = Printf.sprintf "%s: %s" stage message })
                false
          | exception (Failure message | Invalid_argument message) ->
              finish (Protocol.Failed { message }) false
          | exception exn ->
              finish
                (Protocol.Failed { message = Printexc.to_string exn })
                false))

(* Wakes the accept loop so it can observe [stopping]. *)
let poke st =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_UNIX st.cfg.socket_path)
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let handle_connection st fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Protocol.read_frame fd with
      | exception (End_of_file | Unix.Unix_error _) -> ()
      | exception Protocol.Framing_error m ->
          ignore (send_opt fd (Protocol.Failed { message = m }))
      | frame -> (
          match Protocol.decode_request frame with
          | Error message ->
              locked st (fun () -> st.errors <- st.errors + 1);
              ignore (send_opt fd (Protocol.Failed { message }))
          | Ok (Protocol.Compress { input; knobs }) ->
              run_compress st fd input knobs
          | Ok Protocol.Stats ->
              let s = locked st (fun () -> stats_snapshot st) in
              ignore (send_opt fd (Protocol.Stats_reply s))
          | Ok Protocol.Shutdown ->
              locked st (fun () -> st.stopping <- true);
              ignore (send_opt fd Protocol.Bye);
              poke st))

let run cfg =
  (* a client hanging up mid-write must be an EPIPE error on the write,
     not a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    {
      cfg;
      lock = Mutex.create ();
      compute = Mutex.create ();
      cache = Cache.create ~budget:cfg.cache_bytes;
      in_flight = 0;
      served = 0;
      busy = 0;
      errors = 0;
      stopping = false;
    }
  in
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen sock 64;
      log st "listening on %s (capacity=%d cache=%dB)" cfg.socket_path
        cfg.capacity cfg.cache_bytes;
      let rec accept_loop () =
        if not (locked st (fun () -> st.stopping)) then begin
          (match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              if locked st (fun () -> st.stopping) then (
                try Unix.close fd with Unix.Unix_error _ -> ())
              else begin
                (* a stuck client must not pin a handler thread forever *)
                (try
                   Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0
                 with Unix.Unix_error _ -> ());
                ignore (Thread.create (fun () -> handle_connection st fd) ())
              end);
          accept_loop ()
        end
      in
      accept_loop ();
      (* drain: wait for every admitted request to answer its client
         before tearing the socket down *)
      let rec drain () =
        if locked st (fun () -> st.in_flight > 0) then begin
          Thread.delay 0.02;
          drain ()
        end
      in
      drain ();
      Mutex.lock st.compute;
      Mutex.unlock st.compute;
      log st "shut down (served=%d busy=%d errors=%d)" st.served st.busy
        st.errors;
      stats_snapshot st)
