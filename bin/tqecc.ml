(* tqecc — command-line driver for the TQEC bridge-compression flow.

   Subcommands:
     stats    — decomposition statistics of a circuit (.real file or a
                named suite benchmark)
     compress — run the full flow (or a baseline variant) and report the
                space-time volume
     table1 / table2 / table3 — regenerate the paper's tables
     fig1     — regenerate the Fig. 1 volume sequence
     render   — print the canonical geometric description (small inputs)
     serve    — long-lived compression daemon on a unix socket, with an
                LRU result cache and bounded admission
     request  — client for a running daemon *)

open Cmdliner
module Suite = Tqec_circuit.Suite
module Pipeline = Tqec_compress.Pipeline
module Experiments = Tqec_compress.Experiments
module Report = Tqec_compress.Report
module Knobs = Tqec_compress.Knobs

(* CLI-grade failure: a malformed instance name or fixture is a usage
   error (message + exit 2), never an uncaught exception trace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("tqecc: " ^ msg);
      exit 2)
    fmt

(* --scale divides a suite benchmark's size, and nothing else's: a
   scale below 1, or above 1 for a tier or a file, exits 2, worded like
   the table commands' --scale and the daemon's refusal. *)
let check_scale input scale =
  if scale < 1 then
    die "--scale: %S is not a scale (an integer >= 1)" (string_of_int scale);
  if scale > 1 && Suite.find input = None then
    die "--scale applies to suite benchmarks only, not %S" input

let load_circuit ?(scale = 1) input =
  check_scale input scale;
  match Suite.find input with
  | Some entry -> Suite.scaled ~factor:scale entry
  | None -> (
      match Tqec_circuit.Generator.tier_of_name input with
      | Some c -> c
      | None ->
          if Sys.file_exists input then
            if Filename.check_suffix input ".qct" then
              match Tqec_circuit.Qct.parse_file input with
              | c -> c
              | exception Tqec_circuit.Qct.Parse_error { line; message } ->
                  die "%s:%d: %s" input line message
            else (
              try Tqec_circuit.Revlib.parse_file input
              with Failure msg | Invalid_argument msg ->
                die "%s: %s" input msg)
          else
            die
              "unknown benchmark %S (not a suite name, not a tier-x<k> scale \
               tier, not a file); suite: %s"
              input
              (String.concat ", " Suite.names))

let input_arg =
  let doc =
    "Input circuit: a RevLib .real file, a Clifford+T .qct fixture (e.g. a \
     shrunk fuzzing reproducer), a benchmark name (e.g. rd84_142) or a \
     tier-x<k> scale tier."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* The CLI layer is where the environment becomes a default: one read
   per process invocation, passed down as explicit config — library code
   below never captures TQEC_DEBUG ambiently. *)
let debug_from_env () = Sys.getenv_opt "TQEC_DEBUG" <> None

(* TQEC_VERIFY (set, and not "0") makes every run validate itself. *)
let verify_from_env () =
  match Sys.getenv_opt "TQEC_VERIFY" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let debug_arg =
  let doc =
    "Per-stage progress trace on stderr (also enabled by $(b,TQEC_DEBUG))."
  in
  Arg.(value & flag & info [ "debug" ] ~doc)

(* The knob defaults with [vars] applied through their rows.  Pipeline
   commands read TQEC_PARTITION and TQEC_JOBS; the other knob variables
   configure the bench harness only. *)
let env_defaults vars =
  match Knobs.of_env ~vars Sys.getenv_opt Knobs.defaults with
  | Ok config -> config
  | Error msg -> die "%s" msg

(* One Cmdliner option per knob-table row.  A value goes through its
   row's parser, so a rejected one is a usage error worded by the
   table. *)
let knob_options =
  List.map
    (fun (row : Knobs.row) ->
      let parse s = Result.map (fun set -> (s, set)) (row.Knobs.parse s) in
      let print ppf (s, _) = Format.pp_print_string ppf s in
      ( row,
        Arg.(
          value
          & opt (some (conv' (parse, print))) None
          & info
              (row.Knobs.flag :: Option.to_list row.Knobs.alias)
              ~docv:row.Knobs.docv ~doc:row.Knobs.doc
              ~absent:(row.Knobs.print Knobs.defaults)) ))
    Knobs.rows

(* The options of the rows [only] picks, folded onto [base]. *)
let knobs_term ?(only = fun _ -> true) base =
  let set value config =
    match value with None -> config | Some (_, set) -> set config
  in
  List.fold_left
    (fun acc (row, option) ->
      if only row then Term.(const set $ option $ acc) else acc)
    base knob_options

(* The knobs of a pipeline command: the table's options plus --debug,
   over the environment's defaults. *)
let pipeline_knobs ?only () =
  let debug d config =
    {
      config with
      Pipeline.debug = d || debug_from_env ();
      verify =
        (if verify_from_env () then Some true else config.Pipeline.verify);
    }
  in
  knobs_term ?only
    Term.(
      const debug $ debug_arg
      $ (const env_defaults $ const [ "TQEC_PARTITION"; "TQEC_JOBS" ]))

let scale_arg =
  let doc =
    "Scale a suite benchmark down by this divisor (1 = full size).  A \
     tier or a file takes only 1."
  in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"K" ~doc)

let stats_cmd =
  let run input =
    let c = load_circuit input in
    let icm = Tqec_icm.Decompose.run (Tqec_circuit.Clifford_t.decompose c) in
    let s = Tqec_icm.Icm.stats icm in
    Format.printf "%s: %a@." c.Tqec_circuit.Circuit.name Tqec_icm.Icm.pp_stats s;
    Format.printf "canonical volume: %s@."
      (Tqec_util.Pretty.int_with_commas
         (Tqec_compress.Baselines.canonical_volume icm))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Decomposition statistics of a circuit.")
    Term.(const run $ input_arg)

let optimize_arg =
  let doc = "Run the peephole optimizer before decomposition." in
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc)

let timings_arg =
  let doc =
    "Print per-stage wall times, the placer's work (nodes, annealing \
     moves attempted and accepted, accept ratio, moves that ran the full \
     B*-tree repack), the router's counters and a memory line (the \
     routing grid's allocated and total tiles, the tiles holding a \
     usage and a history array, and its heap words; and the process's \
     peak resident set size after placement, after routing, after the \
     compile and after its check, n/a where /proc is missing)."
  in
  Arg.(value & flag & info [ "timings" ] ~doc)

(* [peaks] are the peak resident set sizes the memory line names, in
   order. *)
let print_timings ~peaks (r : Pipeline.t) =
  Format.printf "stage timings:@.";
  List.iter
    (fun (name, dt) -> Format.printf "  %-10s %8.3fs@." name dt)
    r.Pipeline.timings;
  let placement = r.Pipeline.placement in
  let sa = placement.Tqec_place.Placer.sa_stats in
  Format.printf
    "placer: nodes=%d moves attempted=%d accepted=%d accept-ratio=%.3f \
     repacks=%d@."
    r.Pipeline.stages.Pipeline.st_nodes sa.Tqec_place.Sa.attempted
    sa.Tqec_place.Sa.accepted
    (Tqec_util.Stats.ratio
       (float_of_int sa.Tqec_place.Sa.accepted)
       (float_of_int sa.Tqec_place.Sa.attempted))
    placement.Tqec_place.Placer.repacks;
  let rc = Tqec_route.Counters.stats () in
  Format.printf
    "router: corridor-cache hits=%d misses=%d stale=%d searches \
     coarse=%d fine=%d flat=%d fallbacks=%d scratch-grows=%d astar-pops=%d \
     astar-pushes=%d@."
    rc.Tqec_route.Counters.cache_hits rc.Tqec_route.Counters.cache_misses
    rc.Tqec_route.Counters.cache_stale rc.Tqec_route.Counters.coarse_searches
    rc.Tqec_route.Counters.fine_searches rc.Tqec_route.Counters.flat_searches
    rc.Tqec_route.Counters.flat_fallbacks
    rc.Tqec_route.Counters.scratch_grows rc.Tqec_route.Counters.astar_pops
    rc.Tqec_route.Counters.astar_pushes;
  let gm = r.Pipeline.grid_mem in
  let kb = function Some kb -> Printf.sprintf "%dkB" kb | None -> "n/a" in
  Format.printf "memory: grid tiles=%d/%d costs=%d/%d words=%d peak-rss %s@."
    gm.Tqec_route.Grid.mem_tiles gm.Tqec_route.Grid.mem_tiles_total
    gm.Tqec_route.Grid.mem_usage_tiles gm.Tqec_route.Grid.mem_history_tiles
    gm.Tqec_route.Grid.mem_words
    (String.concat " " (List.map (fun (name, rss) -> name ^ "=" ^ kb rss) peaks))

let porcelain_arg =
  let doc =
    "Deterministic single-line output: the result summary without the \
     elapsed time — byte-identical to what $(b,tqecc request) receives \
     from a serving daemon for the same input and knobs."
  in
  Arg.(value & flag & info [ "porcelain" ] ~doc)

let compress_cmd =
  let run input config scale optimize timings porcelain =
    let c = load_circuit ~scale input in
    let c =
      if optimize then begin
        let c' = Tqec_circuit.Optimize.run c in
        Format.printf "peephole: %d gates cancelled@."
          (Tqec_circuit.Circuit.n_gates c - Tqec_circuit.Circuit.n_gates c');
        c'
      end
      else c
    in
    (* the peak after each stage, for the memory line *)
    let stage_rss = ref [] in
    let on_stage stage _ =
      stage_rss := (stage, Tqec_util.Stats.peak_rss_kb ()) :: !stage_rss
    in
    let r =
      let on_stage = if timings then Some on_stage else None in
      match Pipeline.run ~config ?on_stage c with
      | r -> r
      | exception Pipeline.Stage_failure { stage; message } ->
          die "%s stage failed: %s" stage message
    in
    (* the peak so far is the compile's; the memory line reads it again
       after the check *)
    let compile_rss = Tqec_util.Stats.peak_rss_kb () in
    if porcelain then print_endline (Pipeline.summary r)
    else begin
      let p = r.Pipeline.placement in
      Format.printf
        "%s: volume=%s (%dx%dx%d) modules=%d nodes=%d bridges=%d routed=%b \
         elapsed=%.2fs@."
        c.Tqec_circuit.Circuit.name
        (Tqec_util.Pretty.int_with_commas r.Pipeline.volume)
        p.Tqec_place.Placer.width p.Tqec_place.Placer.height
        p.Tqec_place.Placer.depth r.Pipeline.stages.Pipeline.st_modules
        r.Pipeline.stages.Pipeline.st_nodes
        r.Pipeline.stages.Pipeline.st_dual_bridges
        r.Pipeline.routing.Tqec_route.Pathfinder.success r.Pipeline.elapsed
    end;
    let issues = Tqec_verify.Violation.to_strings (Pipeline.verify r) in
    if timings then begin
      let after stage = Option.join (List.assoc_opt stage !stage_rss) in
      print_timings r
        ~peaks:
          [
            ("placement", after "placement");
            ("routing", after "routing");
            ("compile", compile_rss);
            ("check", Tqec_util.Stats.peak_rss_kb ());
          ]
    end;
    match issues with
    | [] -> ()
    | issues ->
        List.iter (Format.eprintf "warning: %s@.") issues;
        exit 1
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Run the bridge-compression flow.")
    Term.(const run $ input_arg $ pipeline_knobs () $ scale_arg $ optimize_arg
          $ timings_arg $ porcelain_arg)

let benchmarks_arg =
  let doc = "Restrict to the given benchmark names." in
  Arg.(value & opt_all string [] & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

(* Each table runs both the dual-only baseline and the full flow, so it
   takes every knob but the variant.  An unknown -b name or a --scale
   below 1 exits 2 before anything runs. *)
let table_cmd ?(man = []) name doc render =
  let run pipeline scale benchmarks =
    let config =
      {
        Experiments.pipeline;
        scale;
        auto_scale = Sys.getenv_opt "TQEC_FULLSIZE" = None;
        benchmarks = (if benchmarks = [] then Suite.names else benchmarks);
      }
    in
    match
      Experiments.validate ~scale_from:"--scale" ~benchmarks_from:"--benchmark"
        config
    with
    | Ok config -> print_string (render config)
    | Error msg -> die "%s" msg
  in
  Cmd.v (Cmd.info name ~doc ~man)
    Term.(
      const run
      $ pipeline_knobs ~only:(fun r -> r.Knobs.flag <> "variant") ()
      $ scale_arg $ benchmarks_arg)

let table1_cmd =
  table_cmd "table1" "Regenerate Table 1 (benchmark statistics)."
    (fun config -> Report.table1 (Experiments.run_all config))

let table2_cmd =
  table_cmd "table2" "Regenerate Table 2 (volume vs canonical and Lin [11])."
    (fun config -> Report.table2 (Experiments.run_all config))

let table3_cmd =
  table_cmd "table3" "Regenerate Table 3 (volume vs Hsu [10])."
    ~man:
      [
        `S Manpage.s_description;
        `P
          "The runtime cells are each row's wall time.  Compare them at \
           $(b,-j 1): at $(b,-j 2), rows that share one process have \
           read up to 31% slower, for a cause not yet confirmed.";
      ]
    (fun config -> Report.table3 (Experiments.run_all config))

let fig1_cmd =
  let run () = print_string (Report.fig1 (Experiments.fig1_series ())) in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Regenerate the Fig. 1 volume sequence.")
    Term.(const run $ const ())

let ablate_cmd =
  let scale_doc = "Instance scale divisor for the ablation studies." in
  let ablate_scale =
    Cmdliner.Arg.(value & opt int 8 & info [ "scale" ] ~docv:"K" ~doc:scale_doc)
  in
  let run scale = print_string (Tqec_compress.Ablation.run_default ~scale ()) in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Run the ablation studies (I-shape, flipping seeds, z_cap, effort).")
    Term.(const run $ ablate_scale)

let export_cmd =
  let out_arg =
    Cmdliner.Arg.(
      value & opt string "tqec.obj"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output OBJ path.")
  in
  let force_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Write the OBJ even when verification fails (the report is \
             still printed to stderr).")
  in
  let run input config scale out force =
    let c = load_circuit ~scale input in
    let r = Pipeline.run ~config c in
    (* Undocumented test hook: plant a fault after the run so the
       export-gate regression rule (bench/dune) can prove the gate
       actually refuses unsound results. *)
    let r =
      match Sys.getenv_opt "TQEC_EXPORT_FAULT" with
      | Some "volume" -> { r with Pipeline.volume = r.Pipeline.volume + 1 }
      | Some ("" | "0") | None -> r
      | Some other ->
          failwith (Printf.sprintf "unknown TQEC_EXPORT_FAULT %S" other)
    in
    (* Verify-on-export: never ship geometry the translation validator
       rejects.  --force downgrades the refusal to a warning. *)
    let report = Pipeline.verify r in
    if not (Tqec_verify.Violation.ok report) then begin
      prerr_string (Tqec_verify.Violation.render report);
      if force then
        Format.eprintf "export: result is UNSOUND; writing %s anyway (--force)@."
          out
      else begin
        Format.eprintf
          "export: refusing to write %s for an unsound result (use --force \
           to override)@."
          out;
        exit 1
      end
    end;
    let g = Tqec_compress.Emit.geometry r in
    Tqec_geom.Export.write_obj out g;
    Format.printf "wrote %s (%s; volume %s)@." out (Tqec_geom.Render.summary g)
      (Tqec_util.Pretty.int_with_commas r.Pipeline.volume)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Compress a circuit and export the geometry as Wavefront OBJ.  \
          The whole-pipeline translation validation runs first; an \
          unsound result is refused (non-zero exit) unless --force is \
          given.")
    Term.(const run $ input_arg $ pipeline_knobs () $ scale_arg $ out_arg
          $ force_arg)

let check_cmd =
  let stage_arg =
    let doc =
      "Verify only this stage (repeatable): icm, pd-graph, ishape, \
       flipping, dual-bridge, placement, routing or geometry.  Default: \
       all stages."
    in
    let parse s =
      match Tqec_verify.Violation.stage_of_string s with
      | Some st -> Ok st
      | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown stage %S (expected %s)" s
                 (String.concat "|" Tqec_verify.Violation.stage_names)))
    in
    let print ppf st =
      Format.pp_print_string ppf (Tqec_verify.Violation.stage_name st)
    in
    Arg.(
      value
      & opt_all (conv (parse, print)) []
      & info [ "s"; "stage" ] ~docv:"STAGE" ~doc)
  in
  let fingerprint_arg =
    let doc =
      "Also print the determinism fingerprint: a digest of the reported \
       volume, every node position/rotation and every routed cell.  Two \
       runs print the same line iff they agree on the full geometric \
       result, so build rules diff it across worker counts and \
       corridor-cache settings."
    in
    Arg.(value & flag & info [ "fingerprint" ] ~doc)
  in
  let run input config scale fingerprint stages =
    let c = load_circuit ~scale input in
    let r = Pipeline.run ~config c in
    let stages = match stages with [] -> None | ss -> Some ss in
    let report = Pipeline.verify ?stages r in
    Printf.printf "%s: volume=%s\n%s%!" c.Tqec_circuit.Circuit.name
      (Tqec_util.Pretty.int_with_commas r.Pipeline.volume)
      (Tqec_verify.Violation.render report);
    if fingerprint then
      Printf.printf "fingerprint: %s\n%!" (Pipeline.fingerprint r);
    if not (Tqec_verify.Violation.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the flow and the whole-pipeline translation validation: \
          every stage boundary's invariants are re-derived independently \
          and cross-checked.  Non-zero exit on any violation.")
    Term.(const run $ input_arg $ pipeline_knobs () $ scale_arg
          $ fingerprint_arg $ stage_arg)

(* ------------------------------------------------------------------ *)
(* serve / request                                                    *)
(* ------------------------------------------------------------------ *)

module Serve = Tqec_serve.Server
module Client = Tqec_serve.Client
module Protocol = Tqec_serve.Protocol

let socket_arg =
  let doc = "Unix-domain socket path of the serving daemon." in
  Arg.(
    value
    & opt string Serve.default_config.Serve.socket_path
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let capacity_arg =
    let doc =
      "Admission cap: cache-miss requests admitted but not yet answered.  \
       Beyond it, requests receive a structured busy response immediately."
    in
    Arg.(value & opt int Serve.default_config.Serve.capacity
         & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let cache_mb_arg =
    let doc = "Result-cache byte budget in MiB (0 disables caching)." in
    Arg.(value & opt int 16 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let max_jobs_arg =
    let doc = "Clamp on worker domains any single request may use." in
    Arg.(value & opt (some int) None & info [ "max-jobs" ] ~docv:"N" ~doc)
  in
  let verbose_arg =
    let doc = "Log requests (hits, misses, busy) on stderr." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let run socket capacity cache_mb max_jobs verbose =
    if capacity < 1 then die "--capacity must be >= 1";
    if cache_mb < 0 then die "--cache-mb must be >= 0";
    (* env-read: call-time capture at the CLI layer, like TQEC_DEBUG
       above — a test hook making overload deterministic, read once at
       daemon startup, never per request. *)
    let hold_ms =
      match Sys.getenv_opt "TQEC_SERVE_HOLD_MS" with
      | None -> 0
      | Some s -> (
          match int_of_string_opt s with
          | Some v when v >= 0 -> v
          | _ -> die "TQEC_SERVE_HOLD_MS must be a non-negative integer")
    in
    (* env-read: same CLI-layer startup capture — plants a pipeline
       Stage_failure so the smoke test can prove a compute-time
       exception answers as a structured error without killing the
       daemon. *)
    let fault = Sys.getenv_opt "TQEC_SERVE_FAULT" in
    let config =
      {
        Serve.socket_path = socket;
        capacity;
        cache_bytes = cache_mb * 1024 * 1024;
        max_jobs;
        hold_ms;
        fault;
        verbose;
      }
    in
    let s =
      try Serve.run config
      with Unix.Unix_error (e, _, arg) ->
        die "cannot serve on %s: %s %s" socket (Unix.error_message e) arg
    in
    Printf.printf
      "serve: done served=%d busy=%d errors=%d hits=%d misses=%d\n%!"
      s.Protocol.sv_served s.Protocol.sv_busy s.Protocol.sv_errors
      s.Protocol.sv_hits s.Protocol.sv_misses
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived compression daemon on a unix-domain socket.  \
          Results are cached by a canonical fingerprint of the decomposed \
          circuit plus the result-affecting knobs; served payloads are \
          byte-identical to $(b,tqecc compress --porcelain) for the same \
          input and knobs.  Overload yields structured busy responses, \
          never a crash.  Stop it with $(b,tqecc request --shutdown).")
    Term.(const run $ socket_arg $ capacity_arg $ cache_mb_arg $ max_jobs_arg
          $ verbose_arg)

let request_cmd =
  let input_arg =
    let doc =
      "Input circuit: a benchmark name (e.g. rd84_142), a tier-x<k> scale \
       tier, or a Clifford+T .qct fixture (sent inline).  RevLib .real \
       files are not accepted over the wire — decompose locally first."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)
  in
  let stats_flag =
    let doc = "Query the daemon's counters instead of compressing." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_flag =
    let doc = "Ask the daemon to shut down (after draining in-flight work)." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let verify_flag =
    let doc =
      "Ask the daemon to run the whole-pipeline translation validation \
       before answering; a violation comes back as a structured error."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let progress_flag =
    let doc = "Print streamed per-stage progress frames on stderr." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let run socket input config scale verify stats shutdown progress =
    let request =
      if stats then Protocol.Stats
      else if shutdown then Protocol.Shutdown
      else
        let name = match input with
          | Some name -> name
          | None -> die "missing CIRCUIT (or use --stats / --shutdown)"
        in
        check_scale name scale;
        let input =
          if
            Suite.find name <> None
            || Tqec_circuit.Generator.tier_of_name name <> None
          then Protocol.Named { name; scale }
          else if Sys.file_exists name then
            if Filename.check_suffix name ".qct" then
              let ic = open_in_bin name in
              let text =
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              Protocol.Qct
                {
                  name = Filename.remove_extension (Filename.basename name);
                  text;
                }
            else
              die
                "%S: only .qct fixtures can be sent inline (decompose .real \
                 files locally first)"
                name
          else
            die
              "unknown benchmark %S (not a suite name, not a tier-x<k> scale \
               tier, not a .qct file); suite: %s"
              name
              (String.concat ", " Suite.names)
        in
        let knobs = { (Protocol.knobs_of_config config) with verify } in
        Protocol.Compress { input; knobs }
    in
    let on_progress ~stage ~seconds =
      if progress then Printf.eprintf "[%-10s] %6.2fs\n%!" stage seconds
    in
    match Client.call ~socket ~on_progress request with
    | Protocol.Result { payload; cached; timings = _ } ->
        if cached then prerr_endline "request: served from cache";
        print_endline payload
    | Protocol.Busy { in_flight; capacity } ->
        Printf.eprintf "tqecc: server busy (in-flight=%d capacity=%d)\n"
          in_flight capacity;
        exit 3
    | Protocol.Failed { message } ->
        Printf.eprintf "tqecc: server error: %s\n" message;
        exit 1
    | Protocol.Stats_reply s ->
        Printf.printf
          "hits=%d misses=%d entries=%d bytes=%d served=%d busy=%d \
           errors=%d in-flight=%d capacity=%d\n"
          s.Protocol.sv_hits s.Protocol.sv_misses s.Protocol.sv_entries
          s.Protocol.sv_bytes s.Protocol.sv_served s.Protocol.sv_busy
          s.Protocol.sv_errors s.Protocol.sv_in_flight s.Protocol.sv_capacity
    | Protocol.Bye -> print_endline "bye"
    | Protocol.Progress _ -> die "protocol violation: progress as terminal frame"
    | exception Client.Connect_error m -> die "%s" m
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running $(b,tqecc serve) daemon and print \
          the result (exit 3 when the daemon refuses with busy).")
    Term.(const run $ socket_arg $ input_arg
          $ pipeline_knobs ~only:(fun r -> r.Knobs.wire <> None) ()
          $ scale_arg $ verify_flag $ stats_flag $ shutdown_flag
          $ progress_flag)

let render_cmd =
  let run input =
    let c = load_circuit input in
    let icm = Tqec_icm.Decompose.run (Tqec_circuit.Clifford_t.decompose c) in
    let g, _ = Tqec_geom.Canonical.build icm in
    print_endline (Tqec_geom.Render.summary g);
    if Tqec_geom.Geometry.volume g <= 4000 then
      print_string (Tqec_geom.Render.layers g)
    else print_endline "(too large to render; showing summary only)"
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Print the canonical geometric description.")
    Term.(const run $ input_arg)

let lint_cmd =
  let module Lint = Tqec_lint in
  let dirs_arg =
    let doc =
      "Directories to lint (every .ml file, recursively).  Defaults to \
       whichever of lib, test, bin, bench exist under the current \
       directory."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"DIR" ~doc)
  in
  let format_arg =
    let doc = "Report format: $(b,text) or $(b,json)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rule_arg =
    let doc =
      "Run only this rule (repeatable).  Default: the full catalog."
    in
    Arg.(value & opt_all string [] & info [ "rule" ] ~docv:"ID" ~doc)
  in
  let baseline_arg =
    let doc =
      "Waive the findings listed in $(docv) (one $(b,rule path:line \
       token) entry per line, # comments).  Stale entries are counted \
       in the report."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let list_rules_flag =
    let doc = "Print the rule catalog and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let jobs_arg =
    Term.(
      const (fun c -> c.Pipeline.jobs)
      $ knobs_term
          ~only:(fun r -> r.Knobs.flag = "jobs")
          (const env_defaults $ const [ "TQEC_JOBS" ]))
  in
  let run dirs format rule_ids baseline_path list_rules jobs =
    if list_rules then begin
      List.iter
        (fun (r : Lint.Rule.t) ->
          Printf.printf "%-10s [%s] %s (audit marker: %s)\n" r.Lint.Rule.r_id
            (Lint.Rule.severity_name r.Lint.Rule.r_severity)
            r.Lint.Rule.r_doc r.Lint.Rule.r_marker)
        Lint.Rules.all;
      exit 0
    end;
    let rules =
      match rule_ids with
      | [] -> Lint.Rules.all
      | ids ->
          List.map
            (fun id ->
              match Lint.Rules.find id with
              | Some r -> r
              | None ->
                  die "unknown rule %s (known: %s)" id
                    (String.concat ", " Lint.Rules.ids))
            ids
    in
    let dirs =
      match dirs with
      | [] ->
          List.filter Sys.file_exists [ "lib"; "test"; "bin"; "bench" ]
      | ds -> ds
    in
    if dirs = [] then die "no directories to lint";
    let baseline =
      match baseline_path with
      | None -> Lint.Engine.baseline_empty
      | Some path -> (
          match Lint.Engine.load_baseline path with
          | Ok b -> b
          | Error msg -> die "cannot read baseline: %s" msg)
    in
    let findings = Lint.Engine.lint_dirs ~jobs ~rules dirs in
    let kept, suppressed, unused =
      Lint.Engine.apply_baseline baseline findings
    in
    let files = List.concat_map Lint.Engine.ml_files dirs |> List.length in
    let summary =
      {
        Lint.Report.files;
        rules = List.map (fun (r : Lint.Rule.t) -> r.Lint.Rule.r_id) rules;
        suppressed;
        unused_baseline = unused;
      }
    in
    print_string
      (match format with
      | `Text -> Lint.Report.text summary kept
      | `Json -> Lint.Report.json summary kept);
    exit (if kept = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Token-accurate static analysis over the tree: partiality, \
          swallowed exceptions, wall-clock reads, hash-order and \
          environment dependence, unsafe primitives, and unsynchronized \
          mutation inside pool closures.  Exit 0 when clean, 1 with \
          findings, 2 on usage errors.")
    Term.(
      const run $ dirs_arg $ format_arg $ rule_arg $ baseline_arg
      $ list_rules_flag $ jobs_arg)

let () =
  let info =
    Cmd.info "tqecc" ~version:"1.0.0"
      ~doc:"Bridge-based primal/dual defect compression for TQEC circuits."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            stats_cmd; compress_cmd; check_cmd; table1_cmd; table2_cmd;
            table3_cmd; fig1_cmd; render_cmd; ablate_cmd; export_cmd;
            serve_cmd; request_cmd; lint_cmd;
          ]))
