(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, then times the flow's stages with Bechamel.

   Environment:
     TQEC_EFFORT = quick | normal | full   (default normal)
     TQEC_SCALE  = integer divisor for instance sizes (default 1)
     TQEC_SEED   = random seed (default 42)
     TQEC_BENCHMARKS = comma-separated subset of benchmark names
                   (default all eight)
     TQEC_JOBS   = parallelism for the suite fan-out; each instance's
                   inner stages (placement multi-start, routing
                   batches) run inline in its task, and fan out
                   themselves only when one instance runs
                   (default: the machine's domain count; 1 = serial)
     TQEC_RESTARTS = annealing trajectories per placement (default 1)
     TQEC_EARLY_STOP = adaptive multi-start early-stop margin
                   ("0.05" = 5%); "off" disables early stopping
     TQEC_PARTITION = node cap for divide-and-conquer placement
                   (unset keeps single-die annealing)
     The knob variables above (EFFORT, SEED, JOBS, RESTARTS,
     EARLY_STOP, PARTITION) go through the knob table's parsers
     (Tqec_compress.Knobs), and SCALE and BENCHMARKS through
     Experiments.validate; a value they reject exits 2 naming the
     variable (an unknown benchmark also lists the suite names).
     TQEC_SCALE_TIER = 1 to run the scale-tier sweep instead of the
                   paper tables: tier-x<f> instances through the full
                   pipeline, each once with the corridor cache off and
                   once on, one row per (factor, cache) with sparse-grid
                   occupancy, router counters, peak RSS and wall time;
                   also writes the machine-readable BENCH_scale.json
     TQEC_TIER_FACTORS = comma-separated tier factors (default 1,2,4)
     TQEC_TIER_CORRIDOR = corridor threshold (cells) for the sweep
                   (default 64: low enough that the hierarchical
                   corridor router carries tier-x1 already)
     TQEC_TIER_REPS = wall-time repetitions per (factor, cache) pair;
                   the sweep reports the minimum (default 1; use 3+
                   when recording curves, host jitter swamps the
                   cache delta on single runs)
     TQEC_SCALE_JSON = output path for the sweep's JSON report
                   (default BENCH_scale.json)
     TQEC_BENCH_STAGES = 0 to skip the Bechamel stage timings
     TQEC_CHECK_MULTISTART = 1 to cross-check the adaptive multi-start
                   determinism contract (restarts=4, early stopping on,
                   jobs=1 vs jobs=4 must give identical placements);
                   exits non-zero on a mismatch
     TQEC_CHECK_NESTED = 1 to cross-check determinism of the fully
                   nested workload (suite instances x annealing
                   restarts x routing batches): jobs=1 and jobs=4
                   suite rows must agree bit for bit *)

module Suite = Tqec_circuit.Suite
module Experiments = Tqec_compress.Experiments
module Report = Tqec_compress.Report
module Pipeline = Tqec_compress.Pipeline
module Baselines = Tqec_compress.Baselines
module Knobs = Tqec_compress.Knobs

let config () =
  let pipeline = { Knobs.defaults with effort = Tqec_place.Placer.Normal } in
  match Experiments.config_from_env ~pipeline () with
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2
  | Ok config -> config

let rss_cell () =
  match Tqec_util.Stats.peak_rss_kb () with
  | Some kb when kb >= 1024 -> Printf.sprintf "%.1f MB" (float_of_int kb /. 1024.)
  | Some kb -> Printf.sprintf "%d kB" kb
  | None -> "n/a"

(* ------------------------------------------------------------------ *)
(* Scale tiers: memory / wall-time curves beyond the paper suite       *)
(* ------------------------------------------------------------------ *)

(* TQEC_SCALE_TIER=1 switches the harness to the scaling sweep: the
   synthetic tier-x<f> family (Generator.scale_tier) through the full
   pipeline, each factor once with the corridor cache disabled and once
   enabled, one row per (factor, cache) with the sparse routing grid's
   occupancy, the router's cache/search counters, peak RSS and wall
   time.  The touched-cell column against the bounding-box column is
   the sparse-grid memory claim (grid memory scales with routed volume,
   not substrate volume); the cache-off/cache-on wall pair with the hit
   counter is the corridor-reuse claim.  The corridor threshold is
   forced low (TQEC_TIER_CORRIDOR, default 64 cells) so the
   hierarchical router — and with it the cache — carries the routing
   traffic from tier-x1 up.  Both runs of a factor must produce the
   same pipeline fingerprint (the cache is pure memoization); a
   mismatch fails the sweep.  TQEC_TIER_FACTORS picks the factors
   (default "1,2,4").  The sweep also writes BENCH_scale.json
   (TQEC_SCALE_JSON) for build rules and plotting. *)
let run_scale_tiers (config : Experiments.config) =
  let module Counters = Tqec_route.Counters in
  let module Json = Tqec_serve.Json in
  let factors =
    match Sys.getenv_opt "TQEC_TIER_FACTORS" with
    | Some s ->
        String.split_on_char ',' s
        |> List.filter_map (fun t -> int_of_string_opt (String.trim t))
        |> List.filter (fun f -> f >= 1)
    | None -> [ 1; 2; 4 ]
  in
  let factors = if factors = [] then [ 1 ] else factors in
  let corridor =
    match Sys.getenv_opt "TQEC_TIER_CORRIDOR" with
    | Some s -> ( match int_of_string_opt s with Some v when v >= 0 -> v | _ -> 64)
    | None -> 64
  in
  (* Wall-time repetitions per (factor, cache) pair.  A single pipeline
     run's wall time carries the host's scheduling jitter — several
     percent on a busy box, easily swamping the cache's effect — so the
     recorded curves take the minimum over [reps] runs (the standard
     low-noise estimator for a deterministic workload).  Counters and
     fingerprints are deterministic across reps and are taken from the
     last run; CI keeps reps = 1 for speed. *)
  let reps =
    match Sys.getenv_opt "TQEC_TIER_REPS" with
    | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 1)
    | None -> 1
  in
  let pipeline = config.Experiments.pipeline in
  let pipeline_config corridor_cache =
    { pipeline with Pipeline.corridor_cells = Some corridor; corridor_cache }
  in
  let t =
    Tqec_util.Pretty.create
      [ "tier"; "cache"; "modules"; "nodes"; "volume"; "grid cells"; "touched";
        "touched%"; "hits"; "misses"; "stale"; "coarse"; "fine"; "flat";
        "peak RSS"; "wall" ]
  in
  let counters_json (s : Counters.stats) wall =
    Json.Obj
      [
        ("wall_s", Json.Float wall);
        ("cache_hits", Json.Int s.Counters.cache_hits);
        ("cache_misses", Json.Int s.Counters.cache_misses);
        ("cache_stale", Json.Int s.Counters.cache_stale);
        ("coarse_searches", Json.Int s.Counters.coarse_searches);
        ("fine_searches", Json.Int s.Counters.fine_searches);
        ("flat_searches", Json.Int s.Counters.flat_searches);
        ("flat_fallbacks", Json.Int s.Counters.flat_fallbacks);
        ("scratch_grows", Json.Int s.Counters.scratch_grows);
      ]
  in
  let tier_rows =
    List.map
      (fun f ->
        let c = Tqec_circuit.Generator.scale_tier ~factor:f () in
        Printf.eprintf "[bench] running tier-x%d (%d gates, %d wires)...\n%!" f
          (Tqec_circuit.Circuit.n_gates c) c.Tqec_circuit.Circuit.n_qubits;
        let run_once corridor_cache =
          Counters.reset ();
          let r = Pipeline.run ~config:(pipeline_config corridor_cache) c in
          (r, Counters.stats ())
        in
        (* Interleave the off/on repetitions (off, on, off, on, ...)
           instead of running each block back to back: host throughput
           drifts over the minutes a large tier takes, and pairing the
           runs keeps the drift out of the off-vs-on comparison. *)
        let best_off = ref infinity and best_on = ref infinity in
        let last_off = ref None and last_on = ref None in
        for _ = 1 to reps do
          let ((r, _) as m) = run_once false in
          if r.Pipeline.elapsed < !best_off then best_off := r.Pipeline.elapsed;
          last_off := Some m;
          let ((r, _) as m) = run_once true in
          if r.Pipeline.elapsed < !best_on then best_on := r.Pipeline.elapsed;
          last_on := Some m
        done;
        let finish last best =
          match !last with
          | Some (r, s) -> ({ r with Pipeline.elapsed = !best }, s)
          | None -> assert false
        in
        let r_off, s_off = finish last_off best_off in
        let r_on, s_on = finish last_on best_on in
        if Pipeline.fingerprint r_on <> Pipeline.fingerprint r_off then begin
          Printf.eprintf
            "[bench] FAIL: tier-x%d fingerprint differs between corridor \
             cache off and on\n%!"
            f;
          exit 1
        end;
        let module Grid = Tqec_route.Grid in
        let m = r_on.Pipeline.grid_mem in
        let touched_pct =
          100.
          *. float_of_int m.Grid.mem_touched_cells
          /. float_of_int (max 1 m.Grid.mem_cells)
        in
        Printf.eprintf
          "[bench]   tier-x%d: volume=%d grid=%d cells touched=%d (%.1f%%) \
           rss=%s wall=%.1fs/%.1fs (cache off/on) hits=%d\n%!"
          f r_on.Pipeline.volume m.Grid.mem_cells m.Grid.mem_touched_cells
          touched_pct (rss_cell ()) r_off.Pipeline.elapsed
          r_on.Pipeline.elapsed s_on.Counters.cache_hits;
        let add_row label (r : Pipeline.t) (s : Counters.stats) =
          Tqec_util.Pretty.add_row t
            [
              Printf.sprintf "tier-x%d" f;
              label;
              string_of_int r.Pipeline.stages.Pipeline.st_modules;
              string_of_int r.Pipeline.stages.Pipeline.st_nodes;
              Tqec_util.Pretty.int_with_commas r.Pipeline.volume;
              Tqec_util.Pretty.int_with_commas m.Grid.mem_cells;
              Tqec_util.Pretty.int_with_commas m.Grid.mem_touched_cells;
              Printf.sprintf "%.1f%%" touched_pct;
              string_of_int s.Counters.cache_hits;
              string_of_int s.Counters.cache_misses;
              string_of_int s.Counters.cache_stale;
              string_of_int s.Counters.coarse_searches;
              string_of_int s.Counters.fine_searches;
              string_of_int s.Counters.flat_searches;
              rss_cell ();
              Printf.sprintf "%.1fs" r.Pipeline.elapsed;
            ]
        in
        add_row "off" r_off s_off;
        add_row "on" r_on s_on;
        Json.Obj
          [
            ("tier", Json.Int f);
            ("modules", Json.Int r_on.Pipeline.stages.Pipeline.st_modules);
            ("nodes", Json.Int r_on.Pipeline.stages.Pipeline.st_nodes);
            ("volume", Json.Int r_on.Pipeline.volume);
            ("grid_cells", Json.Int m.Grid.mem_cells);
            ("touched_cells", Json.Int m.Grid.mem_touched_cells);
            ("fingerprint", Json.String (Pipeline.fingerprint r_on));
            ("cache_off", counters_json s_off r_off.Pipeline.elapsed);
            ("cache_on", counters_json s_on r_on.Pipeline.elapsed);
          ])
      factors
  in
  print_string
    "Scale tiers (sparse-grid occupancy, router counters, peak RSS, wall \
     time; corridor cache off vs on):\n";
  Tqec_util.Pretty.print t;
  let report =
    Json.Obj
      [
        ("schema", Json.String "tqec-bench-scale/1");
        ("effort", Json.String (Knobs.effort_name pipeline.Pipeline.effort));
        ("seed", Json.Int pipeline.Pipeline.seed);
        ("corridor_cells", Json.Int corridor);
        ("reps", Json.Int reps);
        ("tiers", Json.List tier_rows);
      ]
  in
  let path =
    Option.value ~default:"BENCH_scale.json" (Sys.getenv_opt "TQEC_SCALE_JSON")
  in
  let oc = open_out path in
  output_string oc (Json.to_string report);
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "[bench] wrote %s\n%!" path

let regenerate_tables config =
  let entries =
    Suite.all
    |> List.filter (fun (e : Suite.entry) ->
           List.mem e.Suite.spec.Tqec_circuit.Generator.name
             config.Experiments.benchmarks)
    |> Array.of_list
  in
  (* Instances fan out across domains (TQEC_JOBS); per-instance progress
     lines may interleave, but the rows come back in suite order so the
     tables are identical to a serial run. *)
  let t0 = Unix.gettimeofday () in
  let rows =
    Tqec_util.Pool.map ?jobs:config.Experiments.pipeline.Pipeline.jobs
      (fun (e : Suite.entry) ->
        let name = e.Suite.spec.Tqec_circuit.Generator.name in
        Printf.eprintf "[bench] running %s...\n%!" name;
        let row = Experiments.run_benchmark config e in
        Printf.eprintf
          "[bench]   %s: canonical=%d dual-only=%d ours=%d (%.1fs + %.1fs, \
           rss=%s)\n%!"
          name row.Report.r_canonical row.Report.r_dual_only row.Report.r_ours
          row.Report.r_dual_only_runtime row.Report.r_ours_runtime
          (rss_cell ());
        row)
      entries
    |> Array.to_list
  in
  Printf.eprintf "[bench] suite wall-clock: %.1fs (jobs=%s, rss=%s)\n%!"
    (Unix.gettimeofday () -. t0)
    (match config.Experiments.pipeline.Pipeline.jobs with
    | Some j -> string_of_int j
    | None -> "auto")
    (rss_cell ());
  print_string (Report.table1 rows);
  print_newline ();
  print_string (Report.table2 rows);
  print_newline ();
  print_string (Report.table3 rows);
  print_newline ();
  Printf.eprintf "[bench] running Figure 1 series...\n%!";
  print_string (Report.fig1 (Experiments.fig1_series ()));
  print_newline ();
  print_string (Report.summary rows)

(* ------------------------------------------------------------------ *)
(* Adaptive multi-start determinism cross-check                        *)
(* ------------------------------------------------------------------ *)

(* The determinism contract behind adaptive early stopping: a placement
   with restarts=4 and early stopping enabled is a pure function of
   (seed, restarts) — jobs=1 and jobs=4 must agree on the best cost and
   the full geometry.  Run on every `dune runtest` via @bench-smoke. *)
let check_multistart () =
  let module Placer = Tqec_place.Placer in
  let module Sa = Tqec_place.Sa in
  let entry = List.hd Suite.all (* 4gt10-v1_81, the smallest *) in
  let circuit = Suite.scaled ~factor:16 entry in
  let icm =
    Tqec_icm.Decompose.run (Tqec_circuit.Clifford_t.decompose circuit)
  in
  let g = Tqec_pdgraph.Pd_graph.of_icm icm in
  ignore (Tqec_pdgraph.Ishape.run g);
  let time_sms = Tqec_place.Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter
    (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms)
    time_sms;
  let flipping = Tqec_pdgraph.Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Tqec_pdgraph.Dual_bridge.run g in
  let fvalue = Tqec_pdgraph.Fvalue.plan flipping in
  let place jobs =
    let config =
      {
        Placer.default_config with
        effort = Placer.Quick;
        seed = 42;
        restarts = 4;
        jobs = Some jobs;
        early_stop_margin = Some 0.05;
        partition = None;
      }
    in
    Placer.place ~config g flipping dual fvalue
  in
  let a = place 1 in
  let b = place 4 in
  let same =
    a.Placer.sa_stats.Sa.best_cost = b.Placer.sa_stats.Sa.best_cost
    && a.Placer.sa_stats.Sa.attempted = b.Placer.sa_stats.Sa.attempted
    && a.Placer.node_pos = b.Placer.node_pos
    && a.Placer.rotated = b.Placer.rotated
    && (a.Placer.width, a.Placer.height, a.Placer.depth)
       = (b.Placer.width, b.Placer.height, b.Placer.depth)
  in
  if not same then begin
    Printf.eprintf
      "[bench] FAIL: adaptive multi-start placement differs between jobs=1 \
       and jobs=4 (best %g vs %g, attempted %d vs %d)\n%!"
      a.Placer.sa_stats.Sa.best_cost b.Placer.sa_stats.Sa.best_cost
      a.Placer.sa_stats.Sa.attempted b.Placer.sa_stats.Sa.attempted;
    exit 1
  end;
  Printf.eprintf
    "[bench] multi-start determinism ok (restarts=4, early-stop 0.05, jobs 1 \
     vs 4: best=%g attempted=%d)\n%!"
    a.Placer.sa_stats.Sa.best_cost a.Placer.sa_stats.Sa.attempted

(* ------------------------------------------------------------------ *)
(* Nested-workload determinism cross-check                             *)
(* ------------------------------------------------------------------ *)

(* The full nesting that must stay deterministic: suite instances fan
   out as tasks, and inside each one the annealing restarts and every
   routing iteration's net batch call [Pool.map] again, which runs
   inline on the instance's domain.  Rows (minus wall clock) must be a
   pure function of (seed, restarts): jobs=1 and jobs=4 agree bit for
   bit.  Run on every `dune runtest` via @bench-smoke. *)
let check_nested () =
  let run jobs =
    Experiments.run_all
      {
        Experiments.pipeline =
          {
            Knobs.defaults with
            restarts = 2;
            jobs = Some jobs;
            early_stop_margin = Some 0.05;
          };
        auto_scale = false;
        scale = 16;
        benchmarks = [ "4gt10-v1_81"; "4gt4-v0_73" ];
      }
    |> List.map (fun (r : Report.row) ->
           (* strip wall-clock fields; everything else must match *)
           ( r.Report.r_name,
             r.Report.r_stats,
             r.Report.r_modules,
             r.Report.r_nodes,
             r.Report.r_canonical,
             r.Report.r_lin1d,
             r.Report.r_lin2d,
             r.Report.r_dual_only,
             r.Report.r_ours,
             r.Report.r_scale ))
  in
  let a = run 1 in
  let b = run 4 in
  if a <> b then begin
    Printf.eprintf
      "[bench] FAIL: nested suite x restarts x routing run differs between \
       jobs=1 and jobs=4\n%!";
    exit 1
  end;
  Printf.eprintf
    "[bench] nested determinism ok (2 instances x 2 restarts x routed \
     batches, jobs 1 vs 4: %s)\n%!"
    (String.concat ", "
       (List.map
          (fun (name, _, _, _, _, _, _, _, ours, _) ->
            Printf.sprintf "%s ours=%d" name ours)
          a))

(* ------------------------------------------------------------------ *)
(* Bechamel stage timings                                              *)
(* ------------------------------------------------------------------ *)

let stage_tests () =
  let open Bechamel in
  let entry = List.hd Suite.all (* 4gt10-v1_81, the smallest *) in
  let circuit = Suite.circuit entry in
  let clifford = Tqec_circuit.Clifford_t.decompose circuit in
  let icm = Tqec_icm.Decompose.run clifford in
  let graph () =
    let g = Tqec_pdgraph.Pd_graph.of_icm icm in
    ignore (Tqec_pdgraph.Ishape.run g);
    g
  in
  let small_icm = Tqec_icm.Decompose.run Suite.three_cnot_example in
  Test.make_grouped ~name:"stages"
  [
    (* Table 1 machinery: decomposition and PD-graph statistics. *)
    Test.make ~name:"table1/decompose+stats"
      (Staged.stage (fun () ->
           let icm = Tqec_icm.Decompose.run clifford in
           ignore (Tqec_icm.Icm.stats icm)));
    Test.make ~name:"table1/pd-graph+ishape"
      (Staged.stage (fun () -> ignore (graph ())));
    Test.make ~name:"table1/flipping"
      (Staged.stage (fun () ->
           let g = graph () in
           ignore (Tqec_pdgraph.Flipping.run g)));
    (* Table 2 baselines. *)
    Test.make ~name:"table2/canonical"
      (Staged.stage (fun () -> ignore (Baselines.canonical_volume icm)));
    Test.make ~name:"table2/lin-1d"
      (Staged.stage (fun () -> ignore (Baselines.lin_1d icm)));
    Test.make ~name:"table2/lin-2d"
      (Staged.stage (fun () -> ignore (Baselines.lin_2d icm)));
    (* Table 3 pipelines on the Fig. 1 example (full pipelines on suite
       instances are measured by the table run above). *)
    Test.make ~name:"table3/pipeline-dual-only"
      (Staged.stage (fun () ->
           ignore
             (Pipeline.run_icm
                ~config:
                  {
                    Pipeline.default_config with
                    variant = Pipeline.Dual_only;
                    effort = Tqec_place.Placer.Quick;
                  }
                small_icm)));
    Test.make ~name:"table3/pipeline-full"
      (Staged.stage (fun () ->
           ignore
             (Pipeline.run_icm
                ~config:
                  {
                    Pipeline.default_config with
                    effort = Tqec_place.Placer.Quick;
                  }
                small_icm)));
    (* Fig. 1 canonical geometry + braiding machinery. *)
    Test.make ~name:"fig1/canonical-geometry"
      (Staged.stage (fun () -> ignore (Tqec_geom.Canonical.build small_icm)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances (stage_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Stage timings (Bechamel, monotonic clock):";
  let t = Tqec_util.Pretty.create [ "stage"; "time/run" ] in
  let rows = ref [] in
  (* hash-order: rows are sorted by name before printing *)
  Hashtbl.iter
    (fun name result ->
      let cell =
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
        | _ -> "n/a"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Tqec_util.Pretty.add_row t [ name; cell ])
    (List.sort compare !rows);
  Tqec_util.Pretty.print t

let () =
  let config = config () in
  if Sys.getenv_opt "TQEC_CHECK_MULTISTART" = Some "1" then
    check_multistart ();
  if Sys.getenv_opt "TQEC_CHECK_NESTED" = Some "1" then check_nested ();
  if Sys.getenv_opt "TQEC_SCALE_TIER" = Some "1" then begin
    run_scale_tiers config;
    exit 0
  end;
  Printf.printf
    "TQEC bridge-compression benchmark harness (effort=%s, scale=%d)\n\n"
    (Knobs.effort_name config.Experiments.pipeline.Pipeline.effort)
    config.Experiments.scale;
  regenerate_tables config;
  if Sys.getenv_opt "TQEC_BENCH_STAGES" <> Some "0" then begin
    print_newline ();
    run_bechamel ()
  end
