(* Integration tests for the full pipeline, baselines, reports and
   experiment harness. *)

open Tqec_circuit
open Tqec_compress

let violations r = Tqec_verify.Violation.to_strings (Pipeline.verify r)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let quick variant =
  { Pipeline.default_config with variant; effort = Tqec_place.Placer.Quick }

let three_cnot_icm () = Tqec_icm.Decompose.run Suite.three_cnot_example

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_pipeline_three_cnot_all_variants () =
  let icm = three_cnot_icm () in
  List.iter
    (fun variant ->
      let r = Pipeline.run_icm ~config:(quick variant) icm in
      check Alcotest.bool "routed" true r.Pipeline.routing.Tqec_route.Pathfinder.success;
      check Alcotest.bool "volume positive" true (r.Pipeline.volume > 0);
      check Alcotest.(list string) "checks clean" [] (violations r))
    [ Pipeline.Full; Pipeline.Dual_only; Pipeline.Modular_only ]

(* The pipeline's acyclicity gate: a cyclic constraint DAG must surface
   as Stage_failure at the icm stage, never as a bare exception. *)
let test_pipeline_rejects_cyclic_icm () =
  let icm =
    Tqec_icm.Decompose.run
      (Circuit.make ~name:"cyc" ~n_qubits:1 [ Gate.T 0; Gate.T 0 ])
  in
  let gadgets = icm.Tqec_icm.Icm.t_gadgets in
  let g0 = gadgets.(0) and g1 = gadgets.(1) in
  let stolen = List.hd g0.Tqec_icm.Icm.t_second_meas in
  gadgets.(1) <-
    {
      g1 with
      Tqec_icm.Icm.t_second_meas =
        stolen :: List.tl g1.Tqec_icm.Icm.t_second_meas;
    };
  match Pipeline.run_icm ~config:(quick Pipeline.Full) icm with
  | _ -> Alcotest.fail "cyclic ICM accepted"
  | exception Pipeline.Stage_failure { stage; message } ->
      check Alcotest.string "stage" "icm" stage;
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "message says cyclic" true
        (contains message "cyclic")

let test_pipeline_full_beats_dual_only () =
  (* On the 3-CNOT example the full flow must compress at least as well
     as dual-only bridging. *)
  let icm = three_cnot_icm () in
  let full = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
  let dual = Pipeline.run_icm ~config:(quick Pipeline.Dual_only) icm in
  check Alcotest.bool "full <= dual-only" true
    (full.Pipeline.volume <= dual.Pipeline.volume)

let test_pipeline_gate_decomposition_entry () =
  (* run accepts reversible circuits and lowers them first *)
  let c =
    Circuit.make ~name:"tof" ~n_qubits:3
      [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  let r = Pipeline.run ~config:(quick Pipeline.Full) c in
  let s = Tqec_icm.Icm.stats r.Pipeline.icm in
  check Alcotest.int "7 A states" 7 s.Tqec_icm.Icm.s_a;
  check Alcotest.bool "routed" true r.Pipeline.routing.Tqec_route.Pathfinder.success

let test_pipeline_stage_stats () =
  let icm = three_cnot_icm () in
  let r = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
  let st = r.Pipeline.stages in
  check Alcotest.int "modules" 6 st.Pipeline.st_modules;
  check Alcotest.int "ishape merges" 3 st.Pipeline.st_ishape_merges;
  check Alcotest.int "nets" 3 st.Pipeline.st_nets;
  check Alcotest.int "one dual bridge" 1 st.Pipeline.st_dual_bridges;
  check Alcotest.bool "nodes positive" true (st.Pipeline.st_nodes > 0)

let test_pipeline_deterministic () =
  let icm = three_cnot_icm () in
  let a = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
  let b = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
  check Alcotest.int "same volume" a.Pipeline.volume b.Pipeline.volume

let prop_pipeline_sound_on_random =
  QCheck.Test.make ~name:"pipeline sound on random circuits" ~count:8
    (QCheck.int_range 1 300)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:3 ~n_gates:15 in
      let r = Pipeline.run ~config:(quick Pipeline.Full) c in
      r.Pipeline.routing.Tqec_route.Pathfinder.success
      && violations r = [])

let prop_full_never_worse_than_modular =
  QCheck.Test.make ~name:"bridging never hurts vs modular placement"
    ~count:6
    (QCheck.int_range 1 100)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:3 ~n_gates:12 in
      let icm = Tqec_icm.Decompose.run c in
      if Array.length icm.Tqec_icm.Icm.cnots < 2 then true
      else
        let full = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
        let modular =
          Pipeline.run_icm ~config:(quick Pipeline.Modular_only) icm
        in
        (* at toy scale routing noise can dominate; bridging must never
           be catastrophically worse than plain modular placement *)
        float_of_int full.Pipeline.volume
        <= 1.6 *. float_of_int modular.Pipeline.volume)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_canonical_matches_paper_all_rows () =
  (* canonical closed form equals the paper's Table 2 for all 8 rows
     (statistics identities make this exact) *)
  List.iter
    (fun (e : Suite.entry) ->
      let icm =
        Tqec_icm.Decompose.run (Clifford_t.decompose (Suite.circuit e))
      in
      check Alcotest.int
        (e.Suite.spec.Generator.name ^ " canonical")
        e.Suite.paper.Suite.p_canonical
        (Baselines.canonical_volume icm))
    [ List.nth Suite.all 0; List.nth Suite.all 4 ]

let test_lin_between_canonical_and_zero () =
  let icm =
    Tqec_icm.Decompose.run
      (Clifford_t.decompose (Suite.circuit (List.nth Suite.all 0)))
  in
  let canonical = Baselines.canonical_volume icm in
  let l1 = Baselines.lin_1d icm and l2 = Baselines.lin_2d icm in
  check Alcotest.bool "lin1d <= canonical" true (l1.Baselines.l_volume <= canonical);
  check Alcotest.bool "lin2d <= lin1d" true
    (l2.Baselines.l_volume <= l1.Baselines.l_volume);
  check Alcotest.bool "positive" true (l2.Baselines.l_volume > 0)

let test_lin_respects_dependencies () =
  (* serial chain: every CNOT shares a line with the next -> steps =
     #CNOTs regardless of conflicts *)
  let c =
    Circuit.make ~name:"chain" ~n_qubits:4
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 2 };
        Gate.Cnot { control = 2; target = 3 };
      ]
  in
  let icm = Tqec_icm.Decompose.run c in
  check Alcotest.int "serial steps" 3 (Baselines.lin_1d icm).Baselines.l_steps

let test_lin_parallelizes_disjoint () =
  (* distant disjoint CNOTs share a step; a touching one and a dependent
     one serialize: 4 gates in 3 steps *)
  let c =
    Circuit.make ~name:"par" ~n_qubits:7
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 5; target = 6 };
        Gate.Cnot { control = 2; target = 3 };
        Gate.Cnot { control = 3; target = 4 };
      ]
  in
  let icm = Tqec_icm.Decompose.run c in
  check Alcotest.int "three steps" 3 (Baselines.lin_1d icm).Baselines.l_steps

let test_lin_adjacent_conflict () =
  (* touching intervals may not share a step (one-unit separation) *)
  let c =
    Circuit.make ~name:"touch" ~n_qubits:4
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 2; target = 3 };
      ]
  in
  let icm = Tqec_icm.Decompose.run c in
  check Alcotest.int "separated steps" 2 (Baselines.lin_1d icm).Baselines.l_steps

(* Cross-module invariants. *)

let prop_lin_steps_at_least_depth =
  QCheck.Test.make
    ~name:"Lin 1D steps >= ICM dependency depth (conflicts only add)"
    ~count:25
    (QCheck.int_range 1 2000)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:4 ~n_gates:25 in
      let icm = Tqec_icm.Decompose.run c in
      (Baselines.lin_1d icm).Baselines.l_steps
      >= (Tqec_icm.Schedule.asap icm).Tqec_icm.Schedule.depth)

let prop_volume_covers_boxes =
  QCheck.Test.make
    ~name:"pipeline volume >= total distillation box volume" ~count:8
    (QCheck.int_range 1 400)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:3 ~n_gates:10 in
      let icm = Tqec_icm.Decompose.run c in
      let s = Tqec_icm.Icm.stats icm in
      let boxes = (18 * s.Tqec_icm.Icm.s_y) + (192 * s.Tqec_icm.Icm.s_a) in
      let r = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
      r.Pipeline.volume >= boxes)

let prop_canonical_upper_bounds_lin =
  QCheck.Test.make ~name:"lin volumes never exceed canonical" ~count:20
    (QCheck.int_range 1 2000)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:5 ~n_gates:30 in
      let icm = Tqec_icm.Decompose.run c in
      let canonical = Baselines.canonical_volume icm in
      (Baselines.lin_1d icm).Baselines.l_volume <= canonical
      && (Baselines.lin_2d icm).Baselines.l_volume <= canonical)

(* ------------------------------------------------------------------ *)
(* Report / Experiments                                                *)
(* ------------------------------------------------------------------ *)

let test_fig1_series_monotone () =
  let series = Experiments.fig1_series () in
  check Alcotest.int "four configurations" 4 (List.length series);
  let volumes = List.map (fun (_, v, _) -> v) series in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "monotone decreasing" true (non_increasing volumes)

let test_report_rendering () =
  let config =
    {
      Experiments.pipeline = { Knobs.defaults with jobs = Some 1 };
      scale = 16;
      auto_scale = false;
      benchmarks = [ "4gt10-v1_81" ];
    }
  in
  let rows = Experiments.run_all config in
  check Alcotest.int "one row" 1 (List.length rows);
  let t1 = Report.table1 rows in
  let t2 = Report.table2 rows in
  let t3 = Report.table3 rows in
  check Alcotest.bool "t1 mentions benchmark" true
    (String.length t1 > 0 && String.length t2 > 0 && String.length t3 > 0);
  let row = List.hd rows in
  check Alcotest.bool "ours <= dual-only (scaled)" true
    (row.Report.r_ours <= (11 * row.Report.r_dual_only / 10))

let test_midsize_benchmark_soundness () =
  (* an end-to-end soundness pass at a few hundred modules: placement
     legality, routing connectivity, emitted-geometry validity *)
  let e = List.hd Suite.all in
  let c = Suite.scaled ~factor:4 e in
  let icm = Tqec_icm.Decompose.run (Clifford_t.decompose c) in
  let r = Pipeline.run_icm ~config:(quick Pipeline.Full) icm in
  check Alcotest.bool "routed" true r.Pipeline.routing.Tqec_route.Pathfinder.success;
  check Alcotest.(list string) "pipeline checks" [] (violations r);
  check Alcotest.int "emit geometry issues" 0 (List.length (Emit.check r));
  check Alcotest.bool "emit volume consistent" true (Emit.volume_consistent r)

let test_summary_mentions_paper () =
  let config =
    {
      Experiments.pipeline = { Knobs.defaults with jobs = Some 1 };
      scale = 16;
      auto_scale = false;
      benchmarks = [ "4gt10-v1_81" ];
    }
  in
  let rows = Experiments.run_all config in
  let s = Report.summary rows in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "mentions paper ratios" true (contains "24.04");
  check Alcotest.bool "mentions reduction" true (contains "47.4")

let test_config_from_env_defaults () =
  match Experiments.config_from_env () with
  | Ok c ->
      check Alcotest.int "eight benchmarks" 8
        (List.length c.Experiments.benchmarks)
  | Error m -> Alcotest.fail m

(* One validator per knob: a variable its row rejects is an error naming
   the variable, never a silent fallback.  The stdlib has no unsetenv,
   so each variable is restored to its row's printed default, which the
   round-trip property below makes equivalent to unset; TQEC_SCALE and
   TQEC_BENCHMARKS, which are not knob rows, go back to 1 and to the
   whole suite.  The selection check the table commands share names
   their -b flag the same way. *)
let test_config_from_env_rejects () =
  let unset_value var =
    match var with
    | "TQEC_SCALE" -> Some "1"
    | "TQEC_BENCHMARKS" -> Some (String.concat "," Suite.names)
    | _ ->
        List.find_map
          (fun (r : Knobs.row) ->
            if r.Knobs.env = Some var then Some (r.Knobs.print Knobs.defaults)
            else None)
          Knobs.rows
  in
  List.iter
    (fun (var, bad) ->
      let previous = Sys.getenv_opt var in
      Unix.putenv var bad;
      let result = Experiments.config_from_env () in
      Unix.putenv var
        (Option.value previous
           ~default:(Option.value (unset_value var) ~default:""));
      match result with
      | Ok _ -> Alcotest.failf "%s=%s accepted" var bad
      | Error m ->
          check Alcotest.bool (var ^ " named") true
            (String.starts_with ~prefix:var m))
    [
      ("TQEC_PARTITION", "0");
      ("TQEC_EARLY_STOP", "-0.5");
      ("TQEC_RESTARTS", "0");
      ("TQEC_SEED", "-1");
      ("TQEC_EFFORT", "fast");
      ("TQEC_BENCHMARKS", "nosuch");
      ("TQEC_BENCHMARKS", "4gt10-v1_81,nosuch");
      ("TQEC_SCALE", "0");
      ("TQEC_SCALE", "abc");
    ];
  (match Experiments.config_from_env () with
  | Ok c -> check Alcotest.int "selection restored" 1 c.Experiments.scale
  | Error m -> Alcotest.fail m);
  match
    Experiments.validate ~scale_from:"--scale" ~benchmarks_from:"--benchmark"
      {
        Experiments.pipeline = Knobs.defaults;
        scale = 1;
        auto_scale = false;
        benchmarks = [ "4gt10-v1_81"; "nosuch" ];
      }
  with
  | Ok _ -> Alcotest.fail "unknown -b name accepted"
  | Error m ->
      check Alcotest.bool "flag named" true
        (String.starts_with ~prefix:"--benchmark" m);
      check Alcotest.bool "suite listed" true
        (String.ends_with ~suffix:(String.concat ", " Suite.names) m)

(* ------------------------------------------------------------------ *)
(* Knob table                                                          *)
(* ------------------------------------------------------------------ *)

(* Random values for every knob the table covers. *)
let gen_knobs =
  let open QCheck.Gen in
  let opt g = option g in
  let* variant = oneofl Pipeline.[ Full; Dual_only; Modular_only ] in
  let* effort = oneofl Tqec_place.Placer.[ Quick; Normal; Full ] in
  let* seed = int_bound 1_000_000 in
  let* restarts = int_range 1 8 in
  let* jobs = opt (int_range 1 64) in
  let* early_stop_margin =
    opt (oneof [ float_bound_inclusive 1.; float_range 0. 1e12 ])
  in
  let* partition = opt (int_range 1 10_000) in
  let* corridor_cells = opt (int_range 1 1_000_000) in
  let* corridor_cache = bool in
  let+ sa_moves_cap = opt (int_range 1 1_000_000) in
  {
    Knobs.defaults with
    Pipeline.variant;
    effort;
    seed;
    restarts;
    jobs;
    early_stop_margin;
    partition;
    corridor_cells;
    corridor_cache;
    sa_moves_cap;
  }

let arb_knobs =
  QCheck.make gen_knobs ~print:(fun c ->
      String.concat " "
        (List.map
           (fun (r : Knobs.row) -> r.Knobs.flag ^ "=" ^ r.Knobs.print c)
           Knobs.rows))

let reapply base config =
  List.fold_left
    (fun acc (r : Knobs.row) ->
      Result.bind acc (Knobs.apply r (r.Knobs.print config)))
    (Ok base) Knobs.rows

(* Every row's printed value parses back to the same config, and the
   rows together carry a config's every knob onto the defaults. *)
let test_knobs_roundtrip_defaults () =
  List.iter
    (fun (r : Knobs.row) ->
      check Alcotest.bool r.Knobs.flag true
        (Knobs.apply r (r.Knobs.print Knobs.defaults) Knobs.defaults
        = Ok Knobs.defaults))
    Knobs.rows

let prop_knobs_roundtrip =
  QCheck.Test.make ~name:"knob rows round-trip their printed values"
    ~count:300 arb_knobs (fun c ->
      List.for_all
        (fun (r : Knobs.row) -> Knobs.apply r (r.Knobs.print c) c = Ok c)
        Knobs.rows
      && reapply Knobs.defaults c = Ok c)

(* The serve cache key: changing one knob separates it exactly when the
   knob's row affects the result. *)
let prop_knobs_key =
  QCheck.Test.make ~name:"cache key = result-affecting rows" ~count:300
    (QCheck.pair arb_knobs arb_knobs) (fun (a, b) ->
      List.for_all
        (fun (r : Knobs.row) ->
          match Knobs.apply r (r.Knobs.print b) a with
          | Error _ -> false
          | Ok a' ->
              let changed = r.Knobs.print a <> r.Knobs.print b in
              (Knobs.key a <> Knobs.key a') = (r.Knobs.affects_result && changed))
        Knobs.rows)

let suites =
  [
    ( "compress.pipeline",
      [
        Alcotest.test_case "all variants sound" `Quick
          test_pipeline_three_cnot_all_variants;
        Alcotest.test_case "full beats dual-only" `Quick
          test_pipeline_full_beats_dual_only;
        Alcotest.test_case "gate decomposition entry" `Quick
          test_pipeline_gate_decomposition_entry;
        Alcotest.test_case "stage stats" `Quick test_pipeline_stage_stats;
        Alcotest.test_case "cyclic ICM -> Stage_failure" `Quick
          test_pipeline_rejects_cyclic_icm;
        Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
        qtest prop_pipeline_sound_on_random;
        qtest prop_full_never_worse_than_modular;
      ] );
    ( "compress.baselines",
      [
        Alcotest.test_case "canonical matches paper" `Quick
          test_canonical_matches_paper_all_rows;
        Alcotest.test_case "lin ordering" `Quick test_lin_between_canonical_and_zero;
        Alcotest.test_case "lin dependencies" `Quick test_lin_respects_dependencies;
        Alcotest.test_case "lin parallelism" `Quick test_lin_parallelizes_disjoint;
        Alcotest.test_case "lin separation" `Quick test_lin_adjacent_conflict;
        qtest prop_lin_steps_at_least_depth;
        qtest prop_volume_covers_boxes;
        qtest prop_canonical_upper_bounds_lin;
      ] );
    ( "compress.experiments",
      [
        Alcotest.test_case "fig1 monotone" `Slow test_fig1_series_monotone;
        Alcotest.test_case "report rendering" `Slow test_report_rendering;
        Alcotest.test_case "mid-size soundness" `Slow
          test_midsize_benchmark_soundness;
        Alcotest.test_case "summary content" `Slow test_summary_mentions_paper;
        Alcotest.test_case "env config" `Quick test_config_from_env_defaults;
        Alcotest.test_case "env config rejects" `Quick
          test_config_from_env_rejects;
      ] );
    ( "compress.knobs",
      [
        Alcotest.test_case "defaults round-trip" `Quick
          test_knobs_roundtrip_defaults;
        qtest prop_knobs_roundtrip;
        qtest prop_knobs_key;
      ] );
  ]
