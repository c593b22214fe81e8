module Suite = Tqec_circuit.Suite
module Generator = Tqec_circuit.Generator
module Clifford_t = Tqec_circuit.Clifford_t
module Decompose = Tqec_icm.Decompose
module Icm = Tqec_icm.Icm
module Placer = Tqec_place.Placer

type config = {
  pipeline : Pipeline.config;
  scale : int;
  auto_scale : bool;
  benchmarks : string list;
}

(* Keep each instance near the largest size that places and routes in a
   few minutes (about rd84's 2600 modules). *)
let auto_factor (entry : Suite.entry) =
  let modules = entry.Suite.paper.Suite.p_modules in
  max 1 ((modules + 2599) / 2600)

let bad_scale from text =
  Error (Printf.sprintf "%s: %S is not a scale (an integer >= 1)" from text)

let validate ~scale_from ~benchmarks_from config =
  let unknown name =
    Error
      (Printf.sprintf "%s: unknown benchmark %S; suite: %s" benchmarks_from
         name
         (String.concat ", " Suite.names))
  in
  if config.scale < 1 then bad_scale scale_from (string_of_int config.scale)
  else
    match
      List.find_opt (fun b -> not (List.mem b Suite.names)) config.benchmarks
    with
    | Some name -> unknown name
    | None when config.benchmarks = [] -> unknown ""
    | None -> Ok config

let config_from_env ?(pipeline = Knobs.defaults) () =
  (* env-read: call-time capture, daemon-safe by construction — the CLI
     and bench entry points call this once per invocation to build their
     defaults.  The serving daemon never consults the environment for
     request-scoped behavior: every request carries explicit knobs. *)
  let env = Sys.getenv_opt in
  match Knobs.of_env env pipeline with
  | Error _ as e -> e
  | Ok pipeline -> (
      let benchmarks =
        match env "TQEC_BENCHMARKS" with
        | Some s -> String.split_on_char ',' s |> List.map String.trim
        | None -> Suite.names
      in
      let scale_text = Option.value (env "TQEC_SCALE") ~default:"1" in
      match int_of_string_opt scale_text with
      | None -> bad_scale "TQEC_SCALE" scale_text
      | Some scale ->
          validate ~scale_from:"TQEC_SCALE" ~benchmarks_from:"TQEC_BENCHMARKS"
            {
              pipeline = { pipeline with debug = env "TQEC_DEBUG" <> None };
              scale;
              auto_scale = env "TQEC_FULLSIZE" = None;
              benchmarks;
            })

let run_benchmark config (entry : Suite.entry) =
  let factor =
    if config.auto_scale then max config.scale (auto_factor entry)
    else config.scale
  in
  let circuit = Suite.scaled ~factor entry in
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let stats = Icm.stats icm in
  let lin1d = Baselines.lin_1d icm and lin2d = Baselines.lin_2d icm in
  (* inner stages (placement multi-start, the router's per-iteration
     batches) share the same persistent pool as the suite fan-out: a
     blocked instance helps drain nested tasks, so nesting composes
     without oversubscription and small suites soak idle workers with
     restarts — and the output is jobs-invariant either way *)
  let run variant =
    Pipeline.run_icm ~config:{ config.pipeline with Pipeline.variant } icm
  in
  let dual_only = run Pipeline.Dual_only in
  let ours = run Pipeline.Full in
  {
    Report.r_name = entry.Suite.spec.Generator.name;
    r_stats = stats;
    r_modules = ours.Pipeline.stages.Pipeline.st_modules;
    r_nodes = ours.Pipeline.stages.Pipeline.st_nodes;
    r_canonical = Baselines.canonical_volume icm;
    r_lin1d = lin1d.Baselines.l_volume;
    r_lin2d = lin2d.Baselines.l_volume;
    r_dual_only = dual_only.Pipeline.volume;
    r_dual_only_runtime = dual_only.Pipeline.elapsed;
    r_ours = ours.Pipeline.volume;
    r_ours_runtime = ours.Pipeline.elapsed;
    r_paper = entry.Suite.paper;
    r_scale =
      (if config.auto_scale then max config.scale (auto_factor entry)
       else config.scale);
  }

(* Suite instances are independent: fan them out across domains.  Rows
   come back in suite order whatever the worker count, and each instance
   is seeded from the config alone, so parallel runs reproduce serial
   ones bit for bit. *)
let run_all config =
  Suite.all
  |> List.filter (fun (e : Suite.entry) ->
         List.mem e.Suite.spec.Generator.name config.benchmarks)
  |> Array.of_list
  |> Tqec_util.Pool.map ?jobs:config.pipeline.Pipeline.jobs
       (run_benchmark config)
  |> Array.to_list

let fig1_series () =
  let icm = Decompose.run Suite.three_cnot_example in
  let run variant =
    (Pipeline.run_icm
       ~config:
         { Pipeline.default_config with variant; effort = Placer.Normal }
       icm)
      .Pipeline.volume
  in
  [
    ("canonical", Baselines.canonical_volume icm, 54);
    ("topological deformation", run Pipeline.Modular_only, 32);
    ("dual-only bridging", run Pipeline.Dual_only, 18);
    ("primal+dual bridging (ours)", run Pipeline.Full, 6);
  ]

let render_all config =
  let rows = run_all config in
  String.concat "\n"
    [
      Report.table1 rows;
      Report.table2 rows;
      Report.table3 rows;
      Report.fig1 (fig1_series ());
      Report.summary rows;
    ]
