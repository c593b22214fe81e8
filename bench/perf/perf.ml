(* perf.exe — the layered compile/check/serve benchmark (see README.md).

     perf.exe run --workload W [--seed S] [--input-seed N] [--seconds N]
                  [--trace 0|1] [--trace-file FILE] [--out FILE] [--smoke]
                  [--tqecc PATH]

   One workload per process.  Every duration is the difference of two
   readings of one clock (bechamel's monotonic clock) taken here, around
   calls into the libraries; [Pipeline.t.elapsed] and [.timings] are
   never read.

   --seed orders the serve-cache requests and nothing else: a compile
   workload's cost moves by 20-50% from one circuit draw to the next, far
   beyond any regression bound, so the circuits stay fixed.
   --input-seed N draws other circuits (suite [spec.seed + N], tier seed
   [4099 + k + N]); 0 is the canonical instances.  The annealer seed
   stays 42.

   stdout ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"} holding the end-to-end metrics, or the per-layer ones with
   --trace 1.  Exit 0 when every op was correct, 1 otherwise, 2 on a
   usage error.

     perf.exe setup --workload W [--input-seed N] [--smoke]

   generates the workload's inputs and exits: [run] times this process,
   from spawn to exit, as its set-up. *)

module Json = Tqec_serve.Json
module Protocol = Tqec_serve.Protocol
module Client = Tqec_serve.Client
module Pipeline = Tqec_compress.Pipeline
module Suite = Tqec_circuit.Suite
module Generator = Tqec_circuit.Generator
module Circuit = Tqec_circuit.Circuit
module Placer = Tqec_place.Placer
module Pathfinder = Tqec_route.Pathfinder
module Counters = Tqec_route.Counters
module Grid = Tqec_route.Grid
module Pd_graph = Tqec_pdgraph.Pd_graph

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let t_process = now ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.
let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Fisher-Yates with the repository's seeded generator *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Tqec_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written as Chrome trace-event JSON           *)
(* ------------------------------------------------------------------ *)

type span = { sp_name : string; sp_op : int; sp_label : string; t0 : float; t1 : float }

let spans = ref []

let record ~op ~label name t0 t1 =
  spans := { sp_name = name; sp_op = op; sp_label = label; t0; t1 } :: !spans;
  t1 -. t0

let timed ~op ~label name f =
  let t0 = now () in
  let x = f () in
  (x, record ~op ~label name t0 (now ()))

let span_total ~op name =
  sum
    (List.filter_map
       (fun s -> if s.sp_op = op && s.sp_name = name then Some (s.t1 -. s.t0) else None)
       !spans)

let trace_json () =
  let us t = t *. 1e6 in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.sp_name);
                   ("cat", Json.String "perf");
                   ("ph", Json.String "X");
                   ("ts", Json.Float (us (s.t0 -. t_process)));
                   ("dur", Json.Float (us (s.t1 -. s.t0)));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int s.sp_op);
                   ("args", Json.Obj [ ("op", Json.String s.sp_label) ]);
                 ])
             !spans) );
    ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* An input instance: its circuit as a function of the input seed. *)
type instance = int -> Circuit.t

let suite ?(factor = 1) name : instance =
 fun seed ->
  match Suite.find name with
  | None -> invalid_arg ("not a suite benchmark: " ^ name)
  | Some e ->
      let spec = e.Suite.spec in
      Suite.scaled ~factor
        { e with Suite.spec = { spec with Generator.seed = spec.Generator.seed + seed } }

let tier factor : instance =
 fun seed -> Generator.scale_tier ~factor ~seed:(4099 + factor + seed) ()

type compile = {
  instances : instance list;
  variants : Pipeline.variant list;
  effort : Placer.effort;
  corridor : int option;
}

type serve = {
  keys_of : instance list;  (** each at quick effort under every annealer seed *)
  anneal_seeds : int list;
  repeats : int;  (** requests per key and session *)
}

type kind = Compile of compile | Serve of serve
type workload = { name : string; full : kind; smoke : kind }

(* Why each workload exists is recorded in README.md and BENCHMARK.json:
   placement-bound suite pair, corridor-routed tier, flat-A*-routed
   suite instance, and the daemon's cache/codec path. *)
let workloads =
  let open Pipeline in
  [
    {
      name = "suite-place";
      full =
        Compile
          {
            instances = [ suite "4gt10-v1_81"; suite "4gt4-v0_73" ];
            variants = [ Full; Dual_only ];
            effort = Placer.Normal;
            corridor = None;
          };
      smoke =
        Compile
          {
            instances = [ suite ~factor:16 "4gt10-v1_81" ];
            variants = [ Full; Dual_only ];
            effort = Placer.Normal;
            corridor = None;
          };
    };
    {
      name = "tier-route";
      full =
        Compile
          { instances = [ tier 2 ]; variants = [ Full ]; effort = Placer.Quick; corridor = Some 64 };
      smoke =
        Compile
          { instances = [ tier 1 ]; variants = [ Full ]; effort = Placer.Quick; corridor = Some 64 };
    };
    {
      name = "flat-route";
      full =
        Compile
          {
            instances = [ suite ~factor:2 "rd84_142" ];
            variants = [ Full ];
            effort = Placer.Quick;
            corridor = None;
          };
      smoke =
        Compile
          {
            instances = [ suite ~factor:4 "4gt4-v0_73" ];
            variants = [ Full ];
            effort = Placer.Quick;
            corridor = None;
          };
    };
    {
      name = "serve-cache";
      full =
        Serve
          {
            keys_of =
              List.map (suite ~factor:16) [ "4gt10-v1_81"; "4gt4-v0_73"; "rd84_142" ];
            anneal_seeds = List.init 12 (fun i -> i + 1);
            repeats = 4;
          };
      smoke =
        Serve { keys_of = [ suite ~factor:16 "4gt10-v1_81" ]; anneal_seeds = [ 1; 2 ]; repeats = 4 };
    };
  ]

(* The metrics BENCHMARK.json names, in its order: the last stdout line
   carries exactly one of these two lists. *)
let end_to_end =
  [
    "compile_s"; "check_s"; "req_p90_ms"; "req_per_s"; "peak_rss_mb"; "volume_sum";
    "volume_ratio_vs_dual"; "pass_rate"; "setup_s";
  ]

let per_layer =
  [
    "circuit.wall_s"; "icm.wall_s";
    "pdgraph.of_icm_s"; "pdgraph.ishape_s"; "pdgraph.flipping_s"; "pdgraph.dual_bridge_s";
    "pdgraph.modules"; "pdgraph.ishape_merges"; "pdgraph.chains"; "pdgraph.merged_nets";
    "pdgraph.dual_bridges";
    "place.wall_s"; "place.nodes"; "place.sa_attempted"; "place.sa_accepted";
    "place.accept_ratio"; "place.volume"; "place.wirelength";
    "route.wall_s"; "route.iterations"; "route.overused_after"; "route.flat_searches";
    "route.coarse_searches"; "route.fine_searches"; "route.flat_fallbacks";
    "route.cache_hits"; "route.cache_misses"; "route.cache_stale"; "route.cache_hit_ratio";
    "route.scratch_grows"; "route.grid_cells"; "route.touched_cells"; "route.routed_cells";
    "emit.wall_s"; "emit.defects";
    "verify.self_s"; "verify.violations";
    "serve.hit_p50_ms"; "serve.miss_p50_ms"; "serve.cache_hit_ratio"; "serve.busy";
    "serve.errors";
    "trace.overhead_pct";
  ]

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : workload;
  seed : int;  (** orders the serve requests *)
  input_seed : int;  (** varies the circuits; 0 is canonical *)
  budget : [ `Seconds of float | `Reps of int ];
  trace : bool;
  trace_file : string option;
  out : string option;
  smoke : bool;
  tqecc : string;  (** the serve-cache daemon *)
}

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let usage =
  "usage: perf.exe run --workload W [--seed S] [--input-seed N] [--seconds N]\n\
  \                    [--trace 0|1] [--trace-file FILE] [--out FILE] [--smoke]\n\
  \                    [--tqecc PATH]\n\
  \       perf.exe setup --workload W [--input-seed N] [--smoke]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let parse_args argv =
  let mode = if Array.length argv < 2 then "" else argv.(1) in
  if mode <> "run" && mode <> "setup" then usage_error "%s" usage;
  let workload = ref "" and seed = ref 0 and input_seed = ref 0 and seconds = ref 30. in
  let trace = ref 0 and trace_file = ref None and out = ref None and smoke = ref false in
  let tqecc =
    ref (Filename.concat (Filename.dirname Sys.executable_name) "../../bin/tqecc.exe")
  in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "S  order of the serve-cache requests");
      ("--input-seed", Arg.Set_int input_seed, "N  vary the circuits (0: canonical)");
      ("--seconds", Arg.Set_float seconds, "N  measurement budget (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  add the traced pass; report per-layer metrics");
      ("--trace-file", Arg.String (fun f -> trace_file := Some f), "FILE  Chrome trace output");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  write the run ledger");
      ("--smoke", Arg.Set smoke, " small inputs (the @perf-smoke gate)");
      ("--tqecc", Arg.Set_string tqecc, "PATH  tqecc binary (the serve-cache daemon)");
    ]
  in
  (match
     Arg.parse_argv ~current:(ref 1) argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | () -> ()
  | exception Arg.Bad msg -> usage_error "%s" msg
  | exception Arg.Help msg ->
      print_string msg;
      exit 0);
  let workload =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage_error "unknown workload %S\n%s" !workload usage
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !seed < 0 || !input_seed < 0 then usage_error "seeds must be >= 0";
  if not (!seconds > 0.) then usage_error "--seconds must be > 0";
  (match workload.full with
  | Serve _ when mode = "run" && not (Sys.file_exists !tqecc) ->
      usage_error "no tqecc binary at %s (build bin/tqecc.exe or pass --tqecc)" !tqecc
  | _ -> ());
  ( mode,
    {
      workload;
      seed = !seed;
      input_seed = !input_seed;
      (* a traced run needs untraced passes, the base of its overhead:
         a cold one and a warm one *)
      budget = (if !smoke then `Reps 1 else if !trace = 1 then `Reps 2 else `Seconds !seconds);
      trace = !trace = 1;
      trace_file = !trace_file;
      out = !out;
      smoke = !smoke;
      tqecc = !tqecc;
    } )

(* ------------------------------------------------------------------ *)
(* Ops: one Pipeline.run + Pipeline.verify                             *)
(* ------------------------------------------------------------------ *)

type op = { op_name : string; circuit : Circuit.t; config : Pipeline.config }

let config ?corridor ?(seed = Pipeline.default_config.Pipeline.seed) effort variant =
  {
    Pipeline.default_config with
    variant;
    effort;
    seed;
    corridor_cells = corridor;
    jobs = Some 1;
    verify = Some false;
  }

(* What one untraced op leaves behind.  The [Pipeline.t] itself is
   dropped: holding every rep's results would grow the heap with the
   rep count and skew the next op's timing and the peak RSS. *)
type run = {
  summary : string;
  volume : int;
  routed : bool;
  violations : int;
  fields : Json.t;  (** deterministic fields, see [result_fields] *)
  compile_s : float;
  check_s : float;
}

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* The deterministic fields of one op: equal for every pass, process and
   order seed at one input seed.  [Counters.scratch_grows] is left out:
   the A* scratch lives as long as the domain, so it depends on what ran
   before. *)
let result_fields (r : Pipeline.t) (c : Counters.stats) violations =
  let st = r.Pipeline.stages and p = r.Pipeline.placement in
  let rt = r.Pipeline.routing and g = r.Pipeline.grid_mem in
  let i name v = (name, Json.Int v) in
  Json.Obj
    [
      ("summary", Json.String (Pipeline.summary r));
      ("fingerprint", Json.String (Pipeline.fingerprint r));
      i "volume" r.Pipeline.volume;
      ("routed", Json.Bool rt.Pathfinder.success);
      i "violations" violations;
      i "modules" st.Pipeline.st_modules;
      i "ishape_merges" st.Pipeline.st_ishape_merges;
      i "chains" st.Pipeline.st_chains;
      i "merged_nets" st.Pipeline.st_merged_nets;
      i "dual_bridges" st.Pipeline.st_dual_bridges;
      i "nodes" st.Pipeline.st_nodes;
      i "sa_attempted" p.Placer.sa_stats.Tqec_place.Sa.attempted;
      i "sa_accepted" p.Placer.sa_stats.Tqec_place.Sa.accepted;
      i "place_volume" p.Placer.volume;
      i "wirelength" p.Placer.wirelength;
      i "iterations" rt.Pathfinder.iterations_used;
      i "overused_after" rt.Pathfinder.overused_after;
      i "flat_searches" c.Counters.flat_searches;
      i "coarse_searches" c.Counters.coarse_searches;
      i "fine_searches" c.Counters.fine_searches;
      i "flat_fallbacks" c.Counters.flat_fallbacks;
      i "cache_hits" c.Counters.cache_hits;
      i "cache_misses" c.Counters.cache_misses;
      i "cache_stale" c.Counters.cache_stale;
      i "grid_cells" g.Grid.mem_cells;
      i "touched_cells" g.Grid.mem_touched_cells;
      i "routed_cells"
        (sum_int (fun rc -> List.length rc.Pathfinder.r_cells) rt.Pathfinder.routes);
    ]

(* Each op starts from a compacted heap, as in a fresh process, so its
   time and the process's peak RSS do not depend on the ops before it. *)
let run_op op =
  Gc.compact ();
  attempt (fun () ->
      Counters.reset ();
      let t0 = now () in
      let r = Pipeline.run ~config:op.config op.circuit in
      let t1 = now () in
      let counters = Counters.stats () in
      let report = Pipeline.verify r in
      let t2 = now () in
      let violations = List.length report.Tqec_verify.Violation.violations in
      {
        summary = Pipeline.summary r;
        volume = r.Pipeline.volume;
        routed = r.Pipeline.routing.Pathfinder.success;
        violations;
        fields = result_fields r counters violations;
        compile_s = t1 -. t0;
        check_s = t2 -. t0;
      })

let same_fields a b = Option.map Json.to_string a = Option.map Json.to_string b

(* Why an op counts as failed, if it does: an exception, an unrouted or
   unsound result, or result fields (fingerprint, counters) that differ
   from the reference pass. *)
let failure ~reference = function
  | Error msg -> Some msg
  | Ok m ->
      if not m.routed then Some "routed=false"
      else if m.violations > 0 then Some (Printf.sprintf "%d violation(s)" m.violations)
      else if not (same_fields (Some m.fields) reference) then
        Some "results differ from the reference pass"
      else None

(* ------------------------------------------------------------------ *)
(* The traced op                                                      *)
(* ------------------------------------------------------------------ *)

type traced = {
  t_fields : Json.t;  (** must equal the reference pass's [fields] *)
  t_scratch_grows : int;
  t_defects : int;
  t_icm_s : float;
  t_pipeline_s : float;
  t_of_icm_s : float;
  t_ishape_s : float;
  t_flipping_s : float;
  t_dual_s : float;
  t_emit_s : float;
  t_check_s : float;
}

(* The on_stage event that closes a span, mapped to its layer.  Stages
   1-5 report as "bridging" today; any finer split of them still lands
   in the pdgraph layer. *)
let layer_of_stage = function
  | "placement" -> "place"
  | "routing" -> "route"
  | "finish" -> "finish"
  | _ -> "pdgraph"

(* One op with spans: [op] covers icm, pipeline and verify (what an
   untraced op's check time covers); the pipeline's children are cut at
   the arrival times of its on_stage callbacks.  Then, outside [op], the
   PD-graph stages are re-driven on a fresh graph to split the pdgraph
   span, and geometry emission and the checker are timed as their own
   calls. *)
let traced_op i op =
  Gc.compact ();
  attempt (fun () ->
      let label = op.op_name in
      let sp name f = timed ~op:i ~label name f in
      Counters.reset ();
      let t_op = now () in
      let icm, icm_s =
        sp "icm" (fun () ->
            let c = op.circuit in
            Tqec_icm.Decompose.run
              (if Circuit.is_clifford_t c then c else Tqec_circuit.Clifford_t.decompose c))
      in
      let marks = ref [] in
      let on_stage stage _ = marks := (stage, now ()) :: !marks in
      let t_pipe = now () in
      let r = Pipeline.run_icm ~config:op.config ~on_stage icm in
      let pipeline_s = record ~op:i ~label "pipeline" t_pipe (now ()) in
      let counters = Counters.stats () in
      ignore
        (List.fold_left
           (fun prev (stage, t) ->
             ignore (record ~op:i ~label (layer_of_stage stage) prev t);
             t)
           t_pipe (List.rev !marks));
      let report, _ = sp "verify" (fun () -> Pipeline.verify r) in
      ignore (record ~op:i ~label "op" t_op (now ()));
      let cfg = op.config in
      let g, of_icm_s = sp "pdgraph.of_icm" (fun () -> Pd_graph.of_icm icm) in
      let modules = Pd_graph.n_modules_constructed g in
      let full = cfg.Pipeline.variant = Pipeline.Full in
      let merges, ishape_s =
        sp "pdgraph.ishape" (fun () ->
            if full && cfg.Pipeline.enable_ishape then Tqec_pdgraph.Ishape.run g else [])
      in
      let chains, flipping_s =
        sp "pdgraph.flipping" (fun () ->
            let in_time_sm = Hashtbl.create 64 in
            List.iter
              (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_time_sm m ()) ms)
              (Tqec_place.Super_module.time_sm_modules g);
            let f =
              Tqec_pdgraph.Flipping.run
                ~rng:(Tqec_util.Rng.create cfg.Pipeline.seed)
                ~exclude:(Hashtbl.mem in_time_sm) g
            in
            (* the baselines keep every point as its own chain *)
            if full then List.length f.Tqec_pdgraph.Flipping.chains
            else List.length f.Tqec_pdgraph.Flipping.points)
      in
      let (merged, bridges), dual_s =
        sp "pdgraph.dual_bridge" (fun () ->
            match cfg.Pipeline.variant with
            | Pipeline.Full | Pipeline.Dual_only ->
                let d = Tqec_pdgraph.Dual_bridge.run g in
                (List.length d.Tqec_pdgraph.Dual_bridge.merged, d.n_bridges)
            | Pipeline.Modular_only -> (Pd_graph.n_nets g, 0))
      in
      let st = r.Pipeline.stages in
      if
        (modules, List.length merges, chains, merged, bridges)
        <> ( st.Pipeline.st_modules,
             st.st_ishape_merges,
             st.st_chains,
             st.st_merged_nets,
             st.st_dual_bridges )
      then failwith "re-driven PD-graph stages disagree with Pipeline.t.stages";
      let geometry, emit_s =
        sp "emit" (fun () ->
            Tqec_compress.Emit_core.geometry ~name:r.Pipeline.icm.Tqec_icm.Icm.name
              ~graph:r.graph ~flipping:r.flipping ~placement:r.placement ~routing:r.routing)
      in
      (* verify's own work, without the emission it starts with: the
         checker on the geometry just emitted.  Subtracting two emission
         timings instead leaves only their noise. *)
      let _, check_s =
        sp "verify.check" (fun () ->
            Tqec_verify.Check.run
              {
                Tqec_verify.Check.a_icm = r.icm;
                a_graph = r.graph;
                a_merges = r.merges;
                a_flipping = r.flipping;
                a_dual = r.dual;
                a_fvalue = r.fvalue;
                a_placement = r.placement;
                a_routing = r.routing;
                a_volume = r.volume;
                a_geometry = Some geometry;
              })
      in
      {
        t_fields =
          result_fields r counters (List.length report.Tqec_verify.Violation.violations);
        t_scratch_grows = counters.Counters.scratch_grows;
        t_defects = List.length geometry.Tqec_geom.Geometry.defects;
        t_icm_s = icm_s;
        t_pipeline_s = pipeline_s;
        t_of_icm_s = of_icm_s;
        t_ishape_s = ishape_s;
        t_flipping_s = flipping_s;
        t_dual_s = dual_s;
        t_emit_s = emit_s;
        t_check_s = check_s;
      })

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let metric ?(samples = []) ?derived unit_ value = { Ledger.value; unit_; samples; derived }
let reps_metric ?derived unit_ samples = metric ~samples ?derived unit_ (median samples)
let count v = metric "count" (float_of_int v)

(* What the serve-cache daemon reports; zero on the compile workloads. *)
type serve_layer = {
  hits : int;
  misses : int;
  busy : int;
  errors : int;
  hit_p50_ms : float;
  miss_p50_ms : float;
}

let no_serve = { hits = 0; misses = 0; busy = 0; errors = 0; hit_p50_ms = 0.; miss_p50_ms = 0. }

(* Per-layer metrics from the traced ops: sums over ops, ratios of sums.
   [untraced_compile] is the untraced median compile time per op, the
   base of trace.overhead_pct. *)
let layer_metrics ~circuit_s ~untraced_compile ~serve (ts : (int * traced) list) =
  let ts' = List.map snd ts in
  let s f = metric "s" (sum (List.map f ts')) in
  let stage name = metric "s" (sum (List.map (fun (i, _) -> span_total ~op:i name) ts)) in
  let total field =
    sum_int
      (fun t -> Option.value ~default:0 (Option.bind (Json.member field t.t_fields) Json.to_int))
      ts'
  in
  let n ?(unit_ = "count") field = metric unit_ (float_of_int (total field)) in
  let traced_compile = sum (List.map (fun t -> t.t_icm_s +. t.t_pipeline_s) ts') in
  let base = sum untraced_compile in
  [
    ("circuit.wall_s", metric "s" circuit_s);
    ("icm.wall_s", s (fun t -> t.t_icm_s));
    ("pdgraph.of_icm_s", s (fun t -> t.t_of_icm_s));
    ("pdgraph.ishape_s", s (fun t -> t.t_ishape_s));
    ("pdgraph.flipping_s", s (fun t -> t.t_flipping_s));
    ("pdgraph.dual_bridge_s", s (fun t -> t.t_dual_s));
    ("pdgraph.modules", n "modules");
    ("pdgraph.ishape_merges", n "ishape_merges");
    ("pdgraph.chains", n "chains");
    ("pdgraph.merged_nets", n "merged_nets");
    ("pdgraph.dual_bridges", n "dual_bridges");
    ("place.wall_s", stage "place");
    ("place.nodes", n "nodes");
    ("place.sa_attempted", n "sa_attempted");
    ("place.sa_accepted", n "sa_accepted");
    ("place.accept_ratio", metric "ratio" (ratio (total "sa_accepted") (total "sa_attempted")));
    ("place.volume", n ~unit_:"cells" "place_volume");
    ("place.wirelength", n ~unit_:"cells" "wirelength");
    ("route.wall_s", stage "route");
    ("route.iterations", n "iterations");
    ("route.overused_after", n "overused_after");
    ("route.flat_searches", n "flat_searches");
    ("route.coarse_searches", n "coarse_searches");
    ("route.fine_searches", n "fine_searches");
    ("route.flat_fallbacks", n "flat_fallbacks");
    ("route.cache_hits", n "cache_hits");
    ("route.cache_misses", n "cache_misses");
    ("route.cache_stale", n "cache_stale");
    ( "route.cache_hit_ratio",
      metric "ratio" (ratio (total "cache_hits") (total "cache_hits" + total "cache_misses")) );
    ("route.scratch_grows", count (sum_int (fun t -> t.t_scratch_grows) ts'));
    ("route.grid_cells", n ~unit_:"cells" "grid_cells");
    ("route.touched_cells", n ~unit_:"cells" "touched_cells");
    ("route.routed_cells", n ~unit_:"cells" "routed_cells");
    ("emit.wall_s", s (fun t -> t.t_emit_s));
    ("emit.defects", count (sum_int (fun t -> t.t_defects) ts'));
    ("verify.self_s", s (fun t -> t.t_check_s));
    ("verify.violations", n "violations");
    ("serve.hit_p50_ms", metric "ms" serve.hit_p50_ms);
    ("serve.miss_p50_ms", metric "ms" serve.miss_p50_ms);
    ("serve.cache_hit_ratio", metric "ratio" (ratio serve.hits (serve.hits + serve.misses)));
    ("serve.busy", count serve.busy);
    ("serve.errors", count serve.errors);
    ( "trace.overhead_pct",
      metric "%" (if base > 0. then 100. *. (traced_compile -. base) /. base else 0.) );
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)
(* ------------------------------------------------------------------ *)

(* [repeat ~t_start budget rep] runs rep 1, 2, ... and returns their
   results.  Under a time budget reps 1 and 2 always run, so that a
   median has more than one sample even when a rep takes over half the
   budget (flat-route); another starts only while the time since
   [t_start] plus the median rep so far still fits the budget. *)
let repeat ~t_start budget rep =
  let rec go i durations acc =
    let t0 = now () in
    let x = rep i in
    let durations = (now () -. t0) :: durations in
    let more =
      match budget with
      | `Reps n -> i < n
      | `Seconds s -> i < 2 || now () -. t_start +. median durations <= s
    in
    if more then go (i + 1) durations (x :: acc) else List.rev (x :: acc)
  in
  go 1 [] []

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* How many times a run sets up, keeping the first set of inputs: set-up
   takes milliseconds, so one sample of it is mostly jitter. *)
let setup_runs = 15

(* Set-up from process start: a fresh [perf.exe setup] process, from its
   spawn until it has generated the workload's inputs and exited.  This
   covers the runtime's start and every library's module
   initialisation, which a run's own process paid before it could time
   anything. *)
let fresh_setup_s opts =
  let exe = Sys.executable_name in
  let args =
    [ exe; "setup"; "--workload"; opts.workload.name; "--input-seed"; string_of_int opts.input_seed ]
    @ if opts.smoke then [ "--smoke" ] else []
  in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> now () -. t0
  | _ -> failwith "perf.exe setup failed"

let peak_rss_mb path =
  match Tqec_util.Stats.peak_rss_kb ?path () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* One untraced pass over [ops]. *)
let pass label ops =
  let outs = List.map run_op ops in
  log "[perf] %s: %s" label
    (String.concat " "
       (List.map2
          (fun op o ->
            match o with
            | Ok m -> Printf.sprintf "%s=%.3fs" op.op_name m.check_s
            | Error e -> op.op_name ^ "=ERROR(" ^ e ^ ")")
          ops outs));
  outs

let reference_of outs = List.map (function Ok m -> Some m.fields | Error _ -> None) outs

(* The failed ops of [passes], each op judged against [reference]. *)
let failures ~reference passes =
  let fs =
    List.concat_map
      (fun outs -> List.filter_map Fun.id (List.map2 (fun reference o -> failure ~reference o) reference outs))
      passes
  in
  List.iter (fun f -> log "[perf] FAILED: %s" f) fs;
  List.length fs

let results_of ops outs =
  List.map2
    (fun op o ->
      (op.op_name, match o with Ok m -> m.fields | Error e -> Json.Obj [ ("error", Json.String e) ]))
    ops outs
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* per pass: the sum of [f] over its ops *)
let per_pass f passes =
  List.map (fun outs -> sum (List.filter_map (fun o -> Result.to_option o |> Option.map f) outs)) passes

(* per op: the median of [f] over the passes *)
let per_op_median f passes =
  List.mapi
    (fun k _ ->
      median (List.filter_map (fun outs -> Result.to_option (List.nth outs k) |> Option.map f) passes))
    (List.hd passes)

(* The traced pass, when asked for: its per-layer metrics and its
   failures (an exception, result fields that differ from the
   reference, or a missing stage span). *)
let traced_layers opts ~circuit_s ~untraced ~serve ops reference =
  if not opts.trace then ([], 0)
  else begin
    let outs = List.mapi (fun i op -> (i, traced_op i op)) ops in
    let failures =
      List.filter_map
        (fun ((i, o), reference) ->
          match o with
          | Error e -> Some e
          | Ok t ->
              if not (same_fields (Some t.t_fields) reference) then
                Some "traced results differ from the reference pass"
              else if
                not
                  (List.for_all
                     (fun name -> span_total ~op:i name > 0.)
                     [ "pdgraph"; "place"; "route"; "emit"; "verify" ])
              then Some "traced op is missing a stage span"
              else None)
        (List.combine outs reference)
    in
    List.iter (fun f -> log "[perf] FAILED (traced): %s" f) failures;
    let ts = List.filter_map (fun (i, o) -> Result.to_option o |> Option.map (fun t -> (i, t))) outs in
    (layer_metrics ~circuit_s ~untraced_compile:untraced ~serve ts, List.length failures)
  end

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (** workload-level checks beyond single ops *)
  results : (string * Json.t) list;
  metrics : (string * Ledger.metric) list;
  reps : int;
}

(* ------------------------------------------------------------------ *)
(* Compile workloads                                                  *)
(* ------------------------------------------------------------------ *)

(* A compile workload's inputs: one op per (instance, variant). *)
let compile_ops opts (c : compile) =
  List.concat_map
    (fun instance ->
      let circuit = instance opts.input_seed in
      List.map
        (fun v ->
          {
            op_name = circuit.Circuit.name ^ ":" ^ Protocol.variant_name v;
            circuit;
            config = config ?corridor:c.corridor c.effort v;
          })
        c.variants)
    c.instances

let run_compile opts (c : compile) =
  let ops, gen =
    let runs = List.init setup_runs (fun _ -> time (fun () -> compile_ops opts c)) in
    (fst (List.hd runs), List.map snd runs)
  in
  let setup = List.init setup_runs (fun _ -> fresh_setup_s opts) in
  log "[perf] %s: %d op(s), set-up %.4fs" opts.workload.name (List.length ops) (median setup);
  (* Every pass is timed, the first too: a CLI user meets the cold heap
     on every run, and it costs at most a few percent.  A wall metric is
     the sum over ops of each op's median over the passes, so a slow
     spell on the host moves one op's sample, not a whole pass.  The
     first pass is the reference the later ones must reproduce, and its
     high-water mark is the peak RSS: later passes add only
     fragmentation, and their number depends on the clock. *)
  let t_start = now () in
  let rss = ref 0. in
  let passes =
    repeat ~t_start opts.budget (fun i ->
        let outs = pass (Printf.sprintf "pass %d" i) ops in
        if i = 1 then rss := peak_rss_mb None;
        outs)
  in
  let first = List.hd passes in
  let reference = reference_of first in
  let failed = failures ~reference passes in
  let n_ops = List.length ops in
  let op_medians f = sum (per_op_median f passes) in
  let check_s = op_medians (fun m -> m.check_s) in
  (* per pass, the p90 of its op latencies: a p90 pooled over a few
     passes is their single slowest op *)
  let p90s =
    List.map
      (fun outs ->
        1000. *. percentile 0.9 (List.filter_map (fun o -> Result.to_option o |> Option.map (fun m -> m.check_s)) outs))
      passes
  in
  let volume variant =
    List.filter_map
      (fun (op, o) ->
        match o with
        | Ok m when op.config.Pipeline.variant = variant -> Some (op.circuit.Circuit.name, m.volume)
        | _ -> None)
      (List.combine ops first)
  in
  let full = volume Pipeline.Full in
  let dual_ratios =
    List.filter_map
      (fun (name, d) ->
        Option.map (fun f -> float_of_int d /. float_of_int f) (List.assoc_opt name full))
      (volume Pipeline.Dual_only)
  in
  (* A compile workload has no requests: its req_* are its ops, and they
     repeat check_s (req_per_s always, req_p90_ms when a pass is one
     op).  The ledger marks such a copy so compare.exe does not judge
     check_s twice. *)
  let check_passes = per_pass (fun m -> m.check_s) passes in
  let e2e =
    [
      ( "compile_s",
        metric ~samples:(per_pass (fun m -> m.compile_s) passes) "s"
          (op_medians (fun m -> m.compile_s)) );
      ("check_s", metric ~samples:check_passes "s" check_s);
      ( "req_p90_ms",
        reps_metric ?derived:(if n_ops = 1 then Some "check_s" else None) "ms" p90s );
      ( "req_per_s",
        metric
          ~samples:(List.map (fun t -> float_of_int n_ops /. t) check_passes)
          ~derived:"check_s" "1/s"
          (float_of_int n_ops /. check_s) );
      ("peak_rss_mb", metric "MB" !rss);
      ("volume_sum", metric "cells" (float_of_int (List.fold_left (fun a (_, v) -> a + v) 0 full)));
      (* 1 where no instance runs both variants *)
      ( "volume_ratio_vs_dual",
        metric "ratio" (if dual_ratios = [] then 1. else Tqec_util.Stats.geomean dual_ratios) );
      ("setup_s", reps_metric "s" setup);
    ]
  in
  let layers, traced_failed =
    traced_layers opts ~circuit_s:(median gen)
      ~untraced:(per_op_median (fun m -> m.compile_s) passes)
      ~serve:no_serve ops reference
  in
  {
    attempted = n_ops * (List.length passes + if opts.trace then 1 else 0);
    failed = failed + traced_failed;
    checks_ok = true;
    results = results_of ops first;
    metrics = e2e @ layers;
    reps = List.length passes;
  }

(* ------------------------------------------------------------------ *)
(* serve-cache: a fresh daemon per session, one closed-loop client     *)
(* ------------------------------------------------------------------ *)

type sample = { key : int; t0 : float; t1 : float; cached : bool option (* None: failed *) }

type session = {
  samples : sample list;
  wall_s : float;
  stats : Protocol.server_stats option;
  rss_mb : float;
}

let still_running pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let rec await_ready ~socket ~deadline pid =
  match Client.call ~socket Protocol.Stats with
  | Protocol.Stats_reply _ -> ()
  | _ -> failwith "daemon answered a stats request with something else"
  | exception Client.Connect_error m ->
      if not (still_running pid) then failwith ("daemon exited before serving: " ^ m);
      if now () > deadline then failwith ("daemon never became ready: " ^ m);
      Unix.sleepf 0.001;
      await_ready ~socket ~deadline pid

(* [f ~ready_s pid] against a fresh daemon on [socket], [ready_s] being
   the time from its spawn until its first [Stats_reply].  The daemon is
   shut down afterwards, and killed if anything fails. *)
let with_daemon opts ~socket f =
  let t_spawn = now () in
  let pid =
    Unix.create_process opts.tqecc
      [| opts.tqecc; "serve"; "--socket"; socket; "--capacity"; "2"; "--max-jobs"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        (* ECHILD: [still_running] already reaped it *)
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      await_ready ~socket ~deadline:(t_spawn +. 30.) pid;
      let x = f ~ready_s:(now () -. t_spawn) pid in
      (match Client.call ~socket Protocol.Shutdown with
      | Protocol.Bye -> ()
      | _ -> failwith "daemon did not acknowledge shutdown");
      ignore (Unix.waitpid [] pid);
      reaped := true;
      x)

let run_session opts ~socket ~expected ~requests order =
  with_daemon opts ~socket (fun ~ready_s:_ pid ->
      let samples =
        List.map
          (fun key ->
            let t0 = now () in
            let resp =
              match Client.call ~socket requests.(key) with
              | r -> Ok r
              | exception Client.Connect_error m -> Error m
            in
            let t1 = now () in
            let cached =
              match resp with
              | Ok (Protocol.Result { payload; cached; _ }) ->
                  if Some payload = expected.(key) then Some cached
                  else begin
                    log "[perf] FAILED: payload %S differs from porcelain" payload;
                    None
                  end
              | Ok (Protocol.Busy _) ->
                  log "[perf] FAILED: busy";
                  None
              | Ok (Protocol.Failed { message }) ->
                  log "[perf] FAILED: %s" message;
                  None
              | Ok _ ->
                  log "[perf] FAILED: unexpected response";
                  None
              | Error m ->
                  log "[perf] FAILED: %s" m;
                  None
            in
            { key; t0; t1; cached })
          order
      in
      let wall_s =
        match samples with
        | [] -> 0.
        | s :: _ -> (List.nth samples (List.length samples - 1)).t1 -. s.t0
      in
      let stats =
        match Client.call ~socket Protocol.Stats with
        | Protocol.Stats_reply s -> Some s
        | _ -> None
        | exception Client.Connect_error _ -> None
      in
      (* read before shutdown: the daemon's own high-water mark *)
      let rss_mb = peak_rss_mb (Some (Printf.sprintf "/proc/%d/status" pid)) in
      { samples; wall_s; stats; rss_mb })

(* serve-cache's inputs: each circuit as (name, .qct text). *)
let serve_texts opts (s : serve) =
  List.map
    (fun instance ->
      let c = Tqec_circuit.Clifford_t.decompose (instance opts.input_seed) in
      (c.Circuit.name, Tqec_circuit.Qct.to_string c))
    s.keys_of

let run_serve opts (s : serve) =
  let inputs, gen =
    let runs = List.init setup_runs (fun _ -> time (fun () -> serve_texts opts s)) in
    (fst (List.hd runs), List.map snd runs)
  in
  let socket = Printf.sprintf ".perf-serve-%d.sock" (Unix.getpid ()) in
  (* set-up: the inputs from process start, then a daemon of its own
     from spawn until it answers *)
  let setup =
    List.init setup_runs (fun _ ->
        fresh_setup_s opts +. with_daemon opts ~socket (fun ~ready_s _ -> ready_s))
  in
  let keys =
    List.concat_map (fun (name, text) -> List.map (fun a -> (name, text, a)) s.anneal_seeds) inputs
  in
  (* The reference pass: each key compiled and checked here, as
     `tqecc compress --porcelain` would on the same .qct input.  Every
     served payload must equal its key's summary. *)
  let ops =
    List.map
      (fun (name, text, a) ->
        {
          op_name = Printf.sprintf "%s:seed%d" name a;
          circuit = Tqec_circuit.Qct.parse_string ~name text;
          config = config ~seed:a Placer.Quick Pipeline.Full;
        })
      keys
  in
  log "[perf] serve-cache: %d keys x %d" (List.length keys) s.repeats;
  let t_start = now () in
  let refpass = pass "reference" ops in
  let reference = reference_of refpass in
  let ref_failed = failures ~reference [ refpass ] in
  let expected =
    Array.of_list (List.map (function Ok m -> Some m.summary | Error _ -> None) refpass)
  in
  let requests =
    Array.of_list
      (List.map
         (fun (name, text, a) ->
           Protocol.Compress
             {
               input = Protocol.Qct { name; text };
               knobs =
                 {
                   Protocol.default_knobs with
                   effort = Placer.Quick;
                   seed = a;
                   jobs = Some 1;
                   verify = false;
                 };
             })
         keys)
  in
  let n_keys = List.length keys in
  let order =
    shuffle (Tqec_util.Rng.create opts.seed)
      (List.concat (List.init s.repeats (fun _ -> List.init n_keys Fun.id)))
  in
  let sessions =
    repeat ~t_start opts.budget (fun i ->
        let ss = run_session opts ~socket ~expected ~requests order in
        log "[perf] session %d: %d requests in %.3fs" i (List.length ss.samples) ss.wall_s;
        if opts.trace then
          List.iter
            (fun r ->
              let label = let n, _, a = List.nth keys r.key in Printf.sprintf "%s:seed%d" n a in
              ignore
                (record ~op:r.key ~label
                   (match r.cached with Some true -> "request.hit" | _ -> "request.miss")
                   r.t0 r.t1))
            ss.samples;
        ss)
  in
  let all = List.concat_map (fun ss -> ss.samples) sessions in
  let failed_requests = List.length (List.filter (fun r -> r.cached = None) all) in
  let latencies p = List.filter_map (fun r -> if p r.cached then Some (r.t1 -. r.t0) else None) all in
  let stat f = sum_int (fun ss -> match ss.stats with Some st -> f st | None -> 0) sessions in
  (* every key misses once per fresh daemon and hits afterwards *)
  let cache_ok =
    List.for_all
      (fun ss ->
        let hits = List.length (List.filter (fun r -> r.cached = Some true) ss.samples) in
        let expect = List.length order - n_keys in
        hits = expect
        && match ss.stats with Some st -> st.Protocol.sv_hits = expect | None -> false)
      sessions
  in
  if not cache_ok then log "[perf] FAILED: hit counts differ from one miss per key";
  let ref_run f = per_pass f [ refpass ] in
  let volume_sum = sum_int (function Ok m -> m.volume | Error _ -> 0) refpass in
  let e2e =
    [
      ("compile_s", reps_metric "s" (ref_run (fun m -> m.compile_s)));
      ("check_s", reps_metric "s" (ref_run (fun m -> m.check_s)));
      (* over every request of the run: one session's p90 is a single
         order statistic among its 36 misses *)
      ( "req_p90_ms",
        metric
          ~samples:
            (List.map
               (fun ss -> 1000. *. percentile 0.9 (List.map (fun r -> r.t1 -. r.t0) ss.samples))
               sessions)
          "ms"
          (1000. *. percentile 0.9 (List.map (fun r -> r.t1 -. r.t0) all)) );
      ( "req_per_s",
        reps_metric "1/s"
          (List.map (fun ss -> float_of_int (List.length ss.samples) /. ss.wall_s) sessions) );
      ("peak_rss_mb", reps_metric "MB" (List.map (fun ss -> ss.rss_mb) sessions));
      ("volume_sum", metric "cells" (float_of_int volume_sum));
      (* every key runs the Full variant only *)
      ("volume_ratio_vs_dual", metric "ratio" 1.);
      ("setup_s", reps_metric "s" setup);
    ]
  in
  let layers, traced_failed =
    traced_layers opts ~circuit_s:(median gen)
      ~untraced:(per_op_median (fun m -> m.compile_s) [ refpass ])
      ~serve:
        {
          hits = stat (fun st -> st.Protocol.sv_hits);
          misses = stat (fun st -> st.Protocol.sv_misses);
          busy = stat (fun st -> st.Protocol.sv_busy);
          errors = stat (fun st -> st.Protocol.sv_errors);
          hit_p50_ms = 1000. *. median (latencies (( = ) (Some true)));
          miss_p50_ms = 1000. *. median (latencies (( = ) (Some false)));
        }
      ops reference
  in
  {
    attempted = List.length all + n_keys + (if opts.trace then n_keys else 0);
    failed = failed_requests + ref_failed + traced_failed;
    checks_ok = cache_ok;
    results = results_of ops refpass;
    metrics = e2e @ layers;
    reps = List.length sessions;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let () =
  let mode, opts = parse_args Sys.argv in
  let kind = if opts.smoke then opts.workload.smoke else opts.workload.full in
  if mode = "setup" then begin
    (match kind with
    | Compile c -> ignore (Sys.opaque_identity (compile_ops opts c))
    | Serve s -> ignore (Sys.opaque_identity (serve_texts opts s)));
    exit 0
  end;
  let o = match kind with Compile c -> run_compile opts c | Serve s -> run_serve opts s in
  let correct = o.failed = 0 && o.checks_ok in
  (* 1 - fail_rate: a gated metric must never read 0 *)
  let o =
    {
      o with
      metrics =
        o.metrics @ [ ("pass_rate", metric "ratio" (ratio (o.attempted - o.failed) o.attempted)) ];
    }
  in
  Printf.printf "workload %s seed %d input-seed %d%s: %d rep(s), %d/%d op(s) failed\n"
    opts.workload.name opts.seed opts.input_seed
    (if opts.smoke then " (smoke)" else "")
    o.reps o.failed o.attempted;
  List.iter
    (fun (name, (m : Ledger.metric)) ->
      Printf.printf "  %-24s %14.6g %s\n" name m.Ledger.value m.Ledger.unit_)
    o.metrics;
  Printf.printf "  %-24s %14.6g ratio\n" "fail_rate" (ratio o.failed o.attempted);
  Option.iter
    (fun path ->
      Ledger.write_file path
        (Ledger.to_json
           {
             Ledger.workload = opts.workload.name;
             seed = opts.seed;
             input_seed = opts.input_seed;
             smoke = opts.smoke;
             traced = opts.trace;
             reps = o.reps;
             attempted = o.attempted;
             failed = o.failed;
             correct;
             results = o.results;
             metrics = o.metrics;
           }))
    opts.out;
  Option.iter (fun path -> Ledger.write_file path (trace_json ())) opts.trace_file;
  let names = if opts.trace then per_layer else end_to_end in
  let reported =
    List.map
      (fun name ->
        match List.assoc_opt name o.metrics with
        | Some m ->
            ( name,
              Json.Obj [ ("value", Json.Float m.Ledger.value); ("unit", Json.String m.unit_) ] )
        | None -> invalid_arg ("metric not measured: " ^ name))
      names
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj reported);
          ]));
  exit (if correct then 0 else 1)
