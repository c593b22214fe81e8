(* Route-stress harness: runs the strengthened routing validators over
   benchmark-suite geometries and fails (exit 1) on any legality error,
   so routing regressions break `dune runtest` via the @route-stress
   alias.

   Each instance runs the full flow at quick effort, then re-checks the
   result with [Pipeline.verify] — placement overlap, routing
   connectivity/pin coverage, obstacle and bounds legality, capacity and
   overuse accounting — and finally cross-checks the router's
   determinism by re-routing under a different worker count: routes
   and the A* work counters (open-set pops and pushes) must both match.

   Environment:
     TQEC_STRESS_BENCHMARKS = comma-separated suite names
                              (default: the two smallest instances)
     TQEC_STRESS_SCALE      = instance scale divisor (default 4)
     TQEC_SEED              = random seed (default 42) *)

module Suite = Tqec_circuit.Suite
module Pipeline = Tqec_compress.Pipeline
module Pathfinder = Tqec_route.Pathfinder

let benchmarks =
  match Sys.getenv_opt "TQEC_STRESS_BENCHMARKS" with
  | Some s -> String.split_on_char ',' s |> List.map String.trim
  | None -> [ "4gt10-v1_81"; "4gt4-v0_73" ]

let scale =
  match Sys.getenv_opt "TQEC_STRESS_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> v | _ -> 4)
  | None -> 4

let seed =
  match
    Tqec_compress.Knobs.of_env ~vars:[ "TQEC_SEED" ] Sys.getenv_opt
      Pipeline.default_config
  with
  | Ok config -> config.Pipeline.seed
  | Error msg ->
      prerr_endline ("route-stress: " ^ msg);
      exit 2

let run_one name =
  match Suite.find name with
  | None ->
      Printf.eprintf "[route-stress] unknown benchmark %s (suite: %s)\n%!" name
        (String.concat ", " Suite.names);
      false
  | Some entry ->
      let circuit = Suite.scaled ~factor:scale entry in
      (* the result and the run's A* open-set traffic *)
      let run jobs =
        let module Counters = Tqec_route.Counters in
        Counters.reset ();
        let r =
          Pipeline.run
            ~config:
              {
                Pipeline.default_config with
                effort = Tqec_place.Placer.Quick;
                seed;
                jobs;
              }
            circuit
        in
        let s = Counters.stats () in
        (r, (s.Counters.astar_pops, s.Counters.astar_pushes))
      in
      let r, (pops, pushes) = run (Some 1) in
      let issues = Tqec_verify.Violation.to_strings (Pipeline.verify r) in
      let routed = r.Pipeline.routing.Pathfinder.success in
      let r4, work4 = run (Some 4) in
      let deterministic = r4.Pipeline.routing = r.Pipeline.routing in
      let work_invariant = work4 = (pops, pushes) in
      Printf.printf
        "[route-stress] %-18s volume=%-9d nets-routed=%b iterations=%d \
         overused=%d validator-errors=%d jobs-invariant=%b astar-pops=%d \
         astar-pushes=%d work-invariant=%b\n%!"
        (circuit.Tqec_circuit.Circuit.name)
        r.Pipeline.volume routed
        r.Pipeline.routing.Pathfinder.iterations_used
        r.Pipeline.routing.Pathfinder.overused_after (List.length issues)
        deterministic pops pushes work_invariant;
      List.iter (fun e -> Printf.eprintf "[route-stress]   error: %s\n%!" e) issues;
      if not deterministic then
        Printf.eprintf
          "[route-stress]   error: routing differs between jobs=1 and jobs=4\n%!";
      if not work_invariant then
        Printf.eprintf
          "[route-stress]   error: A* pops/pushes %d/%d at jobs=1 but %d/%d at \
           jobs=4\n%!"
          pops pushes (fst work4) (snd work4);
      issues = [] && routed && deterministic && work_invariant

(* Sparse-substrate fixture: a routing box far larger than the occupied
   skeleton — the tentpole's asymptotic regime.  A 96x96x64 substrate
   (~590k cells) carries 24 long nets confined near the z=1 plane,
   threaded through gaps in an obstacle wall.  Shared between the
   sparse-grid stress and the corridor-cache cross-check below. *)
module Grid = Tqec_route.Grid
module Box3 = Tqec_util.Box3
module Vec3 = Tqec_util.Vec3

let sparse_box = Box3.make Vec3.zero (Vec3.make 95 95 63)

let sparse_nets =
  List.init 24 (fun i ->
      let x = (4 * i) + 1 in
      {
        Pathfinder.net_id = i;
        pins = [ Vec3.make x 2 1; Vec3.make x 93 1 ];
      })

let mk_sparse_grid () =
  let g = Grid.create sparse_box in
  (* obstacle wall across the die at y=48, z=0..3, with gaps every
     16 columns: every net detours through a shared gap *)
  for x = 0 to 95 do
    if x mod 16 <> 4 then
      for z = 0 to 3 do
        Grid.set_obstacle g (Vec3.make x 48 z)
      done
  done;
  List.iter
    (fun (n : Pathfinder.net) ->
      List.iter (Grid.set_shared g) n.Pathfinder.pins)
    sparse_nets;
  g

let route_sparse ?(corridor_cache = true) ~corridor_cells ~jobs () =
  let g = mk_sparse_grid () in
  let r =
    Pathfinder.route_all g
      { Pathfinder.default_config with jobs; corridor_cells; corridor_cache }
      sparse_nets
  in
  (g, r)

(* The sparse grid must materialize only the touched slab (the z-tile
   row the routes live in), and the hierarchical corridor path (forced
   with corridor_cells = 0) must stay legal and bit-identical between
   jobs=1 and jobs=4. *)
let sparse_substrate () =
  let g_flat, flat = route_sparse ~corridor_cells:max_int ~jobs:(Some 1) () in
  let _, corr1 = route_sparse ~corridor_cells:0 ~jobs:(Some 1) () in
  let g_corr, corr4 = route_sparse ~corridor_cells:0 ~jobs:(Some 4) () in
  let nets = sparse_nets in
  let flat_issues = Pathfinder.validate g_flat flat nets in
  let corr_issues = Pathfinder.validate g_corr corr4 nets in
  let jobs_invariant = corr1 = corr4 in
  let m = Grid.mem g_corr in
  (* the substrate is 8 z-tile rows; the routes live in the bottom one *)
  let sparse = m.Grid.mem_touched_cells * 4 < m.Grid.mem_cells in
  Printf.printf
    "[route-stress] sparse-substrate    routed=%b/%b corridor-legal=%d \
     flat-legal=%d jobs-invariant=%b touched=%d/%d cells (%.1f%%) sparse=%b\n%!"
    flat.Pathfinder.success corr4.Pathfinder.success
    (List.length corr_issues) (List.length flat_issues) jobs_invariant
    m.Grid.mem_touched_cells m.Grid.mem_cells
    (100. *. float_of_int m.Grid.mem_touched_cells
     /. float_of_int (max 1 m.Grid.mem_cells))
    sparse;
  List.iter
    (fun e -> Printf.eprintf "[route-stress]   corridor error: %s\n%!" e)
    corr_issues;
  List.iter
    (fun e -> Printf.eprintf "[route-stress]   flat error: %s\n%!" e)
    flat_issues;
  if not jobs_invariant then
    Printf.eprintf
      "[route-stress]   error: corridor routing differs between jobs=1 and \
       jobs=4\n%!";
  if not sparse then
    Printf.eprintf
      "[route-stress]   error: sparse grid materialized most of the \
       substrate\n%!";
  flat.Pathfinder.success && corr4.Pathfinder.success && flat_issues = []
  && corr_issues = [] && jobs_invariant && sparse

(* Corridor-cache cross-check on the sparse substrate: with the
   hierarchical path forced (corridor_cells = 0), routes must be
   bit-identical with the cache on and off, and with the cache on at
   jobs=1 and jobs=4 — the cache is a pure memoization of the coarse
   tile-graph search, certified by tile-summary generations and the
   net's own rip/claim bookkeeping, so it may never change a route.
   The counters pin the accounting: during a cache-enabled run every
   coarse search is a recorded miss.  Hit evidence comes from a real
   negotiation workload below — the sparse substrate routes conflict
   free in one iteration, so its lookups are all first-time misses. *)
let corridor_cache_stress () =
  let module Counters = Tqec_route.Counters in
  Counters.reset ();
  let _, on1 = route_sparse ~corridor_cells:0 ~jobs:(Some 1) () in
  let s = Counters.stats () in
  let _, off1 =
    route_sparse ~corridor_cache:false ~corridor_cells:0 ~jobs:(Some 1) ()
  in
  let _, on4 = route_sparse ~corridor_cells:0 ~jobs:(Some 4) () in
  let cache_invariant = on1 = off1 in
  let jobs_invariant = on1 = on4 in
  let accounted = s.Counters.coarse_searches = s.Counters.cache_misses in
  (* Steady-state scratch: the calling domain's A* workspace (every
     search at jobs=1 runs there) persists in domain-local storage
     across back-to-back [route_all] calls (only a pipeline run drops
     it, when its routing stage ends) and is warmed by the runs above
     (the full grid-box escalation step sizes it to the largest
     region), so a repeat run — widening ladder included — must not
     reallocate any score array. *)
  Counters.reset ();
  let _, warm = route_sparse ~corridor_cells:0 ~jobs:(Some 1) () in
  let grows = (Counters.stats ()).Counters.scratch_grows in
  (* Hit evidence on a congested negotiation workload: the smallest
     suite instance with a corridor threshold low enough that the
     hierarchical path carries the whole iteration 2+ re-route traffic.
     Nets whose key regions stay generation-quiet across iterations
     replay their corridors; routes must still match the uncached run
     bit for bit (fingerprint equality through the full pipeline), and
     the uncached run must record no hit. *)
  let pipeline_run corridor_cache =
    match Suite.find "4gt10-v1_81" with
    | None -> None
    | Some entry ->
        let circuit = Suite.scaled ~factor:4 entry in
        Some
          (Pipeline.run
             ~config:
               {
                 Pipeline.default_config with
                 effort = Tqec_place.Placer.Quick;
                 seed;
                 jobs = Some 1;
                 corridor_cells = Some 64;
                 corridor_cache;
               }
             circuit)
  in
  Counters.reset ();
  let cached = pipeline_run true in
  let ps = Counters.stats () in
  Counters.reset ();
  let uncached = pipeline_run false in
  let off_hits = (Counters.stats ()).Counters.cache_hits in
  let pipeline_hits = ps.Counters.cache_hits in
  let pipeline_invariant =
    match (cached, uncached) with
    | Some a, Some b -> Pipeline.fingerprint a = Pipeline.fingerprint b
    | _ -> false
  in
  Printf.printf
    "[route-stress] corridor-cache     cache-invariant=%b jobs-invariant=%b \
     misses=%d stale=%d accounted=%b steady-scratch-grows=%d \
     pipeline-hits=%d off-hits=%d pipeline-invariant=%b\n%!"
    cache_invariant jobs_invariant s.Counters.cache_misses
    s.Counters.cache_stale accounted grows pipeline_hits off_hits
    pipeline_invariant;
  if not cache_invariant then
    Printf.eprintf
      "[route-stress]   error: routes differ between corridor-cache on and \
       off\n%!";
  if not jobs_invariant then
    Printf.eprintf
      "[route-stress]   error: cached corridor routing differs between \
       jobs=1 and jobs=4\n%!";
  if not accounted then
    Printf.eprintf
      "[route-stress]   error: coarse searches (%d) <> cache misses (%d) \
       during a cache-enabled run\n%!"
      s.Counters.coarse_searches s.Counters.cache_misses;
  if grows > 0 then
    Printf.eprintf
      "[route-stress]   error: %d scratch reallocations on a steady-state \
       re-route (want 0)\n%!"
      grows;
  if pipeline_hits = 0 then
    Printf.eprintf
      "[route-stress]   error: corridor cache recorded no hits on the \
       congested pipeline workload\n%!";
  if off_hits > 0 then
    Printf.eprintf
      "[route-stress]   error: %d corridor-cache hits with the cache off\n%!"
      off_hits;
  if not pipeline_invariant then
    Printf.eprintf
      "[route-stress]   error: pipeline fingerprint differs between \
       corridor-cache on and off\n%!";
  warm.Pathfinder.success && cache_invariant && jobs_invariant && accounted
  && grows = 0 && pipeline_hits > 0 && off_hits = 0 && pipeline_invariant

(* Router counters are jobs-invariant on the corridor path too: batch
   workers search the live grid at every worker count, so the corridor
   cache certifies — and the counters record — the same lookups,
   searches and open-set traffic at jobs=1 and jobs=4.  Only
   [scratch_grows] may differ, because each domain warms its own A*
   scratch and a batch's helper domains start with empty ones.  tier-x1 at a corridor threshold of 64 cells negotiates
   through several batch iterations, with corridor hits among them.
   At the default seed the jobs=1 pops and pushes must also equal their
   recorded values. *)
let corridor_counters () =
  let module Counters = Tqec_route.Counters in
  let run jobs =
    match Tqec_circuit.Generator.tier_of_name "tier-x1" with
    | None -> None
    | Some circuit ->
        Counters.reset ();
        ignore
          (Pipeline.run
             ~config:
               {
                 Pipeline.default_config with
                 effort = Tqec_place.Placer.Quick;
                 seed;
                 jobs;
                 corridor_cells = Some 64;
               }
             circuit);
        Some { (Counters.stats ()) with Counters.scratch_grows = 0 }
  in
  let show = function
    | None -> "no tier-x1"
    | Some s ->
        Printf.sprintf
          "hits=%d misses=%d stale=%d coarse=%d fine=%d flat=%d fallbacks=%d \
           astar-pops=%d astar-pushes=%d"
          s.Counters.cache_hits s.Counters.cache_misses s.Counters.cache_stale
          s.Counters.coarse_searches s.Counters.fine_searches
          s.Counters.flat_searches s.Counters.flat_fallbacks
          s.Counters.astar_pops s.Counters.astar_pushes
  in
  let one = run (Some 1) in
  let four = run (Some 4) in
  let invariant = one <> None && one = four in
  Printf.printf "[route-stress] corridor-counters  jobs-invariant=%b %s\n%!"
    invariant (show one);
  if not invariant then
    Printf.eprintf
      "[route-stress]   error: tier-x1 router counters differ between \
       jobs=1 (%s) and jobs=4 (%s)\n%!"
      (show one) (show four);
  (* The open-set traffic pins the search order: a queue that reorders
     equal-key entries moves it even where every route agrees. *)
  let pinned =
    seed <> Pipeline.default_config.Pipeline.seed
    ||
    match one with
    | Some s -> s.Counters.astar_pops = 338337 && s.Counters.astar_pushes = 619633
    | None -> false
  in
  if not pinned then
    Printf.eprintf
      "[route-stress]   error: tier-x1 jobs=1 counters (%s) differ from the \
       recorded astar-pops=338337 astar-pushes=619633\n%!"
      (show one);
  invariant && pinned

let () =
  let ok = List.fold_left (fun acc name -> run_one name && acc) true benchmarks in
  let ok = sparse_substrate () && ok in
  let ok = corridor_cache_stress () && ok in
  let ok = corridor_counters () && ok in
  if ok then print_endline "[route-stress] all geometries legal"
  else begin
    prerr_endline "[route-stress] FAILED";
    exit 1
  end
