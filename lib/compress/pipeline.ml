module Icm = Tqec_icm.Icm
module Pd_graph = Tqec_pdgraph.Pd_graph
module Ishape = Tqec_pdgraph.Ishape
module Flipping = Tqec_pdgraph.Flipping
module Dual_bridge = Tqec_pdgraph.Dual_bridge
module Fvalue = Tqec_pdgraph.Fvalue
module Placer = Tqec_place.Placer
module Super_module = Tqec_place.Super_module
module Pathfinder = Tqec_route.Pathfinder
module Grid = Tqec_route.Grid
module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Union_find = Tqec_util.Union_find

type variant = Full | Dual_only | Modular_only

type config = {
  variant : variant;
  effort : Placer.effort;
  seed : int;
  enable_ishape : bool;
  z_cap : int option;
  strategy : Placer.strategy;
  restarts : int;
  jobs : int option;
  early_stop_margin : float option;
  partition : int option;
  corridor_cells : int option;
  corridor_cache : bool;
  sa_moves_cap : int option;
  debug : bool;
  verify : bool option;
}

let default_config =
  { variant = Full; effort = Placer.Normal; seed = 42; enable_ishape = true;
    z_cap = None; strategy = Placer.Annealing; restarts = 1; jobs = None;
    early_stop_margin = Placer.default_config.Placer.early_stop_margin;
    partition = None; corridor_cells = None;
    corridor_cache = Pathfinder.default_config.Pathfinder.corridor_cache;
    sa_moves_cap = None; debug = false; verify = None }

exception
  Stage_failure of {
    stage : string;
    message : string;
  }

let () =
  Printexc.register_printer (function
    | Stage_failure { stage; message } ->
        Some (Printf.sprintf "Pipeline.Stage_failure(%s): %s" stage message)
    | _ -> None)

type stage_stats = {
  st_modules : int;
  st_ishape_merges : int;
  st_points : int;
  st_chains : int;
  st_nodes : int;
  st_nets : int;
  st_merged_nets : int;
  st_dual_bridges : int;
}

type t = {
  icm : Icm.t;
  graph : Pd_graph.t;
  merges : Ishape.merge list;
  flipping : Flipping.t;
  dual : Dual_bridge.t;
  fvalue : Fvalue.t;
  placement : Placer.t;
  routing : Pathfinder.result;
  grid_mem : Grid.mem;
  volume : int;
  stages : stage_stats;
  elapsed : float;
  timings : (string * float) list;
}

(* Every point its own chain: the no-primal-bridging baselines. *)
let trivial_chains (f : Flipping.t) =
  { f with Flipping.chains = List.map (fun (rep, _) -> [ rep ]) f.Flipping.points }

(* Every net its own class: the no-dual-bridging baseline. *)
let trivial_dual (g : Pd_graph.t) =
  let n = Pd_graph.n_nets g in
  {
    Dual_bridge.classes = Union_find.create n;
    merged = List.init n (fun i -> (i, [ i ]));
    n_bridges = 0;
    n_refused = 0;
  }

let distill_pin (placement : Placer.t) node =
  let nd = placement.Placer.sm.Super_module.nodes.(node) in
  let x, y = placement.Placer.node_pos.(node) in
  let bw =
    match nd.Super_module.nd_kind with
    | Super_module.Distill_sm { box = Tqec_geom.Geometry.Y_box; _ } ->
        let w, _, _ = Tqec_geom.Geometry.y_box_dims in
        w
    | Super_module.Distill_sm { box = Tqec_geom.Geometry.A_box; _ } ->
        let w, _, _ = Tqec_geom.Geometry.a_box_dims in
        w
    | _ -> invalid_arg "Pipeline.distill_pin: not a distillation node"
  in
  if placement.Placer.rotated.(node) then Vec3.make x (y + bw) 0
  else Vec3.make (x + bw) y 0

let build_route_nets (g : Pd_graph.t) (placement : Placer.t)
    (flipping : Flipping.t) (dual : Dual_bridge.t) (fvalue : Fvalue.t) =
  (* When the time-order rule leaves several merged structures through
     one module, alternate their exit sides (Fig. 15 planning). *)
  let visits : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let pin m =
    let k = try Hashtbl.find visits m with Not_found -> 0 in
    Hashtbl.replace visits m (k + 1);
    Placer.pin_cell ~opposite:(k land 1 = 1) placement fvalue flipping m
  in
  let nets =
    List.filter_map
      (fun (rep, _members) ->
        let modules = Dual_bridge.modules_of_class g dual rep in
        match modules with
        | [] | [ _ ] -> None
        | ms -> Some { Pathfinder.net_id = rep; pins = List.map pin ms })
      dual.Dual_bridge.merged
  in
  let n_nets = Pd_graph.n_nets g in
  let pseudo =
    List.mapi
      (fun i (box_node, m) ->
        {
          Pathfinder.net_id = n_nets + i;
          (* opposite-side exit (Fig. 15 planning): keeps the injection
             strand out of the merged dual structure's approach cell *)
          pins =
            [
              distill_pin placement box_node;
              Placer.pin_cell ~opposite:true placement fvalue flipping m;
            ];
        })
      placement.Placer.sm.Super_module.pseudo_nets
  in
  nets @ pseudo

let obstacles grid (g : Pd_graph.t) (placement : Placer.t) =
  let sm = placement.Placer.sm in
  (* hash-order: obstacle flags commute, iteration order is irrelevant *)
  Hashtbl.iter
    (fun m _node ->
      if (Pd_graph.module_get g m).Pd_graph.m_alive then
        Grid.set_obstacle grid (Placer.module_cell placement m))
    sm.Super_module.node_of_module;
  Array.iteri
    (fun i nd ->
      match nd.Super_module.nd_kind with
      | Super_module.Distill_sm { box; _ } ->
          let bw, bh, bd =
            match box with
            | Tqec_geom.Geometry.Y_box -> Tqec_geom.Geometry.y_box_dims
            | Tqec_geom.Geometry.A_box -> Tqec_geom.Geometry.a_box_dims
          in
          let x, y = placement.Placer.node_pos.(i) in
          let w, h =
            if placement.Placer.rotated.(i) then (bh, bw) else (bw, bh)
          in
          Grid.set_obstacle_box grid
            (Box3.make (Vec3.make x y 0)
               (Vec3.make (x + w - 1) (y + h - 1) (bd - 1)))
      | _ -> ())
    sm.Super_module.nodes

let placement_bbox ?(extra_z = 0) (placement : Placer.t) =
  Box3.make Vec3.zero
    (Vec3.make
       (max 0 (placement.Placer.width - 1))
       (max 0 (placement.Placer.height - 1))
       (max 0 (placement.Placer.depth - 1 + extra_z)))

(* Routability-driven capacity planning: estimate the routed wire demand
   (3D half-perimeter per net, scaled by a Steiner factor for many-pin
   nets) and extend the die with enough routing layers that the demand
   fits at moderate utilization.  The space these layers add is honest
   space-time volume: the measured bounding box grows only where the
   router actually uses them. *)
let routing_layers (placement : Placer.t) nets =
  let hpwl_3d pins =
    match pins with
    | [] -> 0
    | (p : Vec3.t) :: rest ->
        let x0 = ref p.x and x1 = ref p.x in
        let y0 = ref p.y and y1 = ref p.y in
        let z0 = ref p.z and z1 = ref p.z in
        List.iter
          (fun (q : Vec3.t) ->
            x0 := min !x0 q.x;
            x1 := max !x1 q.x;
            y0 := min !y0 q.y;
            y1 := max !y1 q.y;
            z0 := min !z0 q.z;
            z1 := max !z1 q.z)
          rest;
        !x1 - !x0 + (!y1 - !y0) + (!z1 - !z0)
  in
  let demand =
    List.fold_left
      (fun acc (n : Pathfinder.net) ->
        let pins = List.length n.Pathfinder.pins in
        let steiner = Float.max 1.0 (sqrt (float_of_int pins /. 4.0)) in
        acc +. (float_of_int (hpwl_3d n.Pathfinder.pins) *. steiner))
      0. nets
  in
  let area = float_of_int (max 1 (placement.Placer.width * placement.Placer.height)) in
  Tqec_util.Stats.clamp 1 16 (int_of_float (Float.ceil (1.5 *. demand /. area)))

(* The routing grid: the placement's die extended by [extra_z] routing
   layers, with module obstacles and shared pin cells marked. *)
let build_route_grid ~extra_z graph placement nets =
  let die = placement_bbox ~extra_z placement in
  let grid = Grid.create ~die (Box3.inflate 2 die) in
  obstacles grid graph placement;
  (* pin cells are capacity-exempt: several dual strands may thread the
     same primal loop *)
  List.iter
    (fun (n : Pathfinder.net) -> List.iter (Grid.set_shared grid) n.Pathfinder.pins)
    nets;
  grid

let rec run_icm ?(config = default_config) ?on_stage icm =
  let debug = config.debug in
  (* Generated ICMs are acyclic by construction, but hand-built or
     corrupted ones are not: gate here so a cyclic constraint DAG
     surfaces as a structured stage failure instead of escaping as a
     bare exception from deep inside a stage. *)
  (match Tqec_icm.Constraints.topological_order icm with
  | (_ : int list) -> ()
  | exception Tqec_icm.Constraints.Cycle { emitted; total } ->
      raise
        (Stage_failure
           {
             stage = "icm";
             message =
               Printf.sprintf
                 "constraint graph is cyclic (%d of %d measurements \
                  ordered)"
                 emitted total;
           }));
  (* wallclock: stage timings are reporting-only; they never reach
     compression results or any diffed output *)
  let t0 = Unix.gettimeofday () in
  let timings = ref [] in
  let last_mark = ref t0 in
  let mark name =
    (* wallclock: same reporting-only timing as [t0] above *)
    let now = Unix.gettimeofday () in
    let dt = now -. !last_mark in
    timings := (name, dt) :: !timings;
    last_mark := now;
    (match on_stage with Some f -> f name dt | None -> ());
    if debug then
      Printf.eprintf "[pipeline] %-12s %6.2fs\n%!" name (now -. t0)
  in
  let graph = Pd_graph.of_icm icm in
  let st_modules = Pd_graph.n_modules_constructed graph in
  let merges =
    match config.variant with
    | Full when config.enable_ishape -> Ishape.run graph
    | Full | Dual_only | Modular_only -> []
  in
  let time_sms = Super_module.time_sm_modules graph in
  let in_time_sm = Hashtbl.create 64 in
  List.iter
    (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_time_sm m ()) ms)
    time_sms;
  let exclude m = Hashtbl.mem in_time_sm m in
  let flipping =
    let f = Flipping.run ~rng:(Tqec_util.Rng.create config.seed) ~exclude graph in
    match config.variant with Full -> f | _ -> trivial_chains f
  in
  let dual =
    match config.variant with
    | Full | Dual_only -> Dual_bridge.run graph
    | Modular_only -> trivial_dual graph
  in
  mark "bridging";
  let fvalue = Fvalue.plan flipping in
  let placer_config =
    {
      Placer.default_config with
      effort = config.effort;
      seed = config.seed;
      z_cap = config.z_cap;
      strategy = config.strategy;
      restarts = config.restarts;
      jobs = config.jobs;
      early_stop_margin = config.early_stop_margin;
      partition = config.partition;
      sa_moves_cap = config.sa_moves_cap;
    }
  in
  let placement = Placer.place ~config:placer_config graph flipping dual fvalue in
  mark "placement";
  let nets = build_route_nets graph placement flipping dual fvalue in
  (* computed once: the debug line reports exactly the extra layers the
     routing grid is built with *)
  let extra_z = routing_layers placement nets in
  if debug then
    Printf.eprintf "[pipeline] nets=%d pins=%d grid=%dx%dx%d extra_z=%d\n%!"
      (List.length nets)
      (List.fold_left (fun a (n : Pathfinder.net) -> a + List.length n.Pathfinder.pins) 0 nets)
      placement.Placer.width placement.Placer.height placement.Placer.depth
      extra_z;
  let grid = build_route_grid ~extra_z graph placement nets in
  let routing =
    let route_config =
      match config.corridor_cells with
      | None ->
          { Pathfinder.default_config with jobs = config.jobs;
            corridor_cache = config.corridor_cache; debug = config.debug }
      | Some cells ->
          { Pathfinder.default_config with jobs = config.jobs;
            corridor_cells = cells; corridor_cache = config.corridor_cache;
            debug = config.debug }
    in
    (* the A* scratch is sized by the largest search: nothing after
       this stage searches, so neither the check nor a daemon's idle
       time holds it *)
    Fun.protect ~finally:Pathfinder.release_scratch (fun () ->
        Pathfinder.route_all grid route_config nets)
  in
  mark "routing";
  (* recorded before the grid is dropped: how much of the substrate
     volume the sparse grid actually materialized *)
  let grid_mem = Grid.mem grid in
  let all_boxes =
    List.init (Array.length placement.Placer.sm.Super_module.nodes) (fun i ->
        Placer.node_box placement i)
  in
  let route_cells =
    List.concat_map (fun r -> r.Pathfinder.r_cells) routing.Pathfinder.routes
  in
  (* Empty-tolerant bounding box: a circuit with zero placeable blocks
     and zero routes (empty / Pauli-only / H-only inputs) has volume 0,
     matching the verifier's from-scratch recompute — not the volume-1
     phantom cell a [Vec3.zero] seed box would report. *)
  let bbox =
    let join acc b =
      match acc with None -> Some b | Some a -> Some (Box3.join a b)
    in
    let acc = List.fold_left join None all_boxes in
    List.fold_left (fun acc c -> join acc (Box3.of_cell c)) acc route_cells
  in
  let volume = match bbox with None -> 0 | Some b -> Box3.volume b in
  let stages =
    {
      st_modules;
      st_ishape_merges = List.length merges;
      st_points = List.length flipping.Flipping.points;
      st_chains = List.length flipping.Flipping.chains;
      st_nodes = Array.length placement.Placer.sm.Super_module.nodes;
      st_nets = Pd_graph.n_nets graph;
      st_merged_nets = List.length dual.Dual_bridge.merged;
      st_dual_bridges = dual.Dual_bridge.n_bridges;
    }
  in
  mark "finish";
  let r =
    {
      icm;
      graph;
      merges;
      flipping;
      dual;
      fvalue;
      placement;
      routing;
      grid_mem;
      volume;
      stages;
      (* wallclock: [elapsed] is reporting-only and excluded from every
         porcelain/diffed output *)
      elapsed = Unix.gettimeofday () -. t0;
      timings = List.rev !timings;
    }
  in
  if config.verify = Some true then begin
    let report = verify r in
    if not (Tqec_verify.Violation.ok report) then begin
      prerr_string (Tqec_verify.Violation.render report);
      (* A structured, catchable failure: a serving daemon turns it into
         a failed-request response instead of losing a worker to an
         anonymous [Failure] (the pre-daemon behavior). *)
      raise
        (Stage_failure
           {
             stage = "verify";
             message =
               Printf.sprintf "%d violation(s) on %s"
                 (List.length report.Tqec_verify.Violation.violations)
                 icm.Icm.name;
           })
    end
  end;
  r

and verify ?stages (r : t) =
  let module V = Tqec_verify.Violation in
  let artifacts a_geometry =
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
      a_geometry;
    }
  in
  (* Emission is the costliest artifact and only the geometry stage, the
     last, reads it: the other stages run first, so none of them runs
     on top of the emitted geometry. *)
  let selected = Tqec_verify.Check.selected ?stages () in
  let others = List.filter (fun st -> st <> V.Geometry) selected in
  let report =
    if others = [] then { V.checked = []; violations = [] }
    else Tqec_verify.Check.run ~stages:others (artifacts None)
  in
  if not (List.mem V.Geometry selected) then report
  else
    let geometry =
      Emit_core.geometry ~name:r.icm.Icm.name ~graph:r.graph
        ~flipping:r.flipping ~placement:r.placement ~routing:r.routing
    in
    let g =
      Tqec_verify.Check.run ~stages:[ V.Geometry ] (artifacts (Some geometry))
    in
    {
      V.checked = report.V.checked @ g.V.checked;
      violations = report.V.violations @ g.V.violations;
    }

let run ?(config = default_config) ?on_stage circuit =
  let circuit =
    if Tqec_circuit.Circuit.is_clifford_t circuit then circuit
    else Tqec_circuit.Clifford_t.decompose circuit
  in
  run_icm ~config ?on_stage (Tqec_icm.Decompose.run circuit)

(* The deterministic result record: exactly what `tqecc compress` prints
   minus the wall-clock tail.  A pure function of (input, seed, knobs) —
   the serving daemon caches and returns these bytes verbatim, so parity
   between a served response and a local CLI run is a string equality. *)
let summary (r : t) =
  let p = r.placement in
  Printf.sprintf
    "%s: volume=%s (%dx%dx%d) modules=%d nodes=%d bridges=%d routed=%b"
    r.icm.Icm.name
    (Tqec_util.Pretty.int_with_commas r.volume)
    p.Placer.width p.Placer.height p.Placer.depth r.stages.st_modules
    r.stages.st_nodes r.stages.st_dual_bridges
    r.routing.Pathfinder.success

(* Digest of everything the determinism contract promises: reported
   volume, die dimensions, every node position and rotation, and every
   routed cell of every net in order.  Two runs agree on this hex
   string iff they agree on the full geometric result — the equality
   the jobs-invariance and corridor-cache cross-checks pin.  Lives here
   (not in the fuzz harness) so the CLI can print it and build rules
   can diff it. *)
let fingerprint (r : t) =
  let b = Buffer.create 1024 in
  let p = r.placement in
  Printf.bprintf b "v=%d w=%d h=%d d=%d|" r.volume p.Placer.width
    p.Placer.height p.Placer.depth;
  Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d;" x y) p.Placer.node_pos;
  Array.iter
    (fun rot -> Buffer.add_char b (if rot then 'R' else '.'))
    p.Placer.rotated;
  List.iter
    (fun (route : Pathfinder.routed) ->
      Printf.bprintf b "|n%d:" route.Pathfinder.r_net;
      List.iter
        (fun (c : Vec3.t) ->
          Printf.bprintf b "%d.%d.%d," c.Vec3.x c.Vec3.y c.Vec3.z)
        route.Pathfinder.r_cells)
    r.routing.Pathfinder.routes;
  Digest.to_hex (Digest.string (Buffer.contents b))
