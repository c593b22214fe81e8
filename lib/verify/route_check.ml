module Pd = Tqec_pdgraph.Pd_graph
module Flipping = Tqec_pdgraph.Flipping
module Dual_bridge = Tqec_pdgraph.Dual_bridge
module Fvalue = Tqec_pdgraph.Fvalue
module Placer = Tqec_place.Placer
module Super_module = Tqec_place.Super_module
module Pathfinder = Tqec_route.Pathfinder
module Grid = Tqec_route.Grid
module Geometry = Tqec_geom.Geometry
module Defect = Tqec_geom.Defect
module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Cell_index = Tqec_util.Cell_index
module V = Violation

(* ------------------------------------------------------------------ *)
(* Independent reconstruction of the routing problem.                  *)
(*                                                                     *)
(* The checker rebuilds the net list and the grid (die, obstacle and    *)
(* shared-pin masks) from the placement alone, mirroring the documented *)
(* construction instead of borrowing the pipeline's instances: the      *)
(* routes must be legal against a problem derived from first            *)
(* principles, not against whatever grid the router happened to hold.  *)
(* ------------------------------------------------------------------ *)

let distill_pin (placement : Placer.t) node =
  let nd = placement.Placer.sm.Super_module.nodes.(node) in
  let x, y = placement.Placer.node_pos.(node) in
  let bw =
    match nd.Super_module.nd_kind with
    | Super_module.Distill_sm { box = Geometry.Y_box; _ } ->
        let w, _, _ = Geometry.y_box_dims in
        w
    | Super_module.Distill_sm { box = Geometry.A_box; _ } ->
        let w, _, _ = Geometry.a_box_dims in
        w
    | _ -> invalid_arg "Route_check.distill_pin: not a distillation node"
  in
  if placement.Placer.rotated.(node) then Vec3.make x (y + bw) 0
  else Vec3.make (x + bw) y 0

let build_nets (g : Pd.t) (placement : Placer.t) (flipping : Flipping.t)
    (dual : Dual_bridge.t) (fvalue : Fvalue.t) =
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
  let n_nets = Pd.n_nets g in
  let pseudo =
    List.mapi
      (fun i (box_node, m) ->
        {
          Pathfinder.net_id = n_nets + i;
          pins =
            [
              distill_pin placement box_node;
              Placer.pin_cell ~opposite:true placement fvalue flipping m;
            ];
        })
      placement.Placer.sm.Super_module.pseudo_nets
  in
  nets @ pseudo

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
  let area =
    float_of_int (max 1 (placement.Placer.width * placement.Placer.height))
  in
  Tqec_util.Stats.clamp 1 16 (int_of_float (Float.ceil (1.5 *. demand /. area)))

let build_grid (g : Pd.t) (placement : Placer.t) nets =
  let die =
    Box3.make Vec3.zero
      (Vec3.make
         (max 0 (placement.Placer.width - 1))
         (max 0 (placement.Placer.height - 1))
         (max 0 (placement.Placer.depth - 1 + routing_layers placement nets)))
  in
  let grid = Grid.create ~die (Box3.inflate 2 die) in
  let sm = placement.Placer.sm in
  (* hash-order: obstacle flags commute, iteration order is irrelevant *)
  Hashtbl.iter
    (fun m _node ->
      if (Pd.module_get g m).Pd.m_alive then
        Grid.set_obstacle grid (Placer.module_cell placement m))
    sm.Super_module.node_of_module;
  Array.iteri
    (fun i nd ->
      match nd.Super_module.nd_kind with
      | Super_module.Distill_sm { box; _ } ->
          let bw, bh, bd =
            match box with
            | Geometry.Y_box -> Geometry.y_box_dims
            | Geometry.A_box -> Geometry.a_box_dims
          in
          let x, y = placement.Placer.node_pos.(i) in
          let w, h =
            if placement.Placer.rotated.(i) then (bh, bw) else (bw, bh)
          in
          Grid.set_obstacle_box grid
            (Box3.make (Vec3.make x y 0)
               (Vec3.make (x + w - 1) (y + h - 1) (bd - 1)))
      | _ -> ())
    sm.Super_module.nodes;
  List.iter
    (fun (n : Pathfinder.net) ->
      List.iter (Grid.set_shared grid) n.Pathfinder.pins)
    nets;
  grid

(* Bounding-box volume of the full result (node footprints plus routed
   cells), recomputed from scratch. *)
let recompute_volume (placement : Placer.t) (routing : Pathfinder.result) =
  let n = Array.length placement.Placer.sm.Super_module.nodes in
  let bbox = ref None in
  let join b = bbox := Some (match !bbox with None -> b | Some a -> Box3.join a b) in
  for i = 0 to n - 1 do
    join (Placer.node_box placement i)
  done;
  List.iter
    (fun (r : Pathfinder.routed) ->
      List.iter (fun c -> join (Box3.of_cell c)) r.Pathfinder.r_cells)
    routing.Pathfinder.routes;
  match !bbox with None -> 0 | Some b -> Box3.volume b

let check (g : Pd.t) (flipping : Flipping.t) (dual : Dual_bridge.t)
    (fvalue : Fvalue.t) (placement : Placer.t) (routing : Pathfinder.result)
    ~reported_volume =
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let nets = build_nets g placement flipping dual fvalue in
  let grid = build_grid g placement nets in
  List.iter
    (fun msg -> add (V.make V.Routing ~code:"legality" msg))
    (Pathfinder.validate grid routing nets);
  if routing.Pathfinder.unrouted <> [] then
    add
      (V.makef V.Routing ~code:"unrouted" "%d net(s) left unrouted: {%s}"
         (List.length routing.Pathfinder.unrouted)
         (String.concat ", "
            (List.map string_of_int
               (List.sort Int.compare routing.Pathfinder.unrouted))));
  let volume = recompute_volume placement routing in
  if volume <> reported_volume then
    add
      (V.makef V.Routing ~code:"volume"
         "reported space-time volume %d but node boxes and routed cells \
          recompute to %d"
         reported_volume volume);
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Emitted geometry against the claimed routes.                        *)
(* ------------------------------------------------------------------ *)

let sorted_cells cells = List.sort_uniq compare cells

let structure_cells strands =
  sorted_cells (List.concat_map Defect.cells strands)

let cell_str (c : Vec3.t) = Printf.sprintf "(%d, %d, %d)" c.x c.y c.z

(* [diff_sorted expected actual] on two ascending, duplicate-free lists
   is [(missing, extra)]: the cells only in [expected] and the cells
   only in [actual], each ascending.  One merge pass. *)
let diff_sorted expected actual =
  let rec go missing extra = function
    | [], rest -> (List.rev missing, List.rev_append extra rest)
    | rest, [] -> (List.rev_append missing rest, List.rev extra)
    | (e :: es as el), (a :: as_ as al) ->
        let c = compare e a in
        if c = 0 then go missing extra (es, as_)
        else if c < 0 then go (e :: missing) extra (es, al)
        else go missing (a :: extra) (el, as_)
  in
  go [] [] (expected, actual)

(* Dual structure ids follow the primal ones in route order; a cell
   visited by several routes (a shared pin) is emitted for the first
   visitor only, so the comparison replays that ownership rule.  The
   routed cells are sorted once by (cell, listing); the strands are then
   walked once, in place, each vertex's cell looked up by its
   coordinates, so neither side is grouped or copied per structure. *)
let dual_cells ~first_dual (routes : Pathfinder.routed list) (geom : Geometry.t) =
  let routes = Array.of_list routes in
  let n_routes = Array.length routes in
  (* every routed cell, route after route: route [i] lists the
     positions [start.(i)] to [start.(i + 1) - 1] *)
  let start = Array.make (n_routes + 1) 0 in
  Array.iteri
    (fun i (r : Pathfinder.routed) ->
      start.(i + 1) <- start.(i) + List.length r.Pathfinder.r_cells)
    routes;
  let n = start.(n_routes) in
  let cells = Array.make n Vec3.zero in
  Array.iteri
    (fun i (r : Pathfinder.routed) ->
      List.iteri (fun j c -> cells.(start.(i) + j) <- c) r.Pathfinder.r_cells)
    routes;
  let idx = Cell_index.make cells in
  let route_of p =
    (* the last route starting at or before [p] *)
    let lo = ref 0 and hi = ref n_routes in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) lsr 1 in
      if start.(mid) <= p then lo := mid else hi := mid
    done;
    !lo
  in
  (* Ownership.  A cell's listings lie together, by position, so route
     by route: the first is the owner's, and a route keeps the cell
     when its net is the owner's.  The first listing of a kept cell in
     its route stands for the pair: [rep] marks it 1, and 2 once the
     route's structure has emitted the cell. *)
  let rep = Bytes.make n '\000' in
  let expected = Array.make n_routes 0 in
  let owner = ref 0 and last = ref (-1) in
  for k = 0 to n - 1 do
    let p = Cell_index.position idx k in
    let i = route_of p in
    if Cell_index.first idx k then begin
      owner := routes.(i).Pathfinder.r_net;
      last := -1
    end;
    if routes.(i).Pathfinder.r_net = !owner && i <> !last then begin
      Bytes.set rep p '\001';
      expected.(i) <- expected.(i) + 1;
      last := i
    end
  done;
  (* the standing listing of cell (x, y, z) in route [i], or -1 *)
  let rep_in i x y z =
    let k = ref (Cell_index.find idx x y z) and found = ref (-1) in
    while
      !found < 0 && !k >= 0 && !k < n
      &&
      let c = Cell_index.cell idx !k in
      c.x = x && c.y = y && c.z = z
    do
      let p = Cell_index.position idx !k in
      if Bytes.get rep p <> '\000' && route_of p = i then found := p else incr k
    done;
    !found
  in
  let matched = Array.make n_routes 0 in
  (* emitted cells a route does not keep: only a faulty emission fills
     this *)
  let extras = Hashtbl.create 16 and structures = Hashtbl.create 64 in
  List.iter
    (fun (d : Defect.t) ->
      if d.dtype = Defect.Dual then begin
        Hashtbl.replace structures d.structure ();
        let i = d.structure - first_dual in
        if i >= 0 && i < n_routes then
          (* a vertex's cell is its coordinates halved, rounding down *)
          List.iter
            (fun (v : Vec3.t) ->
              let x = v.x asr 1 and y = v.y asr 1 and z = v.z asr 1 in
              let p = rep_in i x y z in
              if p < 0 then Hashtbl.replace extras (i, Vec3.make x y z) ()
              else if Bytes.get rep p = '\001' then begin
                Bytes.set rep p '\002';
                matched.(i) <- matched.(i) + 1
              end)
            d.path
      end)
    geom.Geometry.defects;
  let n_extra = Array.make n_routes 0 in
  (* hash-order: per-route counts commute *)
  Hashtbl.iter (fun (i, _) () -> n_extra.(i) <- n_extra.(i) + 1) extras;
  let vs = ref [] in
  let add v = vs := v :: !vs in
  Array.iteri
    (fun i (routed : Pathfinder.routed) ->
      if n_extra.(i) > 0 || matched.(i) <> expected.(i) then
        add
          (V.makef V.Geometry ~code:"dual-cells"
             "dual structure %d emits %d cell(s) but net %d's route claims \
              %d: emission and routing disagree"
             (first_dual + i)
             (matched.(i) + n_extra.(i))
             routed.Pathfinder.r_net expected.(i)))
    routes;
  let n_structures = Hashtbl.length structures in
  if n_structures > n_routes then
    add
      (V.makef V.Geometry ~code:"dual-cells"
         "%d dual structure(s) emitted for %d route(s)" n_structures n_routes);
  List.rev !vs

let geometry_check (g : Pd.t) (placement : Placer.t)
    (routing : Pathfinder.result) (geom : Geometry.t) =
  let vs = ref [] in
  let add v = vs := v :: !vs in
  (* the lattice-level rules (parity, steps, same-type collisions) *)
  List.iter
    (fun issue ->
      add
        (V.makef V.Geometry ~code:"lattice" "%s"
           (Format.asprintf "%a" Geometry.pp_issue issue)))
    (Geometry.check geom);
  (* primal strands cover exactly the placed module core cells *)
  let expected_primal =
    let cells = ref [] in
    let sm = placement.Placer.sm in
    (* hash-order: cells are sorted before comparison *)
    Hashtbl.iter
      (fun m _node ->
        if (Pd.module_get g m).Pd.m_alive then
          cells := Placer.module_cell placement m :: !cells)
      sm.Super_module.node_of_module;
    sorted_cells !cells
  in
  let primal_structures = Geometry.structures geom Defect.Primal in
  let actual_primal =
    structure_cells (List.concat_map snd primal_structures)
  in
  if expected_primal <> actual_primal then begin
    let missing, extra = diff_sorted expected_primal actual_primal in
    List.iter add
      (V.capped V.Geometry ~code:"primal-cells"
         (List.map
            (fun c ->
              Printf.sprintf "module core cell %s has no primal strand"
                (cell_str c))
            missing
         @ List.map
             (fun c ->
               Printf.sprintf "primal strand cell %s matches no placed module"
                 (cell_str c))
             extra))
  end;
  (* dual strands match the claimed routes cell-for-cell *)
  List.iter add
    (dual_cells ~first_dual:(List.length primal_structures)
       routing.Pathfinder.routes geom);
  (* emitted bounding box never exceeds the reported volume *)
  (match Geometry.bbox geom with
  | Some b ->
      let n = Array.length placement.Placer.sm.Super_module.nodes in
      let reported = recompute_volume placement routing in
      if n > 0 && Box3.volume b > reported then
        add
          (V.makef V.Geometry ~code:"volume"
             "emitted geometry spans %d cells, exceeding the recomputed \
              result volume %d"
             (Box3.volume b) reported)
  | None -> ());
  List.rev !vs
