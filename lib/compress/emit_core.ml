module Pd_graph = Tqec_pdgraph.Pd_graph
module Flipping = Tqec_pdgraph.Flipping
module Placer = Tqec_place.Placer
module Super_module = Tqec_place.Super_module
module Pathfinder = Tqec_route.Pathfinder
module Geometry = Tqec_geom.Geometry
module Defect = Tqec_geom.Defect
module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Union_find = Tqec_util.Union_find

let double (c : Vec3.t) ~dual =
  let off = if dual then 1 else 0 in
  Vec3.make ((2 * c.x) + off) ((2 * c.y) + off) ((2 * c.z) + off)

(* Emit a cell set as strands of one structure: one 2-vertex strand per
   adjacent pair, plus single-vertex strands for isolated cells.  Strands
   are prepended to [acc] (newest first); the caller reverses once. *)
let emit_cells ~next_id ~structure ~dtype acc cells =
  let in_set = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace in_set c ()) cells;
  let covered = Hashtbl.create 64 in
  let dual = dtype = Defect.Dual in
  let acc = ref acc in
  let strand path =
    let id = !next_id in
    incr next_id;
    acc := Defect.make ~id ~structure ~dtype ~closed:false path :: !acc
  in
  List.iter
    (fun (c : Vec3.t) ->
      (* canonical edges: only towards the positive axis directions *)
      List.iter
        (fun n ->
          if Hashtbl.mem in_set n then begin
            Hashtbl.replace covered c ();
            Hashtbl.replace covered n ();
            strand [ double ~dual c; double ~dual n ]
          end)
        [
          { c with Vec3.x = c.Vec3.x + 1 };
          { c with Vec3.y = c.Vec3.y + 1 };
          { c with Vec3.z = c.Vec3.z + 1 };
        ])
    cells;
  List.iter
    (fun c -> if not (Hashtbl.mem covered c) then strand [ double ~dual c ])
    cells;
  !acc

(* Primal structures: union the modules of every chain (through its
   points' members) — these are physically bridged; everything else is
   its own structure.  Structures are listed by ascending smallest
   member and each member list ascends, so structure ids are stable
   across runs (hash layout must not leak into emitted geometry). *)
let primal_structures (graph : Pd_graph.t) (flipping : Flipping.t)
    (placement : Placer.t) =
  let n = Pd_graph.n_modules_constructed graph in
  let uf = Union_find.create n in
  let members_of = Hashtbl.create 64 in
  List.iter
    (fun (rep, ms) -> Hashtbl.replace members_of rep ms)
    flipping.Flipping.points;
  List.iter
    (fun chain ->
      let all_members =
        List.concat_map
          (fun rep ->
            match Hashtbl.find_opt members_of rep with
            | Some ms -> ms
            | None -> [ rep ])
          chain
      in
      match all_members with
      | [] -> ()
      | first :: rest ->
          List.iter (fun m -> ignore (Union_find.union uf first m)) rest)
    flipping.Flipping.chains;
  let node_of_module = placement.Placer.sm.Super_module.node_of_module in
  let groups = Hashtbl.create 64 in
  for m = n - 1 downto 0 do
    if
      Hashtbl.mem node_of_module m
      && (Pd_graph.module_get graph m).Pd_graph.m_alive
    then begin
      let root = Union_find.find uf m in
      let existing = try Hashtbl.find groups root with Not_found -> [] in
      Hashtbl.replace groups root (m :: existing)
    end
  done;
  (* hash-order: member lists ascend (ids were prepended in descending
     order) and the groups are sorted, so the fold order cannot leak *)
  List.sort compare (Hashtbl.fold (fun _root ms acc -> ms :: acc) groups [])

let geometry ~name ~(graph : Pd_graph.t) ~(flipping : Flipping.t)
    ~(placement : Placer.t) ~(routing : Pathfinder.result) =
  let defects = ref [] in
  let next_id = ref 0 in
  let structure = ref 0 in
  (* primal strands *)
  List.iter
    (fun modules ->
      let cells = List.map (Placer.module_cell placement) modules in
      defects :=
        emit_cells ~next_id ~structure:!structure ~dtype:Defect.Primal
          !defects cells;
      incr structure)
    (primal_structures graph flipping placement);
  (* dual strands: routed trees, with multiply-used pin cells kept only
     in the first structure that visits them *)
  let pin_owner = Hashtbl.create 64 in
  List.iter
    (fun (routed : Pathfinder.routed) ->
      let cells =
        List.filter
          (fun c ->
            match Hashtbl.find_opt pin_owner c with
            | Some owner -> owner = routed.Pathfinder.r_net
            | None ->
                Hashtbl.replace pin_owner c routed.Pathfinder.r_net;
                true)
          routed.Pathfinder.r_cells
      in
      defects :=
        emit_cells ~next_id ~structure:!structure ~dtype:Defect.Dual !defects
          cells;
      incr structure)
    routing.Pathfinder.routes;
  (* distillation boxes *)
  let boxes = ref [] in
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
          boxes :=
            {
              Geometry.b_kind = box;
              b_box =
                Box3.make (Vec3.make x y 0)
                  (Vec3.make (x + w - 1) (y + h - 1) (bd - 1));
            }
            :: !boxes
      | _ -> ())
    placement.Placer.sm.Super_module.nodes;
  Geometry.make ~name ~defects:(List.rev !defects) ~boxes:(List.rev !boxes)
