module Icm = Tqec_icm.Icm
module Pd = Tqec_pdgraph.Pd_graph
module Ishape = Tqec_pdgraph.Ishape
module Flipping = Tqec_pdgraph.Flipping
module Dual_bridge = Tqec_pdgraph.Dual_bridge
module Fvalue = Tqec_pdgraph.Fvalue
module Super_module = Tqec_place.Super_module
module Placer = Tqec_place.Placer
module Pathfinder = Tqec_route.Pathfinder
module Geometry = Tqec_geom.Geometry
module V = Violation

type artifacts = {
  a_icm : Icm.t;
  a_graph : Pd.t;
  a_merges : Ishape.merge list;
  a_flipping : Flipping.t;
  a_dual : Dual_bridge.t;
  a_fvalue : Fvalue.t;
  a_placement : Placer.t;
  a_routing : Pathfinder.result;
  a_volume : int;
  a_geometry : Geometry.t option;
}

let selected ?stages () =
  match stages with
  | None | Some [] -> V.all_stages
  | Some ss -> List.filter (fun st -> List.mem st ss) V.all_stages

let run ?stages (a : artifacts) =
  let checked = selected ?stages () in
  let want st = List.mem st checked in
  let vs = ref [] in
  let collect l = vs := !vs @ l in
  if want V.Icm then collect (Icm_check.check a.a_icm);
  if want V.Pd_graph then collect (Pd_check.check a.a_graph);
  if want V.Ishape then
    collect (Stage_check.ishape ~icm:a.a_icm a.a_graph a.a_merges);
  if want V.Flipping then begin
    (* re-derive the exclusion set (time-SM members) from the graph *)
    let in_time_sm = Hashtbl.create 64 in
    List.iter
      (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_time_sm m ()) ms)
      (Super_module.time_sm_modules a.a_graph);
    let excluded m = Hashtbl.mem in_time_sm m in
    collect (Stage_check.flipping ~excluded a.a_graph a.a_flipping);
    collect (Stage_check.fvalues a.a_flipping a.a_fvalue)
  end;
  if want V.Dual_bridge then
    collect (Stage_check.dual ~icm:a.a_icm a.a_graph a.a_dual);
  if want V.Placement then
    collect
      (Place_check.check ~icm:a.a_icm a.a_graph a.a_flipping a.a_dual
         a.a_placement);
  if want V.Routing then
    collect
      (Route_check.check a.a_graph a.a_flipping a.a_dual a.a_fvalue
         a.a_placement a.a_routing ~reported_volume:a.a_volume);
  if want V.Geometry then (
    match a.a_geometry with
    | Some g ->
        collect
          (Route_check.geometry_check a.a_graph a.a_placement a.a_routing g)
    | None -> ());
  let checked =
    (* a geometry-less artifact set reports only what actually ran *)
    match a.a_geometry with
    | None -> List.filter (fun st -> st <> V.Geometry) checked
    | Some _ -> checked
  in
  { V.checked; violations = !vs }
