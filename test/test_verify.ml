(* Mutation tests for the translation-validation pass: run the real
   pipeline, plant one fault per stage boundary in the artifacts, and
   assert the verifier rejects it with the right stage (and, where the
   fault maps to a single invariant, the right code).  A verifier that
   accepts any of these planted faults is broken. *)

open Tqec_circuit
open Tqec_compress
module V = Tqec_verify.Violation
module Icm = Tqec_icm.Icm
module Pd = Tqec_pdgraph.Pd_graph

let check = Alcotest.check

let quick variant =
  { Pipeline.default_config with variant; effort = Tqec_place.Placer.Quick }

(* Shared fixtures.  Each mutation test builds its own fresh result (the
   faults mutate shared stage artifacts in place). *)
let run_three () =
  Pipeline.run_icm ~config:(quick Pipeline.Full)
    (Tqec_icm.Decompose.run Suite.three_cnot_example)

let run_two_t () =
  Pipeline.run ~config:(quick Pipeline.Full)
    (Circuit.make ~name:"tt" ~n_qubits:1 [ Gate.T 0; Gate.T 0 ])

let codes_at stage report =
  List.filter_map
    (fun (v : V.t) -> if v.v_stage = stage then Some v.v_code else None)
    report.V.violations

let assert_rejected ~stage ~code report =
  check Alcotest.bool "verifier rejects the planted fault" false (V.ok report);
  let codes = codes_at stage report in
  check Alcotest.bool
    (Printf.sprintf "stage %s reports code %s (got {%s})" (V.stage_name stage)
       code (String.concat ", " codes))
    true
    (List.mem code codes)

(* ------------------------------------------------------------------ *)
(* Clean runs pass                                                     *)
(* ------------------------------------------------------------------ *)

let test_clean_full () =
  let r = run_three () in
  let report = Pipeline.verify r in
  check Alcotest.bool "clean report" true (V.ok report);
  check Alcotest.int "all eight stages checked" (List.length V.all_stages)
    (List.length report.V.checked)

let test_clean_variants_and_gadgets () =
  List.iter
    (fun variant ->
      let r =
        Pipeline.run_icm ~config:(quick variant)
          (Tqec_icm.Decompose.run Suite.three_cnot_example)
      in
      check Alcotest.bool "variant verifies clean" true
        (V.ok (Pipeline.verify r)))
    [ Pipeline.Dual_only; Pipeline.Modular_only ];
  check Alcotest.bool "T-gadget circuit verifies clean" true
    (V.ok (Pipeline.verify (run_two_t ())))

let test_stage_scoping () =
  let r = run_three () in
  let report = Pipeline.verify ~stages:[ V.Icm; V.Placement ] r in
  check Alcotest.bool "scoped report clean" true (V.ok report);
  check Alcotest.bool "only the requested stages ran" true
    (report.V.checked = [ V.Icm; V.Placement ])

let test_routing_only_skips_emission () =
  let report = Pipeline.verify ~stages:[ V.Routing ] (run_three ()) in
  check Alcotest.bool "routing-only report clean" true (V.ok report);
  check Alcotest.bool "only routing checked" true
    (report.V.checked = [ V.Routing ])

(* ------------------------------------------------------------------ *)
(* Planted faults, one per stage boundary                              *)
(* ------------------------------------------------------------------ *)

(* ICM: alias a second-order measurement of gadget 1 into gadget 0's
   group, closing a measurement-order cycle. *)
let test_mutation_icm_constraint_cycle () =
  let r = run_two_t () in
  let gadgets = r.Pipeline.icm.Icm.t_gadgets in
  check Alcotest.bool "fixture has two gadgets" true (Array.length gadgets >= 2);
  let g0 = gadgets.(0) and g1 = gadgets.(1) in
  let stolen = List.hd g0.Icm.t_second_meas in
  gadgets.(1) <-
    { g1 with Icm.t_second_meas = stolen :: List.tl g1.Icm.t_second_meas };
  assert_rejected ~stage:V.Icm ~code:"constraint-cycle"
    (Pipeline.verify ~stages:[ V.Icm ] r)

(* PD graph: a module forgets its net list while the nets still claim to
   traverse it — incidence is no longer symmetric. *)
let test_mutation_pd_incidence () =
  let r = run_three () in
  let m =
    List.find
      (fun (m : Pd.module_rec) -> m.Pd.m_nets <> [])
      (Pd.alive_modules r.Pipeline.graph)
  in
  m.Pd.m_nets <- [];
  assert_rejected ~stage:V.Pd_graph ~code:"incidence"
    (Pipeline.verify ~stages:[ V.Pd_graph ] r)

(* I-shape: revive a module the recorded merge map says was absorbed. *)
let test_mutation_ishape_revive_absorbed () =
  let r = run_three () in
  check Alcotest.bool "fixture has merges" true (r.Pipeline.merges <> []);
  let merge = List.hd r.Pipeline.merges in
  (Pd.module_get r.Pipeline.graph merge.Tqec_pdgraph.Ishape.g_absorbed)
    .Pd.m_alive <- true;
  let report = Pipeline.verify ~stages:[ V.Ishape ] r in
  check Alcotest.bool "verifier rejects revived module" false (V.ok report);
  let codes = codes_at V.Ishape report in
  check Alcotest.bool "merge replay notices" true
    (List.exists (fun c -> c = "merge-map" || c = "braiding") codes)

(* Flipping: flip a chain head — Eq. 5 fixes f = 0 there. *)
let test_mutation_fvalue_head_flipped () =
  let r = run_three () in
  let head = List.hd (List.hd r.Pipeline.flipping.Tqec_pdgraph.Flipping.chains) in
  Hashtbl.replace r.Pipeline.fvalue.Tqec_pdgraph.Fvalue.f_of_point head true;
  assert_rejected ~stage:V.Flipping ~code:"fvalue"
    (Pipeline.verify ~stages:[ V.Flipping ] r)

(* Dual bridging: drop a net from a recorded merged structure; the class
   partition no longer covers every net. *)
let test_mutation_dual_class_partition () =
  let r = run_three () in
  let dual = r.Pipeline.dual in
  let merged =
    match dual.Tqec_pdgraph.Dual_bridge.merged with
    | (rep, members) :: rest -> (rep, List.tl members) :: rest
    | [] -> Alcotest.fail "fixture has no merged structures"
  in
  let r = { r with Pipeline.dual = { dual with merged } } in
  assert_rejected ~stage:V.Dual_bridge ~code:"classes"
    (Pipeline.verify ~stages:[ V.Dual_bridge ] r)

(* Placement: two nodes at one anchor — footprints overlap. *)
let test_mutation_placement_overlap () =
  let r = run_three () in
  let p = r.Pipeline.placement in
  check Alcotest.bool "fixture has two nodes" true
    (Array.length p.Tqec_place.Placer.node_pos >= 2);
  let node_pos = Array.copy p.Tqec_place.Placer.node_pos in
  node_pos.(1) <- node_pos.(0);
  let r =
    { r with Pipeline.placement = { p with Tqec_place.Placer.node_pos } }
  in
  assert_rejected ~stage:V.Placement ~code:"overlap"
    (Pipeline.verify ~stages:[ V.Placement ] r)

(* Placement: lift a non-chain module off layer 0. *)
let test_mutation_placement_layer () =
  let r = run_three () in
  let sm = r.Pipeline.placement.Tqec_place.Placer.sm in
  let moved = ref false in
  Array.iter
    (fun (nd : Tqec_place.Super_module.node) ->
      match nd.Tqec_place.Super_module.nd_kind with
      | Tqec_place.Super_module.Plain m when not !moved ->
          let dx, dy, _ =
            Hashtbl.find sm.Tqec_place.Super_module.module_offset m
          in
          Hashtbl.replace sm.Tqec_place.Super_module.module_offset m (dx, dy, 1);
          moved := true
      | _ -> ())
    sm.Tqec_place.Super_module.nodes;
  check Alcotest.bool "fixture has a plain module" true !moved;
  assert_rejected ~stage:V.Placement ~code:"layer"
    (Pipeline.verify ~stages:[ V.Placement ] r)

(* Routing: amputate a cell from an emitted route — the strand no longer
   matches a legal tree over its pins. *)
let test_mutation_routing_cells () =
  let r = run_three () in
  let routing = r.Pipeline.routing in
  let routes =
    match routing.Tqec_route.Pathfinder.routes with
    | route :: rest ->
        let cells = route.Tqec_route.Pathfinder.r_cells in
        check Alcotest.bool "route has cells" true (List.length cells >= 2);
        { route with Tqec_route.Pathfinder.r_cells = List.tl cells } :: rest
    | [] -> Alcotest.fail "fixture has no routes"
  in
  let r =
    {
      r with
      Pipeline.routing = { routing with Tqec_route.Pathfinder.routes };
    }
  in
  let report = Pipeline.verify ~stages:[ V.Routing ] r in
  check Alcotest.bool "verifier rejects amputated route" false (V.ok report);
  let codes = codes_at V.Routing report in
  check Alcotest.bool "legality or volume notices" true
    (List.exists (fun c -> c = "legality" || c = "volume") codes)

(* Routing: misreport the final volume by one unit. *)
let test_mutation_volume_misreport () =
  let r = run_three () in
  let r = { r with Pipeline.volume = r.Pipeline.volume + 1 } in
  assert_rejected ~stage:V.Routing ~code:"volume"
    (Pipeline.verify ~stages:[ V.Routing ] r)

(* Verify only the geometry stage of [r] against a substitute emission. *)
let check_geometry (r : Pipeline.t) geom =
  Tqec_verify.Check.run ~stages:[ V.Geometry ]
    {
      Tqec_verify.Check.a_icm = r.Pipeline.icm;
      a_graph = r.Pipeline.graph;
      a_merges = r.Pipeline.merges;
      a_flipping = r.Pipeline.flipping;
      a_dual = r.Pipeline.dual;
      a_fvalue = r.Pipeline.fvalue;
      a_placement = r.Pipeline.placement;
      a_routing = r.Pipeline.routing;
      a_volume = r.Pipeline.volume;
      a_geometry = Some geom;
    }

(* Strands of one loop overlap at corner cells; a strand that covers at
   least one cell no other strand does visibly shrinks its structure's
   cell set when it is dropped or moved. *)
let covers_uniquely defects (d : Tqec_geom.Defect.t) =
  let others =
    List.concat_map
      (fun (o : Tqec_geom.Defect.t) ->
        if o == d then [] else Tqec_geom.Defect.cells o)
      defects
  in
  List.exists (fun c -> not (List.mem c others)) (Tqec_geom.Defect.cells d)

(* Geometry: drop an emitted strand; the diagram no longer matches the
   claimed modules and routes cell-for-cell. *)
let test_mutation_geometry_dropped_strand () =
  let r = run_three () in
  let geom = Emit.geometry r in
  let defects = geom.Tqec_geom.Geometry.defects in
  check Alcotest.bool "geometry has defects" true (defects <> []);
  let victim = List.find (covers_uniquely defects) defects in
  let corrupted =
    {
      geom with
      Tqec_geom.Geometry.defects = List.filter (fun d -> d != victim) defects;
    }
  in
  let report = check_geometry r corrupted in
  check Alcotest.bool "verifier rejects dropped strand" false (V.ok report);
  check Alcotest.bool "geometry stage reports it" true
    (codes_at V.Geometry report <> [])

(* Geometry: move one primal strand far off the die; its module core
   cell loses its strand and the moved cells match no module, so the
   primal-cells diff reports both sides. *)
let test_mutation_geometry_moved_primal () =
  let r = run_three () in
  let geom = Emit.geometry r in
  let defects = geom.Tqec_geom.Geometry.defects in
  let victim =
    List.find
      (fun (d : Tqec_geom.Defect.t) ->
        d.dtype = Tqec_geom.Defect.Primal && covers_uniquely defects d)
      defects
  in
  let shift (v : Tqec_util.Vec3.t) = { v with Tqec_util.Vec3.x = v.x + 1000 } in
  let moved = { victim with Tqec_geom.Defect.path = List.map shift victim.path } in
  let corrupted =
    {
      geom with
      Tqec_geom.Geometry.defects =
        List.map (fun d -> if d == victim then moved else d) defects;
    }
  in
  let report = check_geometry r corrupted in
  assert_rejected ~stage:V.Geometry ~code:"primal-cells" report;
  let mentions sub =
    List.exists
      (fun (v : V.t) ->
        v.v_code = "primal-cells"
        &&
        let n = String.length v.v_msg and m = String.length sub in
        let rec scan i = i + m <= n && (String.sub v.v_msg i m = sub || scan (i + 1)) in
        scan 0)
      report.V.violations
  in
  check Alcotest.bool "a module cell lost its strand" true
    (mentions "has no primal strand");
  check Alcotest.bool "a moved cell matches no module" true
    (mentions "matches no placed module")

(* ------------------------------------------------------------------ *)
(* Differential test of the in-place dual-cell comparison              *)
(* ------------------------------------------------------------------ *)

module Pathfinder = Tqec_route.Pathfinder
module Geometry = Tqec_geom.Geometry
module Defect = Tqec_geom.Defect
module Vec3 = Tqec_util.Vec3

(* The owner-table comparison that [Route_check.dual_cells] replaced,
   kept as the oracle: same violations, same order. *)
let reference_dual_cells ~first_dual (routes : Pathfinder.routed list)
    (geom : Geometry.t) =
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let sorted_cells cells = List.sort_uniq compare cells in
  let structure_cells strands = sorted_cells (List.concat_map Defect.cells strands) in
  let n_routes = List.length routes in
  let dual_structures = Geometry.structures geom Defect.Dual in
  let dual_by_id = Hashtbl.create 256 in
  List.iter (fun (sid, strands) -> Hashtbl.replace dual_by_id sid strands) dual_structures;
  let owner = Hashtbl.create 256 in
  List.iteri
    (fun i (routed : Pathfinder.routed) ->
      let expected =
        sorted_cells
          (List.filter
             (fun c ->
               match Hashtbl.find_opt owner c with
               | Some o -> o = routed.r_net
               | None ->
                   Hashtbl.replace owner c routed.r_net;
                   true)
             routed.r_cells)
      in
      let sid = first_dual + i in
      let actual =
        match Hashtbl.find_opt dual_by_id sid with
        | Some strands -> structure_cells strands
        | None -> []
      in
      if expected <> actual then
        add
          (V.makef V.Geometry ~code:"dual-cells"
             "dual structure %d emits %d cell(s) but net %d's route claims \
              %d: emission and routing disagree"
             sid (List.length actual) routed.r_net (List.length expected)))
    routes;
  if List.length dual_structures > n_routes then
    add
      (V.makef V.Geometry ~code:"dual-cells"
         "%d dual structure(s) emitted for %d route(s)"
         (List.length dual_structures)
         n_routes);
  List.rev !vs

type dual_case = {
  first_dual : int;
  routes : Pathfinder.routed list;
  strands : Defect.t list;
}

(* The cells route [i] of [routes] owns, first listing first: a cell
   belongs to the first route listing it, and a later route keeps it
   only under the same net. *)
let owned_cells (routes : Pathfinder.routed list) =
  let owner = Hashtbl.create 16 in
  List.map
    (fun (r : Pathfinder.routed) ->
      List.fold_left
        (fun acc c ->
          let keep =
            match Hashtbl.find_opt owner c with
            | Some o -> o = r.r_net
            | None ->
                Hashtbl.replace owner c r.r_net;
                true
          in
          if keep && not (List.mem c acc) then acc @ [ c ] else acc)
        [] r.r_cells)
    routes

let strand ~structure ~dtype path = { Defect.id = 0; structure; dtype; path; closed = false }

(* Random routes in a small box around the origin (negative coordinates,
   cells listed twice, cells shared by routes of one net and of
   different nets), a few primal structures, and a faithful emission:
   each owned cell becomes a vertex of its structure, at any of the
   eight vertices whose cell it is, one or two to a strand.  Then
   planted faults: a dropped strand (a missing cell), a strand with a
   cell the route does not own (an extra cell), a dual structure
   numbered past the routes (one too many), a dual strand numbered among
   the primal structures, and a shuffle of the strand order. *)
let gen_dual_case =
  let open QCheck.Gen in
  let cell = map3 Vec3.make (int_range (-2) 2) (int_range (-2) 2) (int_range (-1) 1) in
  let* first_dual = int_range 0 2 in
  let* routes =
    list_size (int_range 0 5)
      (map2 (fun r_net r_cells -> { Pathfinder.r_net; r_cells }) (int_range 0 3)
         (list_size (int_range 0 6) cell))
  in
  let vertex (c : Vec3.t) =
    map3
      (fun ox oy oz -> Vec3.make ((2 * c.x) + ox) ((2 * c.y) + oy) ((2 * c.z) + oz))
      (int_bound 1) (int_bound 1) (int_bound 1)
  in
  let rec emit structure = function
    | [] -> return []
    | c :: rest ->
        let* v = vertex c and* pair = bool in
        if pair && rest <> [] then
          let* w = vertex (List.hd rest) in
          let+ tail = emit structure (List.tl rest) in
          strand ~structure ~dtype:Defect.Dual [ v; w ] :: tail
        else
          let+ tail = emit structure rest in
          strand ~structure ~dtype:Defect.Dual [ v ] :: tail
  in
  let* duals =
    flatten_l (List.mapi (fun i cells -> emit (first_dual + i) cells) (owned_cells routes))
  in
  let* primals =
    flatten_l
      (List.init first_dual (fun s ->
           map (fun c -> strand ~structure:s ~dtype:Defect.Primal [ Vec3.scale 2 c ]) cell))
  in
  let strands = primals @ List.concat duals in
  let n_routes = List.length routes in
  let* faults = list_size (int_range 0 2) (triple (int_bound 3) nat cell) in
  let* strands =
    List.fold_left
      (fun acc (kind, i, c) ->
        let* strands = acc in
        let* v = vertex c in
        match kind with
        | 0 -> (
            match List.filter (fun (d : Defect.t) -> d.dtype = Defect.Dual) strands with
            | [] -> return strands
            | ds ->
                let victim = List.nth ds (i mod List.length ds) in
                return (List.filter (fun d -> d != victim) strands))
        | 1 ->
            let structure = first_dual + (i mod max 1 n_routes) in
            return (strands @ [ strand ~structure ~dtype:Defect.Dual [ v ] ])
        | 2 ->
            return
              (strands
              @ [ strand ~structure:(first_dual + n_routes + (i mod 2)) ~dtype:Defect.Dual [ v ] ])
        | _ -> return (strands @ [ strand ~structure:(i mod (first_dual + 1)) ~dtype:Defect.Dual [ v ] ]))
      (return strands) faults
  in
  let+ strands = shuffle_l strands in
  { first_dual; routes; strands }

let dual_case_geometry c = Geometry.make ~name:"random" ~defects:c.strands ~boxes:[]

let arb_dual_case =
  let print c =
    let cells cs = String.concat " " (List.map Vec3.to_string cs) in
    String.concat "\n"
      (Printf.sprintf "first_dual=%d" c.first_dual
       :: List.map
            (fun (r : Pathfinder.routed) -> Printf.sprintf "route net %d: %s" r.r_net (cells r.r_cells))
            c.routes
      @ List.map
          (fun (d : Defect.t) ->
            Printf.sprintf "%s structure %d: %s"
              (match d.dtype with Defect.Primal -> "primal" | Defect.Dual -> "dual")
              d.structure (cells d.path))
          c.strands)
  in
  QCheck.make ~print gen_dual_case

let dual_strings f c =
  List.map V.to_string (f ~first_dual:c.first_dual c.routes (dual_case_geometry c))

let prop_dual_cells_match_reference =
  QCheck.Test.make ~name:"Route_check.dual_cells matches the table reference"
    ~count:500 arb_dual_case (fun c ->
      dual_strings Tqec_verify.Route_check.dual_cells c
      = dual_strings reference_dual_cells c)

(* The generator reaches both violations, clean cases, and the shared
   cells the ownership rule is about. *)
let test_dual_case_coverage () =
  let rand = Random.State.make [| 13 |] in
  let cases = QCheck.Gen.generate ~rand ~n:500 gen_dual_case in
  let reports fragment c =
    List.exists
      (fun msg ->
        let n = String.length msg and m = String.length fragment in
        let rec scan i = i + m <= n && (String.sub msg i m = fragment || scan (i + 1)) in
        scan 0)
      (dual_strings reference_dual_cells c)
  in
  let shared same c =
    List.exists
      (fun (r : Pathfinder.routed) ->
        List.exists
          (fun (o : Pathfinder.routed) ->
            r != o && (r.r_net = o.r_net) = same
            && List.exists (fun x -> List.mem x o.r_cells) r.r_cells)
          c.routes)
      c.routes
  in
  List.iter
    (fun (what, p) ->
      let n = List.length (List.filter p cases) in
      check Alcotest.bool (Printf.sprintf "%s: %d cases" what n) true (n >= 25))
    [
      ("clean", fun c -> dual_strings reference_dual_cells c = []);
      ("structure and route disagree", reports "emission and routing disagree");
      ("a dual structure too many", reports "emitted for");
      ("a cell shared under one net", shared true);
      ("a cell shared by two nets", shared false);
      ( "a cell listed twice by one route",
        fun c ->
          List.exists
            (fun (r : Pathfinder.routed) ->
              List.length (List.sort_uniq compare r.r_cells) < List.length r.r_cells)
            c.routes );
    ]

let suites =
  [
    ( "verify.clean",
      [
        Alcotest.test_case "full pipeline verifies clean" `Quick
          test_clean_full;
        Alcotest.test_case "variants and T gadgets clean" `Quick
          test_clean_variants_and_gadgets;
        Alcotest.test_case "stage scoping" `Quick test_stage_scoping;
        Alcotest.test_case "routing only" `Quick
          test_routing_only_skips_emission;
      ] );
    ( "verify.mutations",
      [
        Alcotest.test_case "icm constraint cycle" `Quick
          test_mutation_icm_constraint_cycle;
        Alcotest.test_case "pd incidence break" `Quick
          test_mutation_pd_incidence;
        Alcotest.test_case "ishape revived absorbed" `Quick
          test_mutation_ishape_revive_absorbed;
        Alcotest.test_case "fvalue head flipped" `Quick
          test_mutation_fvalue_head_flipped;
        Alcotest.test_case "dual class partition" `Quick
          test_mutation_dual_class_partition;
        Alcotest.test_case "placement overlap" `Quick
          test_mutation_placement_overlap;
        Alcotest.test_case "placement wrong layer" `Quick
          test_mutation_placement_layer;
        Alcotest.test_case "routing amputated cell" `Quick
          test_mutation_routing_cells;
        Alcotest.test_case "volume misreport" `Quick
          test_mutation_volume_misreport;
        Alcotest.test_case "geometry dropped strand" `Quick
          test_mutation_geometry_dropped_strand;
        Alcotest.test_case "geometry moved primal strand" `Quick
          test_mutation_geometry_moved_primal;
      ] );
    ( "verify.dual-cells",
      [
        Alcotest.test_case "generator coverage" `Quick test_dual_case_coverage;
        QCheck_alcotest.to_alcotest prop_dual_cells_match_reference;
      ] );
  ]
