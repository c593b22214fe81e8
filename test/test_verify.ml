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

let test_check_alias () =
  check Alcotest.(list string) "deprecated alias empty on sound runs" []
    (Pipeline.check (run_three ()))

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
        Alcotest.test_case "check alias" `Quick test_check_alias;
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
  ]
