(* Geometry emission: golden digests of the full emitted description
   (output must stay byte-identical across refactors of the emitters),
   a deterministic allocation gate that fails any emitter whose work
   grows faster than linearly in the number of strands, and one on the
   self-check ([Pipeline.verify]) that emission feeds. *)

open Tqec_circuit
open Tqec_compress
open Tqec_geom

let check = Alcotest.check

let quick =
  { Pipeline.default_config with effort = Tqec_place.Placer.Quick; jobs = Some 1 }

(* Every field of every defect, in emission order, then every box. *)
let digest (g : Geometry.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b g.Geometry.name;
  List.iter
    (fun (d : Defect.t) ->
      Printf.bprintf b "\nd %d %d %s %b" d.id d.structure
        (match d.dtype with Defect.Primal -> "P" | Defect.Dual -> "D")
        d.closed;
      List.iter
        (fun (v : Tqec_util.Vec3.t) -> Printf.bprintf b " %d,%d,%d" v.x v.y v.z)
        d.path)
    g.Geometry.defects;
  List.iter
    (fun (bx : Geometry.distill_box) ->
      let lo = bx.Geometry.b_box.Tqec_util.Box3.lo
      and hi = bx.Geometry.b_box.Tqec_util.Box3.hi in
      Printf.bprintf b "\nb %s %d,%d,%d %d,%d,%d"
        (match bx.Geometry.b_kind with Geometry.Y_box -> "Y" | Geometry.A_box -> "A")
        lo.x lo.y lo.z hi.x hi.y hi.z)
    g.Geometry.boxes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let suite_entry name =
  match Suite.find name with
  | Some e -> e
  | None -> Alcotest.failf "no suite benchmark %s" name

let compile circuit =
  Pipeline.run_icm ~config:quick
    (Tqec_icm.Decompose.run (Clifford_t.decompose circuit))

(* Digests computed with the former append-per-strand emitters, so a
   pass proves the output is byte-identical; any change to ids, order,
   paths or boxes changes them. *)
let test_golden_emit () =
  let r = compile (Suite.scaled ~factor:16 (suite_entry "4gt10-v1_81")) in
  let g = Emit.geometry r in
  check Alcotest.bool "has boxes" true (g.Geometry.boxes <> []);
  check Alcotest.string "Emit.geometry digest, 4gt10-v1_81@1/16 quick"
    "1a377a65757bae05c8321bf94c877c2a"
    (digest g)

let test_golden_canonical () =
  let icm =
    Tqec_icm.Decompose.run
      (Clifford_t.decompose (Suite.circuit (suite_entry "4gt10-v1_81")))
  in
  let g, _ = Canonical.build icm in
  check Alcotest.string "Canonical.build digest, 4gt10-v1_81"
    "49c8993039ad4d7a627a1d59f47ab3c1" (digest g)

(* Minor-heap words per emitted defect across one emission on an
   instance with thousands of strands.  Counts work, not time, so it is
   deterministic on one domain; an emitter that copies its output list
   per strand allocates thousands of words per defect here. *)
let words_per_defect_bound = 300.

(* rd84_142@1/4 at quick effort, compiled once for both gates *)
let rd84_quarter = lazy (compile (Suite.scaled ~factor:4 (suite_entry "rd84_142")))

let test_emission_allocation_linear () =
  let r = Lazy.force rd84_quarter in
  let emit () =
    Emit_core.geometry ~name:"gate" ~graph:r.Pipeline.graph
      ~flipping:r.Pipeline.flipping ~placement:r.Pipeline.placement
      ~routing:r.Pipeline.routing
  in
  let before = Gc.minor_words () in
  let g = emit () in
  let words = Gc.minor_words () -. before in
  let n = List.length g.Geometry.defects in
  check Alcotest.bool (Printf.sprintf "%d defects >= 5000" n) true (n >= 5000);
  let per = words /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per defect <= %.0f" per
       words_per_defect_bound)
    true
    (per <= words_per_defect_bound)

(* Minor-heap words per routed cell across one [Pipeline.verify], which
   emits the geometry and checks every stage.  Counts work, not time,
   so it is deterministic on one domain: the bound is the measured 383
   plus 10%; with the vertex and cell tables the geometry checks used
   to build it read 473. *)
let verify_words_per_routed_cell_bound = 420.

let test_verify_allocation_per_routed_cell () =
  let r = Lazy.force rd84_quarter in
  let cells =
    List.fold_left
      (fun n (route : Tqec_route.Pathfinder.routed) ->
        n + List.length route.Tqec_route.Pathfinder.r_cells)
      0 r.Pipeline.routing.Tqec_route.Pathfinder.routes
  in
  let before = Gc.minor_words () in
  let report = Pipeline.verify r in
  let words = Gc.minor_words () -. before in
  check Alcotest.(list string) "verifies clean" []
    (Tqec_verify.Violation.to_strings report);
  let per = words /. float_of_int cells in
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per routed cell (%d cells) <= %.0f" per
       cells verify_words_per_routed_cell_bound)
    true
    (per <= verify_words_per_routed_cell_bound)

let suites =
  [
    ( "emission",
      [
        Alcotest.test_case "golden Emit.geometry" `Quick test_golden_emit;
        Alcotest.test_case "golden Canonical.build" `Quick test_golden_canonical;
        Alcotest.test_case "allocation linear in defects" `Quick
          test_emission_allocation_linear;
        Alcotest.test_case "verify allocation per routed cell" `Quick
          test_verify_allocation_per_routed_cell;
      ] );
  ]
