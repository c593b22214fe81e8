(* Tests for defect geometry, canonical construction, braiding
   verification and rendering. *)

open Tqec_util
open Tqec_circuit
open Tqec_icm
open Tqec_geom

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let vec = Vec3.make

(* ------------------------------------------------------------------ *)
(* Defect                                                              *)
(* ------------------------------------------------------------------ *)

let test_defect_parity () =
  check Alcotest.bool "primal even ok" true
    (Defect.valid_path ~dtype:Defect.Primal ~closed:false
       [ vec 0 0 0; vec 2 0 0 ]);
  check Alcotest.bool "primal odd rejected" false
    (Defect.valid_path ~dtype:Defect.Primal ~closed:false
       [ vec 1 1 1; vec 3 1 1 ]);
  check Alcotest.bool "dual odd ok" true
    (Defect.valid_path ~dtype:Defect.Dual ~closed:false
       [ vec 1 1 1; vec 3 1 1 ]);
  check Alcotest.bool "diagonal step rejected" false
    (Defect.valid_path ~dtype:Defect.Primal ~closed:false
       [ vec 0 0 0; vec 2 2 0 ]);
  check Alcotest.bool "long step rejected" false
    (Defect.valid_path ~dtype:Defect.Primal ~closed:false
       [ vec 0 0 0; vec 4 0 0 ])

let test_defect_closed () =
  let square =
    [ vec 0 0 0; vec 2 0 0; vec 2 2 0; vec 0 2 0 ]
  in
  check Alcotest.bool "closed square ok" true
    (Defect.valid_path ~dtype:Defect.Primal ~closed:true square);
  check Alcotest.bool "open chain not closable" false
    (Defect.valid_path ~dtype:Defect.Primal ~closed:true
       [ vec 0 0 0; vec 2 0 0; vec 4 0 0 ])

let test_defect_straight () =
  let d = Defect.straight ~id:0 ~structure:0 ~dtype:Defect.Primal
      (vec 0 0 0) (vec 6 0 0)
  in
  check Alcotest.int "four vertices" 4 (List.length (Defect.vertices d));
  check Alcotest.int "three steps" 3 (Defect.length d);
  (* cells: doubled 0,2,4,6 -> unit cells 0,1,2,3 *)
  check Alcotest.int "four cells" 4 (List.length (Defect.cells d))

let test_defect_rectangle () =
  let r =
    Defect.rectangle ~id:1 ~structure:1 ~dtype:Defect.Primal ~plane:`Xz ~at:0
      (0, 0) (6, 2)
  in
  check Alcotest.bool "closed" true r.Defect.closed;
  (* perimeter of a 4x2-vertex rectangle: 2*(3+1) = 8 steps/vertices *)
  check Alcotest.int "vertices" 8 (List.length (Defect.vertices r));
  check Alcotest.bool "valid" true
    (Defect.valid_path ~dtype:Defect.Primal ~closed:true (Defect.vertices r))

let test_loop_of_corners_order () =
  (* a closing run with several interior vertices: they follow the last
     corner in walking order, and neither end is repeated *)
  let l =
    Defect.loop_of_corners ~id:0 ~structure:0 ~dtype:Defect.Dual
      [ vec 1 1 1; vec 7 1 1; vec 7 7 1; vec 1 7 1 ]
  in
  let xy = List.map (fun (v : Vec3.t) -> (v.x, v.y)) (Defect.vertices l) in
  check
    Alcotest.(list (pair int int))
    "vertex order"
    [ (1, 1); (3, 1); (5, 1); (7, 1); (7, 3); (7, 5); (7, 7); (5, 7); (3, 7);
      (1, 7); (1, 5); (1, 3) ]
    xy

let test_cell_of_vertex () =
  check Alcotest.bool "even" true
    (Vec3.equal (Defect.cell_of_vertex (vec 4 6 0)) (vec 2 3 0));
  check Alcotest.bool "odd shares cell" true
    (Vec3.equal (Defect.cell_of_vertex (vec 5 7 1)) (vec 2 3 0));
  check Alcotest.bool "negative floor" true
    (Vec3.equal (Defect.cell_of_vertex (vec (-1) (-2) 0)) (vec (-1) (-1) 0))

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let two_structures_overlapping () =
  let a = Defect.straight ~id:0 ~structure:0 ~dtype:Defect.Primal
      (vec 0 0 0) (vec 4 0 0)
  in
  let b = Defect.straight ~id:1 ~structure:1 ~dtype:Defect.Primal
      (vec 4 0 0) (vec 8 0 0)
  in
  Geometry.make ~name:"o" ~defects:[ a; b ] ~boxes:[]

let test_geometry_overlap_detected () =
  let g = two_structures_overlapping () in
  check Alcotest.bool "invalid" false (Geometry.is_valid g);
  check Alcotest.bool "overlap issue" true
    (List.exists
       (function Geometry.Same_type_structure_overlap _ -> true | _ -> false)
       (Geometry.check g))

let test_geometry_same_structure_can_touch () =
  let a = Defect.straight ~id:0 ~structure:0 ~dtype:Defect.Primal
      (vec 0 0 0) (vec 4 0 0)
  in
  let b = Defect.straight ~id:1 ~structure:0 ~dtype:Defect.Primal
      (vec 4 0 0) (vec 4 4 0)
  in
  let g = Geometry.make ~name:"s" ~defects:[ a; b ] ~boxes:[] in
  check Alcotest.bool "valid" true (Geometry.is_valid g)

let test_geometry_primal_dual_independent () =
  (* A primal and a dual strand crossing the same unit cells is fine:
     they live on different sublattices. *)
  let p = Defect.straight ~id:0 ~structure:0 ~dtype:Defect.Primal
      (vec 0 0 0) (vec 4 0 0)
  in
  let d = Defect.straight ~id:1 ~structure:1 ~dtype:Defect.Dual
      (vec 1 1 1) (vec 5 1 1)
  in
  let g = Geometry.make ~name:"pd" ~defects:[ p; d ] ~boxes:[] in
  check Alcotest.bool "valid" true (Geometry.is_valid g)

let test_geometry_volume () =
  let p = Defect.straight ~id:0 ~structure:0 ~dtype:Defect.Primal
      (vec 0 0 0) (vec 6 0 0)
  in
  let g = Geometry.make ~name:"v" ~defects:[ p ] ~boxes:[] in
  check Alcotest.int "volume 4x1x1" 4 (Geometry.volume g);
  check Alcotest.int "empty volume" 0 (Geometry.volume (Geometry.empty "e"))

let test_geometry_boxes () =
  check Alcotest.int "Y volume" 18 (Geometry.box_volume Geometry.Y_box);
  check Alcotest.int "A volume" 192 (Geometry.box_volume Geometry.A_box);
  let y0 = Geometry.box_at Geometry.Y_box (vec 0 0 0) in
  let g = Geometry.make ~name:"b" ~defects:[] ~boxes:[ y0 ] in
  check Alcotest.int "bbox = 18" 18 (Geometry.volume g);
  check Alcotest.int "total box volume" 18 (Geometry.total_box_volume g);
  let g2 =
    Geometry.make ~name:"b" ~defects:[]
      ~boxes:[ y0; Geometry.box_at Geometry.Y_box (vec 1 1 0) ]
  in
  check Alcotest.bool "box overlap detected" true
    (List.exists
       (function Geometry.Box_overlap _ -> true | _ -> false)
       (Geometry.check g2))

let test_geometry_structures () =
  let g = two_structures_overlapping () in
  let prim = Geometry.structures g Defect.Primal in
  check Alcotest.int "two primal structures" 2 (List.length prim);
  check Alcotest.int "no dual structures" 0
    (List.length (Geometry.structures g Defect.Dual))

(* ------------------------------------------------------------------ *)
(* Braiding: linking numbers                                           *)
(* ------------------------------------------------------------------ *)

let simple_hole =
  { Braiding.axis = `Y; at = 0; u = Interval.make (-4) 4; v = Interval.make (-4) 4 }

let threading_loop =
  (* a small dual loop threading the y=0 plane inside the hole *)
  Defect.loop_of_corners ~id:0 ~structure:0 ~dtype:Defect.Dual
    [ vec 1 (-1) 1; vec 1 1 1; vec 1 1 5; vec 1 (-1) 5 ]

let test_linking_one () =
  check Alcotest.int "links once" 1 (abs (Braiding.linking threading_loop simple_hole))

let test_linking_outside () =
  let hole_far =
    { Braiding.axis = `Y; at = 0; u = Interval.make 10 20; v = Interval.make 10 20 }
  in
  check Alcotest.int "outside hole" 0 (Braiding.linking threading_loop hole_far)

let test_linking_no_crossing () =
  let flat =
    Defect.loop_of_corners ~id:1 ~structure:1 ~dtype:Defect.Dual
      [ vec 1 1 1; vec 3 1 1; vec 3 1 3; vec 1 1 3 ]
  in
  check Alcotest.int "coplanar loop" 0 (Braiding.linking flat simple_hole)

let test_linking_cancellation () =
  (* A loop that crosses the plane twice inside the hole in opposite
     directions links zero times. *)
  let in_out =
    Defect.loop_of_corners ~id:2 ~structure:2 ~dtype:Defect.Dual
      [ vec 1 (-1) 1; vec 1 1 1; vec 3 1 1; vec 3 (-1) 1 ]
  in
  check Alcotest.int "cancels" 0 (Braiding.linking in_out simple_hole)

let test_linking_requires_closed () =
  let open_strand =
    Defect.straight ~id:3 ~structure:3 ~dtype:Defect.Dual (vec 1 (-1) 1) (vec 1 3 1)
  in
  try
    ignore (Braiding.linking open_strand simple_hole);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_crossings_reported () =
  let cs = Braiding.crossings threading_loop ~axis:`Y ~at:0 in
  check Alcotest.int "two crossings" 2 (List.length cs);
  let signs = List.map snd cs in
  check Alcotest.int "signs cancel" 0 (List.fold_left ( + ) 0 signs)

(* ------------------------------------------------------------------ *)
(* Differential tests of the table-free geometry checks                *)
(* ------------------------------------------------------------------ *)

(* The vertex-table [Geometry.check] that the sort-based one replaced,
   kept as the oracle: same issues, same order. *)
let reference_check (g : Geometry.t) =
  let issues = ref [] in
  List.iter
    (fun (d : Defect.t) ->
      if not (Defect.valid_path ~dtype:d.dtype ~closed:d.closed d.path) then
        issues := Geometry.Malformed_strand d.id :: !issues)
    g.Geometry.defects;
  let occupancy : (Vec3.t, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (d : Defect.t) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt occupancy v with
          | Some s when s <> d.structure ->
              issues :=
                Geometry.Same_type_structure_overlap
                  { a = s; b = d.structure; at = v }
                :: !issues
          | Some _ -> ()
          | None -> Hashtbl.add occupancy v d.structure)
        d.path)
    g.Geometry.defects;
  let rec box_pairs i = function
    | [] -> ()
    | (b : Geometry.distill_box) :: rest ->
        List.iteri
          (fun j (b' : Geometry.distill_box) ->
            if Box3.overlap b.Geometry.b_box b'.Geometry.b_box then
              issues := Geometry.Box_overlap (i, i + j + 1) :: !issues)
          rest;
        box_pairs (i + 1) rest
  in
  box_pairs 0 g.Geometry.boxes;
  List.rev !issues

(* The per-strand table [Defect.cells] keeps for longer strands. *)
let reference_cells (d : Defect.t) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun v ->
      let c = Defect.cell_of_vertex v in
      if Hashtbl.mem seen c then None
      else begin
        Hashtbl.add seen c ();
        Some c
      end)
    d.path

(* Random strand sets around the origin, negative coordinates included:
   open walks of 1 to 6 vertices, closed rectangles, malformed strands
   built without [Defect.make] (off-sublattice vertices, one- and
   two-vertex strands whose vertices share a cell), and one-vertex
   strands that repeat an earlier strand's vertex under another
   structure. *)
let gen_geometry =
  let open QCheck.Gen in
  let coord = int_range (-5) 5 in
  let vertex parity =
    let* x = coord and* y = coord and* z = coord in
    return (vec ((2 * x) + parity) ((2 * y) + parity) ((2 * z) + parity))
  in
  let walk parity =
    let* start = vertex parity in
    let* steps = list_size (int_range 0 5) (pair (int_range 0 2) bool) in
    let step (v : Vec3.t) (axis, up) =
      let d = if up then 2 else -2 in
      match axis with
      | 0 -> vec (v.x + d) v.y v.z
      | 1 -> vec v.x (v.y + d) v.z
      | _ -> vec v.x v.y (v.z + d)
    in
    let rev =
      List.fold_left (fun acc s -> step (List.hd acc) s :: acc) [ start ] steps
    in
    return (List.rev rev, false)
  in
  let loop parity =
    let* i = coord and* j = coord and* k = coord and* l = coord in
    let* at = coord and* plane = oneofl [ `Xy; `Xz; `Yz ] in
    let d n = (2 * n) + parity in
    if i = j || k = l then walk parity
    else
      let r =
        Defect.rectangle ~id:0 ~structure:0
          ~dtype:(if parity = 0 then Defect.Primal else Defect.Dual)
          ~plane ~at:(d at) (d i, d k) (d j, d l)
      in
      return (r.Defect.path, true)
  in
  let malformed =
    let raw = map3 vec (int_range (-9) 9) (int_range (-9) 9) (int_range (-9) 9) in
    (* two vertices of one cell: its low corner and another *)
    let one_cell =
      let* c = vertex 0 and* b = map3 vec (int_range 0 1) (int_range 0 1) (int_range 0 1) in
      return [ c; Vec3.add c b ]
    in
    let* path = oneof [ list_size (int_range 1 3) raw; one_cell ]
    and* closed = bool in
    return (path, closed)
  in
  let strand =
    let* dual = bool and* structure = int_range 0 3 in
    let parity = if dual then 1 else 0 in
    let* path, closed =
      frequency [ (6, walk parity); (2, loop parity); (1, malformed) ]
    in
    return (dual, structure, path, closed)
  in
  let* strands = list_size (int_range 0 10) strand in
  let* planted = list_size (int_range 0 3) (pair nat nat) in
  let planted =
    match strands with
    | [] -> []
    | _ ->
        List.map
          (fun (i, j) ->
            let dual, structure, path, _ =
              List.nth strands (i mod List.length strands)
            in
            let v = List.nth path (j mod List.length path) in
            (dual, (structure + 1) mod 4, [ v ], false))
          planted
  in
  let strands =
    List.mapi
      (fun id (dual, structure, path, closed) ->
        {
          Defect.id;
          structure;
          dtype = (if dual then Defect.Dual else Defect.Primal);
          path;
          closed;
        })
      (strands @ planted)
  in
  let* boxes =
    list_size (int_range 0 3)
      (let* kind = oneofl [ Geometry.Y_box; Geometry.A_box ] in
       let+ x = coord and+ y = coord and+ z = coord in
       Geometry.box_at kind (vec x y z))
  in
  return (Geometry.make ~name:"random" ~defects:strands ~boxes)

let arb_geometry =
  let print (g : Geometry.t) =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Defect.pp) g.Geometry.defects
      @ List.map
          (fun (b : Geometry.distill_box) ->
            Format.asprintf "box %a" Box3.pp b.Geometry.b_box)
          g.Geometry.boxes)
  in
  QCheck.make ~print gen_geometry

let prop_check_matches_reference =
  QCheck.Test.make ~name:"Geometry.check matches the table reference" ~count:500
    arb_geometry (fun g -> Geometry.check g = reference_check g)

let prop_bbox_matches_cells =
  QCheck.Test.make ~name:"Geometry.bbox bounds Geometry.cells" ~count:500
    arb_geometry (fun g ->
      Geometry.bbox g
      = match Geometry.cells g with [] -> None | cs -> Some (Box3.bounding cs))

let prop_cells_match_reference =
  QCheck.Test.make ~name:"Defect.cells matches the table reference" ~count:500
    arb_geometry (fun g ->
      List.for_all
        (fun d -> Defect.cells d = reference_cells d)
        g.Geometry.defects)

(* The generator reaches what the properties are about. *)
let test_generator_coverage () =
  let rand = Random.State.make [| 7 |] in
  let gs = QCheck.Gen.generate ~rand ~n:500 gen_geometry in
  let count p = List.length (List.filter p gs) in
  let has_issue p g = List.exists p (Geometry.check g) in
  let collision = function
    | Geometry.Same_type_structure_overlap _ -> true
    | _ -> false
  in
  let strands n (g : Geometry.t) =
    List.exists (fun (d : Defect.t) -> List.length d.path = n) g.Geometry.defects
  in
  List.iter
    (fun (what, n) -> check Alcotest.bool (Printf.sprintf "%s: %d sets" what n) true (n >= 25))
    [
      ("collisions", count (has_issue collision));
      ("malformed strands", count (has_issue (function Geometry.Malformed_strand _ -> true | _ -> false)));
      ("closed loops", count (fun g -> List.exists (fun (d : Defect.t) -> d.closed && Defect.valid_path ~dtype:d.dtype ~closed:true d.path) g.Geometry.defects));
      ("negative coordinates", count (fun g -> List.exists (fun (d : Defect.t) -> List.exists (fun (v : Vec3.t) -> v.x < 0) d.path) g.Geometry.defects));
      ("one-vertex strands", count (strands 1));
      ("two-vertex strands", count (strands 2));
      ( "two-vertex strands in one cell",
        count (fun g ->
            List.exists
              (fun (d : Defect.t) ->
                List.length d.path = 2 && List.length (reference_cells d) = 1)
              g.Geometry.defects) );
      ("longer strands", count (fun g -> List.exists (fun (d : Defect.t) -> List.length d.path > 2) g.Geometry.defects));
    ]

(* ------------------------------------------------------------------ *)
(* Canonical geometry                                                  *)
(* ------------------------------------------------------------------ *)

let three_cnot_icm () = Decompose.run Suite.three_cnot_example

let test_canonical_three_cnot_volume () =
  let icm = three_cnot_icm () in
  (* 3 CNOTs, 3 used rows: 3*3 x 3 x 2 = 54, the paper's Fig. 1(b). *)
  check Alcotest.int "defect volume 54" 54 (Canonical.defect_volume icm);
  check Alcotest.int "no boxes" 54 (Canonical.volume icm)

let test_canonical_geometry_valid () =
  let icm = three_cnot_icm () in
  let g, info = Canonical.build icm in
  check Alcotest.(list string) "no geometry issues" []
    (List.map (Format.asprintf "%a" Geometry.pp_issue) (Geometry.check g));
  check Alcotest.int "three rows" 3 info.Canonical.n_rows;
  check Alcotest.int "three rings" 3 info.Canonical.n_cnots;
  (* Geometric bbox close to nominal: x exact, y and z at most +1. *)
  match Geometry.bbox g with
  | None -> Alcotest.fail "empty geometry"
  | Some bb ->
      check Alcotest.int "x units" 9 (Box3.dx bb);
      check Alcotest.bool "y units" true (Box3.dy bb <= 4);
      check Alcotest.bool "z units" true (Box3.dz bb <= 2)

(* The decisive functional test: every canonical dual ring links exactly
   its CNOT's control row and target row. *)
let canonical_braiding_correct icm =
  let g, info = Canonical.build icm in
  let rings =
    List.filter (fun (d : Defect.t) -> d.dtype = Defect.Dual) g.Geometry.defects
  in
  List.for_all
    (fun (d : Defect.t) ->
      let k = d.structure - info.Canonical.n_rows in
      let ({ control; target } : Icm.cnot) = icm.Icm.cnots.(k) in
      let rc = info.Canonical.row_of_line.(control) in
      let rt = info.Canonical.row_of_line.(target) in
      let ok = ref true in
      for row = 0 to info.Canonical.n_rows - 1 do
        let expected = if row = rc || row = rt then 1 else 0 in
        if abs (Braiding.linking d (Canonical.hole info row)) <> expected then
          ok := false
      done;
      !ok)
    rings

let test_canonical_braiding_three_cnot () =
  check Alcotest.bool "rings link control+target rows only" true
    (canonical_braiding_correct (three_cnot_icm ()))

let prop_canonical_braiding_random =
  QCheck.Test.make ~name:"canonical braiding correct on random circuits"
    ~count:20
    QCheck.(pair (int_range 2 5) (int_range 1 15))
    (fun (wires, gates) ->
      let c =
        Generator.random_clifford_t ~seed:(23 + wires + (41 * gates))
          ~n_qubits:wires ~n_gates:gates
      in
      let icm = Decompose.run c in
      Array.length icm.Icm.cnots = 0 || canonical_braiding_correct icm)

let prop_canonical_volume_formula =
  QCheck.Test.make ~name:"canonical volume formula vs stats" ~count:30
    QCheck.(pair (int_range 2 5) (int_range 1 20))
    (fun (wires, gates) ->
      let c =
        Generator.random_clifford_t ~seed:(5 + wires + (3 * gates))
          ~n_qubits:wires ~n_gates:gates
      in
      let icm = Decompose.run c in
      let s = Icm.stats icm in
      Canonical.volume icm
      = Canonical.defect_volume icm + (18 * s.Icm.s_y) + (192 * s.Icm.s_a))

let test_canonical_unused_line_dropped () =
  (* wire 2 unused: canonical rows = used rows only *)
  let c =
    Circuit.make ~name:"u" ~n_qubits:3
      [ Gate.Cnot { control = 0; target = 1 } ]
  in
  let icm = Decompose.run c in
  check Alcotest.int "two used rows" 2 (Canonical.used_rows icm);
  check Alcotest.int "volume 3*2*2" 12 (Canonical.defect_volume icm)

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_render_summary () =
  let g, _ = Canonical.build (three_cnot_icm ()) in
  let s = Render.summary g in
  check Alcotest.bool "mentions strands" true (contains_sub s "primal")

let test_render_layers_nonempty () =
  let g, _ = Canonical.build (three_cnot_icm ()) in
  let s = Render.layers g in
  check Alcotest.bool "has content" true (String.length s > 20);
  check Alcotest.bool "has primal cells" true (String.contains s 'P');
  check Alcotest.bool "has dual cells" true
    (String.contains s 'D' || String.contains s '*')

let test_render_empty () =
  check Alcotest.string "empty" "" (Render.layers (Geometry.empty "e"))

let suites =
  [
    ( "geom.defect",
      [
        Alcotest.test_case "parity" `Quick test_defect_parity;
        Alcotest.test_case "closed" `Quick test_defect_closed;
        Alcotest.test_case "straight" `Quick test_defect_straight;
        Alcotest.test_case "rectangle" `Quick test_defect_rectangle;
        Alcotest.test_case "loop of corners order" `Quick
          test_loop_of_corners_order;
        Alcotest.test_case "cell mapping" `Quick test_cell_of_vertex;
      ] );
    ( "geom.geometry",
      [
        Alcotest.test_case "overlap detected" `Quick test_geometry_overlap_detected;
        Alcotest.test_case "same structure touches" `Quick
          test_geometry_same_structure_can_touch;
        Alcotest.test_case "primal/dual independent" `Quick
          test_geometry_primal_dual_independent;
        Alcotest.test_case "volume" `Quick test_geometry_volume;
        Alcotest.test_case "distillation boxes" `Quick test_geometry_boxes;
        Alcotest.test_case "structures" `Quick test_geometry_structures;
        Alcotest.test_case "random strand sets cover the cases" `Quick
          test_generator_coverage;
        qtest prop_check_matches_reference;
        qtest prop_bbox_matches_cells;
        qtest prop_cells_match_reference;
      ] );
    ( "geom.braiding",
      [
        Alcotest.test_case "links once" `Quick test_linking_one;
        Alcotest.test_case "outside hole" `Quick test_linking_outside;
        Alcotest.test_case "coplanar" `Quick test_linking_no_crossing;
        Alcotest.test_case "cancellation" `Quick test_linking_cancellation;
        Alcotest.test_case "requires closed" `Quick test_linking_requires_closed;
        Alcotest.test_case "crossings" `Quick test_crossings_reported;
      ] );
    ( "geom.canonical",
      [
        Alcotest.test_case "three-cnot volume 54" `Quick
          test_canonical_three_cnot_volume;
        Alcotest.test_case "geometry valid" `Quick test_canonical_geometry_valid;
        Alcotest.test_case "braiding three-cnot" `Quick
          test_canonical_braiding_three_cnot;
        Alcotest.test_case "unused line dropped" `Quick
          test_canonical_unused_line_dropped;
        qtest prop_canonical_braiding_random;
        qtest prop_canonical_volume_formula;
      ] );
    ( "geom.render",
      [
        Alcotest.test_case "summary" `Quick test_render_summary;
        Alcotest.test_case "layers" `Quick test_render_layers_nonempty;
        Alcotest.test_case "empty" `Quick test_render_empty;
      ] );
  ]
