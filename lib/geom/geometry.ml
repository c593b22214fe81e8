module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3

type box_kind = Y_box | A_box

type distill_box = { b_kind : box_kind; b_box : Box3.t }

type t = {
  name : string;
  defects : Defect.t list;
  boxes : distill_box list;
}

let make ~name ~defects ~boxes = { name; defects; boxes }
let empty name = make ~name ~defects:[] ~boxes:[]

let y_box_dims = (3, 3, 2)
let a_box_dims = (16, 6, 2)

let box_volume = function
  | Y_box ->
      let x, y, z = y_box_dims in
      x * y * z
  | A_box ->
      let x, y, z = a_box_dims in
      x * y * z

let box_at kind (cell : Vec3.t) =
  let x, y, z = match kind with Y_box -> y_box_dims | A_box -> a_box_dims in
  {
    b_kind = kind;
    b_box =
      Box3.make cell (Vec3.make (cell.x + x - 1) (cell.y + y - 1) (cell.z + z - 1));
  }

let cells g =
  let seen = Hashtbl.create 256 in
  let out = ref [] in
  let visit c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      out := c :: !out
    end
  in
  List.iter (fun d -> List.iter visit (Defect.cells d)) g.defects;
  List.iter
    (fun b ->
      visit b.b_box.Box3.lo;
      visit b.b_box.Box3.hi)
    g.boxes;
  List.rev !out

(* Fold [f] over every strand vertex, strands in order, each path in
   order; [f acc i structure v] also gets the listing's index [i]. *)
let fold_vertices f acc g =
  let i = ref 0 in
  List.fold_left
    (fun acc (d : Defect.t) ->
      List.fold_left
        (fun acc v ->
          let acc = f acc !i d.structure v in
          incr i;
          acc)
        acc d.path)
    acc g.defects

(* The vertices' bounding corners, [None] without vertices. *)
let vertex_bounds g =
  let lx = ref max_int and ly = ref max_int and lz = ref max_int in
  let hx = ref min_int and hy = ref min_int and hz = ref min_int in
  List.iter
    (fun (d : Defect.t) ->
      List.iter
        (fun (v : Vec3.t) ->
          if v.x < !lx then lx := v.x;
          if v.x > !hx then hx := v.x;
          if v.y < !ly then ly := v.y;
          if v.y > !hy then hy := v.y;
          if v.z < !lz then lz := v.z;
          if v.z > !hz then hz := v.z)
        d.path)
    g.defects;
  if !lx > !hx then None
  else Some (Vec3.make !lx !ly !lz, Vec3.make !hx !hy !hz)

(* [cells]' bounding box without building [cells]: the vertex-to-cell
   map is monotone on each axis, so the cells of the vertices' bounding
   corners bound every strand cell. *)
let bbox g =
  let corners =
    List.concat_map (fun b -> [ b.b_box.Box3.lo; b.b_box.Box3.hi ]) g.boxes
  in
  let corners =
    match vertex_bounds g with
    | None -> corners
    | Some (lo, hi) -> Defect.cell_of_vertex lo :: Defect.cell_of_vertex hi :: corners
  in
  match corners with [] -> None | cs -> Some (Box3.bounding cs)

let volume g = match bbox g with None -> 0 | Some b -> Box3.volume b

let total_box_volume g =
  List.fold_left (fun acc b -> acc + box_volume b.b_kind) 0 g.boxes

type issue =
  | Malformed_strand of int
  | Same_type_structure_overlap of { a : int; b : int; at : Vec3.t }
  | Box_overlap of int * int

let pp_issue ppf = function
  | Malformed_strand id -> Format.fprintf ppf "strand %d malformed" id
  | Same_type_structure_overlap { a; b; at } ->
      Format.fprintf ppf "structures %d and %d overlap at %a" a b Vec3.pp at
  | Box_overlap (a, b) -> Format.fprintf ppf "boxes %d and %d overlap" a b

(* Same-sublattice vertex collisions across different structures.  A
   vertex belongs to the structure that lists it first (strands in
   order, each path in order); every later listing of it by another
   structure is an issue, reported in listing order.  Listings are
   numbered in that order and sorted by (vertex, number), so the
   listings of one vertex lie together, its owner's first. *)
let collisions g =
  let n = fold_vertices (fun n _ _ _ -> n + 1) 0 g in
  let structure = Array.make n 0 and vertex = Array.make n Vec3.zero in
  fold_vertices
    (fun () i s v ->
      structure.(i) <- s;
      vertex.(i) <- v)
    () g;
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Vec3.compare vertex.(i) vertex.(j) with 0 -> Int.compare i j | c -> c)
    order;
  let found = ref [] and owner = ref 0 in
  Array.iteri
    (fun k i ->
      let s = structure.(i) in
      if k = 0 || not (Vec3.equal vertex.(i) vertex.(order.(k - 1))) then owner := s
      else if s <> !owner then
        found :=
          (i, Same_type_structure_overlap { a = !owner; b = s; at = vertex.(i) })
          :: !found)
    order;
  List.sort (fun (i, _) (j, _) -> Int.compare i j) !found |> List.map snd

let check g =
  let issues = ref [] in
  List.iter
    (fun (d : Defect.t) ->
      if not (Defect.valid_path ~dtype:d.dtype ~closed:d.closed d.path) then
        issues := Malformed_strand d.id :: !issues)
    g.defects;
  issues := List.rev_append (collisions g) !issues;
  (* Boxes must not overlap each other. *)
  let rec box_pairs i = function
    | [] -> ()
    | b :: rest ->
        List.iteri
          (fun j b' ->
            if Box3.overlap b.b_box b'.b_box then
              issues := Box_overlap (i, i + j + 1) :: !issues)
          rest;
        box_pairs (i + 1) rest
  in
  box_pairs 0 g.boxes;
  List.rev !issues

let is_valid g = check g = []

let structures g dtype =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Defect.t) ->
      if d.dtype = dtype then
        let existing = try Hashtbl.find tbl d.structure with Not_found -> [] in
        Hashtbl.replace tbl d.structure (d :: existing))
    g.defects;
  (* hash-order: sorted by structure id before returning *)
  Hashtbl.fold (fun s ds acc -> (s, List.rev ds) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
