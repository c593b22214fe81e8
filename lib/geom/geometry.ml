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

let bbox g =
  match cells g with [] -> None | cs -> Some (Box3.bounding cs)

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

let check g =
  let issues = ref [] in
  List.iter
    (fun (d : Defect.t) ->
      if not (Defect.valid_path ~dtype:d.dtype ~closed:d.closed d.path) then
        issues := Malformed_strand d.id :: !issues)
    g.defects;
  (* Same-sublattice vertex collisions across different structures. *)
  let occupancy : (Vec3.t, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (d : Defect.t) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt occupancy v with
          | Some s when s <> d.structure ->
              issues :=
                Same_type_structure_overlap { a = s; b = d.structure; at = v }
                :: !issues
          | Some _ -> ()
          | None -> Hashtbl.add occupancy v d.structure)
        d.path)
    g.defects;
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
