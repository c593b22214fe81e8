module Vec3 = Tqec_util.Vec3

type defect_type = Primal | Dual

type t = {
  id : int;
  structure : int;
  dtype : defect_type;
  path : Vec3.t list;
  closed : bool;
}

let on_sublattice dtype (v : Vec3.t) =
  let parity = match dtype with Primal -> 0 | Dual -> 1 in
  (v.x land 1) = parity && (v.y land 1) = parity && (v.z land 1) = parity

let unit_step (a : Vec3.t) (b : Vec3.t) =
  let dx = abs (a.x - b.x) and dy = abs (a.y - b.y) and dz = abs (a.z - b.z) in
  (dx = 2 && dy = 0 && dz = 0)
  || (dx = 0 && dy = 2 && dz = 0)
  || (dx = 0 && dy = 0 && dz = 2)

let valid_path ~dtype ~closed path =
  match path with
  | [] -> false
  | [ v ] -> on_sublattice dtype v && not closed
  | first :: _ ->
      let rec steps_ok = function
        | a :: b :: rest -> unit_step a b && steps_ok (b :: rest)
        | [ last ] -> (not closed) || unit_step last first
        | [] -> true
      in
      List.for_all (on_sublattice dtype) path && steps_ok path

let make ~id ~structure ~dtype ~closed path =
  if not (valid_path ~dtype ~closed path) then
    invalid_arg "Defect.make: malformed path";
  { id; structure; dtype; path; closed }

let vertices d = d.path

(* floor division that handles negatives *)
let fdiv2 c = if c >= 0 then c / 2 else (c - 1) / 2

let cell_of_vertex (v : Vec3.t) = Vec3.make (fdiv2 v.x) (fdiv2 v.y) (fdiv2 v.z)

let cells d =
  match d.path with
  | [] -> []
  | [ v ] -> [ cell_of_vertex v ]
  | [ a; b ] ->
      (* the strands emission writes: no table for one comparison *)
      let ca = cell_of_vertex a and cb = cell_of_vertex b in
      if Vec3.equal ca cb then [ ca ] else [ ca; cb ]
  | path ->
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun v ->
          let c = cell_of_vertex v in
          if Hashtbl.mem seen c then None
          else begin
            Hashtbl.add seen c ();
            Some c
          end)
        path

let length d =
  let n = List.length d.path in
  if n <= 1 then 0 else if d.closed then n else n - 1

let range2 a b = if a <= b then List.init (((b - a) / 2) + 1) (fun i -> a + (2 * i))
  else List.init (((a - b) / 2) + 1) (fun i -> a - (2 * i))

let straight ~id ~structure ~dtype (a : Vec3.t) (b : Vec3.t) =
  let path =
    if a.y = b.y && a.z = b.z then
      List.map (fun x -> Vec3.make x a.y a.z) (range2 a.x b.x)
    else if a.x = b.x && a.z = b.z then
      List.map (fun y -> Vec3.make a.x y a.z) (range2 a.y b.y)
    else if a.x = b.x && a.y = b.y then
      List.map (fun z -> Vec3.make a.x a.y z) (range2 a.z b.z)
    else invalid_arg "Defect.straight: endpoints not axis-aligned"
  in
  make ~id ~structure ~dtype ~closed:false path

let axis_run (a : Vec3.t) (b : Vec3.t) =
  if a.y = b.y && a.z = b.z then
    List.map (fun x -> Vec3.make x a.y a.z) (range2 a.x b.x)
  else if a.x = b.x && a.z = b.z then
    List.map (fun y -> Vec3.make a.x y a.z) (range2 a.y b.y)
  else if a.x = b.x && a.y = b.y then
    List.map (fun z -> Vec3.make a.x a.y z) (range2 a.z b.z)
  else invalid_arg "Defect: corners not axis-aligned"

let loop_of_corners ~id ~structure ~dtype corners =
  match corners with
  | [] | [ _ ] | [ _; _ ] -> invalid_arg "Defect.loop_of_corners: too few corners"
  | first :: _ ->
      (* [rev_path] holds the path so far, newest vertex first *)
      let rec walk rev_path = function
        | a :: (b :: _ as rest) ->
            let run = axis_run a b in
            let run = match rev_path with [] -> run | _ -> List.tl run in
            walk (List.rev_append run rev_path) rest
        | [ last ] ->
            (* drop both endpoints of the closing run: last is already on
               the path, first closes the loop *)
            let middle =
              match axis_run last first with
              | [] | [ _ ] -> []
              | _ :: rest -> (
                  match List.rev rest with [] -> [] | _ :: rev_mid -> rev_mid)
            in
            List.rev_append rev_path (List.rev middle)
        | [] -> List.rev rev_path
      in
      let path = walk [] corners in
      (* reject self-overlapping loops *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then
            invalid_arg "Defect.loop_of_corners: self-overlapping loop";
          Hashtbl.add seen v ())
        path;
      make ~id ~structure ~dtype ~closed:true path

let rectangle ~id ~structure ~dtype ~plane ~at (a1, a2) (b1, b2) =
  let lo1 = min a1 b1 and hi1 = max a1 b1 in
  let lo2 = min a2 b2 and hi2 = max a2 b2 in
  if lo1 = hi1 || lo2 = hi2 then
    invalid_arg "Defect.rectangle: degenerate rectangle";
  let embed (u, v) =
    match plane with
    | `Xy -> Vec3.make u v at
    | `Xz -> Vec3.make u at v
    | `Yz -> Vec3.make at u v
  in
  let side1 = List.map (fun u -> (u, lo2)) (range2 lo1 hi1) in
  let side2 = List.map (fun v -> (hi1, v)) (range2 (lo2 + 2) hi2) in
  let side3 = List.map (fun u -> (u, hi2)) (range2 (hi1 - 2) lo1) in
  let side4 =
    if hi2 - 2 < lo2 + 2 then []
    else List.map (fun v -> (lo1, v)) (range2 (hi2 - 2) (lo2 + 2))
  in
  let path = List.map embed (side1 @ side2 @ side3 @ side4) in
  make ~id ~structure ~dtype ~closed:true path

let pp ppf d =
  Format.fprintf ppf "%s strand %d (structure %d, %s, %d vertices)"
    (match d.dtype with Primal -> "primal" | Dual -> "dual")
    d.id d.structure
    (if d.closed then "closed" else "open")
    (List.length d.path)
