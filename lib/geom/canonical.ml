module Icm = Tqec_icm.Icm
module Vec3 = Tqec_util.Vec3
module Interval = Tqec_util.Interval

type info = {
  row_of_line : int array;
  n_rows : int;
  n_cnots : int;
  ring_x : int array;
}

let used_lines (icm : Icm.t) =
  let used = Array.make icm.n_lines false in
  Array.iter
    (fun ({ control; target } : Icm.cnot) ->
      used.(control) <- true;
      used.(target) <- true)
    icm.cnots;
  used

let used_rows icm =
  Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 (used_lines icm)

let layout (icm : Icm.t) =
  let used = used_lines icm in
  let row_of_line = Array.make icm.n_lines (-1) in
  let next = ref 0 in
  Array.iteri
    (fun line u ->
      if u then begin
        row_of_line.(line) <- !next;
        incr next
      end)
    used;
  let n_cnots = Array.length icm.cnots in
  {
    row_of_line;
    n_rows = !next;
    n_cnots;
    ring_x = Array.init n_cnots (fun k -> (6 * k) + 3);
  }

(* Dual ring threading rows [a] and [b] (doubled y of the two rails) at
   doubled x position [x].  Crossings happen at z = 1 (inside the rail
   loops' holes); return paths run at z = 3 (outside). *)
let ring ~id ~structure ~x ya yb =
  let a = min ya yb and b = max ya yb in
  let v y z = Vec3.make x y z in
  let v' y z = Vec3.make (x + 2) y z in
  let path =
    if b = a + 2 then
      (* adjacent rows: one planar hexagon crossing both holes at z = 1 *)
      [ v (a - 1) 1; v (a + 1) 1; v (b + 1) 1; v (b + 1) 3; v (a + 1) 3;
        v (a - 1) 3 ]
    else
      (* distant rows: cross each hole at z = 1 in the plane x; dodge the
         intermediate rows at z = 3, returning through the plane x + 2 so
         the outbound and return runs never overlap *)
      [ v (a - 1) 1; v (a + 1) 1; v (a + 1) 3; v (b - 1) 3; v (b - 1) 1;
        v (b + 1) 1; v (b + 1) 3; v' (b + 1) 3; v' (a - 1) 3; v (a - 1) 3 ]
  in
  Defect.loop_of_corners ~id ~structure ~dtype:Defect.Dual path

let build (icm : Icm.t) =
  let info = layout icm in
  let xmax = max 2 ((6 * info.n_cnots) - 2) in
  let defects = ref [] in
  (* Primal rail loops, one per used row. *)
  Array.iter
    (fun row ->
      if row >= 0 then
        defects :=
          Defect.rectangle ~id:row ~structure:row ~dtype:Defect.Primal
            ~plane:`Xz ~at:(2 * row) (0, 0) (xmax, 2)
          :: !defects)
    info.row_of_line;
  (* Dual rings. *)
  Array.iteri
    (fun k ({ control; target } : Icm.cnot) ->
      let rc = info.row_of_line.(control) and rt = info.row_of_line.(target) in
      assert (rc >= 0 && rt >= 0 && rc <> rt);
      defects :=
        ring ~id:(info.n_rows + k) ~structure:(info.n_rows + k)
          ~x:info.ring_x.(k) (2 * rc) (2 * rt)
        :: !defects)
    icm.cnots;
  (Geometry.make ~name:icm.name ~defects:(List.rev !defects) ~boxes:[], info)

let hole info row =
  if row < 0 || row >= info.n_rows then invalid_arg "Canonical.hole: bad row";
  let xmax = max 2 ((6 * info.n_cnots) - 2) in
  {
    Braiding.axis = `Y;
    at = 2 * row;
    u = Interval.make 0 xmax;
    v = Interval.make 0 2;
  }

let defect_volume icm =
  let rows = used_rows icm in
  3 * Array.length icm.cnots * rows * 2

let volume icm =
  let s = Icm.stats icm in
  defect_volume icm
  + (Geometry.box_volume Geometry.Y_box * s.Icm.s_y)
  + (Geometry.box_volume Geometry.A_box * s.Icm.s_a)
