type t = { cells : Vec3.t array; order : int array }

let make cells =
  let order = Array.init (Array.length cells) Fun.id in
  Array.sort
    (fun i j ->
      match Vec3.compare cells.(i) cells.(j) with 0 -> Int.compare i j | c -> c)
    order;
  { cells; order }

let length t = Array.length t.order
let cell t k = t.cells.(t.order.(k))
let position t k = t.order.(k)
let first t k = k = 0 || not (Vec3.equal (cell t k) (cell t (k - 1)))

let repeats t =
  let flags = Bytes.make (length t) '\000' in
  for k = 0 to length t - 1 do
    if not (first t k) then Bytes.set flags (position t k) '\001'
  done;
  flags

(* Lower bound of (x, y, z) over the ranks, then an equality test. *)
let find t x y z =
  let n = Array.length t.order in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cell t mid in
    if c.x < x || (c.x = x && (c.y < y || (c.y = y && c.z < z))) then
      lo := mid + 1
    else hi := mid
  done;
  if !lo < n then
    let c = cell t !lo in
    if c.x = x && c.y = y && c.z = z then !lo else -1
  else -1
