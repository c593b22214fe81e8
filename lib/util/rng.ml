(* The SplitMix64 state lives in 8 bytes rather than a mutable [int64]
   field: storing an [int64] into a record boxes it, so every draw
   allocated, while the bytes are read and written unboxed. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let r = Bytes.create 8 in
  Bytes.set_int64_ne r 0 s;
  r

let create seed = of_state (Int64.of_int seed)

(* Inlined into every draw, so its result stays unboxed. *)
let[@inline] next r =
  let z = Int64.add (Bytes.get_int64_ne r 0) golden in
  Bytes.set_int64_ne r 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 r = next r

let split r = of_state (next r)
let copy r = Bytes.copy r
let split_n r k = Array.init k (fun _ -> split r)

(* Lane 0 is exactly [create seed] so a single-lane run reproduces the
   historical single-rng behaviour; other lanes start from the SplitMix64
   output of a seed+lane mix, giving independent streams. *)
let lane seed i =
  if i = 0 then create seed
  else
    split (of_state (Int64.add (Int64.of_int seed) (Int64.mul golden (Int64.of_int i))))

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let v = Int64.to_int (Int64.shift_right_logical (next r) 2) in
  v mod n

let int_in r lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int r (hi - lo + 1)

let float r =
  let v = Int64.to_float (Int64.shift_right_logical (next r) 11) in
  v /. 9007199254740992.0

let bool r = Int64.logand (next r) 1L = 1L

let pick r arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int r (Array.length arr))

let shuffle r arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
