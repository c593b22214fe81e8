(* Micro-benchmark for the annealer's move path: perturb, pack (a full
   repack, or its skip after a move that kept every footprint), and on a
   rejection undo, which also puts the positions back from the pack's
   moved-block log, over a tree of [n] blocks, every block rotatable.
   The checksum sums the packed extents of every move, so it pins the
   whole draw sequence; the repack count is the moves whose pack ran the
   full repack.  Given an expected checksum or count, a mismatch exits
   1.

   dune exec bench/pack_bench.exe -- [n] [moves] [expected-checksum]
     [expected-repacks] *)
module Bstar_tree = Tqec_place.Bstar_tree
module Rng = Tqec_util.Rng

(* An absent argv slot and non-numeric input both read as [None]; match
   the two exceptions by name rather than swallowing everything. *)
let argv_int i =
  match int_of_string Sys.argv.(i) with
  | v -> Some v
  | exception (Invalid_argument _ | Failure _) -> None

let () =
  let n = Option.value (argv_int 1) ~default:128 in
  let moves = Option.value (argv_int 2) ~default:120_000 in
  let expected = argv_int 3 in
  let expected_repacks = argv_int 4 in
  let dims =
    Array.init n (fun i -> (1 + ((i * 7) mod 5), 1 + ((i * 3) mod 4)))
  in
  let t = Bstar_tree.create dims in
  let rng = Rng.create 42 in
  let rotatable = Array.init n Fun.id in
  Bstar_tree.pack t;
  let initial = Bstar_tree.repacks t in
  let t0 = Monotonic_clock.now () in
  let acc = ref 0 in
  for _ = 1 to moves do
    Bstar_tree.perturb t ~rng ~rotatable;
    Bstar_tree.pack t;
    let w, h = Bstar_tree.extents t in
    acc := !acc + w + h;
    if Rng.bool rng then Bstar_tree.undo t
  done;
  let repacks = Bstar_tree.repacks t - initial in
  Printf.printf "%d blocks, %d moves: %.3fs (checksum %d, repacks %d)\n" n
    moves
    (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
    !acc repacks;
  let mismatch what got = function
    | Some e when e <> got ->
        Printf.eprintf "pack_bench: %s %d, expected %d\n" what got e;
        true
    | _ -> false
  in
  let bad_sum = mismatch "checksum" !acc expected in
  if mismatch "repacks" repacks expected_repacks || bad_sum then exit 1
