(* Micro-benchmark for the incremental repack: the annealer's exact
   perturb/pack/undo pattern over a 128-block tree. *)
module Bstar_tree = Tqec_place.Bstar_tree
module Rng = Tqec_util.Rng

(* Absent argv slots and non-numeric input both fall back to defaults;
   match the two exceptions by name rather than swallowing everything. *)
let argv_int i default =
  match int_of_string Sys.argv.(i) with
  | v -> v
  | exception (Invalid_argument _ | Failure _) -> default

let () =
  let n = argv_int 1 128 in
  let moves = argv_int 2 120_000 in
  let dims =
    Array.init n (fun i -> (1 + ((i * 7) mod 5), 1 + ((i * 3) mod 4)))
  in
  let t = Bstar_tree.create dims in
  let rng = Rng.create 42 in
  let xs = Array.make n 0 and ys = Array.make n 0 in
  ignore (Bstar_tree.pack_xy t xs ys);
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for _ = 1 to moves do
    let undo =
      match Rng.int rng 3 with
      | 0 ->
          let b = Rng.int rng n in
          Bstar_tree.rotate t b;
          fun () -> Bstar_tree.rotate t b
      | 1 ->
          let a = Rng.int rng n and b = Rng.int rng n in
          Bstar_tree.swap_blocks t a b;
          fun () -> Bstar_tree.swap_blocks t a b
      | _ ->
          let snap = Bstar_tree.snapshot t in
          Bstar_tree.move_block t ~rng (Rng.int rng n);
          fun () -> Bstar_tree.restore t snap
    in
    let w, h = Bstar_tree.pack_xy t xs ys in
    acc := !acc + w + h;
    if Rng.bool rng then undo ()
  done;
  Printf.printf "%d blocks, %d moves: %.3fs (checksum %d)\n" n moves
    (Unix.gettimeofday () -. t0)
    !acc
