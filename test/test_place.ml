(* Tests for the placement substrate: SA engine, B*-tree packing,
   super-module construction, placer invariants. *)

open Tqec_util
open Tqec_circuit
open Tqec_icm
open Tqec_pdgraph
open Tqec_place

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Sa                                                                  *)
(* ------------------------------------------------------------------ *)

let test_sa_minimizes_quadratic () =
  (* minimize (x - 17)^2 over integers with +-1 moves *)
  let state = ref 100 in
  let cost () = float_of_int ((!state - 17) * (!state - 17)) in
  let rng = Rng.create 5 in
  let best = ref !state in
  let perturb () =
    let prev = !state in
    state := !state + (if Rng.bool rng then 1 else -1);
    fun () -> state := prev
  in
  let params =
    { Sa.iterations = 5000; moves_per_temp = 50; cooling = 0.9;
      initial_acceptance = 0.8 }
  in
  let stats =
    Sa.run ~rng ~params ~cost ~perturb
      ~on_best:(fun _ -> best := !state)
      ()
  in
  check Alcotest.bool "found near-optimal" true (abs (!best - 17) <= 1);
  check Alcotest.bool "best cost consistent" true (stats.Sa.best_cost <= 1.);
  check Alcotest.bool "attempted all" true (stats.Sa.attempted >= 5000)

let test_sa_stats_sane () =
  let state = ref 0 in
  let rng = Rng.create 1 in
  let perturb () =
    incr state;
    fun () -> decr state
  in
  let stats =
    Sa.run ~rng
      ~params:{ Sa.iterations = 200; moves_per_temp = 20; cooling = 0.9;
                initial_acceptance = 0.8 }
      ~cost:(fun () -> float_of_int (abs !state))
      ~perturb ()
  in
  check Alcotest.bool "accepted <= attempted" true
    (stats.Sa.accepted <= stats.Sa.attempted);
  check Alcotest.bool "temperature decayed" true
    (stats.Sa.final_temperature > 0.)

(* The stepper contract behind adaptive multi-start: advancing a
   trajectory in arbitrary chunks is bit-identical to one uninterrupted
   run. *)
let test_sa_stepper_matches_run () =
  let params =
    { Sa.iterations = 3000; moves_per_temp = 40; cooling = 0.92;
      initial_acceptance = 0.8 }
  in
  let make_problem () =
    let state = ref 500 in
    let rng = Rng.create 9 in
    let cost () = float_of_int ((!state - 123) * (!state - 123)) in
    let perturb () =
      let prev = !state in
      state := !state + (if Rng.bool rng then 3 else -2);
      fun () -> state := prev
    in
    (rng, cost, perturb, state)
  in
  let rng, cost, perturb, state_a = make_problem () in
  let direct = Sa.run ~rng ~params ~cost ~perturb () in
  let rng, cost, perturb, state_b = make_problem () in
  let st = Sa.create ~rng ~params ~cost ~perturb () in
  while not (Sa.finished st) do
    Sa.step st 37
  done;
  let chunked = Sa.stats st in
  check Alcotest.int "attempted equal" direct.Sa.attempted chunked.Sa.attempted;
  check Alcotest.int "accepted equal" direct.Sa.accepted chunked.Sa.accepted;
  check (Alcotest.float 0.) "best cost equal" direct.Sa.best_cost
    chunked.Sa.best_cost;
  check Alcotest.int "final state equal" !state_a !state_b;
  check Alcotest.int "total moves" params.Sa.iterations (Sa.total_moves st);
  check Alcotest.int "attempted accessor" chunked.Sa.attempted
    (Sa.attempted st)

(* ------------------------------------------------------------------ *)
(* Bstar_tree                                                          *)
(* ------------------------------------------------------------------ *)

let dims_of_list l = Array.of_list l

(* The placement that [t]'s positions and extents hold, the positions
   copied as (x, y) pairs: [pack_reference]'s shape. *)
let placement t =
  let xs = Bstar_tree.xs t and ys = Bstar_tree.ys t in
  (Array.init (Bstar_tree.size t) (fun b -> (xs.(b), ys.(b))),
   Bstar_tree.extents t)

let packed t =
  Bstar_tree.pack t;
  placement t

let test_bstar_pack_no_overlap () =
  let dims = dims_of_list [ (3, 2); (2, 2); (4, 1); (1, 5); (2, 3) ] in
  Alcotest.check_raises "a zero side is rejected"
    (Invalid_argument "Bstar_tree.create: a block side below 1") (fun () ->
      ignore (Bstar_tree.create [| (2, 2); (0, 3) |]));
  let t = Bstar_tree.create dims in
  check Alcotest.(list string) "tree consistent" [] (Bstar_tree.check t);
  let pos, (w, h) = packed t in
  check Alcotest.bool "no overlap" false (Bstar_tree.overlaps pos dims);
  check Alcotest.bool "fits bbox" true
    (Array.for_all2
       (fun (x, y) (bw, bh) -> x >= 0 && y >= 0 && x + bw <= w && y + bh <= h)
       pos dims)

let test_bstar_rotate () =
  let dims = dims_of_list [ (5, 1); (5, 1) ] in
  let t = Bstar_tree.create dims in
  check Alcotest.int "width" 5 (Bstar_tree.width t 0);
  Bstar_tree.rotate t 0;
  check Alcotest.bool "rotated" true (Bstar_tree.is_rotated t 0);
  check Alcotest.int "width after rotate" 1 (Bstar_tree.width t 0);
  check Alcotest.int "height after rotate" 5 (Bstar_tree.height t 0)

(* Every move kind, undone, packs back to the same placement; a second
   undo is a no-op. *)
let test_bstar_perturb_undo () =
  let dims = Array.init 8 (fun i -> (2 + (i mod 3), 3)) in
  let t = Bstar_tree.create dims in
  let rng = Rng.create 3 in
  let rotatable = Array.init 8 Fun.id in
  for _ = 1 to 30 do
    Bstar_tree.perturb t ~rng ~rotatable;
    let before = packed t in
    Bstar_tree.perturb t ~rng ~rotatable;
    Bstar_tree.undo t;
    Bstar_tree.undo t;
    check Alcotest.(list string) "consistent after undo" [] (Bstar_tree.check t);
    check Alcotest.bool "same packing restored" true (before = packed t)
  done

let prop_bstar_moves_preserve_invariants =
  QCheck.Test.make ~name:"bstar moves keep tree consistent and non-overlapping"
    ~count:60
    QCheck.(pair (int_range 2 20) (int_range 1 500))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let dims =
        Array.init n (fun i -> (1 + ((i * 7) mod 5), 1 + ((i * 3) mod 4)))
      in
      let t = Bstar_tree.create dims in
      for _ = 1 to 40 do
        match Rng.int rng 3 with
        | 0 -> Bstar_tree.rotate t (Rng.int rng n)
        | 1 -> Bstar_tree.swap_blocks t (Rng.int rng n) (Rng.int rng n)
        | _ -> Bstar_tree.move_block t ~rng (Rng.int rng n)
      done;
      let current_dims =
        Array.init n (fun b -> (Bstar_tree.width t b, Bstar_tree.height t b))
      in
      let pos, _ = packed t in
      Bstar_tree.check t = [] && not (Bstar_tree.overlaps pos current_dims))

let prop_bstar_pack_compact_bottom_left =
  QCheck.Test.make ~name:"packed root sits at origin" ~count:50
    (QCheck.int_range 1 15)
    (fun n ->
      let dims = Array.init n (fun i -> (1 + (i mod 3), 1 + (i mod 2))) in
      let t = Bstar_tree.create dims in
      let pos, _ = packed t in
      (* block 0 is initially the root: packed at the origin *)
      pos.(0) = (0, 0))

(* Differential check of one tree state: [pack] must reproduce the
   brute-force reference packer bit for bit, the packing must be
   overlap-free, and every block must be bottom-supported (y = 0 or
   resting exactly on another block's top — the contour's compactness
   guarantee). *)
let assert_pack_matches_reference t =
  let n = Bstar_tree.size t in
  Bstar_tree.pack t;
  let w, h = Bstar_tree.extents t in
  let xs = Bstar_tree.xs t and ys = Bstar_tree.ys t in
  let rpos, (rw, rh) = Bstar_tree.pack_reference t in
  let ok = ref ((w, h) = (rw, rh)) in
  for b = 0 to n - 1 do
    if (xs.(b), ys.(b)) <> rpos.(b) then ok := false
  done;
  let cur_dims =
    Array.init n (fun b -> (Bstar_tree.width t b, Bstar_tree.height t b))
  in
  if Bstar_tree.overlaps rpos cur_dims then ok := false;
  for b = 0 to n - 1 do
    let x, y = rpos.(b) in
    if x < 0 || y < 0 then ok := false;
    if y > 0 then begin
      let bw = fst cur_dims.(b) in
      let supported = ref false in
      for j = 0 to n - 1 do
        if j <> b then begin
          let jx, jy = rpos.(j) in
          let jw, jh = cur_dims.(j) in
          if jx < x + bw && x < jx + jw && jy + jh = y then supported := true
        end
      done;
      if not !supported then ok := false
    end
  done;
  !ok

(* The two footprint mixes the move-path properties run on, each as
   (dims, rotatable block ids).  [small_mix]: every block rotatable,
   sides from a small set, so block x-ranges often start or end exactly
   where another block's does.  [suite_mix]: shaped like the paper
   suite's placement nodes — mostly rotatable 2x2 and 4x4 squares and a
   few rotatable 3x2 and 5x2 blocks, beside non-rotatable 17x7 blocks
   and long 31x2 to 141x2 ones — so many moves keep every footprint in
   place and the annealer's pack skips its repack. *)
let small_mix n =
  ( Array.init n (fun i -> (1 + ((i * 7) mod 5), 1 + ((i * 3) mod 4))),
    Array.init n Fun.id )

let suite_mix n =
  let dims =
    Array.init n (fun i ->
        match i mod 10 with
        | 0 | 1 | 2 | 3 | 4 -> (2, 2)
        | 5 | 6 -> (4, 4)
        | 7 -> if i mod 20 = 7 then (3, 2) else (5, 2)
        | 8 -> (17, 7)
        | _ -> (31 + (10 * (i / 10 mod 12)), 2))
  in
  let rotatable =
    List.filter (fun i -> fst dims.(i) <= 5) (List.init n Fun.id)
  in
  (dims, Array.of_list rotatable)

(* Over >= 1000 random move / pack / undo / pack steps on each
   footprint mix, the pack stays bit-identical to a from-scratch
   brute-force pack, also when a move is undone and the tree packed
   again.  On [small_mix] block x-ranges often start or end exactly
   where another block's does; [suite_mix]'s blocks up to 141 wide make
   a repack step walk many contour runs and split the last one it
   covers. *)
let prop_repack_matches_reference =
  QCheck.Test.make
    ~name:"full repack = reference over 1000 move/undo steps"
    ~count:4
    QCheck.(pair (int_range 2 24) (int_range 1 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ok = ref true in
      let run (dims, rotatable) =
        let t = Bstar_tree.create dims in
        if not (assert_pack_matches_reference t) then ok := false;
        for _ = 1 to 500 do
          Bstar_tree.perturb t ~rng ~rotatable;
          if not (assert_pack_matches_reference t) then ok := false;
          if Rng.bool rng then begin
            (* reject, and pack the reverted tree again *)
            Bstar_tree.undo t;
            if not (assert_pack_matches_reference t) then ok := false
          end;
          if Bstar_tree.check t <> [] then ok := false
        done
      in
      run (small_mix n);
      run (suite_mix (n + 8));
      !ok)

(* Uniform footprints: the initial tree packs a grid, and after any move
   every block's x-range starts and ends exactly where others do. *)
let test_pack_uniform_footprints () =
  let dims = Array.make 9 (2, 2) in
  let t = Bstar_tree.create dims in
  check Alcotest.bool "uniform grid matches reference" true
    (assert_pack_matches_reference t);
  let rng = Rng.create 77 in
  for _ = 1 to 50 do
    Bstar_tree.move_block t ~rng (Rng.int rng 9);
    check Alcotest.bool "still matches after move" true
      (assert_pack_matches_reference t)
  done

(* The last pack's moved-block log lists exactly the blocks whose (x, y)
   differs from a snapshot taken before it, each once. *)
let log_is_diff t ~snap_xs ~snap_ys xs ys =
  let moved = Bstar_tree.moved t in
  let logged =
    List.sort Int.compare (List.init (Bstar_tree.n_moved t) (fun k -> moved.(k)))
  in
  let diff =
    List.filter
      (fun b -> xs.(b) <> snap_xs.(b) || ys.(b) <> snap_ys.(b))
      (List.init (Array.length xs) Fun.id)
  in
  logged = diff

(* The moved-block log over 1000 random perturb / pack / undo steps on
   each footprint mix: after each pack the positions and extents equal
   the reference, and the log lists exactly the blocks whose (x, y)
   differs from a snapshot taken before the pack, each once.  [undo] on
   a rejection writes the log back: the positions equal the snapshot
   again, the log is empty, the extents are the snapshot's, and the
   placement equals the reverted tree's reference, read without packing
   again.  On the suite-shaped mix at least 30% of the packs skip the
   repack. *)
let prop_moved_log_matches_diff =
  QCheck.Test.make
    ~name:"moved-block log = diff over 1000 perturb/repack/undo steps"
    ~count:4
    QCheck.(pair (int_range 2 24) (int_range 1 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ok = ref true in
      let expect b = if not b then ok := false in
      (* the moves on one mix; returns how many skipped the repack *)
      let run (dims, rotatable) =
        let t = Bstar_tree.create dims in
        Bstar_tree.pack t;
        let xs = Bstar_tree.xs t and ys = Bstar_tree.ys t in
        let before = Bstar_tree.repacks t in
        for _ = 1 to 1000 do
          let snap_xs = Array.copy xs and snap_ys = Array.copy ys in
          let snap_wh = Bstar_tree.extents t in
          Bstar_tree.perturb t ~rng ~rotatable;
          expect (packed t = Bstar_tree.pack_reference t);
          expect (log_is_diff t ~snap_xs ~snap_ys xs ys);
          if Rng.bool rng then begin
            Bstar_tree.undo t;
            expect (xs = snap_xs && ys = snap_ys);
            expect (Bstar_tree.n_moved t = 0);
            expect (Bstar_tree.extents t = snap_wh);
            expect (placement t = Bstar_tree.pack_reference t)
          end;
          expect (Bstar_tree.check t = [])
        done;
        1000 - (Bstar_tree.repacks t - before)
      in
      ignore (run (small_mix n));
      expect (10 * run (suite_mix (n + 8)) >= 3 * 1000);
      !ok)

(* The skip under every other way of touching the tree between packs,
   interleaved at random with the annealer's own perturb / pack / undo
   cycle on the suite-shaped mix: direct [rotate], [swap_blocks] and
   [move_block], a [perturb] with no pack after it, an [undo] with no
   pack before it, and a pack with no [perturb] before it.  Every pack,
   and every [undo] of a packed move made on the tree's pack, leaves
   the reference placement; every pack logs exactly its before/after
   diff.  Some packs must still skip. *)
let prop_pack_skip_interleaved =
  QCheck.Test.make ~name:"pack skip = reference under interleaved edits"
    ~count:8
    QCheck.(pair (int_range 2 24) (int_range 1 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let dims, rotatable = suite_mix (n + 8) in
      let n = Array.length dims in
      let t = Bstar_tree.create dims in
      let xs = Bstar_tree.xs t and ys = Bstar_tree.ys t in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let packs = ref 0 in
      (* whether the positions hold the current tree's pack *)
      let synced = ref false in
      let pack () =
        let snap_xs = Array.copy xs and snap_ys = Array.copy ys in
        expect (packed t = Bstar_tree.pack_reference t);
        incr packs;
        expect (log_is_diff t ~snap_xs ~snap_ys xs ys);
        synced := true
      in
      pack ();
      for _ = 1 to 2000 do
        let was = !synced in
        synced := false;
        (match Rng.int rng 12 with
        | 0 -> Bstar_tree.rotate t (Rng.int rng n)
        | 1 -> Bstar_tree.swap_blocks t (Rng.int rng n) (Rng.int rng n)
        | 2 -> Bstar_tree.move_block t ~rng (Rng.int rng n)
        | 3 -> Bstar_tree.perturb t ~rng ~rotatable
        | 4 -> Bstar_tree.undo t
        | 5 -> pack ()
        | _ ->
            Bstar_tree.perturb t ~rng ~rotatable;
            pack ();
            if Rng.bool rng then begin
              (* a rejection: back to the reverted tree's pack, if the
                 positions held the tree's pack before the move *)
              Bstar_tree.undo t;
              synced := was;
              if was then expect (placement t = Bstar_tree.pack_reference t)
            end);
        expect (Bstar_tree.check t = [])
      done;
      pack ();
      expect (Bstar_tree.repacks t < !packs);
      !ok)

(* ------------------------------------------------------------------ *)
(* Hpwl_cache                                                          *)
(* ------------------------------------------------------------------ *)

(* Random nets of 2-4 distinct nodes over [0, n). *)
let random_nets rng n =
  let n_nets = 2 * n in
  Array.init n_nets (fun _ ->
      let k = 2 + Rng.int rng 3 in
      let rec draw acc remaining =
        if remaining = 0 then acc
        else
          let v = Rng.int rng n in
          if List.mem v acc then draw acc remaining
          else draw (v :: acc) (remaining - 1)
      in
      Array.of_list (draw [] (min k n)))

(* Drive the cache exactly the way the annealer does, on each footprint
   mix: pack, update from the pack's moved-block log, random accept/undo
   (the tree reverts the positions from the same log) — and assert
   the cached total equals the from-scratch HPWL after every single
   step.  On the suite-shaped mix at least 30% of the packs skip the
   repack, so the cache also sees the skip's logs. *)
let prop_hpwl_cache_matches_scratch =
  QCheck.Test.make
    ~name:"incremental HPWL = from-scratch over 1000 move/undo steps"
    ~count:8
    QCheck.(pair (int_range 3 20) (int_range 1 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ok = ref true in
      (* the moves on one mix; returns how many skipped the repack *)
      let run (dims, rotatable) =
        let n = Array.length dims in
        let nets = random_nets rng n in
        let tree = Bstar_tree.create dims in
        Bstar_tree.pack tree;
        let xs = Bstar_tree.xs tree and ys = Bstar_tree.ys tree in
        let before = Bstar_tree.repacks tree in
        let cache = Hpwl_cache.create ~n_nodes:n nets in
        ignore (Hpwl_cache.rebuild cache ~xs ~ys);
        let agree () =
          Hpwl_cache.total cache = Hpwl_cache.compute_xy nets ~xs ~ys
        in
        for _ = 1 to 1000 do
          Bstar_tree.perturb tree ~rng ~rotatable;
          Bstar_tree.pack tree;
          Hpwl_cache.update cache ~xs ~ys ~changed:(Bstar_tree.moved tree)
            ~n_changed:(Bstar_tree.n_moved tree);
          if not (agree ()) then ok := false;
          (* randomly reject the move, as the annealer would *)
          if Rng.bool rng then begin
            Bstar_tree.undo tree;
            Hpwl_cache.restore cache;
            if not (agree ()) then ok := false
          end
        done;
        1000 - (Bstar_tree.repacks tree - before)
      in
      ignore (run (small_mix n));
      if 10 * run (suite_mix (n + 8)) < 3 * 1000 then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* Super_module                                                        *)
(* ------------------------------------------------------------------ *)

let pipeline_pieces circuit =
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  (g, flipping, time_sms)

let one_t_circuit () =
  Circuit.make ~name:"one-t" ~n_qubits:2
    [ Gate.Cnot { control = 0; target = 1 }; Gate.T 0;
      Gate.Cnot { control = 1; target = 0 } ]

let test_time_sm_structure () =
  let g, _, time_sms = pipeline_pieces (one_t_circuit ()) in
  ignore g;
  check Alcotest.int "one wire with gadgets" 1 (List.length time_sms);
  let _, modules = List.hd time_sms in
  (* 1 first-order + 4 second-order *)
  check Alcotest.int "five measurement modules" 5 (List.length modules);
  let distinct = List.sort_uniq Int.compare modules in
  check Alcotest.int "all distinct" 5 (List.length distinct)

let test_super_module_build () =
  let g, flipping, _ = pipeline_pieces (one_t_circuit ()) in
  let sm = Super_module.build g flipping in
  let kinds =
    Array.fold_left
      (fun (t, d, c, p) nd ->
        match nd.Super_module.nd_kind with
        | Super_module.Time_sm _ -> (t + 1, d, c, p)
        | Super_module.Distill_sm _ -> (t, d + 1, c, p)
        | Super_module.Chain _ -> (t, d, c + 1, p)
        | Super_module.Plain _ -> (t, d, c, p + 1))
      (0, 0, 0, 0) sm.Super_module.nodes
  in
  let time_sm, distill, _chains, _plain = kinds in
  check Alcotest.int "one time SM" 1 time_sm;
  (* one T gadget: 1 |A> + 2 |Y> boxes *)
  check Alcotest.int "three distillation nodes" 3 distill;
  (* every alive non-distill module claimed exactly once *)
  List.iter
    (fun (m : Pd_graph.module_rec) ->
      match m.m_kind with
      | Pd_graph.Distill _ -> ()
      | _ ->
          if m.m_alive then begin
            check Alcotest.bool
              (Printf.sprintf "module %d claimed" m.m_id)
              true
              (Hashtbl.mem sm.Super_module.node_of_module m.m_id)
          end)
    (Pd_graph.alive_modules g)

let test_module_offsets_distinct () =
  let g, flipping, _ = pipeline_pieces (one_t_circuit ()) in
  let sm = Super_module.build g flipping in
  (* within every node, claimed offsets must be pairwise distinct *)
  let by_node = Hashtbl.create 16 in
  (* hash-order: accumulation commutes (per-node offset lists are
     sort_uniq'd and only counted below) *)
  Hashtbl.iter
    (fun m node ->
      let off = Hashtbl.find sm.Super_module.module_offset m in
      let existing = try Hashtbl.find by_node node with Not_found -> [] in
      Hashtbl.replace by_node node (off :: existing))
    sm.Super_module.node_of_module;
  (* hash-order: independent per-node assertions; any order fails the
     same set *)
  Hashtbl.iter
    (fun node offs ->
      let distinct = List.sort_uniq compare offs in
      check Alcotest.int
        (Printf.sprintf "node %d offsets distinct" node)
        (List.length offs) (List.length distinct))
    by_node

let test_offsets_inside_footprint () =
  let g, flipping, _ = pipeline_pieces (one_t_circuit ()) in
  let sm = Super_module.build g flipping in
  (* hash-order: independent per-module assertions *)
  Hashtbl.iter
    (fun m node ->
      let dx, dy, dz = Hashtbl.find sm.Super_module.module_offset m in
      let nd = sm.Super_module.nodes.(node) in
      check Alcotest.bool
        (Printf.sprintf "module %d inside node %d" m node)
        true
        (dx >= 0 && dx < nd.Super_module.nd_w && dy >= 0
        && dy < nd.Super_module.nd_h && dz >= 0 && dz < nd.Super_module.nd_d))
    sm.Super_module.node_of_module

(* ------------------------------------------------------------------ *)
(* Placer                                                              *)
(* ------------------------------------------------------------------ *)

let place_circuit ?(seed = 42) circuit =
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Dual_bridge.run g in
  let fvalue = Fvalue.plan flipping in
  let config = { Placer.default_config with effort = Placer.Quick; seed } in
  (g, flipping, fvalue, Placer.place ~config g flipping dual fvalue)

let test_placer_three_cnot () =
  let _, _, _, p = place_circuit Suite.three_cnot_example in
  check Alcotest.(list string) "placement valid" [] (Placer.check p);
  check Alcotest.bool "volume positive" true (p.Placer.volume > 0);
  check Alcotest.int "volume consistent" p.Placer.volume
    (p.Placer.width * p.Placer.height * p.Placer.depth)

let test_placer_with_t_gates () =
  let g, flipping, fvalue, p = place_circuit (one_t_circuit ()) in
  ignore g;
  check Alcotest.(list string) "placement valid" [] (Placer.check p);
  (* every claimed module has a well-defined cell and pin;
     hash-order: independent per-module assertions *)
  Hashtbl.iter
    (fun m _ ->
      let cell = Placer.module_cell p m in
      let pin = Placer.pin_cell p fvalue flipping m in
      check Alcotest.bool "pin adjacent-ish to cell" true
        (Vec3.manhattan cell pin <= 2))
    p.Placer.sm.Super_module.node_of_module

let test_placer_deterministic () =
  let _, _, _, a = place_circuit ~seed:7 (one_t_circuit ()) in
  let _, _, _, b = place_circuit ~seed:7 (one_t_circuit ()) in
  check Alcotest.int "same volume" a.Placer.volume b.Placer.volume;
  check Alcotest.bool "same positions" true (a.Placer.node_pos = b.Placer.node_pos)

let test_placer_force_directed () =
  let icm = Decompose.run (Clifford_t.decompose (one_t_circuit ())) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Dual_bridge.run g in
  let fvalue = Fvalue.plan flipping in
  let config =
    { Placer.default_config with effort = Placer.Quick;
      strategy = Placer.Force_directed }
  in
  let p = Placer.place ~config g flipping dual fvalue in
  check Alcotest.(list string) "force-directed placement valid" []
    (Placer.check p);
  check Alcotest.bool "no rotation used" true
    (Array.for_all not p.Placer.rotated)

let place_multistart ?(margin = Placer.default_config.Placer.early_stop_margin)
    ~restarts ~jobs seed circuit =
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Dual_bridge.run g in
  let fvalue = Fvalue.plan flipping in
  let config =
    { Placer.default_config with effort = Placer.Quick; seed; restarts; jobs;
      early_stop_margin = margin }
  in
  Placer.place ~config g flipping dual fvalue

(* The acceptance-critical determinism property: a multi-start placement
   is a pure function of (seed, restarts) — jobs=1 and jobs=4 must agree
   on the geometry, the best cost and the moves attempted.  The tiny
   circuit runs every lane to the end of its budget; 4gt10-v1_81@1/16
   stops lanes early at the barriers, so a stop decision that hung on
   the schedule would show there. *)
let test_placer_jobs_invariant () =
  let agree label seed circuit =
    let place jobs =
      place_multistart ~margin:(Some 0.05) ~restarts:4 ~jobs:(Some jobs) seed
        circuit
    in
    let serial = place 1 and parallel = place 4 in
    check Alcotest.(list string) (label ^ ": parallel placement valid") []
      (Placer.check parallel);
    check
      Alcotest.(list int)
      (label ^ ": same (width, height, depth, volume, repacks, attempted)")
      [ serial.Placer.width; serial.Placer.height; serial.Placer.depth;
        serial.Placer.volume; serial.Placer.repacks;
        serial.Placer.sa_stats.Sa.attempted ]
      [ parallel.Placer.width; parallel.Placer.height; parallel.Placer.depth;
        parallel.Placer.volume; parallel.Placer.repacks;
        parallel.Placer.sa_stats.Sa.attempted ];
    check (Alcotest.float 0.) (label ^ ": same best cost")
      serial.Placer.sa_stats.Sa.best_cost
      parallel.Placer.sa_stats.Sa.best_cost;
    check Alcotest.bool (label ^ ": same positions") true
      (serial.Placer.node_pos = parallel.Placer.node_pos);
    check Alcotest.bool (label ^ ": same rotations") true
      (serial.Placer.rotated = parallel.Placer.rotated);
    serial
  in
  ignore (agree "one-t" 11 (one_t_circuit ()));
  let circuit =
    match Suite.find "4gt10-v1_81" with
    | Some e -> Suite.scaled ~factor:16 e
    | None -> Alcotest.fail "no suite benchmark 4gt10-v1_81"
  in
  let multi = agree "4gt10-v1_81@1/16" 42 circuit in
  let lane = place_multistart ~restarts:1 ~jobs:(Some 1) 42 circuit in
  check Alcotest.bool "4gt10-v1_81@1/16: a lane stopped early" true
    (multi.Placer.sa_stats.Sa.attempted
    < 4 * lane.Placer.sa_stats.Sa.attempted)

(* Lane 0 of a multi-start run is the single-start trajectory, so the
   best-of-K cost can never exceed the K=1 cost.  Early stopping is
   disabled here so the full-budget attempt accounting is exact. *)
let test_placer_multistart_never_worse () =
  let circuit = one_t_circuit () in
  let single =
    place_multistart ~margin:None ~restarts:1 ~jobs:(Some 1) 42 circuit
  in
  let multi =
    place_multistart ~margin:None ~restarts:3 ~jobs:(Some 2) 42 circuit
  in
  check Alcotest.bool "best-of-3 cost <= single cost" true
    (multi.Placer.sa_stats.Sa.best_cost
    <= single.Placer.sa_stats.Sa.best_cost);
  check Alcotest.bool "attempts accumulate across restarts" true
    (multi.Placer.sa_stats.Sa.attempted
    >= 3 * single.Placer.sa_stats.Sa.attempted)

(* Adaptive early stopping: lane 0 is exempt, so even the most
   aggressive margin never makes the multi-start result worse than the
   single-start run — and stop decisions happen at deterministic epoch
   barriers, so the outcome is identical for any worker count. *)
let test_placer_early_stop () =
  let circuit = one_t_circuit () in
  let single =
    place_multistart ~margin:None ~restarts:1 ~jobs:(Some 1) 42 circuit
  in
  let eager =
    place_multistart ~margin:(Some 0.) ~restarts:4 ~jobs:(Some 1) 42 circuit
  in
  let eager_par =
    place_multistart ~margin:(Some 0.) ~restarts:4 ~jobs:(Some 4) 42 circuit
  in
  check Alcotest.(list string) "early-stopped placement valid" []
    (Placer.check eager);
  check Alcotest.bool "never worse than single-start" true
    (eager.Placer.sa_stats.Sa.best_cost
    <= single.Placer.sa_stats.Sa.best_cost);
  let full =
    place_multistart ~margin:None ~restarts:4 ~jobs:(Some 1) 42 circuit
  in
  check Alcotest.bool "early stop never adds moves" true
    (eager.Placer.sa_stats.Sa.attempted <= full.Placer.sa_stats.Sa.attempted);
  check
    Alcotest.(list int)
    "jobs-invariant under early stop"
    [ eager.Placer.width; eager.Placer.height; eager.Placer.depth;
      eager.Placer.volume; eager.Placer.sa_stats.Sa.attempted ]
    [ eager_par.Placer.width; eager_par.Placer.height; eager_par.Placer.depth;
      eager_par.Placer.volume; eager_par.Placer.sa_stats.Sa.attempted ];
  check Alcotest.bool "same positions under early stop" true
    (eager.Placer.node_pos = eager_par.Placer.node_pos)

(* ------------------------------------------------------------------ *)
(* Partition + divide-and-conquer placement                            *)
(* ------------------------------------------------------------------ *)

let test_partition_balanced () =
  let rng = Rng.create 99 in
  let n = 100 in
  let nets =
    Array.init 60 (fun _ ->
        let k = 2 + Rng.int rng 4 in
        Array.init k (fun _ -> Rng.int rng n))
  in
  let parts = Partition.run ~n ~nets ~max_part:16 in
  let seen = Array.make n 0 in
  Array.iter
    (fun group ->
      check Alcotest.bool "group non-empty" true (Array.length group > 0);
      check Alcotest.bool "group within cap" true (Array.length group <= 16);
      let sorted = Array.copy group in
      Array.sort Int.compare sorted;
      check Alcotest.bool "group sorted" true (sorted = group);
      Array.iter (fun v -> seen.(v) <- seen.(v) + 1) group)
    parts;
  check Alcotest.bool "every node in exactly one group" true
    (Array.for_all (fun c -> c = 1) seen);
  (* pure function of the inputs *)
  check Alcotest.bool "deterministic" true
    (parts = Partition.run ~n ~nets ~max_part:16)

let test_partition_separates_components () =
  (* two 4-cliques with no cross nets and a cap of 4: the bisection must
     recover the connected components exactly *)
  let nets =
    [| [| 0; 1; 2; 3 |]; [| 0; 2 |]; [| 4; 5; 6; 7 |]; [| 5; 7 |] |]
  in
  let parts = Partition.run ~n:8 ~nets ~max_part:4 in
  check Alcotest.int "two groups" 2 (Array.length parts);
  check Alcotest.bool "components preserved" true
    (parts = [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7 |] |])

let place_partitioned ?(restarts = 1) ?(jobs = Some 1) ~partition seed circuit =
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Dual_bridge.run g in
  let fvalue = Fvalue.plan flipping in
  let config =
    { Placer.default_config with effort = Placer.Quick; seed; restarts; jobs;
      partition }
  in
  Placer.place ~config g flipping dual fvalue

let test_placer_partitioned_valid () =
  (* a cap of 2 forces many partitions and a non-trivial stitch *)
  let p = place_partitioned ~partition:(Some 2) 42 (one_t_circuit ()) in
  check Alcotest.(list string) "partitioned placement valid" []
    (Placer.check p);
  check Alcotest.int "volume consistent" p.Placer.volume
    (p.Placer.width * p.Placer.height * p.Placer.depth);
  check Alcotest.bool "wirelength non-negative" true (p.Placer.wirelength >= 0)

(* A cap at or above the node count must reproduce the single-die
   trajectory bit for bit: the partitioned path is only entered beyond
   the cap, and anneal_group with the base seed IS the historical
   engine. *)
let test_placer_partition_cap_above_n_identical () =
  let base = place_partitioned ~partition:None 7 (one_t_circuit ()) in
  let capped = place_partitioned ~partition:(Some 100_000) 7 (one_t_circuit ()) in
  check Alcotest.bool "same positions" true
    (base.Placer.node_pos = capped.Placer.node_pos);
  check Alcotest.bool "same rotations" true
    (base.Placer.rotated = capped.Placer.rotated);
  check
    Alcotest.(list int)
    "same extents"
    [ base.Placer.width; base.Placer.height; base.Placer.depth ]
    [ capped.Placer.width; capped.Placer.height; capped.Placer.depth ]

(* Auto-partition: with [partition = None] the placer enters the
   divide-and-conquer path on its own once the node count exceeds
   [auto_partition], with the threshold as the cap — the trajectory
   must be bit-identical to requesting that cap explicitly.  A
   threshold at or above the node count keeps the historical
   single-die anneal bit for bit, so the default (thousands of nodes)
   can never perturb paper-suite results. *)
let place_auto ~auto_partition seed circuit =
  let icm = Decompose.run (Clifford_t.decompose circuit) in
  let g = Pd_graph.of_icm icm in
  ignore (Ishape.run g);
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let flipping = Flipping.run ~exclude:(Hashtbl.mem in_sm) g in
  let dual = Dual_bridge.run g in
  let fvalue = Fvalue.plan flipping in
  let config =
    { Placer.default_config with effort = Placer.Quick; seed;
      jobs = Some 1; partition = None; auto_partition }
  in
  Placer.place ~config g flipping dual fvalue

let test_placer_auto_partition_matches_explicit () =
  let circuit = one_t_circuit () in
  let auto = place_auto ~auto_partition:3 5 circuit in
  let explicit = place_partitioned ~partition:(Some 3) 5 circuit in
  check Alcotest.bool "node count exceeds the threshold" true
    (Array.length auto.Placer.node_pos > 3);
  check Alcotest.bool "same positions" true
    (auto.Placer.node_pos = explicit.Placer.node_pos);
  check Alcotest.bool "same rotations" true
    (auto.Placer.rotated = explicit.Placer.rotated);
  check
    Alcotest.(list int)
    "same extents"
    [ explicit.Placer.width; explicit.Placer.height; explicit.Placer.depth ]
    [ auto.Placer.width; auto.Placer.height; auto.Placer.depth ]

let test_placer_auto_partition_threshold_above_n_single_die () =
  let circuit = one_t_circuit () in
  let auto = place_auto ~auto_partition:100_000 5 circuit in
  let base = place_partitioned ~partition:None 5 circuit in
  check Alcotest.bool "same positions" true
    (auto.Placer.node_pos = base.Placer.node_pos);
  check Alcotest.bool "same rotations" true
    (auto.Placer.rotated = base.Placer.rotated);
  check
    Alcotest.(list int)
    "same extents"
    [ base.Placer.width; base.Placer.height; base.Placer.depth ]
    [ auto.Placer.width; auto.Placer.height; auto.Placer.depth ]

(* Partitioned placement is a pure function of (seed, restarts, cap):
   the per-partition anneals fan out over the pool (nested with their
   restart lanes), but seeds are partition-indexed, the stitch order is
   deterministic, so jobs=1 and jobs=4 agree bit for bit. *)
let test_placer_partitioned_jobs_invariant () =
  let circuit = one_t_circuit () in
  let serial =
    place_partitioned ~restarts:2 ~jobs:(Some 1) ~partition:(Some 3) 11 circuit
  in
  let parallel =
    place_partitioned ~restarts:2 ~jobs:(Some 4) ~partition:(Some 3) 11 circuit
  in
  check Alcotest.(list string) "parallel partitioned placement valid" []
    (Placer.check parallel);
  check Alcotest.bool "same positions" true
    (serial.Placer.node_pos = parallel.Placer.node_pos);
  check Alcotest.bool "same rotations" true
    (serial.Placer.rotated = parallel.Placer.rotated);
  check
    Alcotest.(list int)
    "same extents, attempts and repacks"
    [ serial.Placer.width; serial.Placer.height; serial.Placer.volume;
      serial.Placer.sa_stats.Sa.attempted; serial.Placer.repacks ]
    [ parallel.Placer.width; parallel.Placer.height; parallel.Placer.volume;
      parallel.Placer.sa_stats.Sa.attempted; parallel.Placer.repacks ]

let prop_partition_well_formed =
  QCheck.Test.make ~name:"partition covers nodes within cap" ~count:60
    QCheck.(
      triple (int_range 1 60) (int_range 1 12)
        (small_list (small_list (int_range 0 59))))
    (fun (n, cap, raw_nets) ->
      let nets =
        raw_nets
        |> List.map (fun l -> Array.of_list (List.filter (fun v -> v < n) l))
        |> Array.of_list
      in
      let parts = Partition.run ~n ~nets ~max_part:cap in
      let seen = Array.make n 0 in
      Array.iter (fun g -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) g) parts;
      Array.for_all (fun g -> Array.length g > 0 && Array.length g <= cap) parts
      && Array.for_all (fun c -> c = 1) seen)

(* ------------------------------------------------------------------ *)
(* Annealer goldens and budgets                                        *)
(* ------------------------------------------------------------------ *)

(* The placer inputs [Pipeline.run] builds for a [Dual_only] run: no
   I-shape, and every flipping point its own chain. *)
let dual_only_inputs ?(factor = 1) name =
  let entry =
    match Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "no suite benchmark %s" name
  in
  let icm = Decompose.run (Clifford_t.decompose (Suite.scaled ~factor entry)) in
  let g = Pd_graph.of_icm icm in
  let time_sms = Super_module.time_sm_modules g in
  let in_sm = Hashtbl.create 16 in
  List.iter (fun (_, ms) -> List.iter (fun m -> Hashtbl.replace in_sm m ()) ms) time_sms;
  let f = Flipping.run ~rng:(Rng.create 42) ~exclude:(Hashtbl.mem in_sm) g in
  let flipping =
    { f with Flipping.chains = List.map (fun (rep, _) -> [ rep ]) f.Flipping.points }
  in
  let dual = Dual_bridge.run g in
  (g, flipping, dual, Fvalue.plan flipping)

(* Seed 42 and normal effort, as the pipeline's defaults. *)
let place_dual_only ?(strategy = Placer.Annealing) ?(restarts = 1) ?partition
    ~cap (g, flipping, dual, fvalue) =
  let config =
    { Placer.default_config with effort = Placer.Normal; seed = 42; strategy;
      restarts; jobs = Some 1; partition; sa_moves_cap = Some cap }
  in
  Placer.place ~config g flipping dual fvalue

(* Everything the annealer decides: positions, rotations, extents and
   the move statistics (the best cost in exact hex). *)
let placement_digest (p : Placer.t) =
  let b = Buffer.create 4096 in
  Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d;" x y) p.Placer.node_pos;
  Array.iter (fun r -> Buffer.add_char b (if r then 'r' else '.')) p.Placer.rotated;
  let st = p.Placer.sa_stats in
  Printf.bprintf b "|%dx%d|%d/%d|%h" p.Placer.width p.Placer.height
    st.Sa.attempted st.Sa.accepted st.Sa.best_cost;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digests recorded before the move kernels became allocation-free: a
   pass proves every RNG draw and every packed position is unchanged.
   The partition and force-directed digests also pin the shelf packer
   that the stitch and the force-directed legalizer share. *)
let test_golden_placements () =
  let inputs = dual_only_inputs "4gt10-v1_81" in
  let single = place_dual_only ~cap:12_000 inputs in
  check Alcotest.int "4gt10-v1_81 dual-only nodes" 262
    (Array.length single.Placer.node_pos);
  check Alcotest.string "single trajectory, 262 nodes"
    "532219b83dd18259d065494b72e746ce" (placement_digest single);
  let multi = place_dual_only ~restarts:3 ~cap:4_000 inputs in
  check Alcotest.bool "a lane stopped early" true
    (multi.Placer.sa_stats.Sa.attempted < 3 * 4_000);
  check Alcotest.string "restarts = 3 with early stopping"
    "731ce072670575453d6b5d6108eead1e" (placement_digest multi);
  let parts = place_dual_only ~partition:24 ~cap:2_000 inputs in
  check Alcotest.string "partition = Some 24"
    "6c410d9be37c79b2343fdaf99829ebe5" (placement_digest parts);
  let forced =
    place_dual_only ~strategy:Placer.Force_directed ~cap:12_000 inputs
  in
  check Alcotest.string "force-directed"
    "3a5aba29a3b382fbee51a8f1b0a7d822" (placement_digest forced)

(* [Sa.create]'s probe phase counts against the budget: a moves cap is a
   hard ceiling even below the probe's usual ten moves. *)
let test_moves_cap_is_ceiling () =
  let inputs = dual_only_inputs ~factor:16 "4gt10-v1_81" in
  for cap = 1 to 12 do
    for restarts = 1 to 2 do
      let p = place_dual_only ~restarts ~cap inputs in
      let attempted = p.Placer.sa_stats.Sa.attempted in
      check Alcotest.bool
        (Printf.sprintf "cap %d x %d restarts: %d attempted" cap restarts attempted)
        true
        (attempted <= cap * restarts)
    done
  done

(* Marginal words allocated per annealing move on a 262-node tree: the
   difference of two runs cancels the fixed set-up allocations. *)
let words_per_move_bound = 64.

let test_move_allocation () =
  let inputs = dual_only_inputs "4gt10-v1_81" in
  let words cap =
    let minor0, promoted0, major0 = Gc.counters () in
    let p = place_dual_only ~cap inputs in
    let minor1, promoted1, major1 = Gc.counters () in
    check Alcotest.int "ran the whole budget" cap p.Placer.sa_stats.Sa.attempted;
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let per = (words 15_000 -. words 5_000) /. 10_000. in
  check Alcotest.bool
    (Printf.sprintf "%.1f words per move <= %.0f" per words_per_move_bound)
    true
    (per <= words_per_move_bound)

let prop_placer_valid_on_random =
  QCheck.Test.make ~name:"placement valid on random circuits" ~count:10
    (QCheck.int_range 1 500)
    (fun seed ->
      let c = Generator.random_clifford_t ~seed ~n_qubits:3 ~n_gates:12 in
      let _, _, _, p = place_circuit c in
      Placer.check p = [])

let suites =
  [
    ( "place.sa",
      [
        Alcotest.test_case "minimizes quadratic" `Quick test_sa_minimizes_quadratic;
        Alcotest.test_case "stats sane" `Quick test_sa_stats_sane;
        Alcotest.test_case "stepper = run" `Quick test_sa_stepper_matches_run;
      ] );
    ( "place.bstar",
      [
        Alcotest.test_case "pack no overlap" `Quick test_bstar_pack_no_overlap;
        Alcotest.test_case "rotate" `Quick test_bstar_rotate;
        Alcotest.test_case "perturb/undo" `Quick test_bstar_perturb_undo;
        qtest prop_bstar_moves_preserve_invariants;
        qtest prop_bstar_pack_compact_bottom_left;
        qtest prop_repack_matches_reference;
        qtest prop_moved_log_matches_diff;
        Alcotest.test_case "uniform footprints" `Quick
          test_pack_uniform_footprints;
        qtest prop_pack_skip_interleaved;
      ] );
    ("place.hpwl_cache", [ qtest prop_hpwl_cache_matches_scratch ]);
    ( "place.super_module",
      [
        Alcotest.test_case "time SM structure" `Quick test_time_sm_structure;
        Alcotest.test_case "build kinds" `Quick test_super_module_build;
        Alcotest.test_case "offsets distinct" `Quick test_module_offsets_distinct;
        Alcotest.test_case "offsets inside footprint" `Quick
          test_offsets_inside_footprint;
      ] );
    ( "place.placer",
      [
        Alcotest.test_case "three-cnot" `Quick test_placer_three_cnot;
        Alcotest.test_case "with T gates" `Quick test_placer_with_t_gates;
        Alcotest.test_case "deterministic" `Quick test_placer_deterministic;
        Alcotest.test_case "jobs-invariant multi-start" `Quick
          test_placer_jobs_invariant;
        Alcotest.test_case "multi-start never worse" `Quick
          test_placer_multistart_never_worse;
        Alcotest.test_case "adaptive early stop" `Quick
          test_placer_early_stop;
        Alcotest.test_case "force-directed" `Quick test_placer_force_directed;
        Alcotest.test_case "golden placements" `Quick test_golden_placements;
        Alcotest.test_case "moves cap is a ceiling" `Quick
          test_moves_cap_is_ceiling;
        Alcotest.test_case "allocation per move" `Quick test_move_allocation;
        qtest prop_placer_valid_on_random;
      ] );
    ( "place.partition",
      [
        Alcotest.test_case "balanced groups" `Quick test_partition_balanced;
        Alcotest.test_case "separates components" `Quick
          test_partition_separates_components;
        Alcotest.test_case "partitioned placement valid" `Quick
          test_placer_partitioned_valid;
        Alcotest.test_case "cap above n identical" `Quick
          test_placer_partition_cap_above_n_identical;
        Alcotest.test_case "auto-partition matches explicit cap" `Quick
          test_placer_auto_partition_matches_explicit;
        Alcotest.test_case "auto-partition threshold above n single-die" `Quick
          test_placer_auto_partition_threshold_above_n_single_die;
        Alcotest.test_case "partitioned jobs-invariant" `Quick
          test_placer_partitioned_jobs_invariant;
        qtest prop_partition_well_formed;
      ] );
  ]
