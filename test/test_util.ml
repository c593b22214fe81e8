(* Unit and property tests for the tqec_util substrate. *)

open Tqec_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vec3 / Box3                                                         *)
(* ------------------------------------------------------------------ *)

let vec = Vec3.make

let test_vec3_arith () =
  check Alcotest.bool "add" true (Vec3.equal (Vec3.add (vec 1 2 3) (vec 4 5 6)) (vec 5 7 9));
  check Alcotest.bool "sub" true (Vec3.equal (Vec3.sub (vec 4 5 6) (vec 1 2 3)) (vec 3 3 3));
  check Alcotest.bool "neg" true (Vec3.equal (Vec3.neg (vec 1 (-2) 3)) (vec (-1) 2 (-3)));
  check Alcotest.int "dot" 32 (Vec3.dot (vec 1 2 3) (vec 4 5 6));
  check Alcotest.int "manhattan" 9 (Vec3.manhattan (vec 1 2 3) (vec 4 5 6));
  check Alcotest.int "linf" 3 (Vec3.linf (vec 1 2 3) (vec 4 5 6))

let test_vec3_neighbors () =
  let ns = Vec3.axis_neighbors (vec 0 0 0) in
  check Alcotest.int "six neighbors" 6 (List.length ns);
  List.iter
    (fun n -> check Alcotest.int "unit distance" 1 (Vec3.manhattan n (vec 0 0 0)))
    ns

let test_box3_basics () =
  let b = Box3.make (vec 2 3 4) (vec 0 1 2) in
  check Alcotest.bool "normalized lo" true (Vec3.equal b.Box3.lo (vec 0 1 2));
  check Alcotest.int "dx" 3 (Box3.dx b);
  check Alcotest.int "dy" 3 (Box3.dy b);
  check Alcotest.int "dz" 3 (Box3.dz b);
  check Alcotest.int "volume" 27 (Box3.volume b);
  check Alcotest.int "cells" 27 (List.length (Box3.cells b));
  check Alcotest.bool "contains corner" true (Box3.contains b (vec 2 3 4));
  check Alcotest.bool "not contains" false (Box3.contains b (vec 3 3 4))

let test_box3_single_cell () =
  let b = Box3.of_cell (vec 5 5 5) in
  check Alcotest.int "volume 1" 1 (Box3.volume b);
  check Alcotest.(list bool) "cells" [ true ]
    (List.map (Vec3.equal (vec 5 5 5)) (Box3.cells b))

let test_box3_overlap () =
  let a = Box3.make (vec 0 0 0) (vec 2 2 2) in
  let b = Box3.make (vec 2 2 2) (vec 4 4 4) in
  let c = Box3.make (vec 3 3 3) (vec 4 4 4) in
  check Alcotest.bool "share corner" true (Box3.overlap a b);
  check Alcotest.bool "disjoint" false (Box3.overlap a c);
  (match Box3.inter a b with
  | Some i -> check Alcotest.int "corner intersection" 1 (Box3.volume i)
  | None -> Alcotest.fail "expected intersection");
  check Alcotest.bool "no intersection" true (Box3.inter a c = None)

let test_box3_join_inflate () =
  let a = Box3.of_cell (vec 0 0 0) in
  let b = Box3.of_cell (vec 2 3 4) in
  let j = Box3.join a b in
  check Alcotest.int "join volume" 60 (Box3.volume j);
  let i = Box3.inflate 1 a in
  check Alcotest.int "inflate volume" 27 (Box3.volume i);
  let t = Box3.translate (vec 1 1 1) a in
  check Alcotest.bool "translate" true (Box3.contains t (vec 1 1 1))

let test_box3_bounding () =
  let b = Box3.bounding [ vec 1 1 1; vec 3 0 2; vec 2 5 0 ] in
  check Alcotest.int "dx" 3 (Box3.dx b);
  check Alcotest.int "dy" 6 (Box3.dy b);
  check Alcotest.int "dz" 3 (Box3.dz b);
  Alcotest.check_raises "empty" (Invalid_argument "Box3.bounding: empty cell list")
    (fun () -> ignore (Box3.bounding []))

let vec3_gen =
  QCheck.Gen.(
    map3 Vec3.make (int_range (-20) 20) (int_range (-20) 20) (int_range (-20) 20))

let vec3_arb = QCheck.make ~print:Vec3.to_string vec3_gen

let prop_box_join_contains =
  QCheck.Test.make ~name:"box join contains both corners" ~count:200
    (QCheck.pair vec3_arb vec3_arb)
    (fun (a, b) ->
      let box = Box3.join (Box3.of_cell a) (Box3.of_cell b) in
      Box3.contains box a && Box3.contains box b)

let prop_box_volume_cells =
  QCheck.Test.make ~name:"box volume equals cell count" ~count:50
    (QCheck.pair vec3_arb vec3_arb)
    (fun (a, b) ->
      (* keep boxes small so cells stays cheap *)
      let clampv (v : Vec3.t) = Vec3.make (v.x mod 5) (v.y mod 5) (v.z mod 5) in
      let box = Box3.make (clampv a) (clampv b) in
      Box3.volume box = List.length (Box3.cells box))

let prop_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:200
    (QCheck.triple vec3_arb vec3_arb vec3_arb)
    (fun (a, b, c) ->
      Vec3.manhattan a c <= Vec3.manhattan a b + Vec3.manhattan b c)

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval () =
  let i = Interval.make 5 2 in
  check Alcotest.int "normalized lo" 2 i.Interval.lo;
  check Alcotest.int "length" 4 (Interval.length i);
  check Alcotest.bool "contains" true (Interval.contains i 3);
  let j = Interval.make 5 8 in
  check Alcotest.bool "overlap" true (Interval.overlap i j);
  let k = Interval.make 6 8 in
  check Alcotest.bool "no overlap" false (Interval.overlap i k);
  check Alcotest.bool "touches" true (Interval.touches i k);
  let far = Interval.make 7 8 in
  check Alcotest.bool "not touching" false (Interval.touches i far);
  (match Interval.inter i j with
  | Some x -> check Alcotest.int "inter is point" 1 (Interval.length x)
  | None -> Alcotest.fail "expected intersection");
  check Alcotest.int "join length" 7 (Interval.length (Interval.join i j))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check Alcotest.bool "in range" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 9 in
    check Alcotest.bool "int_in range" true (w >= 5 && w <= 9);
    let f = Rng.float r in
    check Alcotest.bool "float range" true (f >= 0. && f < 1.)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.int parent 1000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let r = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check Alcotest.int "copy same next" (Rng.int a 1000) (Rng.int b 1000)

(* ------------------------------------------------------------------ *)
(* Union_find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basics () =
  let uf = Union_find.create 10 in
  check Alcotest.int "initial sets" 10 (Union_find.count_sets uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  check Alcotest.bool "same" true (Union_find.same uf 0 2);
  check Alcotest.bool "not same" false (Union_find.same uf 0 3);
  check Alcotest.int "component size" 3 (Union_find.component_size uf 2);
  check Alcotest.int "sets after unions" 8 (Union_find.count_sets uf)

let test_uf_groups () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 5);
  ignore (Union_find.union uf 1 3);
  let groups = Union_find.groups uf in
  check Alcotest.int "group count" 4 (List.length groups);
  let members_with m =
    List.find (fun (_, ms) -> List.mem m ms) groups |> snd
  in
  check Alcotest.(list int) "group of 0" [ 0; 5 ] (members_with 0);
  check Alcotest.(list int) "group of 1" [ 1; 3 ] (members_with 1)

let prop_uf_union_transitive =
  QCheck.Test.make ~name:"union-find transitivity" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* same is an equivalence: reflexive, symmetric, and consistent
         with find *)
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b
          && Union_find.find uf a = Union_find.find uf b)
        pairs)

let prop_uf_sizes_sum =
  QCheck.Test.make ~name:"union-find sizes sum to n" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      let groups = Union_find.groups uf in
      List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 groups = 20
      && List.length groups = Union_find.count_sets uf)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (10 * k)) [ 5; 1; 4; 2; 3 ];
  let popped = List.init 5 (fun _ -> Pqueue.pop q) in
  check Alcotest.(list int) "sorted pops" [ 10; 20; 30; 40; 50 ] popped;
  check Alcotest.bool "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1 7;
  Pqueue.push q 1 3;
  Pqueue.push q 1 5;
  let order = List.init 3 (fun _ -> Pqueue.pop q) in
  check Alcotest.(list int) "FIFO on ties" [ 7; 3; 5 ] order

let test_pqueue_peek_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 3 30;
  Pqueue.push q 1 10;
  check Alcotest.int "min key" 1 (Pqueue.min_key q);
  check Alcotest.int "peek preserves" 2 (Pqueue.length q);
  Pqueue.clear q;
  check Alcotest.bool "cleared" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Pqueue.pop q));
  Alcotest.check_raises "min_key empty" Not_found (fun () ->
      ignore (Pqueue.min_key q))

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing key order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain last =
        if Pqueue.is_empty q then true
        else
          let k = Pqueue.min_key q in
          Pqueue.pop q = k && k >= last && drain k
      in
      drain min_int)

(* A push below the last popped key breaks the monotone contract: it is
   refused before anything changes. *)
let test_pqueue_rejects_push_below_floor () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v) [ (5, 50); (3, 30); (7, 70) ];
  check Alcotest.int "pops the smallest" 30 (Pqueue.pop q);
  Pqueue.push q 3 31;
  Alcotest.check_raises "push below the last popped key"
    (Invalid_argument "Pqueue.push: key below the last popped key") (fun () ->
      Pqueue.push q 2 20);
  check Alcotest.int "length unchanged" 3 (Pqueue.length q);
  check Alcotest.int "min key unchanged" 3 (Pqueue.min_key q);
  check Alcotest.(list int) "order unchanged" [ 31; 50; 70 ]
    (List.init 3 (fun _ -> Pqueue.pop q));
  Pqueue.clear q;
  Pqueue.push q 2 20;
  check Alcotest.int "clear lifts the floor" 20 (Pqueue.pop q)

(* Keys far wider apart than the initial ring force it to grow, both
   before the first pop and after one; equal keys on each side of a
   growth keep their insertion order. *)
let test_pqueue_ring_growth () =
  let q = Pqueue.create () in
  List.iter
    (fun (k, v) -> Pqueue.push q k v)
    [ (0, 1); (0, 2); (100_000, 3); (100_000, 4); (0, 5); (-7, 6) ];
  check Alcotest.int "min key across a growth" (-7) (Pqueue.min_key q);
  check Alcotest.(list int) "stable before the floor moves" [ 6; 1 ]
    (List.init 2 (fun _ -> Pqueue.pop q));
  Pqueue.push q 200_000 7;
  Pqueue.push q 0 8;
  Pqueue.push q 100_000 9;
  check Alcotest.int "length" 7 (Pqueue.length q);
  check Alcotest.(list int) "stable across growths" [ 2; 5; 8; 3; 4; 9; 7 ]
    (List.init 7 (fun _ -> Pqueue.pop q));
  Pqueue.clear q;
  Pqueue.push q 1 10;
  Pqueue.push q 1 11;
  check Alcotest.(list int) "reused after clear" [ 10; 11 ]
    (List.init 2 (fun _ -> Pqueue.pop q))

(* Under interleaved pushes and pops (including pops from an empty
   queue and a mid-sequence [clear]), values come out exactly as a
   stable sort by (key, insertion index) of the entries present at each
   pop would deliver them.  Until the first pop after a [clear] a push
   takes its drawn key, in any order; after a pop it takes the last
   popped key plus a drawn offset in 0..3, as an A* search does.  Keys
   stay in a small range, so equal keys — the FIFO tie rule — are the
   common case. *)
let prop_pqueue_stable_order =
  QCheck.Test.make ~name:"pqueue pops in stable (key, insertion) order"
    ~count:300
    QCheck.(list (triple (int_range 0 4) (int_range (-3) 6) (int_range 0 3)))
    (fun ops ->
      let q = Pqueue.create () in
      (* model: (key, insertion index, value), unordered *)
      let model = ref [] and next = ref 0 in
      let last_popped = ref None in
      List.for_all
        (fun (op, key, offset) ->
          match op with
          | 0 -> (
              match
                List.sort
                  (fun (k1, i1, _) (k2, i2, _) ->
                    match Int.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c)
                  !model
              with
              | [] -> (
                  match Pqueue.pop q with
                  | _ -> false
                  | exception Not_found -> true)
              | (k, _, v) :: _ ->
                  model := List.filter (fun (_, _, v') -> v' <> v) !model;
                  last_popped := Some k;
                  Pqueue.min_key q = k && Pqueue.pop q = v)
          | 1 when key = 6 ->
              Pqueue.clear q;
              model := [];
              last_popped := None;
              Pqueue.is_empty q
          | _ ->
              let key =
                match !last_popped with None -> key | Some k -> k + offset
              in
              let v = !next in
              incr next;
              Pqueue.push q key v;
              model := (key, v, v) :: !model;
              Pqueue.length q = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Veca                                                                *)
(* ------------------------------------------------------------------ *)

let test_veca_push_get () =
  let v = Veca.create () in
  let i0 = Veca.push v "a" and i1 = Veca.push v "b" in
  check Alcotest.int "first index" 0 i0;
  check Alcotest.int "second index" 1 i1;
  check Alcotest.string "get" "b" (Veca.get v 1);
  Veca.set v 0 "c";
  check Alcotest.string "set" "c" (Veca.get v 0);
  check Alcotest.(list string) "to_list" [ "c"; "b" ] (Veca.to_list v)

let test_veca_bounds () =
  let v = Veca.create () in
  ignore (Veca.push v 1);
  Alcotest.check_raises "oob" (Invalid_argument "Veca: index out of bounds")
    (fun () -> ignore (Veca.get v 1))

let test_veca_fold_find () =
  let v = Veca.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold sum" 10 (Veca.fold ( + ) 0 v);
  check Alcotest.(option int) "find" (Some 2) (Veca.find_index (fun x -> x = 3) v);
  check Alcotest.(option int) "find none" None (Veca.find_index (fun x -> x = 9) v)

(* ------------------------------------------------------------------ *)
(* Stats / Pretty                                                      *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check (Alcotest.float 1e-9) "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  check (Alcotest.float 1e-9) "min" 1. lo;
  check (Alcotest.float 1e-9) "max" 3. hi;
  check (Alcotest.float 1e-9) "reduction" 47.
    (Stats.percent_reduction 100. 53.);
  check Alcotest.int "clamp" 5 (Stats.clamp 0 5 9);
  check Alcotest.bool "ratio by zero is nan" true (Float.is_nan (Stats.ratio 1. 0.))

let test_pretty_table () =
  let t = Pretty.create [ "name"; "value" ] in
  Pretty.add_row t [ "a"; "1" ];
  Pretty.add_rule t;
  Pretty.add_row t [ "total"; "1" ];
  let s = Pretty.render t in
  check Alcotest.bool "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.check_raises "bad row"
    (Invalid_argument "Pretty.add_row: column count mismatch") (fun () ->
      Pretty.add_row t [ "only-one" ])

let test_pretty_numbers () =
  check Alcotest.string "commas" "1,234,567" (Pretty.int_with_commas 1234567);
  check Alcotest.string "small" "42" (Pretty.int_with_commas 42);
  check Alcotest.string "negative" "-1,000" (Pretty.int_with_commas (-1000));
  check Alcotest.string "float2" "3.14" (Pretty.float2 3.14159);
  check Alcotest.string "float3" "2.718" (Pretty.float3 2.71828)

(* ------------------------------------------------------------------ *)
(* Pool / Rng lanes                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let input = Array.init 57 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun jobs ->
      let got = Pool.map ~jobs (fun i -> (i * i) + 1) input in
      check Alcotest.bool
        (Printf.sprintf "order preserved with %d jobs" jobs)
        true (got = expected))
    [ 1; 2; 4; 8 ]

let test_pool_map_empty () =
  check Alcotest.int "empty map" 0 (Array.length (Pool.map ~jobs:4 succ [||]))

let test_pool_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 5 then failwith "boom" else i)
           (Array.init 12 (fun i -> i)));
      false
    with Failure m -> m = "boom"
  in
  check Alcotest.bool "exception re-raised" true raised

let test_pool_exception_runs_all_and_reuses () =
  (* a raising task must not stop the remaining tasks or leak unjoined
     domains: every other task still runs exactly once and the very
     next map succeeds *)
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map ~jobs:4
          (fun i ->
            Atomic.incr ran;
            if i = 3 then failwith "mid-flight";
            i)
          (Array.init 24 (fun i -> i)))
   with Failure _ -> ());
  check Alcotest.int "all tasks still ran" 24 (Atomic.get ran);
  let again = Pool.map ~jobs:4 succ (Array.init 8 (fun i -> i)) in
  check Alcotest.bool "map runs after a failure" true
    (again = Array.init 8 (fun i -> i + 1))

let test_pool_lowest_index_exception_wins () =
  (* several tasks raise; the caller sees what the serial path would have
     thrown first — the lowest-index failure — for every job count *)
  List.iter
    (fun jobs ->
      let seen =
        try
          ignore
            (Pool.map ~jobs
               (fun i -> if i mod 5 = 2 then failwith (string_of_int i) else i)
               (Array.init 40 (fun i -> i)));
          "none"
        with Failure m -> m
      in
      check Alcotest.string
        (Printf.sprintf "lowest index wins with %d jobs" jobs)
        "2" seen)
    [ 1; 2; 4; 8 ]

let test_pool_exception_keeps_backtrace () =
  (* re-raise must preserve the original raise point, not the join site *)
  Printexc.record_backtrace true;
  let bt =
    try
      ignore
        (Pool.map ~jobs:2
           (fun i -> if i = 1 then failwith "where" else i)
           (Array.init 4 (fun i -> i)));
      ""
    with Failure _ -> Printexc.get_backtrace ()
  in
  check Alcotest.bool "backtrace mentions the raising task" true
    (bt = "" (* backtraces may be compiled out *)
    || (let mentions sub =
          let n = String.length bt and m = String.length sub in
          let rec at i = i + m <= n && (String.sub bt i m = sub || at (i + 1)) in
          at 0
        in
        mentions "test_util"))

let test_pool_balances_uneven_tasks () =
  (* uneven costs: every task still runs exactly once *)
  let hits = Array.make 16 0 in
  ignore
    (Pool.map ~jobs:4
       (fun i ->
         if i < 2 then ignore (Sys.opaque_identity (Array.make 10_000 i));
         (* race: slot [i] is written by task [i] only — disjoint
            indices, no two tasks share a cell *)
         hits.(i) <- hits.(i) + 1)
       (Array.init 16 (fun i -> i)));
  check Alcotest.bool "each task once" true (Array.for_all (( = ) 1) hits)

let test_pool_nested_map () =
  (* nested Pool.map inside Pool.map composes at every job count: the
     inner maps run inline on their outer task's domain, so the round
     ends without deadlock and the composed result is the serial one *)
  let input = Array.init 12 (fun i -> i) in
  let expected =
    Array.map
      (fun o -> Array.fold_left ( + ) 0 (Array.map (fun i -> (o * 100) + i) input))
      (Array.init 6 (fun o -> o))
  in
  List.iter
    (fun jobs ->
      let got =
        Pool.map ~jobs
          (fun o ->
            Array.fold_left ( + ) 0
              (Pool.map ~jobs (fun i -> (o * 100) + i) input))
          (Array.init 6 (fun o -> o))
      in
      check Alcotest.bool
        (Printf.sprintf "nested map with %d jobs" jobs)
        true (got = expected))
    [ 1; 2; 4; 8 ]

let test_pool_nested_exception () =
  (* an exception inside an inner (inline) map must surface through the
     outer map as the outer task's failure, lowest outer index first,
     and the next map still runs *)
  let seen =
    try
      ignore
        (Pool.map ~jobs:4
           (fun o ->
             Array.fold_left ( + ) 0
               (Pool.map ~jobs:4
                  (fun i ->
                    if o >= 2 && i = 3 then
                      failwith (Printf.sprintf "inner %d" o)
                    else i)
                  (Array.init 8 (fun i -> i))))
           (Array.init 6 (fun o -> o)));
      "none"
    with Failure m -> m
  in
  check Alcotest.string "lowest outer index wins" "inner 2" seen;
  let again = Pool.map ~jobs:4 succ (Array.init 8 (fun i -> i)) in
  check Alcotest.bool "map runs after a nested failure" true
    (again = Array.init 8 (fun i -> i + 1))

let test_pool_jobs_invariance_combined () =
  (* the jobs-invariance contract on a composed workload: an outer map
     (suite instances) over inner maps with data-dependent sizes
     (restart lanes / routing batches), which run inline in their outer
     task, must give identical results for every job count, including
     the serial path *)
  let workload jobs =
    Pool.map ~jobs
      (fun o ->
        let lanes =
          Pool.map ~jobs
            (fun l ->
              Array.fold_left ( + ) 0
                (Pool.map ~jobs (fun i -> (o * 31) + (l * 7) + i)
                   (Array.init ((l mod 3) + 2) (fun i -> i))))
            (Array.init ((o mod 4) + 1) (fun l -> l))
        in
        Array.fold_left ( + ) 0 lanes)
      (Array.init 9 (fun o -> o))
  in
  let serial = workload 1 in
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "combined workload invariant at %d jobs" jobs)
        true
        (workload jobs = serial))
    [ 2; 4; 8 ]

let test_pool_nested_runs_own_tasks () =
  (* a map task runs only its own work: a map called inside it runs
     inline on the task's domain, so no sibling task can start there
     while the task is in progress and land inside its clock *)
  let in_progress = Domain.DLS.new_key (fun () -> false) in
  let clashes = Atomic.make 0 in
  let spin k =
    let acc = ref k in
    for i = 1 to 20_000 do
      acc := ((!acc * 31) + i) land 0xFFFF
    done;
    !acc
  in
  ignore
    (Pool.map ~jobs:2
       (fun o ->
         if Domain.DLS.get in_progress then Atomic.incr clashes;
         Domain.DLS.set in_progress true;
         let inner =
           Pool.map ~jobs:2 (fun i -> spin ((o * 8) + i)) (Array.init 8 Fun.id)
         in
         Domain.DLS.set in_progress false;
         Array.fold_left ( + ) 0 inner)
       (Array.init 8 Fun.id));
  check Alcotest.int "tasks started inside another task" 0
    (Atomic.get clashes)

let test_rng_lane_zero_is_create () =
  let a = Rng.lane 42 0 and b = Rng.create 42 in
  let same = ref true in
  for _ = 1 to 100 do
    if Rng.next_int64 a <> Rng.next_int64 b then same := false
  done;
  check Alcotest.bool "lane 0 = create" true !same

let test_rng_lanes_independent () =
  let draws lane =
    let r = Rng.lane 42 lane in
    List.init 50 (fun _ -> Rng.int r 1_000_000)
  in
  check Alcotest.bool "lane 1 <> lane 2" true (draws 1 <> draws 2);
  check Alcotest.bool "lane 1 <> lane 0" true (draws 1 <> draws 0);
  check Alcotest.bool "lane reproducible" true (draws 3 = draws 3)

let test_rng_split_n () =
  let r = Rng.create 7 in
  let streams = Rng.split_n r 4 in
  check Alcotest.int "four streams" 4 (Array.length streams);
  let firsts =
    Array.to_list (Array.map (fun s -> Rng.next_int64 s) streams)
  in
  check Alcotest.int "distinct first draws" 4
    (List.length (List.sort_uniq Int64.compare firsts))

let suites =
  [
    ( "util.vec3-box3",
      [
        Alcotest.test_case "vec3 arithmetic" `Quick test_vec3_arith;
        Alcotest.test_case "vec3 neighbors" `Quick test_vec3_neighbors;
        Alcotest.test_case "box3 basics" `Quick test_box3_basics;
        Alcotest.test_case "box3 single cell" `Quick test_box3_single_cell;
        Alcotest.test_case "box3 overlap" `Quick test_box3_overlap;
        Alcotest.test_case "box3 join/inflate" `Quick test_box3_join_inflate;
        Alcotest.test_case "box3 bounding" `Quick test_box3_bounding;
        qtest prop_box_join_contains;
        qtest prop_box_volume_cells;
        qtest prop_manhattan_triangle;
      ] );
    ("util.interval", [ Alcotest.test_case "interval" `Quick test_interval ]);
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle is permutation" `Quick
          test_rng_shuffle_permutation;
        Alcotest.test_case "copy" `Quick test_rng_copy;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basics" `Quick test_uf_basics;
        Alcotest.test_case "groups" `Quick test_uf_groups;
        qtest prop_uf_union_transitive;
        qtest prop_uf_sizes_sum;
      ] );
    ( "util.pqueue",
      [
        Alcotest.test_case "order" `Quick test_pqueue_order;
        Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "peek/clear" `Quick test_pqueue_peek_clear;
        Alcotest.test_case "rejects a push below the floor" `Quick
          test_pqueue_rejects_push_below_floor;
        Alcotest.test_case "ring growth" `Quick test_pqueue_ring_growth;
        qtest prop_pqueue_sorts;
        qtest prop_pqueue_stable_order;
      ] );
    ( "util.veca",
      [
        Alcotest.test_case "push/get" `Quick test_veca_push_get;
        Alcotest.test_case "bounds" `Quick test_veca_bounds;
        Alcotest.test_case "fold/find" `Quick test_veca_fold_find;
      ] );
    ( "util.stats-pretty",
      [
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "pretty table" `Quick test_pretty_table;
        Alcotest.test_case "pretty numbers" `Quick test_pretty_numbers;
      ] );
    ( "util.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "empty map" `Quick test_pool_map_empty;
        Alcotest.test_case "exception propagates" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "failure runs all, pool reusable" `Quick
          test_pool_exception_runs_all_and_reuses;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_pool_lowest_index_exception_wins;
        Alcotest.test_case "backtrace preserved" `Quick
          test_pool_exception_keeps_backtrace;
        Alcotest.test_case "balances uneven tasks" `Quick
          test_pool_balances_uneven_tasks;
        Alcotest.test_case "nested map composes" `Quick test_pool_nested_map;
        Alcotest.test_case "nested exception surfaces" `Quick
          test_pool_nested_exception;
        Alcotest.test_case "combined jobs invariance" `Quick
          test_pool_jobs_invariance_combined;
        Alcotest.test_case "nested map runs only its own tasks" `Quick
          test_pool_nested_runs_own_tasks;
      ] );
    ( "util.rng-lanes",
      [
        Alcotest.test_case "lane 0 is create" `Quick test_rng_lane_zero_is_create;
        Alcotest.test_case "lanes independent" `Quick test_rng_lanes_independent;
        Alcotest.test_case "split_n" `Quick test_rng_split_n;
      ] );
  ]
