(* Tests for the routing substrate: grid bookkeeping, A* optimality,
   PathFinder negotiation. *)

open Tqec_util
open Tqec_route

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let vec = Vec3.make

let grid10 () = Grid.create (Box3.make (vec 0 0 0) (vec 9 9 9))

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_usage_history () =
  let g = grid10 () in
  let p = vec 1 2 3 in
  check Alcotest.int "usage 0" 0 (Grid.usage g p);
  Grid.add_usage g p 2;
  check Alcotest.int "usage 2" 2 (Grid.usage g p);
  Grid.add_history g p 5;
  check Alcotest.int "history" 5 (Grid.history g p);
  (* cost = 1 + history + penalty * overuse(=2) *)
  check Alcotest.int "cost" (1 + 5 + (3 * 2)) (Grid.enter_cost g ~penalty:3 p);
  Grid.add_usage g p (-2);
  check Alcotest.int "usage back" 0 (Grid.usage g p)

(* A refused delta must leave the grid untouched: no usage written, no
   tile summary moved, no generation bumped — otherwise a following +1
   claim is silently absorbed. *)
let test_grid_negative_usage_rejected () =
  let g = grid10 () in
  let p = vec 0 0 0 in
  let ti = Grid.tile_index g p in
  Alcotest.check_raises "negative usage"
    (Invalid_argument "Grid.add_usage: negative usage") (fun () ->
      Grid.add_usage g p (-1));
  check Alcotest.int "usage unchanged" 0 (Grid.usage g p);
  check Alcotest.int "tile congestion unchanged" 0 (Grid.tile_congestion g ti);
  check Alcotest.int "generation unchanged" 0 (Grid.generation g);
  Grid.add_usage g p 1;
  check Alcotest.int "a following claim counts" 1 (Grid.usage g p);
  let gen = Grid.generation g in
  Alcotest.check_raises "negative usage on a used cell"
    (Invalid_argument "Grid.add_usage: negative usage") (fun () ->
      Grid.add_usage g p (-2));
  check Alcotest.int "usage kept" 1 (Grid.usage g p);
  check Alcotest.int "tile congestion kept" 1 (Grid.tile_congestion g ti);
  check Alcotest.int "generation kept" gen (Grid.generation g)

(* The same discipline for history: a negative history would price a
   cell below 1 (a delta of -5 on a fresh cell reads as the probe's
   "impassable" -1), so the delta is refused before anything is
   written. *)
let test_grid_negative_history_rejected () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 4 0 0)) in
  let p = vec 2 0 0 in
  let ti = Grid.tile_index g p in
  Alcotest.check_raises "negative history"
    (Invalid_argument "Grid.add_history: negative history") (fun () ->
      Grid.add_history g p (-5));
  check Alcotest.int "history unchanged" 0 (Grid.history g p);
  check Alcotest.int "tile congestion unchanged" 0 (Grid.tile_congestion g ti);
  check Alcotest.int "generation unchanged" 0 (Grid.generation g);
  check Alcotest.int "entry cost kept at the floor" 1 (Grid.enter_cost g ~penalty:1 p);
  (match
     Astar.search g ~region:(Grid.box g) ~penalty:1 ~sources:[ vec 0 0 0 ]
       ~target:(vec 4 0 0)
   with
  | Some path -> check Alcotest.int "the line still routes" 5 (List.length path)
  | None -> Alcotest.fail "expected a path");
  Grid.add_history g p 2;
  let gen = Grid.generation g in
  Alcotest.check_raises "negative history on a priced cell"
    (Invalid_argument "Grid.add_history: negative history") (fun () ->
      Grid.add_history g p (-3));
  check Alcotest.int "history kept" 2 (Grid.history g p);
  check Alcotest.int "tile congestion kept" 2 (Grid.tile_congestion g ti);
  check Alcotest.int "generation kept" gen (Grid.generation g);
  Grid.add_history g p (-2);
  check Alcotest.int "a delta down to 0 is accepted" 0 (Grid.history g p)

let test_grid_obstacles () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 5 5 5);
  check Alcotest.bool "obstacle" true (Grid.is_obstacle g (vec 5 5 5));
  check Alcotest.bool "oob not obstacle" false (Grid.is_obstacle g (vec 99 0 0));
  Grid.set_obstacle_box g (Box3.make (vec 0 0 0) (vec 1 1 1));
  check Alcotest.bool "box corner" true (Grid.is_obstacle g (vec 1 1 1))

let test_grid_shared () =
  let g = grid10 () in
  let p = vec 2 2 2 in
  Grid.set_shared g p;
  Grid.add_usage g p 5;
  check Alcotest.(list bool) "not overused" []
    (List.map (fun _ -> true) (Grid.overused g));
  (* shared cell cost ignores congestion *)
  check Alcotest.int "shared cost" 1 (Grid.enter_cost g ~penalty:10 p)

let test_grid_overused () =
  let g = grid10 () in
  Grid.add_usage g (vec 1 1 1) 2;
  Grid.add_usage g (vec 2 2 2) 1;
  check Alcotest.int "one overused" 1 (List.length (Grid.overused g));
  check Alcotest.int "count agrees" 1 (Grid.overused_count g);
  Grid.add_usage g (vec 1 1 1) (-1);
  check Alcotest.int "drops back" 0 (Grid.overused_count g);
  Grid.add_usage g (vec 3 3 3) 4;
  Grid.set_shared g (vec 3 3 3);
  check Alcotest.int "shared leaves the set" 0 (Grid.overused_count g)

(* The incrementally maintained overused set must agree with a
   brute-force rescan of the whole volume after any usage/shared
   trajectory. *)
let prop_grid_overused_incremental =
  QCheck.Test.make ~name:"incremental overused set matches brute force"
    ~count:50
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let size = 5 in
      let box = Box3.make (vec 0 0 0) (vec (size - 1) (size - 1) (size - 1)) in
      let g = Grid.create box in
      for _ = 1 to 120 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        match Rng.int rng 4 with
        | 0 -> Grid.set_shared g p
        | 1 -> if Grid.usage g p > 0 then Grid.add_usage g p (-1)
        | _ -> Grid.add_usage g p (1 + Rng.int rng 2)
      done;
      let brute =
        List.filter
          (fun c -> Grid.usage g c > Grid.capacity && not (Grid.is_shared g c))
          (Box3.cells box)
      in
      Grid.overused g = brute && Grid.overused_count g = List.length brute)

(* The sparse chunked grid against a dense mirror of its semantics:
   random usage/history/shared trajectories must agree cell-for-cell on
   usage, history and enter_cost, and on the [overused] list in value
   AND order.  The box spans several tiles per axis with a non-zero,
   non-tile-aligned origin, so tile and offset arithmetic is exercised
   on both sides of every boundary. *)
let prop_grid_sparse_vs_dense_oracle =
  QCheck.Test.make ~name:"sparse grid matches dense oracle"
    ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let lo = vec 3 (-5) 2 in
      let nx = 20 and ny = 11 and nz = 9 in
      let hi = vec (3 + nx - 1) (-5 + ny - 1) (2 + nz - 1) in
      let box = Box3.make lo hi in
      let die = Box3.make lo (vec (3 + nx - 6) (-5 + ny - 3) (2 + nz - 2)) in
      let g = Grid.create ~die box in
      (* dense oracle state *)
      let cells = nx * ny * nz in
      let o_usage = Array.make cells 0 in
      let o_hist = Array.make cells 0 in
      let o_shared = Array.make cells false in
      let idx (c : Vec3.t) =
        (((c.Vec3.x - 3) * ny) + (c.Vec3.y + 5)) * nz + (c.Vec3.z - 2)
      in
      let rand_cell () =
        vec (3 + Rng.int rng nx) (-5 + Rng.int rng ny) (2 + Rng.int rng nz)
      in
      let step () =
        let c = rand_cell () in
        let i = idx c in
        (match Rng.int rng 5 with
        | 0 ->
            Grid.set_shared g c;
            o_shared.(i) <- true
        | 1 ->
            if Grid.usage g c > 0 then begin
              Grid.add_usage g c (-1);
              o_usage.(i) <- o_usage.(i) - 1
            end
        | 2 ->
            let d = 1 + Rng.int rng 3 in
            Grid.add_history g c d;
            o_hist.(i) <- o_hist.(i) + d
        | _ ->
            let d = 1 + Rng.int rng 2 in
            Grid.add_usage g c d;
            o_usage.(i) <- o_usage.(i) + d)
      in
      for _ = 1 to 300 do
        step ()
      done;
      let agree c =
        let i = idx c in
        let expected_cost penalty =
          let base = if Box3.contains die c then 1 else 7 in
          if o_shared.(i) then base + o_hist.(i)
          else
            let over = o_usage.(i) + 1 - Grid.capacity in
            base + o_hist.(i) + (if over > 0 then penalty * over else 0)
        in
        Grid.usage g c = o_usage.(i)
        && Grid.history g c = o_hist.(i)
        && Grid.is_shared g c = o_shared.(i)
        && Grid.enter_cost g ~penalty:3 c = expected_cost 3
      in
      let brute =
        List.filter
          (fun c -> o_usage.(idx c) > Grid.capacity && not o_shared.(idx c))
          (Box3.cells box)
      in
      List.for_all agree (Box3.cells box)
      && Grid.overused g = brute
      && Grid.overused_count g = List.length brute)

(* Generation counters behind the corridor cache: every summary
   mutation bumps exactly the touched tile's generation — no other
   tile's, and nothing on pure reads — and
   [region_unchanged_since] answers from those stamps.  A random
   mutation trajectory is checked step by step against an oracle that
   predicts whether a bump must happen ([add_usage]/[add_history] with
   a non-zero delta, [set_shared], [set_obstacle] on a clear cell) or
   must not (zero deltas, repeated obstacles, cost/summary queries). *)
let prop_grid_generation_tracking =
  QCheck.Test.make ~name:"tile generations track summary mutations exactly"
    ~count:40
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let lo = vec 3 (-5) 2 in
      let nx = 20 and ny = 11 and nz = 9 in
      let box = Box3.make lo (vec (3 + nx - 1) (-5 + ny - 1) (2 + nz - 1)) in
      let g = Grid.create box in
      let n_tiles = Grid.n_tiles g in
      let gens () = Array.init n_tiles (Grid.tile_generation g) in
      let rand_cell () =
        vec (3 + Rng.int rng nx) (-5 + Rng.int rng ny) (2 + Rng.int rng nz)
      in
      let ok = ref true in
      let expect cond = ok := !ok && cond in
      for _ = 1 to 200 do
        let c = rand_cell () in
        let ti = Grid.tile_index g c in
        let before = gens () in
        let stamp = Grid.generation g in
        let bumps =
          match Rng.int rng 6 with
          | 0 ->
              Grid.set_shared g c;
              true
          | 1 ->
              let newly = not (Grid.is_obstacle g c) in
              Grid.set_obstacle g c;
              newly
          | 2 ->
              Grid.add_usage g c 0;
              false
          | 3 ->
              Grid.add_history g c (1 + Rng.int rng 3);
              true
          | 4 ->
              ignore (Grid.usage g c);
              ignore (Grid.enter_cost g ~penalty:3 c);
              ignore (Grid.tile_congestion g ti);
              ignore (Grid.tile_free g ti);
              false
          | _ ->
              Grid.add_usage g c (1 + Rng.int rng 2);
              true
        in
        let after = gens () in
        for t = 0 to n_tiles - 1 do
          if t <> ti then expect (after.(t) = before.(t))
        done;
        expect (if bumps then after.(ti) > before.(ti) else after.(ti) = before.(ti));
        expect (if bumps then Grid.generation g > stamp else Grid.generation g = stamp);
        (* the stamp protocol the corridor cache runs on: a region
           containing the touched cell is invalidated, a region in a
           different tile is not *)
        expect (Grid.region_unchanged_since g ~since:stamp (Box3.of_cell c) = not bumps);
        let far = vec (3 + ((c.Vec3.x - 3 + 16) mod nx)) c.Vec3.y c.Vec3.z in
        if Grid.tile_index g far <> ti then
          expect (Grid.region_unchanged_since g ~since:stamp (Box3.of_cell far))
      done;
      !ok)

let test_grid_mem_tracks_touched_tiles () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 63 63 63)) in
  let m0 = Grid.mem g in
  check Alcotest.int "fresh grid holds no tiles" 0 m0.Grid.mem_tiles;
  Grid.add_usage g (vec 0 0 0) 1;
  Grid.add_usage g (vec 1 1 1) 1;
  (* same tile: no new allocation *)
  Grid.add_usage g (vec 60 60 60) 1;
  let m = Grid.mem g in
  check Alcotest.int "two touched tiles" 2 m.Grid.mem_tiles;
  check Alcotest.bool "touched volume stays far below capacity" true
    (m.Grid.mem_touched_cells * 100 < m.Grid.mem_cells);
  check Alcotest.bool "directory covers the box" true
    (m.Grid.mem_tiles_total * Grid.tile_cells >= m.Grid.mem_cells)

(* A tile allocates its usage and history arrays on first write, so
   tiles that hold only obstacles and pins take fewer [Grid.mem] words
   than one cost array each.  The baseline grid holds one obstacle tile,
   so both sides of a difference reach the empty array that unwritten
   tiles share. *)
let test_grid_costs_allocated_on_write () =
  let box = Box3.make (vec 0 0 0) (vec 63 63 7) in
  let g = Grid.create box and g0 = Grid.create box in
  Grid.set_obstacle g0 (vec 0 0 0);
  let grown () = (Grid.mem g).Grid.mem_words - (Grid.mem g0).Grid.mem_words in
  (* obstacles and shared pins on 16 tiles: module cores and the
     verifier's rebuilt grid hold nothing else *)
  for i = 0 to 7 do
    Grid.set_obstacle_box g (Box3.make (vec (8 * i) 0 0) (vec ((8 * i) + 2) 2 2));
    Grid.set_shared g (vec ((8 * i) + 4) 9 1)
  done;
  let tiles = (Grid.mem g).Grid.mem_tiles - 1 in
  check Alcotest.int "15 more tiles than the baseline" 15 tiles;
  let words = grown () in
  check Alcotest.bool
    (Printf.sprintf "%d words for %d tiles: no cost arrays" words tiles)
    true
    (words < tiles * Grid.tile_cells);
  (* a usage write allocates that tile's usage array, a history write
     its history array, an overused cell one table entry *)
  Grid.add_usage g (vec 20 20 5) 2;
  Grid.add_history g (vec 21 20 5) 1;
  let words' = grown () in
  check Alcotest.bool "two cost arrays and one new tile" true
    (words' - words > 2 * Grid.tile_cells && words' - words < 3 * Grid.tile_cells)

(* The fused per-neighbour read of the A* kernels: -1 for a blocked
   cell, else the entry cost at usage + dusage. *)
let test_grid_probe () =
  let g = grid10 () in
  let probe ?(dusage = 0) ?(avoid_used = false) ?(exempt = false) (p : Vec3.t) =
    Grid.probe g ~penalty:3 ~dusage ~avoid_used ~exempt p.x p.y p.z
  in
  let obst = vec 1 1 1 and used = vec 2 2 2 and shared = vec 3 3 3 in
  Grid.set_obstacle g obst;
  Grid.add_usage g used 1;
  Grid.set_shared g shared;
  Grid.add_usage g shared 1;
  check Alcotest.int "untouched tile" 1 (probe (vec 9 9 9));
  check Alcotest.int "obstacle blocked" (-1) (probe obst);
  check Alcotest.int "exempt obstacle priced" 1 (probe ~exempt:true obst);
  check Alcotest.int "at capacity priced" (1 + 3) (probe used);
  check Alcotest.int "own route priced out" 1 (probe ~dusage:(-1) used);
  check Alcotest.int "avoid_used blocks a full cell" (-1) (probe ~avoid_used:true used);
  check Alcotest.int "avoid_used ignores dusage" (-1)
    (probe ~avoid_used:true ~dusage:(-1) used);
  check Alcotest.int "avoid_used spares shared cells" 1 (probe ~avoid_used:true shared);
  check Alcotest.int "enter_cost agrees" (Grid.enter_cost g ~penalty:3 used) (probe used);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Grid.probe: out of bounds (10,0,0)") (fun () ->
      ignore (probe (vec 10 0 0)));
  Alcotest.check_raises "enter_cost out of bounds"
    (Invalid_argument "Grid.enter_cost: out of bounds (0,-1,0)") (fun () ->
      ignore (Grid.enter_cost g ~penalty:3 (vec 0 (-1) 0)))

let test_grid_die_cost () =
  let die = Box3.make (vec 0 0 0) (vec 4 4 4) in
  let g = Grid.create ~die (Box3.make (vec 0 0 0) (vec 9 9 9)) in
  let inside = Grid.enter_cost g ~penalty:1 (vec 1 1 1) in
  let outside = Grid.enter_cost g ~penalty:1 (vec 8 8 8) in
  check Alcotest.bool "outside costs more" true (outside > inside)

(* ------------------------------------------------------------------ *)
(* Astar                                                               *)
(* ------------------------------------------------------------------ *)

let full_region = Box3.make (vec 0 0 0) (vec 9 9 9)

let test_astar_straight_line () =
  let g = grid10 () in
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 5 0 0)
  with
  | None -> Alcotest.fail "expected a path"
  | Some path ->
      check Alcotest.int "shortest length" 6 (List.length path);
      check Alcotest.bool "starts at source" true
        (Vec3.equal (List.hd path) (vec 0 0 0));
      check Alcotest.bool "ends at target" true
        (Vec3.equal (List.nth path 5) (vec 5 0 0))

let test_astar_detours_around_wall () =
  let g = grid10 () in
  (* wall at x=2 spanning all y,z except y=9 *)
  for y = 0 to 8 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 2 y z)
    done
  done;
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 4 0 0)
  with
  | None -> Alcotest.fail "expected detour"
  | Some path ->
      (* must pass through the y=9 gap *)
      check Alcotest.bool "visits gap row" true
        (List.exists (fun (p : Vec3.t) -> p.y = 9) path);
      (* path is a connected chain of unit steps *)
      let rec connected = function
        | a :: (b :: _ as rest) -> Vec3.manhattan a b = 1 && connected rest
        | _ -> true
      in
      check Alcotest.bool "connected" true (connected path)

let test_astar_unreachable () =
  let g = grid10 () in
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 2 y z)
    done
  done;
  check Alcotest.bool "unreachable" true
    (Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
       ~target:(vec 4 0 0)
    = None)

let test_astar_respects_region () =
  let g = grid10 () in
  let region = Box3.make (vec 0 0 0) (vec 3 3 3) in
  check Alcotest.bool "target outside region" true
    (Astar.search g ~region ~penalty:1 ~sources:[ vec 0 0 0 ]
       ~target:(vec 5 0 0)
    = None)

let test_astar_source_target_exempt () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 0 0 0);
  Grid.set_obstacle g (vec 3 0 0);
  match
    Astar.search g ~region:full_region ~penalty:1 ~sources:[ vec 0 0 0 ]
      ~target:(vec 3 0 0)
  with
  | None -> Alcotest.fail "pins must be reachable"
  | Some path -> check Alcotest.int "length" 4 (List.length path)

let test_astar_multi_source () =
  let g = grid10 () in
  match
    Astar.search g ~region:full_region ~penalty:1
      ~sources:[ vec 0 0 0; vec 9 9 9; vec 5 1 0 ]
      ~target:(vec 5 0 0)
  with
  | None -> Alcotest.fail "expected path"
  | Some path ->
      (* picks the closest source *)
      check Alcotest.int "short path" 2 (List.length path);
      check Alcotest.bool "from nearest" true
        (Vec3.equal (List.hd path) (vec 5 1 0))

(* A negative penalty could price a cell below 1, breaking the queue's
   monotone contract: each entry point refuses it up front, even where
   it would return [None] before searching. *)
let test_astar_rejects_negative_penalty () =
  let g = grid10 () in
  let sources = [ vec 0 0 0 ] and target = vec 5 0 0 in
  Alcotest.check_raises "search"
    (Invalid_argument "Astar.search: negative penalty") (fun () ->
      ignore (Astar.search g ~region:full_region ~penalty:(-3) ~sources ~target));
  Alcotest.check_raises "search_corridor"
    (Invalid_argument "Astar.search_corridor: negative penalty") (fun () ->
      ignore
        (Astar.search_corridor g ~region:full_region ~penalty:(-3) ~sources
           ~target:(vec 99 0 0)));
  let scr = Astar.create_scratch () in
  match Astar.coarse_corridor scr g ~region:full_region ~sources ~target with
  | None -> Alcotest.fail "expected a corridor"
  | Some corridor ->
      Alcotest.check_raises "fine_in_corridor"
        (Invalid_argument "Astar.fine_in_corridor: negative penalty") (fun () ->
          ignore
            (Astar.fine_in_corridor scr g ~corridor ~region:full_region
               ~penalty:(-1) ~sources ~target))

(* A* path cost equals Dijkstra-optimal cost on random congested grids. *)
let prop_astar_optimal_vs_dijkstra =
  QCheck.Test.make ~name:"A* matches Dijkstra cost on random grids" ~count:25
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let size = 6 in
      let box = Box3.make (vec 0 0 0) (vec (size - 1) (size - 1) (size - 1)) in
      let g = Grid.create box in
      (* random usage bumps make non-uniform costs *)
      for _ = 1 to 40 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        Grid.add_usage g p 1
      done;
      for _ = 1 to 10 do
        let p = vec (Rng.int rng size) (Rng.int rng size) (Rng.int rng size) in
        if not (Vec3.equal p (vec 0 0 0)) then Grid.set_obstacle g p
      done;
      let target = vec (size - 1) (size - 1) (size - 1) in
      let source = vec 0 0 0 in
      let astar_cost =
        match
          Astar.search g ~region:box ~penalty:2 ~sources:[ source ] ~target
        with
        | Some path -> Some (Astar.path_cost g ~penalty:2 path)
        | None -> None
      in
      (* plain Dijkstra oracle; the queue carries cells encoded as ints *)
      let encode (p : Vec3.t) = (((p.x * size) + p.y) * size) + p.z in
      let decode i = vec (i / (size * size)) (i / size mod size) (i mod size) in
      let dist = Hashtbl.create 64 in
      let q = Pqueue.create () in
      Hashtbl.replace dist source 0;
      Pqueue.push q 0 (encode source);
      let passable p =
        Box3.contains box p
        && ((not (Grid.is_obstacle g p)) || Vec3.equal p target || Vec3.equal p source)
      in
      while not (Pqueue.is_empty q) do
        let d = Pqueue.min_key q in
        let p = decode (Pqueue.pop q) in
        if d <= (try Hashtbl.find dist p with Not_found -> max_int) then
          List.iter
            (fun n ->
              if passable n then begin
                let nd = d + Grid.enter_cost g ~penalty:2 n in
                let old = try Hashtbl.find dist n with Not_found -> max_int in
                if nd < old then begin
                  Hashtbl.replace dist n nd;
                  Pqueue.push q nd (encode n)
                end
              end)
            (Vec3.axis_neighbors p)
      done;
      let dijkstra_cost = Hashtbl.find_opt dist target in
      astar_cost = dijkstra_cost)

(* Minor-heap words per returned path cell across warmed searches on a
   fixed grid.  Counts work, not time, so it is deterministic on one
   domain.  The returned path costs 7 words a cell (a list cell and a
   [Vec3.t]); a kernel that allocates per expansion — a neighbour list,
   a boxed heap entry, a popped tuple — exceeds the bound many times
   over, since a search expands far more cells than it returns. *)
let words_per_path_cell_bound = 16.

let test_astar_allocation_per_path_cell () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 63 63 3)) in
  (* a wall across most of the grid forces a detour around its end *)
  for y = 0 to 35 do
    for z = 0 to 3 do
      Grid.set_obstacle g (vec 32 y z)
    done
  done;
  let region = Grid.box g and sources = [ vec 16 20 1 ] and target = vec 48 20 1 in
  let scratch = Astar.create_scratch () in
  let search () = Astar.search ~scratch g ~region ~penalty:2 ~sources ~target in
  (* the first search warms the scratch and the queue *)
  let cells =
    match search () with
    | Some path -> List.length path
    | None -> Alcotest.fail "expected a detour around the wall"
  in
  let searches = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to searches do
    ignore (search ())
  done;
  let words = Gc.minor_words () -. before in
  let per = words /. float_of_int (searches * cells) in
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per path cell (%d-cell path) <= %.0f" per
       cells words_per_path_cell_bound)
    true
    (per <= words_per_path_cell_bound)

(* A search cell is two words of scratch.  One search over an R-cell
   region on a fresh scratch sizes the cells to R exactly; the short
   path keeps the open queue small beside them. *)
let scratch_words_per_cell_bound = 2.5

let test_astar_scratch_words_per_cell () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 47 47 7)) in
  let region = Grid.box g in
  let scratch = Astar.create_scratch () in
  (match
     Astar.search ~scratch g ~region ~penalty:1 ~sources:[ vec 20 20 2 ]
       ~target:(vec 26 23 4)
   with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a path");
  let per =
    float_of_int (Obj.reachable_words (Obj.repr scratch))
    /. float_of_int (Box3.volume region)
  in
  check Alcotest.bool
    (Printf.sprintf "%.2f scratch words per region cell <= %.1f" per
       scratch_words_per_cell_bound)
    true
    (per <= scratch_words_per_cell_bound)

(* ------------------------------------------------------------------ *)
(* Pathfinder                                                          *)
(* ------------------------------------------------------------------ *)

let test_pathfinder_simple_net () =
  let g = grid10 () in
  let nets =
    [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 5 5 0; vec 9 0 0 ] } ]
  in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "success" true r.Pathfinder.success;
  check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets)

let test_pathfinder_negotiates_conflict () =
  (* two nets whose straight paths collide in a narrow corridor *)
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 9 2 1)) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 1 0; vec 9 1 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 1; vec 9 1 1 ] };
      { Pathfinder.net_id = 2; pins = [ vec 0 0 0; vec 9 2 1 ] };
    ]
  in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "resolved" true r.Pathfinder.success;
  check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets)

let test_pathfinder_single_pin_net () =
  let g = grid10 () in
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 3 3 3 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "success" true r.Pathfinder.success

let test_pathfinder_rejects_negative_costs () =
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 5 0 0 ] } ] in
  List.iter
    (fun (name, config) ->
      let g = grid10 () in
      Alcotest.check_raises name
        (Invalid_argument ("Pathfinder.route_all: negative " ^ name))
        (fun () -> ignore (Pathfinder.route_all g config nets));
      check Alcotest.int (name ^ ": grid untouched") 0 (Grid.generation g))
    [
      ("initial_penalty", { Pathfinder.default_config with initial_penalty = -1 });
      ("penalty_growth", { Pathfinder.default_config with penalty_growth = -4 });
      ("history_increment", { Pathfinder.default_config with history_increment = -2 });
    ]

let test_pathfinder_unroutable () =
  let g = grid10 () in
  (* wall isolating the target completely *)
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 5 y z)
    done
  done;
  let nets = [ { Pathfinder.net_id = 7; pins = [ vec 0 0 0; vec 9 0 0 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "failure reported" false r.Pathfinder.success;
  check Alcotest.(list int) "unrouted id" [ 7 ] r.Pathfinder.unrouted

(* ------------------------------------------------------------------ *)
(* Validator blind spots: planted illegal routes must be rejected      *)
(* ------------------------------------------------------------------ *)

let planted_result routes =
  {
    Pathfinder.routes;
    success = true;
    iterations_used = 1;
    overused_after = 0;
    unrouted = [];
  }

let has_error fragment errors =
  List.exists
    (fun e ->
      let rec find i =
        i + String.length fragment <= String.length e
        && (String.sub e i (String.length fragment) = fragment || find (i + 1))
      in
      find 0)
    errors

let test_validate_rejects_obstacle_crossing () =
  let g = grid10 () in
  Grid.set_obstacle g (vec 2 0 0);
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 4 0 0 ] } ] in
  let r =
    planted_result
      [
        {
          Pathfinder.r_net = 0;
          r_cells = List.init 5 (fun x -> vec x 0 0);
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "obstacle crossing detected" true
    (has_error "obstacle" errors)

let test_validate_allows_obstacle_pins () =
  (* pins on obstacle cells are the one legal exemption (A* exempts
     sources and target), so they must not be flagged *)
  let g = grid10 () in
  Grid.set_obstacle g (vec 0 0 0);
  Grid.set_obstacle g (vec 3 0 0);
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 3 0 0 ] } ] in
  let r =
    planted_result
      [ { Pathfinder.r_net = 0; r_cells = List.init 4 (fun x -> vec x 0 0) } ]
  in
  check Alcotest.(list string) "pin obstacles exempt" []
    (Pathfinder.validate g r nets)

let test_validate_rejects_out_of_bounds () =
  let g = grid10 () in
  let nets = [ { Pathfinder.net_id = 3; pins = [ vec 0 0 0; vec 1 0 0 ] } ] in
  let r =
    planted_result
      [
        {
          Pathfinder.r_net = 3;
          (* a connected chain that dips below the grid floor *)
          r_cells = [ vec 0 0 0; vec 0 0 (-1); vec 1 0 (-1); vec 1 0 0 ];
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "escape detected" true
    (has_error "leaves the routing grid" errors)

let test_validate_rejects_overcapacity () =
  let g = grid10 () in
  let straight = List.init 4 (fun x -> vec x 0 0) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 3 0 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 0; vec 3 1 0 ] };
    ]
  in
  let r =
    planted_result
      [
        { Pathfinder.r_net = 0; r_cells = straight };
        (* net 1 detours through net 0's row: every straight cell is
           doubly used without being shared *)
        {
          Pathfinder.r_net = 1;
          r_cells = (vec 0 1 0 :: straight) @ [ vec 3 1 0 ];
        };
      ]
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "capacity violation detected" true
    (has_error "capacity" errors);
  check Alcotest.bool "accounting mismatch detected" true
    (has_error "overuse accounting" errors);
  (* shared cells lift the capacity limit: the same routes become legal
     once the contested row is marked shared and the overuse is owned *)
  List.iter (Grid.set_shared g) straight;
  check Alcotest.(list string) "shared row legal" []
    (Pathfinder.validate g r nets)

let test_validate_accounting_must_match () =
  (* a result that under-reports its residual overuse is rejected even
     when it does not claim success *)
  let g = grid10 () in
  let straight = List.init 2 (fun x -> vec x 0 0) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 1 0 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 0 0; vec 1 0 0 ] };
    ]
  in
  let r =
    {
      Pathfinder.routes =
        [
          { Pathfinder.r_net = 0; r_cells = straight };
          { Pathfinder.r_net = 1; r_cells = straight };
        ];
      success = false;
      iterations_used = 1;
      overused_after = 0;
      unrouted = [];
    }
  in
  let errors = Pathfinder.validate g r nets in
  check Alcotest.bool "accounting enforced" true
    (has_error "overuse accounting" errors);
  check Alcotest.(list string) "honest accounting accepted" []
    (Pathfinder.validate g { r with Pathfinder.overused_after = 2 } nets)

(* ------------------------------------------------------------------ *)
(* Parallel router determinism                                         *)
(* ------------------------------------------------------------------ *)

(* A congested scenario that needs several negotiation iterations, so the
   parallel batch path really runs: five nets crossing a narrow slab of
   height [ymax + 1].  ymax = 4 is routable after real negotiation;
   ymax = 2 is over capacity and exercises the saturated endgame. *)
let congested_scenario ymax =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 11 ymax 1)) in
  let nets =
    [
      { Pathfinder.net_id = 0; pins = [ vec 0 1 0; vec 11 1 0 ] };
      { Pathfinder.net_id = 1; pins = [ vec 0 1 1; vec 11 1 1 ] };
      { Pathfinder.net_id = 2; pins = [ vec 0 0 0; vec 11 ymax 1 ] };
      { Pathfinder.net_id = 3; pins = [ vec 0 ymax 0; vec 11 0 1 ] };
      { Pathfinder.net_id = 4; pins = [ vec 0 0 1; vec 11 ymax 0 ] };
    ]
  in
  (g, nets)

let route_congested ymax jobs =
  let g, nets = congested_scenario ymax in
  let r =
    Pathfinder.route_all g { Pathfinder.default_config with jobs } nets
  in
  (r, Pathfinder.validate g r nets)

(* The acceptance-critical property mirroring the placer's: the routing
   trajectory is a pure function of the input — TQEC_JOBS=1 and
   TQEC_JOBS=4 give identical routes, iteration counts and residual
   overuse. *)
let test_pathfinder_jobs_invariant () =
  let serial, errs1 = route_congested 4 (Some 1) in
  let parallel, errs4 = route_congested 4 (Some 4) in
  check Alcotest.(list string) "serial valid" [] errs1;
  check Alcotest.(list string) "parallel valid" [] errs4;
  check Alcotest.bool "identical results" true (serial = parallel);
  check Alcotest.bool "negotiation really iterated" true
    (serial.Pathfinder.iterations_used > 1);
  check Alcotest.bool "negotiation converged" true serial.Pathfinder.success

(* Same property on a slab that is genuinely over capacity: the router
   must stay deterministic (and its overuse accounting honest) even when
   negotiation cannot converge. *)
let test_pathfinder_jobs_invariant_saturated () =
  let serial, errs1 = route_congested 2 (Some 1) in
  let parallel, errs4 = route_congested 2 (Some 4) in
  check Alcotest.(list string) "serial valid" [] errs1;
  check Alcotest.(list string) "parallel valid" [] errs4;
  check Alcotest.bool "identical results" true (serial = parallel);
  check Alcotest.bool "saturation reported" true
    (serial.Pathfinder.overused_after > 0 && not serial.Pathfinder.success)

(* ------------------------------------------------------------------ *)
(* Hierarchical corridor search                                        *)
(* ------------------------------------------------------------------ *)

(* Planted fixture for the corridor fallback: a straight source→target
   line whose coarse corridor (the tile row plus its one-tile ring,
   y < 16) is severed by a wall at x = 16; the only gap lies at y ≥ 16,
   outside the corridor.  The coarse search cannot see the wall (no
   tile is fully obstacled), so it confidently picks the straight
   corridor — and the fine pass must fail, forcing the full-window
   fallback. *)
let corridor_wall_fixture () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 31 23 7)) in
  for y = 0 to 15 do
    for z = 0 to 7 do
      Grid.set_obstacle g (vec 16 y z)
    done
  done;
  g

let test_corridor_infeasible_reports_none () =
  let g = corridor_wall_fixture () in
  let region = Grid.box g in
  let sources = [ vec 0 4 4 ] and target = vec 31 4 4 in
  check Alcotest.bool "corridor infeasible" true
    (Astar.search_corridor g ~region ~penalty:2 ~sources ~target = None);
  match Astar.search g ~region ~penalty:2 ~sources ~target with
  | None -> Alcotest.fail "flat search must find the gap detour"
  | Some path ->
      check Alcotest.bool "detour leaves the corridor" true
        (List.exists (fun (c : Vec3.t) -> c.Vec3.y >= 16) path)

(* The acceptance-critical regression: with the hierarchical path forced
   on ([corridor_cells = 0]) over the planted fixture, the corridor
   fails, the router falls back to the full-window search, and the
   resulting routes are bit-identical to the flat ([corridor_cells =
   max_int]) configuration. *)
let test_corridor_fallback_matches_flat_route () =
  let run corridor_cells =
    let g = corridor_wall_fixture () in
    let nets =
      [ { Pathfinder.net_id = 0; pins = [ vec 0 4 4; vec 31 4 4 ] } ]
    in
    let r =
      Pathfinder.route_all g
        { Pathfinder.default_config with corridor_cells }
        nets
    in
    check Alcotest.(list string) "valid" [] (Pathfinder.validate g r nets);
    r
  in
  let flat = run max_int in
  let hier = run 0 in
  check Alcotest.bool "routes bit-identical" true (flat = hier);
  check Alcotest.bool "routed" true flat.Pathfinder.success

(* On an empty (hence congestion-free) multi-tile grid the corridor must
   contain a minimal path: hierarchical and flat searches agree on
   cost. *)
let test_corridor_minimal_when_feasible () =
  let g = Grid.create (Box3.make (vec 0 0 0) (vec 63 63 15)) in
  let region = Grid.box g in
  let sources = [ vec 1 2 3 ] and target = vec 60 50 12 in
  match Astar.search_corridor g ~region ~penalty:2 ~sources ~target with
  | None -> Alcotest.fail "corridor search failed on an empty grid"
  | Some path ->
      let flat =
        match Astar.search g ~region ~penalty:2 ~sources ~target with
        | Some p -> p
        | None -> Alcotest.fail "flat search failed on an empty grid"
      in
      check Alcotest.int "same cost as flat A*"
        (Astar.path_cost g ~penalty:2 flat)
        (Astar.path_cost g ~penalty:2 path)

(* Worker-count invariance holds with the hierarchical path forced on:
   the corridor decisions read only deterministic tile summaries. *)
let test_corridor_jobs_invariant () =
  let route jobs =
    let g, nets = congested_scenario 4 in
    let r =
      Pathfinder.route_all g
        { Pathfinder.default_config with jobs; corridor_cells = 0 }
        nets
    in
    (r, Pathfinder.validate g r nets)
  in
  let serial, errs1 = route (Some 1) in
  let parallel, errs4 = route (Some 4) in
  check Alcotest.(list string) "serial valid" [] errs1;
  check Alcotest.(list string) "parallel valid" [] errs4;
  check Alcotest.bool "identical results" true (serial = parallel);
  check Alcotest.bool "converged" true serial.Pathfinder.success

(* Corridor-widening regression: when the margin-inflated corridor
   already covers the whole grid, the escalation must stop after one
   failed search instead of repeating it — and still report the net
   unrouted. *)
let test_pathfinder_unroutable_wide_corridor () =
  let g = grid10 () in
  for y = 0 to 9 do
    for z = 0 to 9 do
      Grid.set_obstacle g (vec 5 y z)
    done
  done;
  (* pins span the full grid, so even the first corridor covers it *)
  let nets = [ { Pathfinder.net_id = 0; pins = [ vec 0 0 0; vec 9 9 9 ] } ] in
  let r = Pathfinder.route_all g Pathfinder.default_config nets in
  check Alcotest.bool "failure reported" false r.Pathfinder.success;
  check Alcotest.(list int) "unrouted id" [ 0 ] r.Pathfinder.unrouted

let prop_pathfinder_random_nets_valid =
  QCheck.Test.make ~name:"pathfinder routes random nets validly" ~count:15
    (QCheck.int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Grid.create (Box3.make (vec 0 0 0) (vec 11 11 3)) in
      let random_pin () = vec (Rng.int rng 12) (Rng.int rng 12) (Rng.int rng 4) in
      let nets =
        List.init 6 (fun i ->
            {
              Pathfinder.net_id = i;
              pins = List.init (2 + Rng.int rng 3) (fun _ -> random_pin ());
            })
      in
      List.iter
        (fun (n : Pathfinder.net) -> List.iter (Grid.set_shared g) n.Pathfinder.pins)
        nets;
      let r = Pathfinder.route_all g Pathfinder.default_config nets in
      r.Pathfinder.success && Pathfinder.validate g r nets = [])

(* ------------------------------------------------------------------ *)
(* Golden route digests                                                *)
(* ------------------------------------------------------------------ *)

(* Routes must stay bit-identical across rewrites of the A* kernels, the
   priority queue and the Prim pin order.  The Dijkstra oracle above
   checks cost only, so tie-breaking — which source, which of several
   equal-cost paths, which pin connects next — is pinned here: each
   digest hashes, in order, the returned cell paths of many seeded
   random cases.  The digests were computed with the boxed-heap kernels
   and the rescanning Prim order; any change to a single returned cell
   changes them. *)

let add_path b = function
  | None -> Buffer.add_string b " none"
  | Some path ->
      List.iter
        (fun (c : Vec3.t) -> Printf.bprintf b " %d,%d,%d" c.x c.y c.z)
        path

let random_cell rng (box : Box3.t) =
  vec
    (Rng.int_in rng box.lo.x box.hi.x)
    (Rng.int_in rng box.lo.y box.hi.y)
    (Rng.int_in rng box.lo.z box.hi.z)

(* A congested random grid with an off-origin box, a die smaller than
   the box, obstacles, usage, history and shared cells.  [nx >= 4] and
   [ny >= 3] keep the die non-empty. *)
let random_grid rng ~nx ~ny ~nz =
  let lo = vec (Rng.int_in rng (-3) 3) (Rng.int_in rng (-3) 3) (Rng.int_in rng (-3) 3) in
  let box = Box3.make lo (vec (lo.x + nx - 1) (lo.y + ny - 1) (lo.z + nz - 1)) in
  let die =
    Box3.make (vec (lo.x + 1) (lo.y + 1) lo.z)
      (vec (lo.x + nx - 3) (lo.y + ny - 2) (lo.z + nz - 1))
  in
  let g = Grid.create ~die box in
  let cells = nx * ny * nz in
  for _ = 1 to cells / 8 do
    Grid.set_obstacle g (random_cell rng box)
  done;
  for _ = 1 to cells / 6 do
    Grid.add_usage g (random_cell rng box) (1 + Rng.int rng 2)
  done;
  for _ = 1 to cells / 10 do
    Grid.add_history g (random_cell rng box) (1 + Rng.int rng 4)
  done;
  for _ = 1 to cells / 20 do
    Grid.set_shared g (random_cell rng box)
  done;
  (g, box)

(* Search options drawn per case: several sources, an own route to
   price out, the cleanup mode, a small expansion budget, a region that
   is the box, pokes outside it, or is a sub-window. *)
let random_search_args rng box =
  let sources = List.init (1 + Rng.int rng 4) (fun _ -> random_cell rng box) in
  let target = random_cell rng box in
  let exclude =
    if Rng.int rng 3 = 0 then []
    else List.init (Rng.int rng 24) (fun _ -> random_cell rng box)
  in
  let avoid_used = Rng.int rng 3 = 0 in
  let max_expansions =
    if Rng.int rng 4 = 0 then 1 + Rng.int rng 60 else 400_000
  in
  let region =
    match Rng.int rng 3 with
    | 0 -> box
    | 1 -> Box3.inflate 2 box
    | _ -> Box3.inflate 2 (Box3.bounding [ random_cell rng box; target ])
  in
  let penalty = 1 + Rng.int rng 8 in
  (sources, target, exclude, avoid_used, max_expansions, region, penalty)

let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))

(* Symmetric detours: a plate across the straight line from source to
   target, spanning the grid along one axis and leaving an equal-cost
   way round each of its two edges along another, so the path taken is
   decided by which of the opposite neighbours is pushed first — ties
   the random cases below rarely reach.  Every (line axis, detour axis)
   pair, through both the flat and the corridor kernels. *)
let test_golden_symmetric_detours () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (axis, detour) ->
      (* [place a d e]: coordinate [a] on [axis], [d] on [detour] and
         [e] on the remaining axis *)
      let place a d e =
        let c = Array.make 3 e in
        c.(axis) <- a;
        c.(detour) <- d;
        vec c.(0) c.(1) c.(2)
      in
      let g = Grid.create (Box3.make (vec 0 0 0) (vec 16 16 16)) in
      for d = 4 to 12 do
        for e = 0 to 16 do
          Grid.set_obstacle g (place 8 d e)
        done
      done;
      let region = Grid.box g
      and sources = [ place 2 8 8 ]
      and target = place 14 8 8 in
      Printf.bprintf b "\naxis %d detour %d flat" axis detour;
      add_path b (Astar.search g ~region ~penalty:2 ~sources ~target);
      let scr = Astar.create_scratch () in
      Printf.bprintf b "\naxis %d detour %d corridor" axis detour;
      match Astar.coarse_corridor scr g ~region ~sources ~target with
      | None -> Buffer.add_string b " no-corridor"
      | Some corridor ->
          add_path b
            (Astar.fine_in_corridor scr g ~corridor ~region ~penalty:2 ~sources
               ~target))
    [ (0, 1); (0, 2); (1, 0); (1, 2); (2, 0); (2, 1) ];
  check Alcotest.string "symmetric detour digest, flat and corridor"
    "67b34f4caac1a53b73b88a41a7548f0a" (digest_of b)

(* The 150 seeded flat-search cases, each case's path appended to [b]. *)
let golden_flat_cases b =
  let scratch = Astar.create_scratch () in
  for seed = 1 to 150 do
    let rng = Rng.create seed in
    let g, box =
      random_grid rng ~nx:(4 + Rng.int rng 10) ~ny:(3 + Rng.int rng 10)
        ~nz:(1 + Rng.int rng 5)
    in
    let sources, target, exclude, avoid_used, max_expansions, region, penalty =
      random_search_args rng box
    in
    Printf.bprintf b "\n%d" seed;
    add_path b
      (Astar.search ~scratch ~max_expansions ~avoid_used ~exclude g ~region
         ~penalty ~sources ~target)
  done

let test_golden_flat_search () =
  let b = Buffer.create 65536 in
  golden_flat_cases b;
  check Alcotest.string "Astar.search digest, 150 seeded cases"
    "d2858f023aebea3f24eca4be047bbc4b" (digest_of b)

(* The 60 seeded coarse + fine cases, each case's corridor and path
   appended to [b]. *)
let golden_corridor_cases b =
  let scratch = Astar.create_scratch () in
  for seed = 1 to 60 do
    let rng = Rng.create (1000 + seed) in
    let g, box =
      random_grid rng ~nx:(10 + Rng.int rng 24) ~ny:(10 + Rng.int rng 24)
        ~nz:(2 + Rng.int rng 12)
    in
    (* an occasional fully walled tile block, which the coarse pass
       treats as impassable *)
    if Rng.bool rng then begin
      let c = random_cell rng box in
      Grid.set_obstacle_box g (Box3.make c (Vec3.add c (vec 9 9 9)))
    end;
    let sources, target, exclude, avoid_used, max_expansions, region, penalty =
      random_search_args rng box
    in
    Printf.bprintf b "\n%d" seed;
    match Astar.coarse_corridor ~exclude scratch g ~region ~sources ~target with
    | None -> Buffer.add_string b " no-corridor"
    | Some corridor ->
        List.iter (Printf.bprintf b " t%d") corridor;
        add_path b
          (Astar.fine_in_corridor ~max_expansions ~avoid_used ~exclude scratch
             g ~corridor ~region ~penalty ~sources ~target)
  done

let test_golden_corridor_search () =
  let b = Buffer.create 65536 in
  golden_corridor_cases b;
  check Alcotest.string "coarse_corridor + fine_in_corridor digest, 60 cases"
    "cd435988bebf0c99cc76ad3f744cc663" (digest_of b)

(* The paths pin what the searches return; the open-set traffic pins
   how they got there.  A queue that reorders equal-key entries, or a
   pass that pushes or pops one entry more or fewer, moves these totals
   even where every path happens to agree.  Computed with the binary
   heap kernels. *)
let test_golden_search_counts () =
  let b = Buffer.create 65536 in
  let counts run =
    Counters.reset ();
    run b;
    let s = Counters.stats () in
    (s.Counters.astar_pops, s.Counters.astar_pushes)
  in
  check Alcotest.(pair int int) "flat cases: (pops, pushes)" (4989, 8222)
    (counts golden_flat_cases);
  check Alcotest.(pair int int) "corridor cases: (pops, pushes)"
    (11266, 16509) (counts golden_corridor_cases)

(* Random multi-pin nets on small crowded grids.  Small coordinates make
   equal pin distances (Prim ties) and equal nearest-cell distances
   common; crowding forces batch iterations (each net's old route priced
   out via [exclude]); a two-iteration budget on a third of the cases
   leaves overuse for the [avoid_used] cleanup; a quarter force the
   hierarchical path. *)
let route_all_digest jobs =
  let b = Buffer.create 65536 in
  for seed = 1 to 40 do
    let rng = Rng.create (2000 + seed) in
    let nx = 6 + Rng.int rng 8 and ny = 4 + Rng.int rng 6 and nz = 1 + Rng.int rng 3 in
    let box = Box3.make (vec 0 0 0) (vec (nx - 1) (ny - 1) (nz - 1)) in
    let g = Grid.create ~die:(Box3.make (vec 0 0 0) (vec (nx - 2) (ny - 1) (nz - 1))) box in
    for _ = 1 to nx * ny * nz / 12 do
      Grid.set_obstacle g (random_cell rng box)
    done;
    let nets =
      List.init (5 + Rng.int rng 6) (fun i ->
          {
            Pathfinder.net_id = i;
            pins = List.init (2 + Rng.int rng 4) (fun _ -> random_cell rng box);
          })
    in
    List.iter
      (fun (n : Pathfinder.net) -> List.iter (Grid.set_shared g) n.Pathfinder.pins)
      nets;
    let config =
      {
        Pathfinder.default_config with
        jobs = Some jobs;
        max_iterations = (if seed mod 3 = 0 then 2 else 40);
        corridor_cells = (if seed mod 4 = 0 then 0 else 1_000_000);
      }
    in
    let r = Pathfinder.route_all g config nets in
    Printf.bprintf b "\n%d success=%b iterations=%d overused=%d unrouted=%s" seed
      r.Pathfinder.success r.Pathfinder.iterations_used
      r.Pathfinder.overused_after
      (String.concat "," (List.map string_of_int r.Pathfinder.unrouted));
    List.iter
      (fun (rt : Pathfinder.routed) ->
        Printf.bprintf b "\n net %d:" rt.Pathfinder.r_net;
        add_path b (Some rt.Pathfinder.r_cells))
      r.Pathfinder.routes
  done;
  digest_of b

let test_golden_route_all () =
  check Alcotest.string "route_all digest, jobs=1" "eb21db6d7f8de22ffef4f80643a5d7de"
    (route_all_digest 1);
  check Alcotest.string "route_all digest, jobs=2" "eb21db6d7f8de22ffef4f80643a5d7de"
    (route_all_digest 2)

(* ------------------------------------------------------------------ *)
(* End-to-end: route-stage jobs invariance on suite circuits           *)
(* ------------------------------------------------------------------ *)

module Suite = Tqec_circuit.Suite
module Pipeline = Tqec_compress.Pipeline

let run_suite_pipeline name factor jobs =
  let entry =
    match Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "unknown suite benchmark %s" name
  in
  let circuit = Suite.scaled ~factor entry in
  Pipeline.run
    ~config:
      {
        Pipeline.default_config with
        effort = Tqec_place.Placer.Quick;
        seed = 42;
        jobs;
      }
    circuit

(* The full-flow mirror of the router determinism test, on two suite
   circuits: the routing stage (and thus the whole result) is identical
   under TQEC_JOBS=1 and TQEC_JOBS=4. *)
let test_pipeline_route_jobs_invariant name factor () =
  let serial = run_suite_pipeline name factor (Some 1) in
  let parallel = run_suite_pipeline name factor (Some 4) in
  check Alcotest.(list string) "parallel pipeline sound" []
    (Tqec_verify.Violation.to_strings (Pipeline.verify parallel));
  check Alcotest.bool "identical routing" true
    (serial.Pipeline.routing = parallel.Pipeline.routing);
  check Alcotest.int "identical volume" serial.Pipeline.volume
    parallel.Pipeline.volume;
  check Alcotest.bool "routing succeeded" true
    serial.Pipeline.routing.Pathfinder.success

let suites =
  [
    ( "route.grid",
      [
        Alcotest.test_case "usage/history" `Quick test_grid_usage_history;
        Alcotest.test_case "negative usage rejected" `Quick
          test_grid_negative_usage_rejected;
        Alcotest.test_case "negative history rejected" `Quick
          test_grid_negative_history_rejected;
        Alcotest.test_case "obstacles" `Quick test_grid_obstacles;
        Alcotest.test_case "shared cells" `Quick test_grid_shared;
        Alcotest.test_case "overused" `Quick test_grid_overused;
        Alcotest.test_case "die cost" `Quick test_grid_die_cost;
        Alcotest.test_case "probe" `Quick test_grid_probe;
        Alcotest.test_case "mem tracks touched tiles" `Quick
          test_grid_mem_tracks_touched_tiles;
        Alcotest.test_case "cost arrays allocated on first write" `Quick
          test_grid_costs_allocated_on_write;
        qtest prop_grid_overused_incremental;
        qtest prop_grid_sparse_vs_dense_oracle;
        qtest prop_grid_generation_tracking;
      ] );
    ( "route.astar",
      [
        Alcotest.test_case "straight line" `Quick test_astar_straight_line;
        Alcotest.test_case "detours" `Quick test_astar_detours_around_wall;
        Alcotest.test_case "unreachable" `Quick test_astar_unreachable;
        Alcotest.test_case "respects region" `Quick test_astar_respects_region;
        Alcotest.test_case "pins exempt" `Quick test_astar_source_target_exempt;
        Alcotest.test_case "multi-source" `Quick test_astar_multi_source;
        Alcotest.test_case "rejects a negative penalty" `Quick
          test_astar_rejects_negative_penalty;
        qtest prop_astar_optimal_vs_dijkstra;
        Alcotest.test_case "allocation per path cell" `Quick
          test_astar_allocation_per_path_cell;
        Alcotest.test_case "scratch words per region cell" `Quick
          test_astar_scratch_words_per_cell;
      ] );
    ( "route.pathfinder",
      [
        Alcotest.test_case "simple net" `Quick test_pathfinder_simple_net;
        Alcotest.test_case "negotiates" `Quick test_pathfinder_negotiates_conflict;
        Alcotest.test_case "single pin" `Quick test_pathfinder_single_pin_net;
        Alcotest.test_case "unroutable" `Quick test_pathfinder_unroutable;
        Alcotest.test_case "rejects negative costs" `Quick
          test_pathfinder_rejects_negative_costs;
        Alcotest.test_case "unroutable, grid-wide corridor" `Quick
          test_pathfinder_unroutable_wide_corridor;
        Alcotest.test_case "jobs invariant" `Quick test_pathfinder_jobs_invariant;
        Alcotest.test_case "jobs invariant (saturated)" `Quick
          test_pathfinder_jobs_invariant_saturated;
        qtest prop_pathfinder_random_nets_valid;
      ] );
    ( "route.corridor",
      [
        Alcotest.test_case "infeasible corridor reports none" `Quick
          test_corridor_infeasible_reports_none;
        Alcotest.test_case "fallback matches flat route" `Quick
          test_corridor_fallback_matches_flat_route;
        Alcotest.test_case "minimal when feasible" `Quick
          test_corridor_minimal_when_feasible;
        Alcotest.test_case "jobs invariant (corridor forced)" `Quick
          test_corridor_jobs_invariant;
      ] );
    ( "route.golden",
      [
        Alcotest.test_case "symmetric detours" `Quick
          test_golden_symmetric_detours;
        Alcotest.test_case "flat search paths" `Quick test_golden_flat_search;
        Alcotest.test_case "corridor search paths" `Quick
          test_golden_corridor_search;
        Alcotest.test_case "route_all at jobs 1 and 2" `Quick
          test_golden_route_all;
        Alcotest.test_case "search open-set counts" `Quick
          test_golden_search_counts;
      ] );
    ( "route.validate",
      [
        Alcotest.test_case "rejects obstacle crossing" `Quick
          test_validate_rejects_obstacle_crossing;
        Alcotest.test_case "allows obstacle pins" `Quick
          test_validate_allows_obstacle_pins;
        Alcotest.test_case "rejects out-of-bounds" `Quick
          test_validate_rejects_out_of_bounds;
        Alcotest.test_case "rejects overcapacity" `Quick
          test_validate_rejects_overcapacity;
        Alcotest.test_case "accounting must match" `Quick
          test_validate_accounting_must_match;
      ] );
    ( "route.parallel-pipeline",
      [
        Alcotest.test_case "4gt10-v1_81 jobs invariant" `Slow
          (test_pipeline_route_jobs_invariant "4gt10-v1_81" 4);
        Alcotest.test_case "4gt4-v0_73 jobs invariant" `Slow
          (test_pipeline_route_jobs_invariant "4gt4-v0_73" 8);
      ] );
  ]
