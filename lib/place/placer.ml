module Pd_graph = Tqec_pdgraph.Pd_graph
module Flipping = Tqec_pdgraph.Flipping
module Dual_bridge = Tqec_pdgraph.Dual_bridge
module Fvalue = Tqec_pdgraph.Fvalue
module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Rng = Tqec_util.Rng
module Stats = Tqec_util.Stats
module Pool = Tqec_util.Pool

type effort = Quick | Normal | Full

type strategy = Annealing | Force_directed

type config = {
  effort : effort;
  seed : int;
  alpha : float;
  beta : float;
  z_cap : int option;
  strategy : strategy;
  restarts : int;
  jobs : int option;
  early_stop_margin : float option;
  partition : int option;
  auto_partition : int;
  sa_moves_cap : int option;
}

let default_config =
  { effort = Normal; seed = 42; alpha = 1.0; beta = 0.2; z_cap = None;
    strategy = Annealing; restarts = 1; jobs = None;
    early_stop_margin = Some 0.05; partition = None;
    (* Auto-partition threshold: with [partition = None], instances
       above this node count take the divide-and-conquer path with this
       cap.  Chosen above every paper-suite instance (~2.6k modules at
       auto scale) so their single-die placements stay bit-identical;
       synthetic scale-tier substrates cross it around tier-x9. *)
    auto_partition = 4000; sa_moves_cap = None }

type t = {
  sm : Super_module.t;
  node_pos : (int * int) array;
  rotated : bool array;
  width : int;
  height : int;
  depth : int;
  volume : int;
  wirelength : int;
  sa_stats : Sa.stats;
  repacks : int;
}

(* Iteration budget: derive the move count from an operation budget,
   pricing a move at one full repack, roughly 30*n simple operations.
   A move that keeps every footprint now skips the repack, so a move
   is often cheaper than that; the formula stays, because the move
   count it yields fixes every recorded placement. *)
let iterations_for effort n =
  let budget =
    match effort with
    | Quick -> 60_000_000
    | Normal -> 500_000_000
    | Full -> 4_000_000_000
  in
  Stats.clamp 500 120_000 (budget / (30 * max 1 n))

(* Nets at node granularity for the SA wirelength estimate: each bridged
   dual structure pins the nodes its modules were claimed by. *)
let build_nets (g : Pd_graph.t) (sm : Super_module.t) (dual : Dual_bridge.t) =
  let nets = ref [] in
  List.iter
    (fun (rep, _members) ->
      let modules = Dual_bridge.modules_of_class g dual rep in
      let nodes =
        List.filter_map (Hashtbl.find_opt sm.Super_module.node_of_module) modules
        |> List.sort_uniq Int.compare
      in
      match nodes with [] | [ _ ] -> () | ns -> nets := ns :: !nets)
    dual.Dual_bridge.merged;
  List.iter
    (fun (box_node, m) ->
      match Hashtbl.find_opt sm.Super_module.node_of_module m with
      | Some n when n <> box_node -> nets := [ box_node; n ] :: !nets
      | _ -> ())
    sm.Super_module.pseudo_nets;
  Array.of_list (List.map Array.of_list !nets)

let hpwl = Hpwl_cache.compute

(* Force-directed placement: repeatedly (1) compute each block's desired
   position as the centroid of its net mates, (2) order blocks by the
   desired position, (3) legalize by shelf packing in that order.  The
   best iteration by the same cost function wins. *)
let force_directed ~iterations ~beta dims nets =
  let n = Array.length dims in
  let total_area = Array.fold_left (fun a (w, h) -> a + (w * h)) 0 dims in
  let target_w =
    max
      (Array.fold_left (fun a (w, _) -> max a w) 1 dims)
      (int_of_float (sqrt (1.2 *. float_of_int total_area)))
  in
  let shelf_pack order =
    let pos = Array.make n (0, 0) in
    let x = ref 0 and y = ref 0 and row_h = ref 0 in
    let max_w = ref 0 and max_h = ref 0 in
    Array.iter
      (fun b ->
        let w, h = dims.(b) in
        if !x + w > target_w && !x > 0 then begin
          x := 0;
          y := !y + !row_h;
          row_h := 0
        end;
        pos.(b) <- (!x, !y);
        x := !x + w;
        row_h := max !row_h h;
        max_w := max !max_w !x;
        max_h := max !max_h (!y + h))
      order;
    (pos, (!max_w, !max_h))
  in
  let cost pos (w, h) =
    float_of_int (w * h) +. (beta *. float_of_int (hpwl nets pos))
  in
  let order = Array.init n (fun i -> i) in
  let best = ref (shelf_pack order) in
  let best_cost = ref (cost (fst !best) (snd !best)) in
  for _ = 1 to iterations do
    let pos = fst !best in
    let desired =
      Array.init n (fun b ->
          let x, y = pos.(b) in
          (float_of_int x, float_of_int y))
    in
    (* pull towards net centroids *)
    let pull = Array.make n (0., 0., 0) in
    Array.iter
      (fun net ->
        let cx = ref 0. and cy = ref 0. in
        Array.iter
          (fun b ->
            let x, y = pos.(b) in
            cx := !cx +. float_of_int x;
            cy := !cy +. float_of_int y)
          net;
        let k = float_of_int (Array.length net) in
        let cx = !cx /. k and cy = !cy /. k in
        Array.iter
          (fun b ->
            let px, py, pk = pull.(b) in
            pull.(b) <- (px +. cx, py +. cy, pk + 1))
          net)
      nets;
    let desired =
      Array.mapi
        (fun b (dx, dy) ->
          match pull.(b) with
          | _, _, 0 -> (dx, dy)
          | px, py, pk ->
              let k = float_of_int pk in
              (* move halfway towards the mean centroid *)
              (0.5 *. (dx +. (px /. k)), 0.5 *. (dy +. (py /. k))))
        desired
    in
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let ax, ay = desired.(a) and bx, by = desired.(b) in
        let c = compare (ay, ax) (by, bx) in
        if c <> 0 then c else Int.compare a b)
      order;
    let candidate = shelf_pack order in
    let c = cost (fst candidate) (snd candidate) in
    if c < !best_cost then begin
      best := candidate;
      best_cost := c
    end
  done;
  !best

(* One group's full adaptive multi-start annealing — the historical
   single-die engine, extracted so the partitioned mode can run it on
   each partition's subproblem.  With [seed = config.seed] over the
   whole node set this consumes the RNG exactly as the historical code
   did, so unpartitioned results are bit-identical. *)
let anneal_group ~(config : config) ~depth ~dims ~nets ~rotatable ~seed =
  let n = Array.length dims in
  let rotatable_ids =
    Array.of_list
      (List.filter
         (fun i -> rotatable.(i))
         (List.init n (fun i -> i)))
  in
  let iterations =
    let base = iterations_for config.effort n in
    match config.sa_moves_cap with
    | None -> base
    | Some cap -> min base (max 1 cap)
  in
  let params =
    {
      Sa.iterations;
      moves_per_temp = Stats.clamp 10 200 (iterations / 60);
      cooling = 0.93;
      initial_acceptance = 0.85;
    }
  in
  (* One independent annealing trajectory.  A move repacks the whole
     tree into one pair of coordinate buffers in place, or skips the
     repack when it kept every footprint; the pack logs the blocks it
     moved, so the wirelength term re-evaluates only the nets incident
     to them and a rejected move puts their old coordinates back from
     the same log.  The best-so-far snapshot copies into preallocated
     buffers, and the undo closure is built once per trajectory rather
     than once per move. *)
  let anneal_start rng =
    let tree = Bstar_tree.create dims in
    let xs = Array.make n 0 and ys = Array.make n 0 in
    let cur_wh = ref (Bstar_tree.pack_xy tree xs ys) in
    let initial_repacks = Bstar_tree.repacks tree in
    let cache = Hpwl_cache.create ~n_nodes:n nets in
    ignore (Hpwl_cache.rebuild cache ~xs ~ys);
    let cost () =
      let w, h = !cur_wh in
      (config.alpha *. float_of_int (w * h * depth))
      +. (config.beta *. float_of_int (Hpwl_cache.total cache))
    in
    let best_xs = Array.copy xs and best_ys = Array.copy ys in
    let best_rot = Array.make n false in
    let best_wh = ref !cur_wh in
    let on_best _ =
      for i = 0 to n - 1 do
        best_xs.(i) <- xs.(i);
        best_ys.(i) <- ys.(i);
        best_rot.(i) <- Bstar_tree.is_rotated tree i
      done;
      best_wh := !cur_wh
    in
    let prev_wh = ref !cur_wh in
    let undo () =
      Bstar_tree.undo tree;
      Bstar_tree.unpack tree xs ys;
      Hpwl_cache.restore cache;
      cur_wh := !prev_wh
    in
    let perturb () =
      Bstar_tree.perturb tree ~rng ~rotatable:rotatable_ids;
      prev_wh := !cur_wh;
      cur_wh := Bstar_tree.pack_xy tree xs ys;
      Hpwl_cache.update cache ~xs ~ys ~changed:(Bstar_tree.moved tree)
        ~n_changed:(Bstar_tree.n_moved tree);
      undo
    in
    let st = Sa.create ~rng ~params ~cost ~perturb ~on_best () in
    ( st,
      fun () ->
        ( Sa.stats st,
          Bstar_tree.repacks tree - initial_repacks,
          Array.init n (fun i -> (best_xs.(i), best_ys.(i))),
          best_rot,
          !best_wh ) )
  in
  (* Adaptive multi-start: K independent trajectories with per-lane rng
     streams derived from the seed before the fan-out — always lane id,
     never worker id, so it doesn't matter which pool domain (or helping
     parent — this map may itself run inside a suite-instance task on
     the shared work-stealing pool) advances a lane.  Lanes advance in
     fixed-size chunks, one [Pool.map] per epoch; at each chunk end a
     lane publishes its best into a shared [Atomic] (CAS-min).  Early
     stopping is decided only at the epoch barriers, from the barrier
     value of the Atomic — the min over all lanes' bests through their
     completed epochs, which is independent of worker scheduling — so
     the result is a pure function of (seed, restarts) for any worker
     count.  Lane 0 is the historical single-start trajectory and is
     exempt from early stopping, so the multi-start best is never worse
     than a single-start run.  A stopped lane can never be the winner:
     at the stop decision its best exceeds (1 + margin) * global best,
     and the eventual winner's cost is at most that global best. *)
  let restarts = max 1 config.restarts in
  let lanes = Array.init restarts (Rng.lane seed) in
  let trajs = Pool.map ?jobs:config.jobs anneal_start lanes in
  let global_best = Atomic.make infinity in
  let rec publish v =
    let cur = Atomic.get global_best in
    if v < cur && not (Atomic.compare_and_set global_best cur v) then
      publish v
  in
  Array.iter (fun (st, _) -> publish (Sa.best_cost st)) trajs;
  let stopped = Array.make restarts false in
  let chunk = max 1_000 (iterations / 16) in
  let running = ref true in
  while !running do
    let active = ref [] in
    for i = restarts - 1 downto 0 do
      if (not stopped.(i)) && not (Sa.finished (fst trajs.(i))) then
        active := i :: !active
    done;
    match !active with
    | [] -> running := false
    | active ->
        ignore
          (Pool.map ?jobs:config.jobs
             (fun i ->
               let st, _ = trajs.(i) in
               Sa.step st chunk;
               publish (Sa.best_cost st))
             (Array.of_list active));
        (* barrier: deterministic stop decisions.  A low-temperature
           lane (at least half its moves spent) whose best trails the
           shared best by more than the margin gives up. *)
        (match config.early_stop_margin with
        | Some margin when margin >= 0. ->
            let g = Atomic.get global_best in
            Array.iteri
              (fun i (st, _) ->
                if
                  i > 0
                  && (not stopped.(i))
                  && (not (Sa.finished st))
                  && 2 * Sa.attempted st >= Sa.total_moves st
                  && Sa.best_cost st > (1. +. margin) *. g
                then stopped.(i) <- true)
              trajs
        | _ -> ())
  done;
  let runs = Array.map (fun (_, result) -> result ()) trajs in
  let best_i = ref 0 in
  Array.iteri
    (fun i (st, _, _, _, _) ->
      let prev, _, _, _, _ = runs.(!best_i) in
      if st.Sa.best_cost < prev.Sa.best_cost then best_i := i)
    runs;
  let win_stats, _, node_pos, rotated, (width, height) = runs.(!best_i) in
  let sa_stats =
    Array.fold_left
      (fun acc (st, _, _, _, _) ->
        {
          acc with
          Sa.attempted = acc.Sa.attempted + st.Sa.attempted;
          accepted = acc.Sa.accepted + st.Sa.accepted;
        })
      { win_stats with Sa.attempted = 0; accepted = 0 }
      runs
  in
  let repacks = Array.fold_left (fun acc (_, r, _, _, _) -> acc + r) 0 runs in
  (sa_stats, repacks, node_pos, rotated, (width, height))

(* Divide-and-conquer annealing for instances beyond the single-die
   scale knee: partition the net hypergraph (deterministic BFS bisection
   + refinement, see {!Partition}), anneal each partition independently
   over the pool with partition-indexed seed offsets, then stitch the
   packed partitions with the same deterministic shelf packing the
   force-directed legalizer uses.  Per-partition annealing sees only the
   nets projected onto the partition (two or more members inside);
   cross-partition wirelength is paid at the stitch, which orders
   partitions by decreasing area for a tight skyline. *)
let place_partitioned ~(config : config) ~depth ~dims ~nets ~rotatable ~cap =
  let n = Array.length dims in
  let parts = Partition.run ~n ~nets ~max_part:cap in
  let k = Array.length parts in
  let part_of = Array.make n 0 in
  let local_id = Array.make n 0 in
  Array.iteri
    (fun pid members ->
      Array.iteri
        (fun li v ->
          part_of.(v) <- pid;
          local_id.(v) <- li)
        members)
    parts;
  (* Project each net onto every partition holding >= 2 of its members
     (first-seen partition order within the net keeps this allocation
     pattern deterministic without any hashing). *)
  let sub_nets_rev = Array.make k [] in
  Array.iter
    (fun net ->
      let buckets = ref [] in
      Array.iter
        (fun v ->
          let pid = part_of.(v) in
          match List.assoc_opt pid !buckets with
          | Some cell -> cell := local_id.(v) :: !cell
          | None -> buckets := (pid, ref [ local_id.(v) ]) :: !buckets)
        net;
      List.iter
        (fun (pid, cell) ->
          match !cell with
          | [] | [ _ ] -> ()
          | members ->
              sub_nets_rev.(pid) <-
                Array.of_list (List.rev members) :: sub_nets_rev.(pid))
        (List.rev !buckets))
    nets;
  let sub_problems =
    Array.init k (fun pid ->
        let members = parts.(pid) in
        ( pid,
          Array.map (fun v -> dims.(v)) members,
          Array.of_list (List.rev sub_nets_rev.(pid)),
          Array.map (fun v -> rotatable.(v)) members ))
  in
  (* Partition seeds are fixed offsets from the base seed, so results
     are a pure function of (seed, restarts, partition cap) — never of
     the job count.  anneal_group fans its restart lanes out on the same
     pool; nested maps compose on the work-stealing scheduler. *)
  let results =
    Pool.map ?jobs:config.jobs
      (fun (pid, p_dims, p_nets, p_rotatable) ->
        anneal_group ~config ~depth ~dims:p_dims ~nets:p_nets
          ~rotatable:p_rotatable
          ~seed:(config.seed + ((pid + 1) * 7_368_787)))
      sub_problems
  in
  (* Stitch: shelf-pack the partition bounding boxes, largest area
     first (ties by partition id), against a width target that squares
     up the die. *)
  let total_area =
    Array.fold_left (fun a (_, _, _, _, (w, h)) -> a + (w * h)) 0 results
  in
  let target_w =
    max
      (Array.fold_left (fun a (_, _, _, _, (w, _)) -> max a w) 1 results)
      (int_of_float (sqrt (1.2 *. float_of_int total_area)))
  in
  let order = Array.init k (fun i -> i) in
  Array.sort
    (fun a b ->
      let _, _, _, _, (aw, ah) = results.(a)
      and _, _, _, _, (bw, bh) = results.(b) in
      let c = Int.compare (bw * bh) (aw * ah) in
      if c <> 0 then c else Int.compare a b)
    order;
  let offsets = Array.make k (0, 0) in
  let x = ref 0 and y = ref 0 and row_h = ref 0 in
  Array.iter
    (fun pid ->
      let _, _, _, _, (w, h) = results.(pid) in
      if !x + w > target_w && !x > 0 then begin
        x := 0;
        y := !y + !row_h;
        row_h := 0
      end;
      offsets.(pid) <- (!x, !y);
      x := !x + w;
      row_h := max !row_h h)
    order;
  let node_pos = Array.make n (0, 0) in
  let rotated = Array.make n false in
  Array.iteri
    (fun pid members ->
      let _, _, pos, rot, _ = results.(pid) in
      let ox, oy = offsets.(pid) in
      Array.iteri
        (fun li v ->
          let lx, ly = pos.(li) in
          node_pos.(v) <- (ox + lx, oy + ly);
          rotated.(v) <- rot.(li))
        members)
    parts;
  (* Exact packed extents: place_check requires width/height to equal
     the maximum node reach, and each partition's (w, h) is already its
     own packed extent, so the global extent comes straight from the
     placed nodes. *)
  let width = ref 0 and height = ref 0 in
  Array.iteri
    (fun v (px, py) ->
      let dw, dh = dims.(v) in
      let w, h = if rotated.(v) then (dh, dw) else (dw, dh) in
      width := max !width (px + w);
      height := max !height (py + h))
    node_pos;
  let sa_stats =
    let first, _, _, _, _ = results.(0) in
    Array.fold_left
      (fun acc (st, _, _, _, _) ->
        {
          acc with
          Sa.attempted = acc.Sa.attempted + st.Sa.attempted;
          accepted = acc.Sa.accepted + st.Sa.accepted;
          best_cost = acc.Sa.best_cost +. st.Sa.best_cost;
        })
      { first with Sa.attempted = 0; accepted = 0; best_cost = 0. }
      results
  in
  let repacks =
    Array.fold_left (fun acc (_, r, _, _, _) -> acc + r) 0 results
  in
  (sa_stats, repacks, node_pos, rotated, (!width, !height))

let place ?(config = default_config) (g : Pd_graph.t) (flipping : Flipping.t)
    (dual : Dual_bridge.t) (_fvalue : Fvalue.t) =
  let sm =
    match config.z_cap with
    | Some z -> Super_module.build ~z_cap:z g flipping
    | None -> Super_module.build g flipping
  in
  let nodes = sm.Super_module.nodes in
  let n = Array.length nodes in
  if n = 0 then
    (* Zero blocks to place (no CNOTs, no injections): the empty
       placement on a degenerate 0x0 die.  Depth stays at the checker's
       floor of 2 so the from-scratch recompute agrees; volume and
       wirelength are 0. *)
    {
      sm;
      node_pos = [||];
      rotated = [||];
      width = 0;
      height = 0;
      depth = 2;
      volume = 0;
      wirelength = 0;
      sa_stats =
        { Sa.attempted = 0; accepted = 0; best_cost = 0.; final_temperature = 0. };
      repacks = 0;
    }
  else
  let depth =
    max 2
      (Array.fold_left (fun acc nd -> max acc nd.Super_module.nd_d) 2 nodes)
  in
  let dims =
    Array.map (fun nd -> (nd.Super_module.nd_w, nd.Super_module.nd_h)) nodes
  in
  let nets = build_nets g sm dual in
  match config.strategy with
  | Force_directed ->
      let iterations =
        match config.effort with Quick -> 10 | Normal -> 40 | Full -> 120
      in
      let pos, (width, height) =
        force_directed ~iterations ~beta:config.beta dims nets
      in
      {
        sm;
        node_pos = pos;
        rotated = Array.make n false;
        width;
        height;
        depth;
        volume = width * height * depth;
        wirelength = hpwl nets pos;
        sa_stats =
          {
            Sa.attempted = iterations;
            accepted = iterations;
            best_cost = float_of_int (width * height * depth);
            final_temperature = 0.;
          };
        repacks = 0;
      }
  | Annealing ->
      (* Time-dependent and distillation-injection super-modules keep
         their internal sequence along the time (x) axis: never rotate
         them. *)
      let rotatable =
        Array.map
          (fun nd ->
            match nd.Super_module.nd_kind with
            | Super_module.Plain _ | Super_module.Chain _ -> true
            | Super_module.Time_sm _ | Super_module.Distill_sm _ -> false)
          nodes
      in
      let sa_stats, repacks, node_pos, rotated, (width, height) =
        match config.partition with
        | Some cap when n > max 1 cap ->
            place_partitioned ~config ~depth ~dims ~nets ~rotatable
              ~cap:(max 1 cap)
        | None when n > max 1 config.auto_partition ->
            (* nobody asked for partitioning, but the instance is past
               the threshold where monolithic annealing stops scaling:
               pick the cap automatically.  Same dispatch guard as the
               explicit case, so [auto_partition >= n] — like
               [Some cap >= n] — reproduces the single-die placement
               bit for bit. *)
            place_partitioned ~config ~depth ~dims ~nets ~rotatable
              ~cap:(max 1 config.auto_partition)
        | _ -> anneal_group ~config ~depth ~dims ~nets ~rotatable
                 ~seed:config.seed
      in
      {
        sm;
        node_pos;
        rotated;
        width;
        height;
        depth;
        volume = width * height * depth;
        wirelength = hpwl nets node_pos;
        sa_stats;
        repacks;
      }

let module_cell p m =
  Super_module.module_cell p.sm ~node_pos:p.node_pos
    ~rotated:(fun n -> p.rotated.(n))
    m

let pin_cell ?(opposite = false) p fvalue flipping m =
  let point = flipping.Flipping.point_of.(m) in
  let flipped = point >= 0 && Fvalue.flipped fvalue point in
  let flipped = if opposite then not flipped else flipped in
  Super_module.pin_cell p.sm ~node_pos:p.node_pos
    ~rotated:(fun n -> p.rotated.(n))
    ~flipped m

let node_box p n =
  let nd = p.sm.Super_module.nodes.(n) in
  let x, y = p.node_pos.(n) in
  let w, h =
    if p.rotated.(n) then (nd.Super_module.nd_h, nd.Super_module.nd_w)
    else (nd.Super_module.nd_w, nd.Super_module.nd_h)
  in
  Box3.make (Vec3.make x y 0)
    (Vec3.make (x + w - 1) (y + h - 1) (nd.Super_module.nd_d - 1))

let check p =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Array.length p.sm.Super_module.nodes in
  let dims =
    Array.init n (fun i ->
        let nd = p.sm.Super_module.nodes.(i) in
        if p.rotated.(i) then (nd.Super_module.nd_h, nd.Super_module.nd_w)
        else (nd.Super_module.nd_w, nd.Super_module.nd_h))
  in
  if Bstar_tree.overlaps p.node_pos dims then err "node footprints overlap";
  Array.iteri
    (fun i (x, y) ->
      let w, h = dims.(i) in
      if x < 0 || y < 0 || x + w > p.width || y + h > p.height then
        err "node %d outside the die" i)
    p.node_pos;
  (* time-SM modules must be x-monotone in time order *)
  Array.iter
    (fun nd ->
      match nd.Super_module.nd_kind with
      | Super_module.Time_sm { modules; _ } ->
          let xs =
            List.map (fun m -> (module_cell p m).Vec3.x) modules
          in
          let rec mono = function
            | a :: (b :: _ as rest) -> a < b && mono rest
            | _ -> true
          in
          if not (mono xs) then
            err "time super-module %d order violated" nd.Super_module.nd_id
      | _ -> ())
    p.sm.Super_module.nodes;
  List.rev !errors
