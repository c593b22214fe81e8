module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Pool = Tqec_util.Pool

type net = { net_id : int; pins : Vec3.t list }

type config = {
  max_iterations : int;
  initial_penalty : int;
  penalty_growth : int;
  history_increment : int;
  region_margin : int;
  jobs : int option;
  corridor_cells : int;
  corridor_cache : bool;
  debug : bool;
}

let default_config =
  {
    max_iterations = 40;
    initial_penalty = 6;
    penalty_growth = 4;
    history_increment = 2;
    region_margin = 3;
    jobs = None;
    (* Every paper-suite instance routes in well under this volume, so
       the hierarchical path never perturbs their bit-identical
       dense-era routes; scale-tier substrates blow past it. *)
    corridor_cells = 1_000_000;
    (* Reusing coarse corridors across negotiation iterations is pure
       optimization — every cache hit is provably identical to
       recomputing (see [route_net]) — so it defaults on; the off
       switch exists for cross-checking. *)
    corridor_cache = true;
    (* Per-call, never ambient: a long-running server routes many
       requests with different settings, so the debug switch lives in
       the config (the CLI layer defaults it from TQEC_DEBUG). *)
    debug = false;
  }

type routed = { r_net : int; r_cells : Vec3.t list }

type result = {
  routes : routed list;
  success : bool;
  iterations_used : int;
  overused_after : int;
  unrouted : int list;
}

let dedup_cells cells =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.add seen c ();
        true
      end)
    cells

(* Every domain keeps its own A* workspace: route_net is called
   concurrently from a batch's [Pool.map], and the scratch holds the
   open queue and score arrays.  A helper domain lives for one map, so
   its scratch starts empty and grows on each batch (counted as
   [scratch_grows]); the caller's persists across the run. *)
let scratch_key = Domain.DLS.new_key Astar.create_scratch

(* Beside it, each domain's corridor-cache key scratch: the source tiles
   already listed while a key is built.  Only the corridor path takes
   it, and [Hashtbl.clear] keeps its grown bucket table. *)
let key_seen_key : (int, unit) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

(* ------------------------------------------------------------------ *)
(* Corridor cache.                                                     *)
(*                                                                     *)
(* [Astar.coarse_corridor] is a pure function of: the ordered          *)
(* deduplicated list of in-region source tiles, the target tile, the   *)
(* region, and the grid's tile summaries (its congestion penalty is    *)
(* pinned to [Astar.coarse_penalty], and it ignores [avoid_used] and   *)
(* [exclude] — both are fine-pass concerns).  The first three form the *)
(* cache key; the summaries are covered by the grid's tile summary     *)
(* generations: an entry stamped at generation [s] is replayable iff   *)
(* no tile overlapping the region was summary-mutated after [s]        *)
(* ([Grid.region_unchanged_since]).  A hit therefore yields exactly    *)
(* the corridor a fresh coarse search would compute — routes are       *)
(* bit-identical with the cache on or off, for any worker count; only  *)
(* the work saved differs.                                             *)
(*                                                                     *)
(* Tables are per-net: a net is routed by exactly one map task per     *)
(* iteration, so its table is never touched concurrently; [Pool.map]'s *)
(* join orders accesses across iterations.                             *)
(*                                                                     *)
(* A generation stamp alone would self-invalidate on every reroute:    *)
(* the net's own claim (+1 along its path) and the rip-up that         *)
(* precedes the next reroute (-1 along that same path) cancel exactly  *)
(* in every cell and summary, yet both bump generations.  The cache    *)
(* therefore reasons about the EFFECTIVE coarse input — grid state     *)
(* minus the net's own route, which is precisely what                  *)
(* [Astar.coarse_corridor ~exclude] consumes — and that quantity is    *)
(* invariant under the net's own rip/claim.                            *)
(*                                                                     *)
(* Each entry carries [c_commit]: a generation at which               *)
(*                                                                     *)
(*   grid state  -  the net's own route usage  =  the entry's coarse   *)
(*   effective input                   (per tile, over [key]'s region) *)
(*                                                                     *)
(* is known to hold, and [c_excl]: the net's route list (the physical  *)
(* object stored in [route_all]'s routes table; [[]] when unrouted)    *)
(* at that moment.  An entry is replayable iff no region tile was      *)
(* touched after [c_commit] and the caller's [exclude] is physically   *)
(* the [c_excl] object: nothing at all changed, so the effective       *)
(* input — and hence the corridor a fresh coarse search would return   *)
(* — is unchanged.  Routes stay bit-identical with the cache on or     *)
(* off, for any worker count; only the work saved differs.             *)
(*                                                                     *)
(* [route_all] maintains the equation in brackets around every rip-up  *)
(* and claim of the net: the pre-pass checks the entry is current      *)
(* (nothing foreign touched the region since [c_commit]); the          *)
(* post-pass then advances [c_commit] past the mutation and swaps      *)
(* [c_excl] for the net's new route object — sound because the         *)
(* mutation changed grid state and own-route usage by the same         *)
(* amount.  An entry that misses a bracket's pre-check is DELETED:     *)
(* its route bookkeeping can no longer be trusted, so it could never   *)
(* certify again anyway, and dropping it keeps the table — and every   *)
(* later bracket's pre-pass — sized by the live entries instead of     *)
(* the run's history. *)
type cache_entry = {
  mutable c_commit : int;
  mutable c_excl : Vec3.t list;
  mutable c_keep : bool;
      (* scratch flag carrying the pre-pass verdict of a rip/claim
         bracket to its post-pass; meaningless outside a bracket *)
  c_corridor : int list;
}

type corridor_cache = (int list * int * Box3.t, cache_entry) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Tile-summary-guided region growth.                                  *)
(*                                                                     *)
(* When a corridor search fails, the window must widen.  The historic  *)
(* schedule inflated uniformly (margin, then 4*margin, then the whole  *)
(* grid); on large substrates this wastes most of the added volume on  *)
(* directions that are full or walled off.  Instead, spend the same    *)
(* total growth budget directionally: sum the free capacity            *)
(* ([Grid.tile_free]) of the one-tile slab beyond each of the six      *)
(* faces and divide the budget proportionally, so the window grows     *)
(* toward under-used volume first.  Deterministic integer arithmetic   *)
(* over the searched grid's tile summaries — jobs-invariant by the     *)
(* same argument as the searches themselves.  Returns [None] when      *)
(* every slab is exhausted (callers fall back to the uniform           *)
(* schedule). *)
let guided_widen grid ~margin region =
  let tdx, tdy, tdz = Grid.tile_dims grid in
  let lo = (Grid.box grid).Box3.lo in
  let edge = Grid.tile_edge in
  let rlo = region.Box3.lo and rhi = region.Box3.hi in
  let tlx = (rlo.Vec3.x - lo.Vec3.x) / edge
  and tly = (rlo.Vec3.y - lo.Vec3.y) / edge
  and tlz = (rlo.Vec3.z - lo.Vec3.z) / edge in
  let thx = min (tdx - 1) ((rhi.Vec3.x - lo.Vec3.x) / edge)
  and thy = min (tdy - 1) ((rhi.Vec3.y - lo.Vec3.y) / edge)
  and thz = min (tdz - 1) ((rhi.Vec3.z - lo.Vec3.z) / edge) in
  let sum_slab x0 x1 y0 y1 z0 z1 =
    if x0 < 0 || y0 < 0 || z0 < 0 || x1 >= tdx || y1 >= tdy || z1 >= tdz then 0
    else begin
      let s = ref 0 in
      for x = x0 to x1 do
        for y = y0 to y1 do
          for z = z0 to z1 do
            s := !s + Grid.tile_free grid ((((x * tdy) + y) * tdz) + z)
          done
        done
      done;
      !s
    end
  in
  (* face order: x-, x+, y-, y+, z-, z+ *)
  let free =
    [|
      sum_slab (tlx - 1) (tlx - 1) tly thy tlz thz;
      sum_slab (thx + 1) (thx + 1) tly thy tlz thz;
      sum_slab tlx thx (tly - 1) (tly - 1) tlz thz;
      sum_slab tlx thx (thy + 1) (thy + 1) tlz thz;
      sum_slab tlx thx tly thy (tlz - 1) (tlz - 1);
      sum_slab tlx thx tly thy (thz + 1) (thz + 1);
    |]
  in
  let total = Array.fold_left ( + ) 0 free in
  if total = 0 then None
  else begin
    (* same total budget as the uniform step (3*margin more per face
       past the margin-inflated window), spent proportionally; the
       integer remainder goes to the freest faces, ties broken by face
       index — all deterministic *)
    let budget = 18 * margin in
    let extra = Array.map (fun f -> budget * f / total) free in
    let rem = budget - Array.fold_left ( + ) 0 extra in
    let order = [| 0; 1; 2; 3; 4; 5 |] in
    Array.sort
      (fun a b ->
        match Int.compare free.(b) free.(a) with
        | 0 -> Int.compare a b
        | c -> c)
      order;
    for i = 0 to rem - 1 do
      let f = order.(i) in
      extra.(f) <- extra.(f) + 1
    done;
    Some
      (Box3.make
         (Vec3.make (rlo.Vec3.x - extra.(0)) (rlo.Vec3.y - extra.(2))
            (rlo.Vec3.z - extra.(4)))
         (Vec3.make (rhi.Vec3.x + extra.(1)) (rhi.Vec3.y + extra.(3))
            (rhi.Vec3.z + extra.(5))))
  end

(* Route one net as a Steiner tree; returns its cell set (or None when a
   pin is unreachable even with the widest region).  Only reads [grid] —
   in a batch iteration the net is still claimed there, so its own
   current route is priced out via [exclude] (a -1 usage bias inside A*,
   exactly equivalent to ripping the net up first). *)
let route_net ?(avoid_used = false) ?(exclude = []) ?(corridor_cells = max_int)
    ?(cache : corridor_cache option) grid ~penalty ~margin (n : net) =
  match dedup_cells n.pins with
  | [] -> Some []
  | first :: rest ->
      let scratch = Domain.DLS.get scratch_key in
      let grid_box = Grid.box grid in
      let clip b =
        match Box3.inter b grid_box with Some r -> r | None -> grid_box
      in
      (* newest cell first: the order the searches take as sources *)
      let tree = ref [ first ] in
      let tree_set = Hashtbl.create 64 in
      Hashtbl.replace tree_set first ();
      (* Prim order, kept incrementally: the first [n_left] entries of
         [pins] are the unconnected pins, each with its Manhattan
         distance to the tree and its nearest tree cell — the newest
         one among equals.  Only the cells a connect adds can improve
         either, so each is checked against every remaining pin once. *)
      let pins = Array.of_list rest in
      let n_left = ref (Array.length pins) in
      let dist = Array.map (Vec3.manhattan first) pins in
      let nearest = Array.make (Array.length pins) first in
      let add_cells cells =
        List.iter
          (fun c ->
            if not (Hashtbl.mem tree_set c) then begin
              Hashtbl.replace tree_set c ();
              tree := c :: !tree;
              for i = 0 to !n_left - 1 do
                let d = Vec3.manhattan c pins.(i) in
                if d <= dist.(i) then begin
                  dist.(i) <- d;
                  nearest.(i) <- c
                end
              done
            end)
          cells
      in
      (* Remove and return the remaining pin closest to the tree, ties
         broken by [Vec3.compare] — distinct pins make the order
         total — with its nearest tree cell. *)
      let take_closest () =
        let best = ref 0 in
        for i = 1 to !n_left - 1 do
          let c = Int.compare dist.(i) dist.(!best) in
          if c < 0 || (c = 0 && Vec3.compare pins.(i) pins.(!best) < 0) then
            best := i
        done;
        let b = !best and last = !n_left - 1 in
        let pin = pins.(b) and near = nearest.(b) and d = dist.(b) in
        pins.(b) <- pins.(last);
        nearest.(b) <- nearest.(last);
        dist.(b) <- dist.(last);
        n_left := last;
        (pin, near, d)
      in
      let connect (pin, near, d) =
        (* distance 0: the pin already lies on the tree *)
        if d = 0 then true
        else begin
          (* restrict the search to the corridor between the pin and the
             nearest point of the tree, widening on failure *)
          let corridor = Box3.bounding [ pin; near ] in
          (* Small windows take the historical flat search (bit-identical
             routes).  Past the volume threshold, a coarse corridor over
             the tile graph bounds the fine search; if the corridor is
             infeasible at cell level, fall back to the exhaustive
             full-window search so completeness is unchanged. *)
          (* Hierarchical search with the corridor cache consulted
             first.  A replayed corridor is exactly what a fresh coarse
             search would compute (see the [corridor_cache] contract
             above), so the fine pass — and with it the route — cannot
             tell a hit from a recomputation. *)
          let hier_search region =
            match cache with
            | None ->
                Astar.search_corridor ~scratch ~avoid_used ~exclude grid
                  ~region ~penalty ~sources:!tree ~target:pin
            | Some tbl -> (
                let key_seen = Domain.DLS.get key_seen_key in
                Hashtbl.clear key_seen;
                let tiles = ref [] in
                List.iter
                  (fun s ->
                    if Box3.contains region s then begin
                      let ti = Grid.tile_index grid s in
                      if not (Hashtbl.mem key_seen ti) then begin
                        Hashtbl.add key_seen ti ();
                        tiles := ti :: !tiles
                      end
                    end)
                  !tree;
                let key_tiles = List.rev !tiles in
                let key = (key_tiles, Grid.tile_index grid pin, region) in
                match Hashtbl.find_opt tbl key with
                | Some e
                  when e.c_excl == exclude
                       && Grid.region_unchanged_since grid ~since:e.c_commit
                            region ->
                    Atomic.incr Counters.cache_hits;
                    Astar.fine_in_corridor ~avoid_used ~exclude scratch grid
                      ~corridor:e.c_corridor ~region ~penalty ~sources:!tree
                      ~target:pin
                | stale -> (
                    Atomic.incr Counters.cache_misses;
                    if stale <> None then Atomic.incr Counters.cache_stale;
                    let stamp = Grid.generation grid in
                    match
                      (* the key's tile list doubles as the coarse seed
                         list — same derivation, walked once *)
                      Astar.coarse_corridor ~exclude ~source_tiles:key_tiles
                        scratch grid ~region ~sources:!tree ~target:pin
                    with
                    | None -> None
                    | Some corridor ->
                        (* the equation holds right now by construction:
                           the coarse just consumed grid-minus-[exclude],
                           and [exclude] is the net's current route *)
                        Hashtbl.replace tbl key
                          { c_commit = stamp; c_excl = exclude;
                            c_keep = false; c_corridor = corridor };
                        Astar.fine_in_corridor ~avoid_used ~exclude scratch
                          grid ~corridor ~region ~penalty ~sources:!tree
                          ~target:pin))
          in
          let try_region region =
            if Box3.volume region <= corridor_cells then
              Astar.search ~scratch ~avoid_used ~exclude grid ~region ~penalty
                ~sources:!tree ~target:pin
            else
              match hier_search region with
              | Some path -> Some path
              | None ->
                  Atomic.incr Counters.flat_fallbacks;
                  Astar.search ~scratch ~avoid_used ~exclude grid ~region
                    ~penalty ~sources:!tree ~target:pin
          in
          (* Escalation ladder, each region clipped to the grid.  A step
             whose clipped region does not strictly grow past the previous
             failed one would repeat the identical (and most expensive)
             search, so it is skipped: when the margin-inflated corridor
             already covers the grid, the failed search is final. *)
          let r1 = clip (Box3.inflate margin corridor) in
          (* Middle widening step: windows small enough for the flat
             search keep the historic uniform schedule (bit-identical
             routes on paper-suite instances); hierarchical windows
             grow toward free capacity instead, falling back to the
             uniform step when every neighboring tile slab is full.
             The full grid box remains the final fallback either
             way. *)
          let r2 =
            if Box3.volume r1 > corridor_cells then
              match guided_widen grid ~margin r1 with
              | Some r -> clip r
              | None -> clip (Box3.inflate (4 * margin) corridor)
            else clip (Box3.inflate (4 * margin) corridor)
          in
          let regions = [ r1; r2; grid_box ] in
          let rec attempt prev = function
            | [] -> None
            | r :: rest ->
                if (match prev with Some p -> Box3.equal p r | None -> false)
                then attempt prev rest
                else (
                  match try_region r with
                  | Some path -> Some path
                  | None -> attempt (Some r) rest)
          in
          match attempt None regions with
          | Some path ->
              add_cells path;
              true
          | None -> false
        end
      in
      let ok = ref true in
      while !ok && !n_left > 0 do
        ok := connect (take_closest ())
      done;
      if !ok then Some (List.rev !tree) else None

(* Negotiated congestion with batch/commit iterations (parallel
   PathFinder): a batch iteration routes the nets under negotiation
   concurrently against the congestion state as it stood at the top of
   the iteration (each with its own previous route priced out), then
   rips up and commits their claims serially in deterministic net order.
   Conflicts the frozen state hides from the concurrent searches surface
   as overuse at commit and are renegotiated on the next iteration.
   Because every net is routed against the same state and the commit
   order is the (deterministic) net order, the trajectory is
   bit-identical for any worker count — including fully serial runs.

   The frozen state is the live grid itself, with no copy: during the
   batch's [Pool.map], [route_net] only reads [grid] ([Grid.probe], the
   tile summaries, [Grid.generation] and [Grid.region_unchanged_since]).
   Its writes go only to the per-domain A* scratch ([Domain.DLS]), the
   net's own corridor-cache table (one task per net) and atomic
   counters.  [Pool.map]'s spawn and join order the commit loop's
   writes before and after the batch. *)
let route_all grid config nets =
  List.iter
    (fun (name, v) ->
      if v < 0 then invalid_arg (Printf.sprintf "Pathfinder.route_all: negative %s" name))
    [
      ("initial_penalty", config.initial_penalty);
      ("penalty_growth", config.penalty_growth);
      ("history_increment", config.history_increment);
    ];
  let routes : (int, Vec3.t list) Hashtbl.t = Hashtbl.create 64 in
  let rip_up net_id =
    match Hashtbl.find_opt routes net_id with
    | None -> ()
    | Some cells ->
        List.iter (fun c -> Grid.add_usage grid c (-1)) cells;
        Hashtbl.remove routes net_id
  in
  let claim net_id cells =
    List.iter (fun c -> Grid.add_usage grid c 1) cells;
    Hashtbl.replace routes net_id cells
  in
  let unrouted = ref [] in
  let iterations_used = ref 0 in
  let finished = ref false in
  let penalty = ref config.initial_penalty in
  (* biggest nets first: they have the least routing freedom *)
  let nets =
    List.stable_sort
      (fun a b -> Int.compare (List.length b.pins) (List.length a.pins))
      nets
  in
  let route_set = ref nets in
  (* Corridor-cache tables, one per net, allocated up front: a net is
     routed by exactly one map task per iteration, so a task only ever
     mutates its own net's table, and the outer table is read-only
     after this point ([Hashtbl.find_opt] from concurrent tasks is
     safe).  Entries self-invalidate via the summary generations — see
     the [corridor_cache] contract. *)
  let caches =
    if config.corridor_cache then begin
      let t = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace t n.net_id (Hashtbl.create 8)) nets;
      Some t
    end
    else None
  in
  let cache_of n =
    match caches with
    | None -> None
    | Some t -> Hashtbl.find_opt t n.net_id
  in
  (* Rip/claim brackets maintaining the [c_commit]/[c_excl] equation
     (see the cache contract above).  Each bracket is a pre-pass over
     the net's entries, the usage mutation itself, and a
     post-pass; the grid is quiescent across each bracket (these run
     only in the serial phases and the serialized batch-commit loop).
     [excl_after] is the net's route object right after the mutation:
     [[]] for a rip-up, the claimed cell list for a claim.  Per-entry
     updates commute, so the tables' iteration order never reaches any
     output. *)
  let bracket n excl_after mutate =
    match cache_of n with
    | None -> mutate ()
    | Some tbl ->
        (* hash-order: per-entry flag/stamp writes are independent of
           the order entries are visited in *)
        Hashtbl.iter
          (fun (_, _, region) e ->
            e.c_keep <-
              Grid.region_unchanged_since grid ~since:e.c_commit region)
          tbl;
        mutate ();
        let now = Grid.generation grid in
        (* Entries that fail the pre-pass can never certify again (the
           window moved for good), so they are deleted rather than
           poisoned.  A multi-pin net mints fresh keys every iteration as
           its routed tree changes, so keeping dead entries would grow
           the table — and with it every later bracket's pre-pass —
           linearly in iterations. *)
        let dead = ref [] in
        (* hash-order: same argument — order-independent per-entry
           writes; the dead list only feeds unordered removals *)
        Hashtbl.iter
          (fun k e ->
            if e.c_keep then begin
              e.c_commit <- now;
              e.c_excl <- excl_after
            end
            else dead := k :: !dead)
          tbl;
        List.iter (Hashtbl.remove tbl) !dead
  in
  let rip net = bracket net [] (fun () -> rip_up net.net_id) in
  let claim_net net cells = bracket net cells (fun () -> claim net.net_id cells) in
  (* Batch routing can sustain a lock-step oscillation: two symmetric
     nets avoiding each other's stale position swap cells forever, each
     move depositing history on both alternatives equally.  Serial
     incremental rerouting is immune (the second net reacts to the
     first's new route), so small conflict batches — where parallelism
     buys nothing anyway — and stagnating negotiations fall back to it.
     Both triggers depend only on the trajectory, never on timing or the
     worker count, so determinism is preserved. *)
  let serial_batch_cutoff = 4 in
  let stagnation_limit = 3 in
  let best_overused = ref max_int in
  let stagnant = ref 0 in
  while (not !finished) && !iterations_used < config.max_iterations do
    incr iterations_used;
    let batch = Array.of_list !route_set in
    let penalty_now = !penalty and margin = config.region_margin in
    let still_unrouted = ref [] in
    if
      !iterations_used = 1
      || Array.length batch <= serial_batch_cutoff
      || !stagnant >= stagnation_limit
    then
      (* The first iteration defines the initial solution: route it
         incrementally (each net sees every earlier commitment) exactly
         like classic serial PathFinder — a blind first-iteration batch
         measurably degrades final volume.  Small or stagnating conflict
         batches take the same path to break batch oscillations.  This
         phase is sequential for every worker count, so determinism is
         free. *)
      Array.iter
        (fun n ->
          rip n;
          match
            route_net ~corridor_cells:config.corridor_cells
              ?cache:(cache_of n) grid ~penalty:penalty_now ~margin n
          with
          | Some cells -> claim_net n cells
          | None -> still_unrouted := n.net_id :: !still_unrouted)
        batch
    else begin
      (* pin the old routes down before fanning out: tasks must not
         read the mutable [routes] table *)
      let work =
        Array.map
          (fun n ->
            (n, Option.value ~default:[] (Hashtbl.find_opt routes n.net_id)))
          batch
      in
      let found =
        Pool.map ?jobs:config.jobs
          (fun (n, exclude) ->
            route_net ~corridor_cells:config.corridor_cells
              ?cache:(cache_of n) grid ~exclude ~penalty:penalty_now ~margin n)
          work
      in
      (* commit serially, in batch order: commit order, not completion
         order, decides the trajectory *)
      Array.iteri
        (fun i n ->
          rip n;
          match found.(i) with
          | Some cells -> claim_net n cells
          | None -> still_unrouted := n.net_id :: !still_unrouted)
        batch
    end;
    unrouted := !still_unrouted;
    let overused = Grid.overused grid in
    if List.length overused < !best_overused then begin
      best_overused := List.length overused;
      stagnant := 0
    end
    else incr stagnant;
    if config.debug then
      Printf.eprintf "[pathfinder] iter=%d rerouted=%d overused=%d\n%!"
        !iterations_used (Array.length batch) (List.length overused);
    if overused = [] && !unrouted = [] then finished := true
    else begin
      List.iter
        (fun c -> Grid.add_history grid c config.history_increment)
        overused;
      penalty := !penalty + config.penalty_growth;
      (* negotiate only where it matters: re-route just the nets that
         cross an overused cell (plus any still-unrouted net) *)
      let hot = Hashtbl.create 64 in
      List.iter (fun c -> Hashtbl.replace hot c ()) overused;
      route_set :=
        List.filter
          (fun n ->
            List.mem n.net_id !unrouted
            ||
            match Hashtbl.find_opt routes n.net_id with
            | Some cells -> List.exists (Hashtbl.mem hot) cells
            | None -> true)
          nets
    end
  done;
  (* Endgame cleanup: negotiation can oscillate between net pairs on a
     handful of cells.  Resolve each residual conflict deterministically:
     hard-block the contested cells and reroute the smallest involved
     net around them (restoring its old route if that fails). *)
  let cleanup_rounds = ref 0 in
  let rec cleanup () =
    incr cleanup_rounds;
    let overused = Grid.overused grid in
    if overused <> [] && !cleanup_rounds <= 8 then begin
      let hot = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace hot c ()) overused;
      let involved =
        List.filter
          (fun n ->
            match Hashtbl.find_opt routes n.net_id with
            | Some cells -> List.exists (Hashtbl.mem hot) cells
            | None -> false)
          nets
        |> List.sort (fun a b ->
               Int.compare (List.length a.pins) (List.length b.pins))
      in
      let progressed = ref false in
      let rec try_victims = function
        | [] -> ()
        | victim :: others -> (
            let old = Hashtbl.find routes victim.net_id in
            rip victim;
            match
              route_net ~avoid_used:true
                ~corridor_cells:config.corridor_cells
                ?cache:(cache_of victim) grid ~penalty:!penalty
                ~margin:config.region_margin victim
            with
            | Some cells ->
                claim_net victim cells;
                progressed := true
            | None ->
                claim_net victim old;
                try_victims others)
      in
      try_victims involved;
      if !progressed then cleanup ()
    end
  in
  cleanup ();
  let final_overused = Grid.overused grid in
  if config.debug then
    List.iter
      (fun c ->
        let users =
          List.filter_map
            (fun n ->
              match Hashtbl.find_opt routes n.net_id with
              | Some cells when List.exists (Vec3.equal c) cells ->
                  Some (Printf.sprintf "%d(pins=%d)" n.net_id (List.length n.pins))
              | _ -> None)
            nets
        in
        Printf.eprintf "[pathfinder] stuck %s usage=%d obst-nbrs=%d users=%s\n%!"
          (Vec3.to_string c) (Grid.usage grid c)
          (List.length (List.filter (Grid.is_obstacle grid) (Vec3.axis_neighbors c)))
          (String.concat "," users))
      final_overused;
  let overused_after = List.length final_overused in
  {
    routes =
      List.filter_map
        (fun n ->
          Hashtbl.find_opt routes n.net_id
          |> Option.map (fun cells -> { r_net = n.net_id; r_cells = cells }))
        nets;
    success = overused_after = 0 && !unrouted = [];
    iterations_used = !iterations_used;
    overused_after;
    unrouted = List.rev !unrouted;
  }

let validate grid result nets =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let by_id = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace by_id r.r_net r.r_cells) result.routes;
  (* per-cell usage over all routed nets: the capacity oracle *)
  let usage = Hashtbl.create 256 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          Hashtbl.replace usage c
            (1 + Option.value ~default:0 (Hashtbl.find_opt usage c)))
        r.r_cells)
    result.routes;
  List.iter
    (fun n ->
      match Hashtbl.find_opt by_id n.net_id with
      | None ->
          if not (List.mem n.net_id result.unrouted) then
            err "net %d missing from routes" n.net_id
      | Some cells ->
          let pins = dedup_cells n.pins in
          let pin_set = Hashtbl.create 8 in
          List.iter (fun p -> Hashtbl.replace pin_set p ()) pins;
          (* geometric legality against the grid: every cell inside the
             routing box, and no obstacle crossings except at the net's
             own pins (the only cells A* exempts) *)
          let cell_set = Hashtbl.create 64 in
          List.iter
            (fun c ->
              if Hashtbl.mem cell_set c then
                err "net %d lists cell %s twice" n.net_id (Vec3.to_string c)
              else Hashtbl.replace cell_set c ();
              if not (Grid.in_bounds grid c) then
                err "net %d leaves the routing grid at %s" n.net_id
                  (Vec3.to_string c)
              else if Grid.is_obstacle grid c && not (Hashtbl.mem pin_set c)
              then
                err "net %d passes through obstacle %s" n.net_id
                  (Vec3.to_string c))
            cells;
          List.iter
            (fun pin ->
              if not (Hashtbl.mem cell_set pin) then
                err "net %d does not reach pin %s" n.net_id (Vec3.to_string pin))
            pins;
          (* connectivity by BFS over the cell set *)
          (match cells with
          | [] -> ()
          | start :: _ ->
              let visited = Hashtbl.create 64 in
              let queue = Queue.create () in
              Queue.add start queue;
              Hashtbl.replace visited start ();
              while not (Queue.is_empty queue) do
                let p = Queue.pop queue in
                List.iter
                  (fun q ->
                    if Hashtbl.mem cell_set q && not (Hashtbl.mem visited q)
                    then begin
                      Hashtbl.replace visited q ();
                      Queue.add q queue
                    end)
                  (Vec3.axis_neighbors p)
              done;
              if Hashtbl.length visited <> Hashtbl.length cell_set then
                err "net %d cells disconnected" n.net_id))
    nets;
  (* capacity and overuse accounting: non-shared cells carry at most
     [Grid.capacity] strands, and the result must own up to exactly the
     overuse its routes imply *)
  let over =
    (* hash-order: the overuse list is sorted before reporting *)
    Hashtbl.fold
      (fun c u acc ->
        if u > Grid.capacity && Grid.in_bounds grid c
           && not (Grid.is_shared grid c)
        then (c, u) :: acc
        else acc)
      usage []
    |> List.sort compare
  in
  if result.success then
    List.iter
      (fun (c, u) ->
        err "cell %s carries %d nets (capacity %d)" (Vec3.to_string c) u
          Grid.capacity)
      over;
  if List.length over <> result.overused_after then
    err "overuse accounting: result reports %d overused cells, routes imply %d"
      result.overused_after (List.length over);
  List.rev !errors
