(** Negotiation-based rip-up and re-route (PathFinder, McMurchie &
    Ebeling FPGA'95), the paper's dual-defect net routing stage.

    Every iteration re-routes each multi-pin net with A* inside a
    restricted region (the net's pin bounding box plus a margin that
    grows on failure), building the net as a Steiner tree: pins connect
    one at a time to the growing tree.  After an iteration, cells used
    beyond capacity receive history cost and the congestion penalty
    grows; the loop ends when no cell is overused or the iteration
    budget is exhausted.

    Iterations after the first follow the batch/commit recipe of
    parallel PathFinder: the nets under negotiation are routed
    concurrently over {!Tqec_util.Pool} against the congestion state as
    it stood at the top of the iteration (the grid itself, which nothing
    writes until the batch is done), then ripped up and committed
    serially in deterministic net order.  Conflicts hidden by the frozen
    state surface as overuse at commit time and are renegotiated next
    iteration, so the trajectory — routes, iteration count and residual
    overuse — is bit-identical for every worker count. *)

type net = { net_id : int; pins : Tqec_util.Vec3.t list }

type config = {
  max_iterations : int;
  initial_penalty : int;
  penalty_growth : int;  (** added to the penalty each iteration *)
  history_increment : int;
  region_margin : int;
  jobs : int option;
      (** worker domains for the per-iteration net batch; [None] is the
          machine's domain count, [Some 1] routes the batch serially
          (same results either way) *)
  corridor_cells : int;
      (** search-window volume (in cells) above which a connection takes
          the hierarchical path: a coarse corridor over the grid's tile
          graph bounds the fine A*, falling back to the exhaustive flat
          search when the corridor proves infeasible
          ({!Astar.search_corridor}).  Windows at or below the threshold
          always use the flat search, so results on them are
          bit-identical to the historical dense-grid router.  The
          default (1M cells) exceeds every paper-suite instance;
          [max_int] disables the hierarchical path entirely. *)
  corridor_cache : bool;
      (** reuse coarse corridors across negotiation iterations (default
          [true]).  A per-net cache keyed on (ordered in-region source
          tiles, target tile, region) replays a stored corridor when
          the grid's per-tile summary generations prove no coarse-search
          input changed since it was computed
          ({!Grid.region_unchanged_since}); the coarse tile-graph A* is
          then skipped and the fine in-corridor search runs directly.
          Every hit is provably identical to recomputing, so routes are
          bit-identical with the cache on or off and for any worker
          count — [false] exists for cross-checks and benchmark
          baselines ({!Counters} reports hit/miss/stale rates). *)
  debug : bool;
      (** per-iteration negotiation trace on stderr.  A config field —
          not an ambient environment read — so concurrent callers (a
          serving daemon handling several requests) stay isolated; the
          CLI layer defaults it from [TQEC_DEBUG]. *)
}

val default_config : config

type routed = {
  r_net : int;
  r_cells : Tqec_util.Vec3.t list;  (** all cells of the net's tree *)
}

type result = {
  routes : routed list;
  success : bool;  (** true when nothing is overused and all nets routed *)
  iterations_used : int;
  overused_after : int;
  unrouted : int list;  (** nets with unreachable pins, if any *)
}

(** [route_all grid config nets] routes every net; [grid] retains the
    final usage state. Nets with fewer than 2 distinct pins route
    trivially to their pin set.
    @raise Invalid_argument when [initial_penalty], [penalty_growth] or
    [history_increment] is negative: each would let an entry cost fall
    below the floor of 1 that {!Astar} relies on.  Also when a cell's
    usage or history would pass the grid's 65,535 ceiling
    ({!Grid.add_history}); history grows by at most
    [history_increment] per iteration, to 80 under {!default_config}. *)
val route_all : Grid.t -> config -> net list -> result

(** [release_scratch ()] drops the calling domain's search workspace:
    the A* scratch, sized by the largest region the domain has searched,
    and the corridor-cache key table.  [route_all] keeps both across its
    negotiation iterations and across back-to-back calls on one domain;
    a caller that is done routing releases them, and the next search on
    the domain starts from an empty scratch (counted in
    {!Counters.stats}' [scratch_grows]). *)
val release_scratch : unit -> unit

(** [validate grid result nets] checks routing legality against the grid:
    every routed net's cell set is connected, touches all its pins, stays
    inside the routing box, crosses obstacles only at the net's own pins,
    and no non-shared cell carries more than {!Grid.capacity} nets beyond
    what [result.overused_after] admits.  Returns error strings; [] means
    the result is sound.  [grid] must carry the same obstacle and shared
    masks the routes were produced against (its usage state is not
    consulted). *)
val validate : Grid.t -> result -> net list -> string list
