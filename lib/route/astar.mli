(** A* search on the routing grid, within a restricted region.

    Multi-source single-target: the wavefront starts from every source
    cell at cost 0 and ends at the target; the heuristic is the Manhattan
    distance to the target (admissible: every step costs at least 1).
    Obstacle cells and cells outside the region are never expanded;
    source and target cells are exempt from the obstacle test so pins
    adjacent to module walls remain reachable.

    Every pass keeps its open set in a monotone {!Tqec_util.Pqueue}.
    Its precondition, that no push lands below the last popped key,
    holds because an entry costs at least 1 ({!Grid.enter_cost} with a
    non-negative penalty; {!Grid.tile_edge} per tile on the coarse
    graph) while the heuristic changes by at most that much per step.
    {!search}, {!fine_in_corridor} and {!search_corridor} therefore
    raise [Invalid_argument] on a negative [penalty]. *)

(** Reusable search workspace.  One scratch serves any number of
    sequential searches (arrays grow to the largest region seen and are
    invalidated by generation stamps, never cleared); distinct concurrent
    searchers must each own their scratch — it contains the open queue and
    the score arrays, so sharing one across domains is a data race.

    A search cell takes two words, in one int array shared by the flat,
    coarse and fine passes: a meta word packing the search generation,
    the own-route and exempt flags and the direction of the step that
    reached the cell (its parent is the neighbour one step back), and
    the cell's g score.  The heuristic is recomputed from the cell's
    coordinates rather than stored.  Beside the cells the scratch holds a
    tile-indexed map (two words per grid tile, for the coarse and fine
    passes), the open queue and the corridor assembly table; after one
    flat search over an R-cell region, a fresh scratch holds about 2R
    words. *)
type scratch

val create_scratch : unit -> scratch

(** [search grid ~region ~penalty ~sources ~target] returns the cell path
    from some source to [target] (both inclusive), or [None] when
    unreachable within the region or when [max_expansions] pops are
    exhausted (a safety valve against pathological searches).  With
    [avoid_used], cells already at capacity are treated as blocked, so a
    found path can never create overuse (the cleanup mode of the
    negotiation loop).  [exclude] lists cells priced as if their usage
    were one lower ({!Grid.probe} with [dusage = -1]) — the searching
    net's own current route, so a search over a grid that still holds
    that route costs a re-route exactly like ripping the net up first;
    it biases cost only and does not interact with the [avoid_used]
    passability test (the negotiation loop never combines the two).
    [scratch] reuses a caller-owned workspace instead of allocating
    fresh arrays; results are identical either way. *)
val search :
  ?scratch:scratch ->
  ?max_expansions:int ->
  ?avoid_used:bool ->
  ?exclude:Tqec_util.Vec3.t list ->
  Grid.t ->
  region:Tqec_util.Box3.t ->
  penalty:int ->
  sources:Tqec_util.Vec3.t list ->
  target:Tqec_util.Vec3.t ->
  Tqec_util.Vec3.t list option

(** The fixed congestion penalty of the coarse tile-graph pass.  The
    coarse corridor choice is a guide (the fine pass re-establishes
    feasibility and exact costs), so it deliberately does NOT track the
    negotiation loop's growing penalty: with the penalty pinned, a
    coarse result is a function of (source tiles, target tile, region,
    tile summaries) alone, which is what makes corridors cacheable
    across iterations and shareable between negotiation and cleanup. *)
val coarse_penalty : int

(** [coarse_corridor scr grid ~region ~sources ~target] runs the coarse
    tile-graph A* (6-neighbor adjacency; costs from the per-tile
    congestion summaries {!Grid.tile_congestion} at {!coarse_penalty},
    fully obstacled tiles impassable) and returns the corridor — the
    coarse path's tiles plus their in-region axis neighbors, as tile
    indices in deterministic discovery order — or [None] when the
    coarse graph offers no path or the target lies outside [region]
    (clipped to the grid box).

    [exclude] prices the net's own current route out of the tile
    congestion (per-tile count subtraction of the cells' own +1 usage)
    — the coarse analogue of the fine pass's own-route bias, and the
    property that makes the coarse effective input invariant under the
    net's own rip-up/re-claim.

    Determinism contract for the corridor cache: the result depends
    only on the ordered deduplicated list of in-region source tiles,
    the target tile, the (clipped) region, the grid's tile summaries,
    and the per-tile counts of in-region [exclude] cells — covered by
    the cache key plus the tile summary generations
    ({!Grid.region_unchanged_since}) plus the cache's commit-stamp
    bookkeeping over the net's own route.

    [source_tiles], when given, must be that same ordered deduplicated
    in-region source-tile list (the cache key's first component); the
    coarse pass then seeds from it directly instead of re-deriving it
    from [sources], with a bit-identical search either way.  Callers
    that have not already computed the list should omit it. *)
val coarse_corridor :
  ?exclude:Tqec_util.Vec3.t list ->
  ?source_tiles:int list ->
  scratch ->
  Grid.t ->
  region:Tqec_util.Box3.t ->
  sources:Tqec_util.Vec3.t list ->
  target:Tqec_util.Vec3.t ->
  int list option

(** [fine_in_corridor scr grid ~corridor ~region ~penalty ~sources
    ~target] runs the fine cell-level A* restricted to the cells of
    [corridor] (a {!coarse_corridor} result — freshly computed or
    replayed from a cache; the path depends only on the corridor's
    content).  Scratch scales with the corridor volume.  Cost semantics
    ([penalty], [avoid_used], [exclude], obstacle exemption of sources
    and target) match {!search}.  [None] when the corridor is
    infeasible at cell level or the target lies outside it. *)
val fine_in_corridor :
  ?max_expansions:int ->
  ?avoid_used:bool ->
  ?exclude:Tqec_util.Vec3.t list ->
  scratch ->
  Grid.t ->
  corridor:int list ->
  region:Tqec_util.Box3.t ->
  penalty:int ->
  sources:Tqec_util.Vec3.t list ->
  target:Tqec_util.Vec3.t ->
  Tqec_util.Vec3.t list option

(** [search_corridor grid ~region ~penalty ~sources ~target] is the
    hierarchical variant of {!search} for large regions —
    {!coarse_corridor} composed with {!fine_in_corridor}: the coarse
    pass picks a corridor and the fine cell-level search then runs
    restricted to corridor cells, with scratch sized by the corridor
    volume instead of the region's bounding volume.

    Returns [None] when the coarse graph offers no path, when the
    corridor turns out infeasible at cell level, or when the target
    falls outside [region]: the caller is expected to fall back to the
    exhaustive {!search} over the full window.  Cost semantics
    (penalty, [avoid_used], [exclude], obstacle exemption of sources
    and target) match {!search}, but the returned path may differ from
    {!search}'s on equal-cost ties — callers gating on a region-volume
    threshold keep small instances bit-identical to the flat search. *)
val search_corridor :
  ?scratch:scratch ->
  ?max_expansions:int ->
  ?avoid_used:bool ->
  ?exclude:Tqec_util.Vec3.t list ->
  Grid.t ->
  region:Tqec_util.Box3.t ->
  penalty:int ->
  sources:Tqec_util.Vec3.t list ->
  target:Tqec_util.Vec3.t ->
  Tqec_util.Vec3.t list option

(** [path_cost grid ~penalty path] sums entry costs along a path,
    excluding the first cell (test oracle: A* returns minimal-cost
    paths). *)
val path_cost : Grid.t -> penalty:int -> Tqec_util.Vec3.t list -> int
