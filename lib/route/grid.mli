(** 3D routing grid with PathFinder-style congestion bookkeeping, stored
    as a chunked sparse volume.

    Each unit cell has capacity 1 (one dual strand), a present usage
    count, an accumulated history cost, and an obstacle flag (primal
    module cores and distillation boxes).  The negotiated-congestion cost
    of entering a cell is

    [base + history + penalty * max 0 (usage + 1 - capacity)]

    so shared cells become increasingly expensive across iterations.

    Storage is tiled: the bounding box is carved into {!tile_edge}^3
    chunks allocated on first touch through a flat tile directory, so
    memory scales with the touched (routed/obstacled) volume instead of
    the substrate volume.  Untouched cells read as usage 0, history 0, no
    obstacle, not shared.  A tile starts with one flag byte per cell
    (bit 0 obstacle, bit 1 shared) and nothing else.  Usage and history
    are 16-bit cells, so each is at most 65,535: a tile allocates its
    usage array (2 bytes per cell) on its first {!add_usage} and its
    history array on its first {!add_history}, and both refuse a value
    above the ceiling.  The tiles of module cores and pins, and every
    tile of a grid rebuilt for checking, never hold either array.  Each
    tile also carries incrementally maintained summaries (total usage +
    history, obstacle count) that the hierarchical corridor search reads
    as tile-level capacity signals. *)

type t

(** [create ?die box] allocates the tile directory (no tiles yet).  Cells
    outside [die] (the placement bounding box) cost extra to enter, so
    wires spill out of the die — growing the space-time volume — only
    under real congestion pressure. *)
val create : ?die:Tqec_util.Box3.t -> Tqec_util.Box3.t -> t

val box : t -> Tqec_util.Box3.t

(** The extra-cost boundary passed to {!create} ([box] when omitted). *)
val die : t -> Tqec_util.Box3.t

val in_bounds : t -> Tqec_util.Vec3.t -> bool

val set_obstacle : t -> Tqec_util.Vec3.t -> unit

(** [set_obstacle_box g b] marks every cell of [b] (clipped). *)
val set_obstacle_box : t -> Tqec_util.Box3.t -> unit

val is_obstacle : t -> Tqec_util.Vec3.t -> bool

(** Shared cells have unlimited capacity: net pin cells, where several
    dual strands legitimately thread the same primal loop. *)
val set_shared : t -> Tqec_util.Vec3.t -> unit

val is_shared : t -> Tqec_util.Vec3.t -> bool

val usage : t -> Tqec_util.Vec3.t -> int

(** [add_usage g p delta] adds [delta] to [p]'s usage.
    @raise Invalid_argument when the usage would turn negative or pass
    65,535; the grid — cell, tile summary, generations and overused
    set — is then unchanged. *)
val add_usage : t -> Tqec_util.Vec3.t -> int -> unit

val history : t -> Tqec_util.Vec3.t -> int

(** [add_history g p delta] adds [delta] to [p]'s history cost.
    @raise Invalid_argument when the history would turn negative or
    pass 65,535; the grid — cell, tile summary and generations — is
    then unchanged. *)
val add_history : t -> Tqec_util.Vec3.t -> int -> unit

(** [enter_cost g ~penalty p] is the congestion cost of entering [p]
    (obstacles are handled by the router, not here).  With [penalty >=
    0] it is at least 1, since usage and history are never negative:
    the floor that keeps the A* heuristic admissible and its queue
    monotone.
    @raise Invalid_argument when [p] is out of bounds. *)
val enter_cost : t -> penalty:int -> Tqec_util.Vec3.t -> int

(** [probe g ~penalty ~dusage ~avoid_used ~exempt x y z] answers both
    questions a search asks of cell [(x, y, z)] with one bounds check
    and one tile lookup: [-1] when the cell is blocked, else its
    {!enter_cost} computed as if its usage were [usage + dusage].
    Unless [exempt], an obstacle is blocked, and with [avoid_used] so is
    a non-shared cell whose (unbiased) usage is already at capacity.

    With [dusage = -1] on the cells of a net's own current route, a
    search prices a re-route exactly as if that net had first been
    ripped up — the trick that lets every worker of a routing batch
    read the same unmodified grid instead of mutating a private copy.
    Taking bare coordinates, the call allocates nothing.  A passable
    cell's cost is at least 1 when [penalty >= 0] and [dusage >= -1]
    (the floor of {!enter_cost}).
    @raise Invalid_argument when the cell is out of bounds. *)
val probe :
  t ->
  penalty:int ->
  dusage:int ->
  avoid_used:bool ->
  exempt:bool ->
  int ->
  int ->
  int ->
  int

(** [overused g] lists cells with usage above capacity, in lexicographic
    (x, y, z) order.  The set is maintained incrementally by
    {!add_usage}/{!set_shared}, so the call is O(overused log overused) —
    it never rescans the grid volume. *)
val overused : t -> Tqec_util.Vec3.t list

(** [overused_count g] is [List.length (overused g)] in O(1). *)
val overused_count : t -> int

val capacity : int

(** Additive surcharge on the base entry cost of cells outside the die
    (the coarse corridor search prices whole out-of-die tiles with it). *)
val outside_die_cost : int

(** {2 Tile geometry and summaries}

    The coarse level of the hierarchical router works on the tile graph:
    one node per directory slot, 6-neighbor adjacency, capacity signals
    from the incrementally maintained per-tile summaries. *)

(** [tile_edge = 1 lsl tile_bits]: tile coordinates and within-tile
    offsets of a cell are shifts and masks of its offset from the box's
    low corner. *)
val tile_bits : int

(** Tile side length in cells (a compile-time constant). *)
val tile_edge : int

(** Cells per tile ([tile_edge]^3). *)
val tile_cells : int

(** Directory size ([n_tiles g = tx * ty * tz]). *)
val n_tiles : t -> int

(** Tile directory dimensions [(tx, ty, tz)]. *)
val tile_dims : t -> int * int * int

(** [tile_index g p] is the directory index of the tile containing [p]
    (which must be in bounds); layout is x-major, matching
    {!tile_dims}. *)
val tile_index : t -> Tqec_util.Vec3.t -> int

(** [tile_congestion g ti] is the tile's summed usage + history — the
    coarse congestion signal, maintained incrementally by
    {!add_usage}/{!add_history} (O(1) per cell update). *)
val tile_congestion : t -> int -> int

(** [tile_blocked g ti] is true when every in-bounds cell of the tile is
    an obstacle: the tile is impassable at the coarse level. *)
val tile_blocked : t -> int -> bool

(** [tile_free g ti] is the tile's free capacity: in-bounds cells minus
    obstacles minus summed usage, clamped at 0.  The signal the
    tile-summary-guided region growth reads to expand a search corridor
    toward under-used volume first. *)
val tile_free : t -> int -> int

(** {2 Summary generations}

    Every mutation that changes a tile's summary-visible state — usage
    ({!add_usage} with a non-zero delta), history ({!add_history}),
    obstacle count ({!set_obstacle} on a previously clear cell) or
    shared mask ({!set_shared}) — advances a grid-wide counter and
    stamps it on that tile (and only that tile).  A caller that records
    {!generation} at compute time can later ask
    {!region_unchanged_since}: if no tile in the region carries a newer
    stamp, every summary the computation read is provably unchanged, and
    the cached result is still exact. *)

(** [generation g] is the current value of the grid-wide mutation
    counter (0 on a fresh grid). *)
val generation : t -> int

(** [tile_generation g ti] is the counter value at the last
    summary-changing mutation of tile [ti] (0 if never mutated). *)
val tile_generation : t -> int -> int

(** [region_unchanged_since g ~since region] is true when no tile
    overlapping [region] (clipped to the grid box) has been
    summary-mutated after counter value [since].  O(tiles overlapping
    the region), with an O(1) fast path when the whole grid is
    unchanged. *)
val region_unchanged_since : t -> since:int -> Tqec_util.Box3.t -> bool

(** {2 Memory accounting} *)

type mem = {
  mem_tiles : int;  (** allocated (touched) tiles *)
  mem_tiles_total : int;  (** tile directory capacity *)
  mem_usage_tiles : int;  (** tiles holding a usage array *)
  mem_history_tiles : int;  (** tiles holding a history array *)
  mem_cells : int;  (** bounding-box volume in cells *)
  mem_touched_cells : int;  (** [mem_tiles * tile_cells] *)
  mem_words : int;
      (** heap words reachable from the grid, headers included
          ([Obj.reachable_words]): each tile counts its flag bytes
          and only the usage and history arrays a write allocated *)
}

(** [mem g] reports how much of the substrate volume is actually
    materialized — the asymptotics the scale-tier benchmarks track — and
    the words it takes. *)
val mem : t -> mem
