(** B*-tree floorplan representation with contour packing.

    The classic admissible-placement representation: a binary tree over
    blocks; in packing (preorder), the left child of a block sits
    immediately to its right ([x = parent.x + parent.w]) and the right
    child directly above it at the same x; the y coordinate comes from a
    contour.  Every tree reachable by the perturbation moves packs to a
    left/bottom-compacted placement.

    A full repack runs on a run-length contour: two preallocated int
    arrays hold the highest placed top over x as runs of one height,
    reset to one run of height 0 in O(1) per pack.  In preorder every
    block starts where a run starts, so a DFS step walks the runs
    under its x-range (its y is their highest top), writes one run at
    its top over that range, and splits the last run it covered where
    that run reaches past the block: O(runs covered), not O(width).
    A run end that fails to advance raises [Failure] instead of
    looping.  The tree owns its pack: {!pack} writes the positions into
    two arrays allocated by {!create} and logs each block it moved, with
    the coordinates it overwrote, so the annealer re-evaluates only
    those blocks, and {!undo} on a rejection restores them from the
    same log.  A pack right after a {!perturb} that kept every
    footprint in place skips the repack.

    Blocks carry a footprint (w, h); rotation swaps the two.  The 2.5D
    aspect of the flow (block z-extents) is handled by the placer on
    top. *)

type t

(** [create dims] builds an initial balanced tree over blocks with the
    given (w, h) footprints, in index order.  Raises [Invalid_argument]
    on no blocks or a side below 1. *)
val create : (int * int) array -> t

val size : t -> int

(** [width t i] / [height t i] are the current (rotation-aware)
    dimensions of block [i]. *)
val width : t -> int -> int

val height : t -> int -> int

(** [rotate t i] swaps block [i]'s stored w and h and flips its
    {!is_rotated} flag. *)
val rotate : t -> int -> unit

(** [is_rotated t i] reports block [i]'s rotation state. *)
val is_rotated : t -> int -> bool

(** [swap_blocks t i j] exchanges the tree positions of blocks [i] and
    [j] (their footprints travel with them). *)
val swap_blocks : t -> int -> int -> unit

(** [move_block t ~rng i] detaches block [i] and reattaches it at a
    random free child slot elsewhere in the tree.  Candidate selection
    is O(1) from a maintained free-arity slot set; the RNG-visible
    candidate ordering is the set's internal (swap-removal) order,
    deterministic for a given move history. No-op when [size t < 2]. *)
val move_block : t -> rng:Tqec_util.Rng.t -> int -> unit

(** [perturb t ~rng ~rotatable] makes one random annealing move: with
    probability 1/3 each, rotate a block drawn from [rotatable] (block
    ids), swap two blocks, or {!move_block} one (a no-op below two
    blocks).  With [rotatable] empty the draw is between swap and move
    only.  The draw order is part of every recorded placement: change
    it and placements change.  Apart from the RNG's own draws it
    allocates nothing. *)
val perturb : t -> rng:Tqec_util.Rng.t -> rotatable:int array -> unit

(** [undo t] reverts the last {!perturb}'s tree change exactly, from a
    single-level undo held in [t]: a rotation or swap is made again, and
    a [move_block] is replayed backwards from a log of the block-id
    swaps and link writes it made.  A second [undo] is a no-op.  A
    reverted [move_block] rebuilds the free-arity set in ascending slot
    order, so later [move_block] draws see that order.  When the
    positions held the tree's pack at that [perturb] and at most one
    pack has run since — the annealer's rejection — [undo] leaves them
    holding the reverted tree's pack: after a pack it writes the
    moved-block log back into them, empties the log and restores the
    extents, so {!xs}, {!ys} and {!extents} read that pack without
    packing again.  Otherwise it leaves the positions as they are, out
    of step with the tree until the next pack.  Allocates nothing. *)
val undo : t -> unit

(** [pack t] packs the current tree into the positions that {!xs} and
    {!ys} read and the bounding (width, height) that {!extents} reads.
    It logs every block whose (x, y) it changed, once each, with the
    coordinates it overwrote; every pack replaces the log.  It runs the
    full DFS repack, except right after a {!perturb} made while the
    positions held the tree's pack (after a pack, or an {!undo} that
    kept them so) that kept every slot's footprint: it turned a square
    block, or swapped two blocks of equal current (width, height), one
    block with itself included.  Then a turned square moves nothing, a
    swap trades its two blocks' coordinates, and the extents are
    unchanged. *)
val pack : t -> unit

(** [xs t] and [ys t] hold block [b]'s lower-left corner at index [b],
    as the last {!pack} or {!undo} left it.  The arrays belong to [t]
    and change in place: read them before the next pack or [undo], and
    never write them — the skip in [pack] and the write-back in [undo]
    trust what they hold, so a write gives wrong placements later.
    Copy them to keep or edit a placement. *)
val xs : t -> int array

val ys : t -> int array

(** [extents t] is the bounding (width, height) of the positions. *)
val extents : t -> int * int

(** [moved t] holds the ids of the blocks the last pack moved in its
    first [n_moved t] entries: the [~changed] buffer of
    {!Hpwl_cache.update}.  A full repack lists them in DFS order; a
    skipped swap lists its two blocks in the order {!perturb} drew them,
    which is not DFS order.  The array belongs to [t]; read it before
    the next pack. *)
val moved : t -> int array

val n_moved : t -> int

(** [repacks t] is how many packs of [t] so far ran the full DFS repack
    rather than its skip. *)
val repacks : t -> int

(** [pack_reference t] packs with a brute-force O(n^2) per-block overlap
    scan instead of a contour.  The differential oracle for {!pack} in
    tests. *)
val pack_reference : t -> (int * int) array * (int * int)

(** [check t] verifies tree-structure invariants (parent/child
    consistency, single root, all blocks reachable, free-arity set in
    sync with the links); returns error strings, empty when
    consistent. *)
val check : t -> string list

(** [overlaps positions dims] tests pairwise overlap of packed blocks —
    an O(n^2) oracle for tests; a correct packing never overlaps. *)
val overlaps : (int * int) array -> (int * int) array -> bool
