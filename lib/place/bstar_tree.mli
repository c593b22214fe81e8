(** B*-tree floorplan representation with contour packing.

    The classic admissible-placement representation: a binary tree over
    blocks; in packing (preorder), the left child of a block sits
    immediately to its right ([x = parent.x + parent.w]) and the right
    child directly above it at the same x; the y coordinate comes from a
    contour.  Every tree reachable by the perturbation moves packs to a
    left/bottom-compacted placement.

    A full repack runs on a dense contour: one preallocated int array
    of the highest placed top by x column.  A DFS step reads the
    maximum over the block's x-range (its y) and fills that range with
    its top.  The repack writes positions into the caller's buffers in
    place and logs each block it moved, with the coordinates it
    overwrote, so the annealer re-evaluates and, on rejection, restores
    only those blocks.  The annealer's pack ({!pack_xy}) skips the
    repack after a {!perturb} that kept every footprint in place.

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
    order, so later [move_block] draws see that order.  Positions are
    not touched: {!unpack} reverts the pack.  Allocates nothing. *)
val undo : t -> unit

(** [pack t] computes the placement: per-block lower-left (x, y) and the
    bounding (width, height).  It and {!pack_into} pack into fresh
    buffers, so they always run the full repack. *)
val pack : t -> (int * int) array * (int * int)

(** [pack_into t pos] is [pack] writing the positions into the caller's
    buffer (length [size t]) and returning the bounding (width, height). *)
val pack_into : t -> (int * int) array -> int * int

(** [pack_xy t xs ys] is [pack] writing x and y coordinates into the
    caller's unboxed int buffers (length [size t]) in place and
    returning the bounding (width, height) — the annealer's pack.  It
    logs every block whose (x, y) in the buffers it changed, once each,
    with the coordinates it overwrote; every pack replaces the log.
    Allocates nothing.

    It skips the DFS repack when the last {!perturb} kept every slot's
    footprint — it turned a square block, or swapped two blocks of
    equal current (width, height), one block with itself included —
    and two things hold: [xs]/[ys] are (physically) the buffers the
    tree last packed, and since that pack nothing but that [perturb],
    or an {!undo} followed by an {!unpack} into these buffers, has
    touched the tree.  A turned square then moves nothing and a swap
    trades its two blocks' coordinates; the extents are unchanged.
    Anything else — two [perturb]s with no pack between them, a direct
    {!rotate}, {!swap_blocks} or {!move_block}, an [undo] without an
    [unpack], a pack into other buffers — makes the next pack a full
    repack.  The skip reads the buffers as the last pack or [unpack]
    left them: write them in between and the result is unspecified. *)
val pack_xy : t -> int array -> int array -> int * int

(** [moved t] holds the ids of the blocks the last pack moved in its
    first [n_moved t] entries: the [~changed] buffer of
    {!Hpwl_cache.update}.  A full repack lists them in DFS order; a
    skipped swap lists its two blocks in the order {!perturb} drew them,
    which is not DFS order.  The array belongs to [t]; read it before
    the next pack. *)
val moved : t -> int array

val n_moved : t -> int

(** [repacks t] is how many packs of [t] so far ran the full DFS repack
    rather than the skip of {!pack_xy}, {!pack} and {!pack_into}
    included. *)
val repacks : t -> int

(** [unpack t xs ys] writes the coordinates the last {!pack_xy}
    overwrote back into [xs]/[ys] and empties the log — the annealer's
    rejection path, after {!undo}.  A second [unpack] is a no-op.
    Allocates nothing. *)
val unpack : t -> int array -> int array -> unit

(** [pack_reference t] packs with a brute-force O(n^2) per-block overlap
    scan instead of a contour.  The differential oracle for [pack_xy] in
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
