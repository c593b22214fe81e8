(** B*-tree floorplan representation with contour (skyline) packing.

    The classic admissible-placement representation: a binary tree over
    blocks; in packing (preorder), the left child of a block sits
    immediately to its right ([x = parent.x + parent.w]) and the right
    child directly above it at the same x; the y coordinate comes from a
    skyline contour.  Every tree reachable by the perturbation moves
    packs to a left/bottom-compacted placement.

    Packing is incremental: each pack caches its DFS-step sequence
    (block, x, effective w/h, y) together with contour restart points,
    and the next pack reuses the longest prefix of steps whose inputs
    are unchanged — a local move late in the DFS order repacks only the
    suffix.  The skyline is an allocation-free sorted array of
    breakpoints, checkpointed every few DFS steps so a restart replays
    only a handful of cached placements.

    Blocks carry a footprint (w, h); rotation swaps the two.  The 2.5D
    aspect of the flow (block z-extents) is handled by the placer on
    top. *)

type t

(** [create dims] builds an initial balanced tree over blocks with the
    given (w, h) footprints, in index order. *)
val create : (int * int) array -> t

(** [create_shelves dims] builds an initial tree that packs like shelf
    (strip) packing: blocks sorted by decreasing height fill rows of
    width about [sqrt (1.15 * total area)] — a strong starting point for
    the annealer. *)
val create_shelves : (int * int) array -> t

val size : t -> int

(** [width t i] / [height t i] are the current (rotation-aware)
    dimensions of block [i]. *)
val width : t -> int -> int

val height : t -> int -> int

(** [rotate t i] swaps block [i]'s w and h. *)
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

(** [snapshot t] captures the tree structure; [restore t s] puts it
    back exactly (used for undoing non-self-inverse moves).  The pack
    cache survives restores: prefix reuse is validated per step, so a
    pack after an undo is still bit-identical to a from-scratch pack. *)
type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit

(** [pack t] computes the placement: per-block lower-left (x, y) and the
    bounding (width, height). *)
val pack : t -> (int * int) array * (int * int)

(** [pack_into t pos] is [pack] writing the positions into the caller's
    buffer (length [size t]) and returning the bounding (width, height). *)
val pack_into : t -> (int * int) array -> int * int

(** [pack_xy t xs ys] is [pack] writing x and y coordinates into the
    caller's unboxed int buffers (length [size t]) and returning the
    bounding (width, height) — the incremental repack used on the
    annealer's hot path (prefix steps unchanged since the previous pack
    are served from the cache without touching the contour). *)
val pack_xy : t -> int array -> int array -> int * int

(** [pack_reference t] packs with a brute-force O(n^2) per-block overlap
    scan instead of a contour — no cache, no skyline.  The differential
    oracle for [pack_xy] in tests. *)
val pack_reference : t -> (int * int) array * (int * int)

(** [check t] verifies tree-structure invariants (parent/child
    consistency, single root, all blocks reachable, free-arity set in
    sync with the links); returns error strings, empty when
    consistent. *)
val check : t -> string list

(** [overlaps positions dims] tests pairwise overlap of packed blocks —
    an O(n^2) oracle for tests; a correct packing never overlaps. *)
val overlaps : (int * int) array -> (int * int) array -> bool
