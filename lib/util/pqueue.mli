(** Monotone priority queue of int values keyed by int priorities: a
    bucket (Dial) queue.

    [pop] returns the value with the smallest key, and among equal keys
    the one pushed first (FIFO), keeping searches deterministic.  The
    queue is monotone: once a key has been popped, no key below it may
    be pushed until the next {!clear}.  Before the first pop after a
    {!clear} (or {!create}) pushes may arrive in any key order.  A*
    with a consistent heuristic and integer entry costs >= 1 meets the
    contract, since every push after a pop lands at or above the popped
    key.

    The A* router pushes the same cell code more than once with
    decreasing keys instead of performing decrease-key; the consumer
    skips stale pops, which is the standard trick for grid routing.
    Values sit in per-key FIFO buckets on a power-of-two ring that
    doubles when the live key spread outgrows it, with entries recycled
    through a free list: once the storage has grown to the largest open
    set and key spread seen, [push] and [pop] allocate nothing. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

(** [push t key value] inserts [value] with priority [key].
    @raise Invalid_argument when [key] is below the last key popped
    since the previous {!clear}, or when the queued keys would span
    [Sys.max_array_length] or more; the queue is then unchanged. *)
val push : t -> int -> int -> unit

(** [min_key t] is the smallest key present. @raise Not_found when
    empty. *)
val min_key : t -> int

(** [pop t] removes and returns the value with the smallest key; ties
    are broken by insertion order (FIFO).  @raise Not_found when
    empty. *)
val pop : t -> int

(** [clear t] empties the queue and lifts the monotone floor, keeping
    the grown storage. *)
val clear : t -> unit
