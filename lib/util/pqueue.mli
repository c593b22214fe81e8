(** Mutable binary min-heap of int values keyed by int priorities.

    The A* router pushes the same cell code more than once with
    decreasing keys instead of performing decrease-key; the consumer
    skips stale pops, which is the standard trick for grid routing.
    Keys, insertion sequence numbers and values live in unboxed int
    arrays: once the arrays have grown to the largest open set seen,
    [push] and [pop] allocate nothing. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

(** [push t key value] inserts [value] with priority [key]. *)
val push : t -> int -> int -> unit

(** [min_key t] is the smallest key present. @raise Not_found when
    empty. *)
val min_key : t -> int

(** [pop t] removes and returns the value with the smallest key; ties
    are broken by insertion order (FIFO), keeping searches
    deterministic.  @raise Not_found when empty. *)
val pop : t -> int

(** [clear t] empties the queue and restarts its insertion sequence,
    keeping the grown arrays. *)
val clear : t -> unit
