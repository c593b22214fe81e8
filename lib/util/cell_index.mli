(** A sorted index over an array of cells: the set-membership and
    duplicate tests of the checkers without a hash table.

    [make cells] sorts the listing positions of [cells] by (cell,
    position), so the listings of one cell lie together at consecutive
    ranks, its first listing first.  A lookup is a binary search on
    coordinates, so no {!Vec3.t} is built to ask for a cell.  The index
    holds [cells] (not a copy) and one int per listing. *)

type t

val make : Vec3.t array -> t

(** [cell t k] is the cell at rank [k]. *)
val cell : t -> int -> Vec3.t

(** [position t k] is the listing position of rank [k] in [cells]. *)
val position : t -> int -> int

(** [first t k]: rank [k] is its cell's first listing, the lowest
    position among the listings of that cell. *)
val first : t -> int -> bool

(** [repeats t] flags, by listing position, the listings that repeat
    an earlier listing of their cell (['\001']; ['\000'] for a cell's
    first listing). *)
val repeats : t -> Bytes.t

(** [find t x y z] is the rank of the first listing of cell (x, y, z),
    or [-1] when [cells] does not list it. *)
val find : t -> int -> int -> int -> int
