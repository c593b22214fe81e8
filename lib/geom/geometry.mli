(** A geometric description: defect strands plus distillation boxes.

    Volume accounting follows the paper's convention: the space-time
    volume of a description is [#x * #y * #z] counted in unit cells of
    its bounding box (boxes included when they are placed inside the
    diagram; the canonical baseline instead adds box volumes separately,
    as in Table 2 of the paper). *)

type box_kind = Y_box  (** 3 x 3 x 2 *) | A_box  (** 16 x 6 x 2 *)

type distill_box = {
  b_kind : box_kind;
  b_box : Tqec_util.Box3.t;  (** in unit cells *)
}

type t = {
  name : string;
  defects : Defect.t list;
  boxes : distill_box list;
}

(** [make ~name ~defects ~boxes] is the description with exactly these
    strands and boxes, in the given order.  Emitters collect both lists
    first and build the record once. *)
val make :
  name:string -> defects:Defect.t list -> boxes:distill_box list -> t

(** [empty name] has no strands and no boxes. *)
val empty : string -> t

(** [y_box_dims] = (3,3,2); [a_box_dims] = (16,6,2); volumes 18 / 192. *)
val y_box_dims : int * int * int

val a_box_dims : int * int * int

val box_volume : box_kind -> int

(** [box_at kind cell] makes a distillation box with its low corner at
    the given unit cell. *)
val box_at : box_kind -> Tqec_util.Vec3.t -> distill_box

(** [cells g] is all unit cells touched by defects or boxes. *)
val cells : t -> Tqec_util.Vec3.t list

(** [bbox g] is the bounding box in unit cells; [None] when empty. *)
val bbox : t -> Tqec_util.Box3.t option

(** [volume g] is the paper volume: cell count of [bbox g] (0 if empty). *)
val volume : t -> int

(** [total_box_volume g] sums the nominal volumes of the distillation
    boxes (18 per Y, 192 per A), for canonical-style accounting. *)
val total_box_volume : t -> int

type issue =
  | Malformed_strand of int
  | Same_type_structure_overlap of { a : int; b : int; at : Tqec_util.Vec3.t }
      (** two distinct same-type structures share a doubled-lattice
          vertex: disjoint defects must stay one unit apart *)
  | Box_overlap of int * int

val pp_issue : Format.formatter -> issue -> unit

(** [check g] returns all violations of the geometric rules. *)
val check : t -> issue list

val is_valid : t -> bool

(** [structures g dtype] groups strand ids by structure id. *)
val structures : t -> Defect.defect_type -> (int * Defect.t list) list
