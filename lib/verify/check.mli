(** Whole-pipeline translation validation.

    [run] re-derives and cross-checks the invariants of every pipeline
    boundary from the raw stage artifacts — it never trusts a
    transformer's own bookkeeping where an independent derivation is
    possible.  The checks are deterministic: given equal artifacts the
    report is byte-identical, regardless of worker counts or hash-table
    layout. *)

type artifacts = {
  a_icm : Tqec_icm.Icm.t;
  a_graph : Tqec_pdgraph.Pd_graph.t;  (** post-simplification PD graph *)
  a_merges : Tqec_pdgraph.Ishape.merge list;
  a_flipping : Tqec_pdgraph.Flipping.t;
  a_dual : Tqec_pdgraph.Dual_bridge.t;
  a_fvalue : Tqec_pdgraph.Fvalue.t;
  a_placement : Tqec_place.Placer.t;
  a_routing : Tqec_route.Pathfinder.result;
  a_volume : int;  (** the pipeline's reported space-time volume *)
  a_geometry : Tqec_geom.Geometry.t option;
      (** emitted geometry; [None] skips the geometry stage *)
}

(** [selected ?stages ()] is the stages [run ?stages] checks, in
    pipeline order: all of them when [stages] is absent or empty.
    Callers use it to skip building artifacts no selected stage reads. *)
val selected : ?stages:Violation.stage list -> unit -> Violation.stage list

(** [run ?stages a] verifies the listed stages (default: all) in pipeline
    order and returns the report. *)
val run : ?stages:Violation.stage list -> artifacts -> Violation.report
