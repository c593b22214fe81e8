(** Stage (e): routing legality and geometry emission cross-checks.

    The routing problem — net pins, die, obstacle and shared-pin masks —
    is rebuilt from the placement alone before the routes are validated
    against it, and the reported space-time volume is recomputed from the
    node boxes and routed cells. *)

(** The checker's own reconstruction of the route net list (exposed for
    tests). *)
val build_nets :
  Tqec_pdgraph.Pd_graph.t ->
  Tqec_place.Placer.t ->
  Tqec_pdgraph.Flipping.t ->
  Tqec_pdgraph.Dual_bridge.t ->
  Tqec_pdgraph.Fvalue.t ->
  Tqec_route.Pathfinder.net list

val check :
  Tqec_pdgraph.Pd_graph.t ->
  Tqec_pdgraph.Flipping.t ->
  Tqec_pdgraph.Dual_bridge.t ->
  Tqec_pdgraph.Fvalue.t ->
  Tqec_place.Placer.t ->
  Tqec_route.Pathfinder.result ->
  reported_volume:int ->
  Violation.t list

(** [dual_cells ~first_dual routes geom] compares the emitted dual
    structures with the routes: structure [first_dual + i] must emit
    exactly the cells of [routes]'s [i]th route that the route owns (a
    cell belongs to the first route listing it, and a later route keeps
    it only under the same net), and no more dual structures than routes
    may exist.  The dual half of {!geometry_check}, which passes the
    number of primal structures as [first_dual] (exposed for tests). *)
val dual_cells :
  first_dual:int ->
  Tqec_route.Pathfinder.routed list ->
  Tqec_geom.Geometry.t ->
  Violation.t list

(** [geometry_check g placement routing geom] proves the emitted strands
    agree with the flow: primal strands cover exactly the placed module
    core cells, each dual structure's cells equal its route's claimed
    cells (up to the documented shared-pin ownership rule), the lattice
    rules hold, and the emitted bounding box stays within the recomputed
    result volume. *)
val geometry_check :
  Tqec_pdgraph.Pd_graph.t ->
  Tqec_place.Placer.t ->
  Tqec_route.Pathfinder.result ->
  Tqec_geom.Geometry.t ->
  Violation.t list
