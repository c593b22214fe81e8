(** The seven-stage compression flow (paper Fig. 5):

    preprocess (gate decomposition) -> ICM -> PD graph -> I-shaped
    simplification -> flipping (primal bridging) -> iterative dual
    bridging -> module placement -> dual-defect net routing.

    Individual bridging stages can be disabled to obtain the baselines:
    [dual_only] (Hsu et al. DAC'21: no I-shape, no primal bridging) and
    [modular_only] (topological deformation via modularization and
    placement alone). *)

type variant =
  | Full  (** the paper's algorithm: primal + dual bridging *)
  | Dual_only  (** Hsu et al. [10]: iterative dual bridging only *)
  | Modular_only  (** no bridging at all; placement + routing *)

type config = {
  variant : variant;
  effort : Tqec_place.Placer.effort;
  seed : int;
  enable_ishape : bool;  (** ablations: disable stage 3 in [Full] runs *)
  z_cap : int option;  (** ablations: chain folding height override *)
  strategy : Tqec_place.Placer.strategy;  (** placement engine *)
  restarts : int;
      (** independent annealing trajectories; best placement wins.
          Deterministic in (seed, restarts) regardless of [jobs] *)
  jobs : int option;
      (** worker domains for multi-start placement and the per-iteration
          routing batches; [None] is the machine's domain count.
          Results are identical for any value *)
  early_stop_margin : float option;
      (** adaptive multi-start early-stop margin (see
          {!Tqec_place.Placer.config}); [None] disables early stopping *)
  partition : int option;
      (** divide-and-conquer placement threshold (see
          {!Tqec_place.Placer.config}); [None] (the default) defers to
          the placer's automatic node-count threshold (4000 nodes — above
          every paper-suite instance, so those stay single-die
          bit-for-bit) *)
  corridor_cells : int option;
      (** hierarchical-routing threshold override (see
          {!Tqec_route.Pathfinder.config}); [None] (the default) keeps
          the router's default.  Exposed so a fuzz/replay harness can
          reproduce a run's exact routing trajectory from its recorded
          flag vector *)
  corridor_cache : bool;
      (** corridor reuse across negotiation iterations (see
          {!Tqec_route.Pathfinder.config}; default [true]).  Routes are
          bit-identical either way — [false] exists for cross-checks *)
  sa_moves_cap : int option;
      (** hard ceiling on annealing moves per trajectory (see
          {!Tqec_place.Placer.config}); [None] (the default) keeps the
          effort-derived budget.  The fuzzing harness bounds per-case
          placement work with it *)
  debug : bool;
      (** per-stage progress trace on stderr (also threaded into the
          router's negotiation trace).  A config field rather than an
          ambient [TQEC_DEBUG] read, so concurrent pipeline runs — e.g.
          requests inside the serving daemon — are isolated; the CLI
          layer defaults it from the environment *)
  verify : bool option;
      (** [Some true] runs the whole-pipeline translation validation
          after the run ({!verify}); [Some false] and [None] (the
          default) skip it.  The CLI and the bench harness set
          [Some true] when [TQEC_VERIFY] is set (and not ["0"]); the
          library never reads the environment for it *)
}

val default_config : config

(** Raised when a requested post-run validation finds violations (and,
    over time, by any stage that detects an unrecoverable inconsistency).
    Structured — stage plus message — so a long-running server can catch
    it at the request boundary and answer with a failed-request response
    instead of dying; the CLI layers report it and exit non-zero. *)
exception Stage_failure of { stage : string; message : string }

(** Per-stage observability: counts after each stage. *)
type stage_stats = {
  st_modules : int;  (** constructed modules (paper "#Modules") *)
  st_ishape_merges : int;
  st_points : int;
  st_chains : int;
  st_nodes : int;  (** B*-tree nodes (paper "#Nodes") *)
  st_nets : int;
  st_merged_nets : int;
  st_dual_bridges : int;
}

type t = {
  icm : Tqec_icm.Icm.t;
  graph : Tqec_pdgraph.Pd_graph.t;
  merges : Tqec_pdgraph.Ishape.merge list;
      (** I-shape merges performed, in row order (the documented merge
          map the verifier replays) *)
  flipping : Tqec_pdgraph.Flipping.t;
  dual : Tqec_pdgraph.Dual_bridge.t;
  fvalue : Tqec_pdgraph.Fvalue.t;
  placement : Tqec_place.Placer.t;
  routing : Tqec_route.Pathfinder.result;
  grid_mem : Tqec_route.Grid.mem;
      (** sparse routing-grid occupancy after routing: how many tiles
          (and cells) of the substrate volume were materialized — the
          memory-scaling signal the scale-tier benchmarks track *)
  volume : int;  (** final space-time volume (routing-aware bbox) *)
  stages : stage_stats;
  elapsed : float;  (** seconds *)
  timings : (string * float) list;
      (** per-stage wall time in seconds, in execution order (bridging,
          placement, routing, finish); sums to roughly [elapsed].
          Consumed by [tqecc --timings]. *)
}

(** [run ?config ?on_stage circuit] executes the flow on a reversible or
    Clifford+T circuit (gate decomposition runs first when needed).
    [on_stage name seconds] is invoked as each stage completes — the
    serving daemon streams these as progress frames. *)
val run :
  ?config:config -> ?on_stage:(string -> float -> unit) ->
  Tqec_circuit.Circuit.t -> t

(** [run_icm ?config ?on_stage icm] enters the flow after the preprocess
    stage.

    When [config.verify = Some true], the full translation validation
    ({!verify}) runs on the result and a violated invariant raises
    {!Stage_failure} after rendering the report to stderr. *)
val run_icm :
  ?config:config -> ?on_stage:(string -> float -> unit) ->
  Tqec_icm.Icm.t -> t

(** [summary r] is the deterministic one-line result record (name,
    volume, die dimensions, module/node/bridge counts, routing success)
    — byte-identical across runs with the same (input, seed, knobs) for
    any worker count.  [tqecc compress] prints it (adding wall-clock
    unless [--porcelain]) and the serving daemon caches and returns it
    verbatim, which is what makes served-vs-CLI parity checkable by
    string comparison. *)
val summary : t -> string

(** [fingerprint r] is a hex digest of everything the determinism
    contract promises — reported volume, die dimensions, every node
    position/rotation, and every routed cell of every net in order.
    Two runs agree on it iff they agree on the full geometric result:
    the equality the jobs-invariance and corridor-cache cross-checks
    pin ([tqecc check --fingerprint], the fuzz determinism oracles). *)
val fingerprint : t -> string

(** [verify ?stages r] re-derives and cross-checks the invariants of
    every pipeline boundary (default: all stages) via {!Tqec_verify};
    see {!Tqec_verify.Check.run}.  The geometry is emitted only when the
    geometry stage is among those checked, and only after every other
    selected stage has been checked. *)
val verify :
  ?stages:Tqec_verify.Violation.stage list -> t -> Tqec_verify.Violation.report
