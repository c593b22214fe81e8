(** 2.5D module placement (paper Section 3.5).

    Packs the super-module nodes with a B*-tree + simulated annealing,
    minimizing [alpha * volume + beta * wirelength] where volume is
    [W * H * Z] (Z = the deepest node's z extent, at least 2) and
    wirelength is the summed 3D half-perimeter of the bridged dual nets'
    module pins plus the distillation pseudo-nets. *)

type effort = Quick | Normal | Full

type strategy =
  | Annealing  (** B*-tree + simulated annealing (the paper's engine) *)
  | Force_directed
      (** iterative centroid-ordered shelf packing, in the spirit of the
          force-directed compactor of Paetznick & Fowler (the paper's
          related work [14]); cheaper, usually looser *)

type config = {
  effort : effort;
  seed : int;
  alpha : float;  (** volume weight *)
  beta : float;  (** wirelength weight *)
  z_cap : int option;  (** chain folding height override (ablations) *)
  strategy : strategy;
  restarts : int;
      (** independent annealing trajectories (multi-start; best result
          wins).  Deterministic in (seed, restarts): lane 0 reproduces
          the single-start trajectory, so [restarts = 1] matches
          historical results exactly *)
  jobs : int option;
      (** worker domains for multi-start; [None] defers to [TQEC_JOBS] /
          the machine's domain count (see {!Tqec_util.Pool}).  The
          result never depends on this value *)
  early_stop_margin : float option;
      (** adaptive multi-start: lanes publish their best cost into a
          shared [Atomic] at fixed chunk barriers, and a lane that has
          spent at least half its move budget while trailing the shared
          best by more than this relative margin stops early.  Lane 0 is
          exempt (the single-start trajectory always completes), stop
          decisions happen only at barriers, and the shared value read
          there is scheduling-independent — so results stay
          deterministic in (seed, restarts) for any job count, and the
          multi-start best is never worse than single-start.  [None]
          disables early stopping (every lane runs its full budget);
          the default is [Some 0.05] *)
  partition : int option;
      (** divide-and-conquer threshold for the [Annealing] strategy:
          with [Some cap] and more than [cap] nodes, the net hypergraph
          is partitioned ({!Partition.run}) into groups of at most
          [cap], each group annealed independently (partition-indexed
          seed offsets, fanned out over the pool alongside each group's
          restart lanes), and the packed groups stitched with a
          deterministic largest-first shelf packing.  Annealing cost
          then scales near-linearly in the node count instead of with
          the full quadratic move/net coupling, at some area/wirelength
          quality loss across the cuts.  Results are a pure function of
          (seed, restarts, cap) — never of [jobs].  [None] (the
          default) defers to [auto_partition], and [Some cap >= n]
          reproduces the historical single-die trajectory bit-for-bit.
          [Force_directed] ignores it *)
  auto_partition : int;
      (** node count above which an unset [partition] engages
          divide-and-conquer automatically, with [cap = auto_partition]
          — monolithic annealing past a few thousand modules burns its
          move budget without converging, so the placer picks the
          partitioned path by itself at scale.  Same dispatch rule as
          an explicit cap, so [auto_partition >= n] reproduces the
          single-die trajectory bit-for-bit; an explicit [partition]
          always wins.  The default (4000) sits above every paper-suite
          instance and below the larger synthetic scale tiers.
          [Force_directed] ignores it *)
  sa_moves_cap : int option;
      (** hard ceiling on annealing moves per trajectory, applied after
          the effort-derived budget.  A testing/replay hook: the fuzzing
          harness bounds per-case placement work with it so thousands of
          pipeline executions stay cheap.  Results remain deterministic
          in (seed, restarts, cap); [None] (the default) keeps the pure
          effort-derived budget — production behavior is unchanged *)
}

val default_config : config

type t = {
  sm : Super_module.t;
  node_pos : (int * int) array;  (** per node, lower-left (x, y) *)
  rotated : bool array;
  width : int;
  height : int;
  depth : int;
  volume : int;  (** W * H * Z of the placement *)
  wirelength : int;
  sa_stats : Sa.stats;
  repacks : int;
      (** annealing moves whose pack ran the full B*-tree repack rather
          than its skip ({!Bstar_tree.pack_xy}), summed over lanes and
          partitions like [sa_stats.attempted]; 0 for [Force_directed].
          Deterministic and jobs-invariant, like the placement *)
}

(** [place ?config g flipping dual fvalue] runs the annealer and returns
    the best placement found. *)
val place :
  ?config:config ->
  Tqec_pdgraph.Pd_graph.t ->
  Tqec_pdgraph.Flipping.t ->
  Tqec_pdgraph.Dual_bridge.t ->
  Tqec_pdgraph.Fvalue.t ->
  t

(** [module_cell p m] / [pin_cell p m] are the placed core/pin cells of
    alive module [m]. *)
val module_cell : t -> int -> Tqec_util.Vec3.t

val pin_cell :
  ?opposite:bool ->
  t ->
  Tqec_pdgraph.Fvalue.t ->
  Tqec_pdgraph.Flipping.t ->
  int ->
  Tqec_util.Vec3.t
(** [?opposite] exits on the other side of the module's f value — used by
    the distillation pseudo-nets so two structures pinned at one module
    approach it through different cells (the planning step of Fig. 15). *)

(** [node_box p n] is the placed footprint box of node [n] (z from 0 to
    the node's depth). *)
val node_box : t -> int -> Tqec_util.Box3.t

(** [check p] validates the placement: no two node footprints overlap,
    all inside [width * height], time-SM internal x-order monotone.
    Returns error strings. *)
val check : t -> string list
