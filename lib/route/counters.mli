(** Process-wide routing diagnostics in the style of {!Tqec_util.Pool.stats}:
    atomic counters bumped on the router's hot paths, read as a snapshot.

    The counters are observability only: routing decisions never read
    them, so they cannot perturb results.  Over a deterministic run the
    totals are deterministic too (every increment corresponds to a
    deterministic event — which searches ran, which cache lookups hit —
    independent of worker interleaving). *)

(** {2 Increment points (owned by the router internals)} *)

val cache_hits : int Atomic.t
(** Corridor-cache lookups that skipped the coarse tile-graph search. *)

val cache_misses : int Atomic.t
(** Lookups that ran the coarse search: no entry, wrong grid object, or
    generation-stale (the latter also counted in {!cache_stale}). *)

val cache_stale : int Atomic.t
(** Subset of {!cache_misses}: an entry existed for the key but a tile
    in the region had been summary-mutated since it was stored. *)

val coarse_searches : int Atomic.t
(** Coarse tile-graph A* runs ({!Astar.coarse_corridor}). *)

val fine_searches : int Atomic.t
(** Fine in-corridor A* runs ({!Astar.fine_in_corridor}). *)

val flat_searches : int Atomic.t
(** Exhaustive cell-level A* runs ({!Astar.search}). *)

val flat_fallbacks : int Atomic.t
(** Hierarchical attempts that found no path and fell back to the
    exhaustive search over the same window. *)

val scratch_grows : int Atomic.t
(** A* scratch array reallocations ({!Astar.scratch} growth events).
    At steady state — scratch warmed to the largest region seen — new
    searches and corridor-widening escalations must not grow it. *)

val astar_pops : int Atomic.t
(** Priority-queue pops over every A* pass (flat, coarse and fine),
    stale entries included: the heap traffic that dominates routing
    time.  Each search adds its local count once, when it ends. *)

val astar_pushes : int Atomic.t
(** Priority-queue pushes over every A* pass, added like
    {!astar_pops}. *)

(** {2 Snapshot} *)

type stats = {
  cache_hits : int;
  cache_misses : int;
  cache_stale : int;
  coarse_searches : int;
  fine_searches : int;
  flat_searches : int;
  flat_fallbacks : int;
  scratch_grows : int;
  astar_pops : int;
  astar_pushes : int;
}

val stats : unit -> stats
(** Consistent-enough snapshot: each field is read atomically (the set
    is not read under a lock, which diagnostics do not need). *)

val reset : unit -> unit
(** Zero every counter (benchmark harnesses isolating a phase). *)
