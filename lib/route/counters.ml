(* Process-wide routing diagnostics, in the style of [Pool.stats]:
   lock-free atomic counters bumped on the router's hot paths, snapshot
   on demand.  Counters are observability only — they never feed back
   into routing decisions, so their (scheduling-dependent) intermediate
   values cannot perturb results; totals over a deterministic run are
   themselves deterministic. *)

let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let cache_stale = Atomic.make 0
let coarse_searches = Atomic.make 0
let fine_searches = Atomic.make 0
let flat_searches = Atomic.make 0
let flat_fallbacks = Atomic.make 0
let scratch_grows = Atomic.make 0
let astar_pops = Atomic.make 0
let astar_pushes = Atomic.make 0

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

let stats () =
  {
    cache_hits = Atomic.get cache_hits;
    cache_misses = Atomic.get cache_misses;
    cache_stale = Atomic.get cache_stale;
    coarse_searches = Atomic.get coarse_searches;
    fine_searches = Atomic.get fine_searches;
    flat_searches = Atomic.get flat_searches;
    flat_fallbacks = Atomic.get flat_fallbacks;
    scratch_grows = Atomic.get scratch_grows;
    astar_pops = Atomic.get astar_pops;
    astar_pushes = Atomic.get astar_pushes;
  }

let reset () =
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Atomic.set cache_stale 0;
  Atomic.set coarse_searches 0;
  Atomic.set fine_searches 0;
  Atomic.set flat_searches 0;
  Atomic.set flat_fallbacks 0;
  Atomic.set scratch_grows 0;
  Atomic.set astar_pops 0;
  Atomic.set astar_pushes 0
