(** Fork-join over OCaml 5 domains ([Domain] + [Atomic], no
    dependencies).

    Each parallel {!map} spawns its helper domains, shares the indices
    with them through one atomic counter, and joins them before it
    returns; nothing outlives the call.  A map called from inside
    another map's task runs inline on that task's domain, so a task
    only ever runs its own work: its wall clock never counts a
    sibling's.

    Determinism: the split decides only where and when tasks run.
    Results land in index order and the lowest-index failure wins, so
    parallel runs are bit-identical to serial ones whenever the tasks
    themselves are deterministic — the property every
    placement/routing/benchmark fan-out in this repo relies on. *)

(** [map ?jobs f arr] is [Array.map f arr] computed by up to [jobs]
    domains (default [Domain.recommended_domain_count ()]); the caller
    is one of them, so [jobs = 2] spawns one helper domain, and a call
    never spawns more than 118.  Output order matches input order.

    Inside another map's task, or with [jobs = 1] or a single element,
    [map] is [Array.map] on the calling domain; a map that ran as
    [Array.map] leaves the maps its tasks call free to fan out.

    Exception safety: on the parallel path a raising task never stops
    the others.  Every task runs, and only then is the lowest-index
    task's exception re-raised on the caller — with its original
    backtrace, matching what the serial path would have thrown first.
    A [Domain.spawn] failure leaves the work to the caller and the
    helpers already running. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
