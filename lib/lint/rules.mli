(** The built-in rule catalog.

    Seven families, each waived per-site by an audit comment carrying
    the family's marker and a justification:

    - [hash-order] — [Hashtbl.iter]/[Hashtbl.fold]: hash-layout
      iteration order must never reach an output ([hash-order:]).
    - [env-read] — [Sys.getenv]/[Sys.getenv_opt] under [lib/]: an
      ambient environment read in library code is a daemon hazard
      ([env-read:]).
    - [partial] — [failwith]/[assert false]/[exit] under [lib/]:
      partial library code needs a structured exception (the
      [Pipeline.Stage_failure] precedent) or an invariant audit
      ([partial:]).
    - [swallow] — [with _ ->] catch-alls: a swallowed exception hides
      failures from every caller ([swallow:]).
    - [wallclock] — [Unix.gettimeofday]/[Sys.time] under [lib/]:
      wall-clock reads outside declared timing sites are a determinism
      and replay hazard ([wallclock:]).
    - [unsafe] — [Obj.magic], [Marshal.*], [Random.self_init],
      [Array.unsafe_*]: memory- or determinism-unsafe primitives
      ([unsafe:]).
    - [race] — mutation tokens ([:=], [<-], [Hashtbl.replace],
      [Hashtbl.add]) inside a [Pool.map] closure window: shared-state
      writes on pool tasks need a [race:] audit naming the
      synchronization. *)

val all : Rule.t list
(** Every built-in rule, in catalog order. *)

val find : string -> Rule.t option
(** Look a rule up by id. *)

val ids : string list
