(** The lint driver: lex a file once, run every applicable rule, drop
    audited sites, and return deterministic findings.

    Determinism contract: for a fixed tree and rule set, findings are a
    pure function of the file bytes — ordered by (path, line, column,
    rule id) — whatever the worker count.  The [@lint] alias pins this
    by diffing JSON reports across [-j 1] / [-j 4] and across two
    consecutive runs. *)

val marker_with_justification : string -> string -> bool
(** [marker_with_justification comment marker]: does [comment] carry
    [marker] followed by a non-empty justification?  A bare marker is
    not an audit.  Exposed for tests. *)

val lint_string :
  rules:Rule.t list -> path:string -> string -> Rule.finding list
(** Lint in-memory source (the test seam). *)

val lint_file : rules:Rule.t list -> string -> Rule.finding list
(** Lint one file from disk.  An unreadable file yields a single
    finding on line 0 (rule [io]) rather than an exception. *)

val ml_files : string -> string list
(** All [.ml] files under a directory, recursively, sorted.  A path
    that is not a directory yields []. *)

val lint_dirs :
  ?jobs:int option -> rules:Rule.t list -> string list -> Rule.finding list
(** Lint every [.ml] file under the given directories, scanning files
    in parallel ([jobs] as in {!Tqec_util.Pool.map});
    the result order is independent of [jobs]. *)

(** {2 Baseline} *)

type baseline
(** A set of waived findings for incremental adoption: one entry per
    line, [<rule> <path>:<line> <token>], [#] comments and blank lines
    ignored. *)

val baseline_empty : baseline
val baseline_of_string : string -> baseline
val load_baseline : string -> (baseline, string) result

val apply_baseline :
  baseline -> Rule.finding list -> Rule.finding list * int * int
(** [apply_baseline b findings] is [(kept, suppressed, unused)]:
    findings not waived by [b], the number waived, and the number of
    baseline entries that matched nothing (stale entries worth
    deleting). *)

val baseline_entry : Rule.finding -> string
(** The baseline line that would waive this finding (for building a
    baseline from a report). *)
