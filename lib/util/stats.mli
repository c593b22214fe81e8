(** Small numeric helpers used by reports and benchmark tables. *)

(** [mean xs] of a non-empty list. @raise Invalid_argument on empty. *)
val mean : float list -> float

(** [geomean xs] geometric mean of positive values. *)
val geomean : float list -> float

val min_max : float list -> float * float

(** [mean_finite xs] is the mean of the finite values in [xs]; [nan]
    when none are finite (callers render that as "n/a") — the averaging
    companion of {!ratio}/{!percent_reduction}, which mark degenerate
    inputs with [nan]. *)
val mean_finite : float list -> float

(** [ratio a b] is [a /. b]; returns [nan] when [b = 0.]. *)
val ratio : float -> float -> float

(** [percent_reduction before after] is the relative reduction in percent,
    e.g. [percent_reduction 100. 53.] = 47.; returns [nan] when
    [before = 0.]. *)
val percent_reduction : float -> float -> float

(** [clamp lo hi v]. *)
val clamp : int -> int -> int -> int

(** [peak_rss_kb ()] is the process's peak resident set size in kB, read
    from [/proc/self/status] ([VmHWM]); [None] where unavailable —
    non-Linux hosts, a missing or unreadable status file, a [VmHWM] line
    with no digits — never an exception.  The scale-tier benchmarks
    render [None] as "n/a" next to wall time.  [?path] overrides the
    proc file location (used by the degradation tests). *)
val peak_rss_kb : ?path:string -> unit -> int option
