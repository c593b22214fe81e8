(** The experiment harness regenerating every table and figure of the
    paper's evaluation (Tables 1-3, the Fig. 1 volume sequence).

    Knobs and the instance selection come from the environment when not
    given: the knob table's variables (e.g. [TQEC_EFFORT] in
    quick|normal|full), [TQEC_SCALE] (an integer divisor applied to the
    largest benchmarks so the harness terminates in minutes; 1 = full
    size) and [TQEC_BENCHMARKS] (comma-separated suite names). *)

type config = {
  pipeline : Pipeline.config;
      (** knobs for every run; [variant] is overridden, since each
          benchmark runs both the dual-only baseline and the full flow.
          [jobs] also sizes the suite fan-out *)
  scale : int;  (** divisor for gate counts; 1 = full-size instances *)
  auto_scale : bool;
      (** additionally scale the largest instances down so each stays
          near the largest tractable size (rd84-scale, ~2600 modules);
          disable with TQEC_FULLSIZE=1 for a full-size run *)
  benchmarks : string list;  (** names to run; defaults to all eight *)
}

(** [validate ~scale_from ~benchmarks_from config] checks the instance
    selection, the one place it is checked: [Ok config] when
    [config.scale] is at least 1 and [config.benchmarks] is a non-empty
    list of suite names ({!Tqec_circuit.Suite.names}).  Otherwise
    [Error] names the variable or flag the bad value came from
    ([scale_from] or [benchmarks_from]); an unknown benchmark's message
    also lists the suite names.  Callers exit 2 on it. *)
val validate :
  scale_from:string ->
  benchmarks_from:string ->
  config ->
  (config, string) result

(** [config_from_env ?pipeline ()] applies the knob table's variables
    (TQEC_EFFORT, TQEC_SEED, TQEC_RESTARTS, TQEC_JOBS, TQEC_EARLY_STOP,
    TQEC_PARTITION; see {!Knobs}) on top of [pipeline] (default
    {!Knobs.defaults}) and reads TQEC_SCALE, TQEC_BENCHMARKS (unset =
    all eight), TQEC_FULLSIZE and TQEC_DEBUG.  A knob variable its row
    rejects is [Error] naming the variable, and so is a TQEC_SCALE that
    is not an integer or a selection {!validate} rejects.  All reads
    happen at call time (an entry point builds its defaults once per
    invocation); nothing is captured at module load, so a long-running
    process never freezes these. *)
val config_from_env :
  ?pipeline:Pipeline.config -> unit -> (config, string) result

(** [run_benchmark config entry] measures one suite entry end to end. *)
val run_benchmark : config -> Tqec_circuit.Suite.entry -> Report.row

(** [run_all config] measures the selected benchmarks in table order,
    fanning instances out over [config.jobs] domains; rows keep suite
    order and match a serial run exactly. *)
val run_all : config -> Report.row list

(** [fig1_series ()] runs the four Fig. 1 configurations on the 3-CNOT
    example and returns (name, measured volume, paper volume) triples. *)
val fig1_series : unit -> (string * int * int) list

(** [render_all config] runs everything and returns the full report
    (Tables 1-3, Fig. 1, summary). *)
val render_all : config -> string
