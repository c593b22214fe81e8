(** A fuzzing case: a random Clifford+T circuit plus the pipeline
    configuration knobs the property oracles randomize over.

    The generator covers the parameter space the issue calls out —
    qubit count, T-count, gate mix, idle qubits, and the degenerate
    shapes (empty circuit, single qubit, all-T streams, permuted
    commuting gates) — and is built from QCheck2 combinators end to
    end, so integrated shrinking walks {e within} the space of
    well-formed cases: wire indices are generated total (CNOT targets
    can never collide with controls, single-qubit registers never see a
    CNOT), which means every shrink candidate is a valid circuit and
    failures reduce to minimal reproducers. *)

type t = {
  circuit : Tqec_circuit.Circuit.t;
  seed : int;  (** pipeline seed (annealing trajectories) *)
  restarts : int;  (** independent annealing trajectories, >= 1 *)
  jobs : int;  (** worker domains; results must not depend on it *)
  partition : int option;  (** divide-and-conquer placement threshold *)
  corridor_cells : int option;  (** hierarchical-routing threshold *)
}

val gen : t QCheck2.Gen.t

(** Generator for just the circuit component (format round-trip
    properties use it without the config knobs). *)
val gen_circuit : Tqec_circuit.Circuit.t QCheck2.Gen.t

(** [config_of case] is the pipeline configuration encoding the case's
    knobs (variant [Full] and default effort/strategy). *)
val config_of : t -> Tqec_compress.Pipeline.config

(** [flag_vector case] renders [config_of case] as the exact [tqecc]
    flags that replay the run: every knob-table row whose value differs
    from {!Tqec_compress.Knobs.defaults}, as ["--flag value"] in table
    order, e.g. ["--seed 9 --jobs 3 --corridor 64 --sa-moves-cap 3000"]. *)
val flag_vector : t -> string

(** [print case] is the replayable reproducer: the circuit in [.qct]
    syntax followed by a comment line with the [tqecc check] replay
    command (QCheck2's counterexample printer). *)
val print : t -> string
