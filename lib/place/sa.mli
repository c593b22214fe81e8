(** Generic simulated-annealing engine.

    The engine owns the annealing schedule; the problem supplies three
    callbacks over a mutable state: [cost] (smaller is better),
    [perturb] (make a random move, returning an undo closure), and
    optionally [on_best] (called when a new best cost is found, e.g. to
    snapshot the solution).  Cooling is geometric; the initial
    temperature is calibrated from the average uphill delta of a probe
    phase, the standard recipe for floorplanning annealers.

    Besides the one-shot [run], the engine exposes a resumable stepper
    ([create] / [step]) so a driver can interleave several trajectories
    in fixed-size chunks — the placer's adaptive multi-start advances K
    lanes epoch by epoch and compares bests at the chunk barriers.
    Chunked execution is bit-identical to an uninterrupted [run]: the
    probe phase completes inside [create] and [step] consumes the RNG
    exactly like the main loop. *)

type params = {
  iterations : int;  (** total move attempts, probe phase included *)
  moves_per_temp : int;
  cooling : float;  (** geometric factor in (0, 1) *)
  initial_acceptance : float;  (** probe-phase target, e.g. 0.85 *)
}

type stats = {
  attempted : int;
  accepted : int;
  best_cost : float;
  final_temperature : float;
}

(** A resumable trajectory: probe phase done, main loop at some point
    before [params.iterations] attempts. *)
type state

(** [create ~rng ~params ~cost ~perturb ?on_best ()] evaluates the
    initial cost, runs the temperature-calibration probe phase, and
    returns a trajectory ready to [step].  [perturb] must return an undo
    closure that restores the problem state exactly. *)
val create :
  rng:Tqec_util.Rng.t ->
  params:params ->
  cost:(unit -> float) ->
  perturb:(unit -> unit -> unit) ->
  ?on_best:(float -> unit) ->
  unit ->
  state

(** [step st budget] advances the trajectory by up to [budget] move
    attempts (stopping at [params.iterations]). *)
val step : state -> int -> unit

(** [finished st] is true once all [params.iterations] attempts ran. *)
val finished : state -> bool

(** [best_cost st] is the best cost seen so far. *)
val best_cost : state -> float

(** [attempted st] is the number of move attempts so far (including the
    probe phase). *)
val attempted : state -> int

(** [total_moves st] is [params.iterations]. *)
val total_moves : state -> int

(** [stats st] summarizes the trajectory so far. *)
val stats : state -> stats

(** [run ~rng ~params ~cost ~perturb ?on_best ()] anneals to completion
    and returns statistics — [create] followed by one full [step].  The
    problem state is left at the last accepted configuration; use
    [on_best] to checkpoint the best one. *)
val run :
  rng:Tqec_util.Rng.t ->
  params:params ->
  cost:(unit -> float) ->
  perturb:(unit -> unit -> unit) ->
  ?on_best:(float -> unit) ->
  unit ->
  stats
