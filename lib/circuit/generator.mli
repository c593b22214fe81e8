(** Seeded synthetic reversible-circuit generator.

    The paper evaluates on eight RevLib circuits that are not shipped
    here; this generator produces circuits with the same wire count and
    the same Toffoli / CNOT composition, so that after {!Clifford_t} and
    ICM decomposition the Table-1 statistics (#Qubits, #CNOTs, #|Y>,
    #|A>) match the paper exactly (see {!Suite}).

    Gate wiring follows a locality profile typical of reversible
    benchmarks: most gates act on nearby wires, a fraction are long
    range. *)

type spec = {
  name : string;
  n_wires : int;  (** wires of the reversible circuit *)
  n_toffoli : int;
  n_cnot : int;
  n_not : int;
  n_unused : int;
      (** trailing wires no gate touches (e.g. constant lines; add16_174
          and cycle17_3_112 have one, visible in the paper's canonical
          volumes which count one row fewer than #Qubits) *)
  seed : int;
}

(** [generate spec] builds the circuit; deterministic in [spec].  Every
    wire outside the unused tail is guaranteed to be touched by at least
    one CNOT or Toffoli. *)
val generate : spec -> Circuit.t

(** [scale_tier ~factor ()] is the synthetic scaling-curve instance
    ["tier-x<factor>"]: [4*factor] Toffolis, [30*factor] CNOTs,
    [2*factor] NOTs on [8 + 2*factor] wires, seeded [4099 + factor]
    unless [?seed] overrides it.  The gate mix matches the mid suite, so
    per-module statistics stay comparable as the size dial grows; the
    scale-tier benchmarks sweep [factor] to produce memory/wall-time
    curves far beyond the paper suite. *)
val scale_tier : factor:int -> ?seed:int -> unit -> Circuit.t

(** Largest factor {!tier_factor_of_name} accepts (100_000, ~3.6M
    gates): beyond any runnable size, yet small enough that the parsed
    factor can never overflow the gate-count arithmetic. *)
val max_tier_factor : int

(** [tier_factor_of_name "tier-x<k>"] is [Some k] when the suffix is a
    plain decimal in [1, max_tier_factor]; [None] otherwise.  Malformed
    suffixes — ["tier-x0"], ["tier-x-3"], non-numeric, radix-prefixed
    (["tier-x0x10"]) or overflowing digit strings — are rejected with
    [None], never an exception. *)
val tier_factor_of_name : string -> int option

(** [tier_of_name "tier-x<k>"] builds that tier; [None] for any other
    string (including malformed tier suffixes, see
    {!tier_factor_of_name}) — the hook that lets the CLI accept tier
    names wherever it accepts suite benchmark names. *)
val tier_of_name : string -> Circuit.t option

(** [random_clifford_t ~seed ~n_qubits ~n_gates] builds a random
    Clifford+T circuit (used by property tests and small experiments). *)
val random_clifford_t : seed:int -> n_qubits:int -> n_gates:int -> Circuit.t

(** Gate-kind weights for {!random_clifford_t_mix}.  Weights are
    relative and need not be normalized; a kind with weight 0 never
    appears.  All-zero weights degenerate to an all-T stream. *)
type mix = {
  w_h : int;
  w_s : int;  (** split evenly between S and Sdg *)
  w_t : int;  (** split evenly between T and Tdg *)
  w_x : int;  (** split evenly between X and Z (Pauli frame updates) *)
  w_cnot : int;  (** ignored when fewer than 2 active qubits *)
}

(** [random_clifford_t_mix ~seed ~n_qubits ~n_idle ~n_gates ~mix] is the
    parameterized companion of {!random_clifford_t}: gates are drawn
    with the given kind weights and land only on the first
    [n_qubits - n_idle] wires, leaving an idle tail ([n_idle] is clamped
    to [[0, n_qubits - 1]]).  Reaches the degenerate corners the fixed
    mix cannot: all-T streams, CNOT-free circuits, mostly-idle
    registers, and (with [n_gates = 0]) gateless circuits.
    @raise Invalid_argument when [n_qubits < 1]. *)
val random_clifford_t_mix :
  seed:int -> n_qubits:int -> n_idle:int -> n_gates:int -> mix:mix -> Circuit.t

(** [add_idle_qubit c] appends one untouched wire (metamorphic-oracle
    transform: an idle wire must never increase per-qubit volume). *)
val add_idle_qubit : Circuit.t -> Circuit.t

(** [permute_commuting ~seed ~swaps c] applies up to [swaps] random
    adjacent transpositions of gates with disjoint wire support.  Such
    gates commute, so the permuted circuit computes the same unitary and
    has identical per-wire gate order — the metamorphic-oracle transform
    for schedule-invariance properties. *)
val permute_commuting : seed:int -> swaps:int -> Circuit.t -> Circuit.t
