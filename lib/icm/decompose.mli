(** Clifford+T to ICM decomposition (the paper's preprocess stage).

    Gate handling:
    - [CNOT] maps to an ICM CNOT on the lines currently carrying its
      wires.
    - [T]/[Tdg] expands to the six-line teleportation gadget: one |A>
      injection, two |Y> injections and three bare ancilla lines, six
      CNOTs, one first-order measurement and four second-order
      measurements, after which the logical wire continues on the
      gadget's output line.  This is the gadget whose counting matches
      the paper's Table 1 (#Qubits = wires + 6 #|A>, #|Y> = 2 #|A>,
      six CNOTs per T).
    - [S]/[Sdg] expands to the one-ancilla |Y> teleportation (one CNOT,
      one free measurement).
    - [H] toggles the line's tracked basis frame: it exchanges the roles
      of the Z/X bases of the closing measurement and of any later
      gadget couplings, with no ICM resource cost (defect-qubit
      Hadamards are realized by boundary manipulation, not ancillae).
    - [X]/[Z] are absorbed into the Pauli frame and leave no structure.

    @raise Invalid_argument on non-Clifford+T input (lower it first with
    {!Tqec_circuit.Clifford_t.decompose}). *)

val run : Tqec_circuit.Circuit.t -> Icm.t
