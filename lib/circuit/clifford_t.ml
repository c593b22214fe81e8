(* Standard Toffoli network: H t; CX b t; Tdg t; CX a t; T t; CX b t;
   Tdg t; CX a t; T b; T t; H t; CX a b; T a; Tdg b; CX a b. *)
let toffoli_network a b t =
  [
    Gate.H t;
    Gate.Cnot { control = b; target = t };
    Gate.Tdg t;
    Gate.Cnot { control = a; target = t };
    Gate.T t;
    Gate.Cnot { control = b; target = t };
    Gate.Tdg t;
    Gate.Cnot { control = a; target = t };
    Gate.T b;
    Gate.T t;
    Gate.H t;
    Gate.Cnot { control = a; target = b };
    Gate.T a;
    Gate.Tdg b;
    Gate.Cnot { control = a; target = b };
  ]

let lower (c : Circuit.t) =
  let lower_gate g =
    match (g : Gate.t) with
    | Toffoli { c1; c2; target } -> toffoli_network c1 c2 target
    | X _ | Z _ | H _ | S _ | Sdg _ | T _ | Tdg _ | Cnot _ -> [ g ]
    | Swap _ | Fredkin _ | Mct _ ->
        invalid_arg
          (Printf.sprintf "Clifford_t.lower: run Mct.lower first (%s)"
             (Gate.to_string g))
  in
  Circuit.make ~name:c.name ~n_qubits:c.n_qubits
    (List.concat_map lower_gate c.gates)

let decompose c = lower (Mct.lower c)
