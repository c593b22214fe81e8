type builder = {
  mutable n_lines : int;
  mutable n_cnots : int;
  mutable inits : Icm.init_kind list; (* reversed *)
  mutable cnots : Icm.cnot list; (* reversed *)
  mutable meas : Icm.measurement list; (* reversed *)
  mutable n_meas : int;
  mutable gadgets : Icm.t_gadget list; (* reversed *)
  mutable next_gadget : int;
}

let new_line b kind =
  let line = b.n_lines in
  b.n_lines <- line + 1;
  b.inits <- kind :: b.inits;
  line

let add_cnot b ~control ~target =
  let idx = b.n_cnots in
  b.n_cnots <- idx + 1;
  b.cnots <- { Icm.control; target } :: b.cnots;
  idx

let add_meas b ~line ~basis ~order =
  let idx = b.n_meas in
  b.n_meas <- idx + 1;
  b.meas <- { Icm.m_line = line; m_basis = basis; m_order = order } :: b.meas;
  idx

let run (c : Tqec_circuit.Circuit.t) =
  if not (Tqec_circuit.Circuit.is_clifford_t c) then
    invalid_arg "Decompose.run: input must be Clifford+T";
  let b =
    {
      n_lines = 0;
      n_cnots = 0;
      inits = [];
      cnots = [];
      meas = [];
      n_meas = 0;
      gadgets = [];
      next_gadget = 0;
    }
  in
  (* Current ICM line of each logical wire, its tracked basis frame
     (flipped by H) and its T-gadget ordinal (for inter-T ordering). *)
  let line_of_wire = Array.init c.n_qubits (fun _ -> new_line b Icm.Init_z) in
  let h_frame = Array.make c.n_qubits false in
  let t_seq = Array.make c.n_qubits 0 in
  let flip basis flipped =
    match (basis, flipped) with
    | Icm.Mz, false | Icm.Mx, true -> Icm.Mz
    | Icm.Mx, false | Icm.Mz, true -> Icm.Mx
  in
  let emit_t wire =
    let q = line_of_wire.(wire) in
    let tid = b.next_gadget in
    b.next_gadget <- tid + 1;
    let a = new_line b Icm.Inject_a in
    let y1 = new_line b Icm.Inject_y in
    let g1 = new_line b Icm.Init_z in
    let y2 = new_line b Icm.Inject_y in
    let g2 = new_line b Icm.Init_x in
    let out = new_line b Icm.Init_z in
    let k1 = add_cnot b ~control:q ~target:a in
    let k2 = add_cnot b ~control:a ~target:g1 in
    let k3 = add_cnot b ~control:y1 ~target:g1 in
    let k4 = add_cnot b ~control:g1 ~target:g2 in
    let k5 = add_cnot b ~control:y2 ~target:g2 in
    let k6 = add_cnot b ~control:g2 ~target:out in
    let first =
      add_meas b ~line:q
        ~basis:(flip Icm.Mz h_frame.(wire))
        ~order:(Icm.Order_first tid)
    in
    let second =
      [
        add_meas b ~line:a ~basis:Icm.Mx ~order:(Icm.Order_second tid);
        add_meas b ~line:g1 ~basis:Icm.Mz ~order:(Icm.Order_second tid);
        add_meas b ~line:y1 ~basis:Icm.Mx ~order:(Icm.Order_second tid);
        add_meas b ~line:g2 ~basis:Icm.Mz ~order:(Icm.Order_second tid);
      ]
    in
    let _ = add_meas b ~line:y2 ~basis:Icm.Mx ~order:Icm.Order_free in
    b.gadgets <-
      {
        Icm.t_id = tid;
        t_wire = wire;
        t_seq = t_seq.(wire);
        t_lines = [ a; y1; g1; y2; g2; out ];
        t_cnots = [ k1; k2; k3; k4; k5; k6 ];
        t_first_meas = first;
        t_second_meas = second;
      }
      :: b.gadgets;
    t_seq.(wire) <- t_seq.(wire) + 1;
    line_of_wire.(wire) <- out;
    h_frame.(wire) <- false
  in
  let emit_s wire =
    let q = line_of_wire.(wire) in
    let y = new_line b Icm.Inject_y in
    ignore (add_cnot b ~control:q ~target:y);
    ignore (add_meas b ~line:y ~basis:Icm.Mx ~order:Icm.Order_free)
  in
  List.iter
    (fun g ->
      match (g : Tqec_circuit.Gate.t) with
      | X _ | Z _ -> () (* Pauli frame *)
      | H q -> h_frame.(q) <- not h_frame.(q)
      | S q | Sdg q -> emit_s q
      | T q | Tdg q -> emit_t q
      | Cnot { control; target } ->
          ignore
            (add_cnot b ~control:line_of_wire.(control)
               ~target:line_of_wire.(target))
      | Swap _ | Toffoli _ | Fredkin _ | Mct _ ->
          invalid_arg "Decompose.run: input must be Clifford+T")
    c.gates;
  (* Close every logical wire's output line. *)
  Array.iteri
    (fun wire line ->
      ignore
        (add_meas b ~line ~basis:(flip Icm.Mz h_frame.(wire))
           ~order:Icm.Order_free))
    line_of_wire;
  {
    Icm.name = c.name;
    n_lines = b.n_lines;
    inits = Array.of_list (List.rev b.inits);
    cnots = Array.of_list (List.rev b.cnots);
    meas = Array.of_list (List.rev b.meas);
    t_gadgets = Array.of_list (List.rev b.gadgets);
    line_of_wire;
  }
