open Tqec_circuit

type t = {
  circuit : Circuit.t;
  seed : int;
  restarts : int;
  jobs : int;
  partition : int option;
  corridor_cells : int option;
}

(* Gate generators are total in the wire indices: a wire is drawn from
   [0, active) directly and a CNOT target is [control + 1 + offset mod
   (active - 1)], so no shrink step can ever produce an out-of-range
   wire or a self-targeting CNOT.  QCheck2's integrated shrinking then
   reduces counterexamples inside the space of well-formed circuits. *)
let gate_gen ~active ~shape =
  let open QCheck2.Gen in
  let wire = int_bound (active - 1) in
  let single =
    oneof
      [
        map (fun q -> Gate.H q) wire;
        map (fun q -> Gate.S q) wire;
        map (fun q -> Gate.Sdg q) wire;
        map (fun q -> Gate.T q) wire;
        map (fun q -> Gate.Tdg q) wire;
        map (fun q -> Gate.X q) wire;
        map (fun q -> Gate.Z q) wire;
      ]
  in
  let t_stream =
    oneof [ map (fun q -> Gate.T q) wire; map (fun q -> Gate.Tdg q) wire ]
  in
  if active < 2 then match shape with `All_t -> t_stream | _ -> single
  else
    let cnot =
      map2
        (fun control off ->
          Gate.Cnot { control; target = (control + 1 + off) mod active })
        wire
        (int_bound (active - 2))
    in
    match shape with
    | `Uniform -> frequency [ (7, single); (3, cnot) ]
    | `Cnot_heavy -> frequency [ (1, single); (4, cnot) ]
    | `All_t -> t_stream
    | `Single_qubit_only -> single

let gen_circuit =
  let open QCheck2.Gen in
  int_range 1 8 >>= fun active ->
  frequency
    [
      (5, pure `Uniform);
      (2, pure `Cnot_heavy);
      (1, pure `All_t);
      (1, pure `Single_qubit_only);
    ]
  >>= fun shape ->
  (* empty circuits are a first-class shape, not a rare accident.  All-T
     streams are capped lower: every T costs a six-line ICM gadget plus
     a distillation box, so a handful already stresses the gadget path
     without drowning a campaign in routing work *)
  (match shape with
  | `All_t -> frequency [ (1, pure 0); (8, int_range 1 10) ]
  | _ -> frequency [ (1, pure 0); (7, int_range 1 24); (1, int_range 25 40) ])
  >>= fun n_gates ->
  list_repeat n_gates (gate_gen ~active ~shape) >>= fun gates ->
  (* idle tail: wires beyond [active] that no gate touches *)
  frequency [ (4, pure 0); (1, int_range 1 2) ] >>= fun idle ->
  (* optionally scramble commuting neighbours, covering the "permuted
     commuting gates" degenerate shape at generation time too *)
  frequency [ (5, pure None); (1, map Option.some (int_bound 999)) ]
  >>= fun permute_seed ->
  let c = Circuit.make ~name:"fuzz" ~n_qubits:(active + idle) gates in
  let c =
    match permute_seed with
    | None -> c
    | Some seed ->
        Generator.permute_commuting ~seed ~swaps:(List.length gates / 2) c
  in
  pure c

let gen =
  let open QCheck2.Gen in
  gen_circuit >>= fun circuit ->
  int_bound 9999 >>= fun seed ->
  frequency [ (7, pure 1); (2, pure 2); (1, pure 3) ] >>= fun restarts ->
  int_range 1 4 >>= fun jobs ->
  opt ~ratio:0.3 (int_range 1 6) >>= fun partition ->
  (* small thresholds force the hierarchical corridor router onto
     instances the default (1M cells) would route flat *)
  opt ~ratio:0.3 (int_range 16 512) >>= fun corridor_cells ->
  pure { circuit; seed; restarts; jobs; partition; corridor_cells }

(* Quick effort plus a hard annealing-move cap: the oracles check
   validity, determinism and metamorphic relations — none depend on
   placement quality — so per-case placement work is bounded to keep
   thousand-case campaigns (and shrinking, which re-runs the oracle per
   candidate) in CI budgets. *)
let config_of case =
  {
    Tqec_compress.Pipeline.default_config with
    Tqec_compress.Pipeline.effort = Tqec_place.Placer.Quick;
    sa_moves_cap = Some 3_000;
    seed = case.seed;
    restarts = case.restarts;
    jobs = Some case.jobs;
    partition = case.partition;
    corridor_cells = case.corridor_cells;
  }

let flag_vector case =
  let module Knobs = Tqec_compress.Knobs in
  let config = config_of case in
  Knobs.rows
  |> List.filter_map (fun (row : Knobs.row) ->
         let value = row.Knobs.print config in
         if value = row.Knobs.print Knobs.defaults then None
         else Some (Printf.sprintf "--%s %s" row.Knobs.flag value))
  |> String.concat " "

let print case =
  Printf.sprintf "%s# replay: tqecc check <this file as .qct> %s\n"
    (Qct.to_string case.circuit)
    (flag_vector case)
