type spec = {
  name : string;
  n_wires : int;
  n_toffoli : int;
  n_cnot : int;
  n_not : int;
  n_unused : int;
  seed : int;
}

(* Draw [k] distinct wires in [0, active) with a locality bias: the first
   wire is uniform; subsequent wires stay within a small window around it
   80% of the time, matching the mostly-local structure of arithmetic and
   symmetric-function reversible benchmarks. *)
let distinct_wires rng active k =
  if k > active then invalid_arg "Generator: more wires requested than exist";
  let base = Tqec_util.Rng.int rng active in
  let near w =
    let window = max 2 (active / 4) in
    let lo = max 0 (w - window) and hi = min (active - 1) (w + window) in
    Tqec_util.Rng.int_in rng lo hi
  in
  let rec draw acc remaining =
    if remaining = 0 then List.rev acc
    else
      let candidate =
        if Tqec_util.Rng.float rng < 0.8 then near base
        else Tqec_util.Rng.int rng active
      in
      if List.mem candidate acc then draw acc remaining
      else draw (candidate :: acc) (remaining - 1)
  in
  draw [ base ] (k - 1)

(* Rewire gates until every wire in [0, active) is touched by a CNOT or
   Toffoli: each still-unused wire replaces the control of a gate whose
   other wires are all multiply-used. *)
let ensure_coverage active gates =
  let usage = Array.make active 0 in
  let touch g =
    List.iter
      (fun q -> usage.(q) <- usage.(q) + 1)
      (Gate.qubits g)
  in
  let untouch g =
    List.iter (fun q -> usage.(q) <- usage.(q) - 1) (Gate.qubits g)
  in
  let gates = Array.of_list gates in
  Array.iter
    (fun g -> match (g : Gate.t) with Cnot _ | Toffoli _ -> touch g | _ -> ())
    gates;
  let rewire wire =
    (* find a CNOT/Toffoli whose wires all have usage >= 2 and which does
       not already use [wire]; swap its control for [wire]. *)
    let fix i =
      match gates.(i) with
      | Gate.Cnot { control; target }
        when usage.(control) >= 2 && usage.(target) >= 2
             && control <> wire && target <> wire ->
          untouch gates.(i);
          gates.(i) <- Gate.Cnot { control = wire; target };
          touch gates.(i);
          true
      | Gate.Toffoli { c1; c2; target }
        when usage.(c1) >= 2 && usage.(c2) >= 2 && usage.(target) >= 2
             && c1 <> wire && c2 <> wire && target <> wire ->
          untouch gates.(i);
          gates.(i) <- Gate.Toffoli { c1 = wire; c2; target };
          touch gates.(i);
          true
      | _ -> false
    in
    let rec scan i = i < Array.length gates && (fix i || scan (i + 1)) in
    ignore (scan 0)
  in
  for wire = 0 to active - 1 do
    if usage.(wire) = 0 then rewire wire
  done;
  Array.to_list gates

let generate spec =
  let active = spec.n_wires - spec.n_unused in
  if active < 3 && spec.n_toffoli > 0 then
    invalid_arg "Generator.generate: Toffoli needs >= 3 active wires";
  if active < 2 && spec.n_cnot > 0 then
    invalid_arg "Generator.generate: CNOT needs >= 2 active wires";
  if active < 1 && spec.n_not > 0 then
    invalid_arg "Generator.generate: NOT needs an active wire";
  let rng = Tqec_util.Rng.create spec.seed in
  let kinds =
    Array.concat
      [
        Array.make spec.n_toffoli `Toffoli;
        Array.make spec.n_cnot `Cnot;
        Array.make spec.n_not `Not;
      ]
  in
  Tqec_util.Rng.shuffle rng kinds;
  let gate_of = function
    | `Toffoli -> (
        match distinct_wires rng active 3 with
        | [ c1; c2; target ] -> Gate.Toffoli { c1; c2; target }
        (* partial: distinct_wires returns exactly as many wires as
           asked; [active >= 3] is checked by the caller *)
        | _ -> assert false)
    | `Cnot -> (
        match distinct_wires rng active 2 with
        | [ control; target ] -> Gate.Cnot { control; target }
        (* partial: same distinct_wires length invariant, two wires *)
        | _ -> assert false)
    | `Not -> Gate.X (Tqec_util.Rng.int rng active)
  in
  let gates = Array.to_list (Array.map gate_of kinds) in
  let gates = if active > 0 then ensure_coverage active gates else gates in
  Circuit.make ~name:spec.name ~n_qubits:spec.n_wires gates

(* Scale tiers: a family of synthetic instances with the suite's gate
   mix but a size dial, for the memory/wall-time scaling curves.  The
   per-factor gate counts keep the Toffoli:CNOT:NOT ratio of the mid
   suite (~1:7.5:0.5) while wires grow with the square root of the
   gate count, so routed congestion stays comparable across tiers. *)
let scale_tier ~factor ?seed () =
  let f = max 1 factor in
  let seed = match seed with Some s -> s | None -> 4099 + f in
  generate
    {
      name = Printf.sprintf "tier-x%d" f;
      n_wires = 8 + (2 * f);
      n_toffoli = 4 * f;
      n_cnot = 30 * f;
      n_not = 2 * f;
      n_unused = 0;
      seed;
    }

(* Largest accepted tier factor: far beyond anything a machine can run
   (tier-x100000 is ~3.6M gates) but small enough that a parsed factor
   can never overflow the gate-count arithmetic in [scale_tier]. *)
let max_tier_factor = 100_000

(* Strict decimal parse: plain digits only.  [int_of_string_opt] also
   accepts "0x10", "0b1", "1_0" and a leading sign — none of which a
   "tier-x<k>" instance name should smuggle in — and arbitrarily long
   digit strings overflow to [None] rather than raising. *)
let tier_factor_of_name name =
  let prefix = "tier-x" in
  let plen = String.length prefix in
  if String.length name > plen && String.sub name 0 plen = prefix then
    let suffix = String.sub name plen (String.length name - plen) in
    let all_digits =
      String.for_all (fun c -> c >= '0' && c <= '9') suffix
    in
    if not all_digits then None
    else
      match int_of_string_opt suffix with
      | Some f when f >= 1 && f <= max_tier_factor -> Some f
      | Some _ | None -> None
  else None

(* "tier-x<k>" -> the tier circuit; anything else -> None.  Lets the
   CLI accept tier names wherever it accepts suite benchmark names.
   Malformed suffixes ("tier-x0", "tier-x-3", non-numeric, overflowing
   or radix-prefixed digits) are rejected with [None], never an
   exception. *)
let tier_of_name name =
  match tier_factor_of_name name with
  | Some f -> Some (scale_tier ~factor:f ())
  | None -> None

(* Parameterized Clifford+T generation: per-kind weights plus an idle
   tail, covering the degenerate corners of the parameter space the
   fixed-mix [random_clifford_t] cannot reach (all-T streams, CNOT-free
   circuits, mostly-idle registers).  Weights need not be normalized;
   all-zero weights degenerate to all-T. *)
type mix = {
  w_h : int;
  w_s : int;
  w_t : int;
  w_x : int;
  w_cnot : int;
}

let random_clifford_t_mix ~seed ~n_qubits ~n_idle ~n_gates ~mix =
  if n_qubits < 1 then
    invalid_arg "Generator.random_clifford_t_mix: n_qubits must be positive";
  let n_idle = Tqec_util.Stats.clamp 0 (n_qubits - 1) n_idle in
  let active = n_qubits - n_idle in
  let rng = Tqec_util.Rng.create seed in
  let total =
    mix.w_h + mix.w_s + mix.w_t + mix.w_x
    + if active >= 2 then mix.w_cnot else 0
  in
  let wire () = Tqec_util.Rng.int rng active in
  let gate () =
    if total = 0 then Gate.T (wire ())
    else begin
      let r = Tqec_util.Rng.int rng total in
      if r < mix.w_h then Gate.H (wire ())
      else if r < mix.w_h + mix.w_s then
        if Tqec_util.Rng.float rng < 0.5 then Gate.S (wire ())
        else Gate.Sdg (wire ())
      else if r < mix.w_h + mix.w_s + mix.w_t then
        if Tqec_util.Rng.float rng < 0.5 then Gate.T (wire ())
        else Gate.Tdg (wire ())
      else if r < mix.w_h + mix.w_s + mix.w_t + mix.w_x then
        if Tqec_util.Rng.float rng < 0.5 then Gate.X (wire ())
        else Gate.Z (wire ())
      else begin
        let control = wire () in
        let rec pick () =
          let t = wire () in
          if t = control then pick () else t
        in
        Gate.Cnot { control; target = pick () }
      end
    end
  in
  Circuit.make
    ~name:(Printf.sprintf "fuzz-%d" seed)
    ~n_qubits
    (List.init n_gates (fun _ -> gate ()))

let add_idle_qubit (c : Circuit.t) =
  Circuit.make ~name:(c.Circuit.name ^ "+idle")
    ~n_qubits:(c.Circuit.n_qubits + 1) c.Circuit.gates

let commuting g1 g2 =
  let q1 = Gate.qubits g1 and q2 = Gate.qubits g2 in
  not (List.exists (fun q -> List.mem q q2) q1)

let permute_commuting ~seed ~swaps (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let rng = Tqec_util.Rng.create seed in
  let swapped = ref 0 in
  if n >= 2 then
    (* bounded sweep: random adjacent positions, swap when the pair acts
       on disjoint wire sets (such gates commute, and the swap provably
       preserves the per-wire gate order) *)
    for _ = 1 to max 0 swaps * 4 do
      if !swapped < max 0 swaps then begin
        let i = Tqec_util.Rng.int rng (n - 1) in
        if commuting gates.(i) gates.(i + 1) then begin
          let t = gates.(i) in
          gates.(i) <- gates.(i + 1);
          gates.(i + 1) <- t;
          incr swapped
        end
      end
    done;
  Circuit.make ~name:c.Circuit.name ~n_qubits:c.Circuit.n_qubits
    (Array.to_list gates)

let random_clifford_t ~seed ~n_qubits ~n_gates =
  let rng = Tqec_util.Rng.create seed in
  let gate () =
    match Tqec_util.Rng.int rng 8 with
    | 0 -> Gate.H (Tqec_util.Rng.int rng n_qubits)
    | 1 -> Gate.S (Tqec_util.Rng.int rng n_qubits)
    | 2 -> Gate.T (Tqec_util.Rng.int rng n_qubits)
    | 3 -> Gate.Tdg (Tqec_util.Rng.int rng n_qubits)
    | 4 -> Gate.X (Tqec_util.Rng.int rng n_qubits)
    | 5 -> Gate.Z (Tqec_util.Rng.int rng n_qubits)
    | _ ->
        if n_qubits < 2 then Gate.T (Tqec_util.Rng.int rng n_qubits)
        else
          let control = Tqec_util.Rng.int rng n_qubits in
          let rec pick () =
            let t = Tqec_util.Rng.int rng n_qubits in
            if t = control then pick () else t
          in
          Gate.Cnot { control; target = pick () }
  in
  Circuit.make ~name:(Printf.sprintf "random-%d" seed) ~n_qubits
    (List.init n_gates (fun _ -> gate ()))
