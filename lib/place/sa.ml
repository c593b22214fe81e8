module Rng = Tqec_util.Rng

type params = {
  iterations : int;
  moves_per_temp : int;
  cooling : float;
  initial_acceptance : float;
}

type stats = {
  attempted : int;
  accepted : int;
  best_cost : float;
  final_temperature : float;
}

type state = {
  rng : Rng.t;
  params : params;
  cost : unit -> float;
  perturb : unit -> unit -> unit;
  on_best : float -> unit;
  mutable current : float;
  mutable best : float;
  mutable temperature : float;
  mutable attempted : int;
  mutable accepted : int;
  mutable moves_at_temp : int;
}

(* The probe phase (temperature calibration) runs eagerly here, so a
   fresh state is already past it; [step] only ever executes main-loop
   moves.  Splitting a run into arbitrary [step] chunks consumes the
   RNG exactly like an uninterrupted run. *)
let create ~rng ~params ~cost ~perturb ?(on_best = fun _ -> ()) () =
  let current = ref (cost ()) in
  let best = ref !current in
  on_best !best;
  (* Probe phase: estimate the average uphill delta to set T0 so that
     the initial acceptance probability matches the target.  Probe moves
     count against [params.iterations], so a budget below ten is still
     a ceiling. *)
  let probe_moves =
    min params.iterations (min 50 (max 10 (params.iterations / 100)))
  in
  let uphill_sum = ref 0. and uphill_count = ref 0 in
  for _ = 1 to probe_moves do
    let undo = perturb () in
    let c = cost () in
    let delta = c -. !current in
    if delta > 0. then begin
      uphill_sum := !uphill_sum +. delta;
      incr uphill_count
    end;
    (* accept all probe moves to explore; track best *)
    current := c;
    if c < !best then begin
      best := c;
      on_best c
    end;
    ignore undo
  done;
  let avg_uphill =
    if !uphill_count = 0 then 1.0 else !uphill_sum /. float_of_int !uphill_count
  in
  let t0 = -.avg_uphill /. log params.initial_acceptance in
  {
    rng;
    params;
    cost;
    perturb;
    on_best;
    current = !current;
    best = !best;
    temperature = Float.max 1e-6 t0;
    attempted = probe_moves;
    accepted = probe_moves;
    moves_at_temp = 0;
  }

let finished st = st.attempted >= st.params.iterations
let best_cost st = st.best
let attempted st = st.attempted
let total_moves st = st.params.iterations

let step st budget =
  let stop = min st.params.iterations (st.attempted + max 0 budget) in
  while st.attempted < stop do
    st.attempted <- st.attempted + 1;
    st.moves_at_temp <- st.moves_at_temp + 1;
    let undo = st.perturb () in
    let c = st.cost () in
    let delta = c -. st.current in
    let accept =
      delta <= 0.
      || Rng.float st.rng < exp (-.delta /. Float.max 1e-9 st.temperature)
    in
    if accept then begin
      st.accepted <- st.accepted + 1;
      st.current <- c;
      if c < st.best then begin
        st.best <- c;
        st.on_best c
      end
    end
    else undo ();
    if st.moves_at_temp >= st.params.moves_per_temp then begin
      st.moves_at_temp <- 0;
      st.temperature <- st.temperature *. st.params.cooling
    end
  done

let stats st =
  {
    attempted = st.attempted;
    accepted = st.accepted;
    best_cost = st.best;
    final_temperature = st.temperature;
  }

let run ~rng ~params ~cost ~perturb ?on_best () =
  let st = create ~rng ~params ~cost ~perturb ?on_best () in
  step st (params.iterations - st.attempted);
  stats st
