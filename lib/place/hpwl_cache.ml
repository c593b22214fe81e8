(* Incremental half-perimeter wirelength.  The cache keeps one bounding
   box summary (its half-perimeter) per net plus a node -> incident nets
   index in CSR form; a move re-evaluates only the nets that contain a
   node whose position actually changed.  Integer arithmetic throughout,
   so the running total is exactly the from-scratch sum — no drift.

   The hot-path API works on unboxed coordinate arrays (xs, ys) and a
   preallocated changed-node buffer, and the single-level undo state
   lives in preallocated buffers inside [t]: an SA move does zero
   allocation in here. *)

type t = {
  nets : int array array;
  nets_of_node : int array array; (* node -> incident net ids *)
  net_hpwl : int array;
  mutable total : int;
  mark : int array; (* per-net stamp of the last update pass *)
  mutable stamp : int;
  undo_nets : int array; (* nets touched by the last update ... *)
  undo_vals : int array; (* ... and their previous half-perimeters *)
  mutable undo_len : int;
}

(* An indexed loop keeps the four bounds in registers; refs captured by
   an [Array.iter] closure would be boxed on every call. *)
let net_span (net : int array) ~(xs : int array) ~(ys : int array) =
  let x0 = ref max_int and x1 = ref min_int in
  let y0 = ref max_int and y1 = ref min_int in
  for k = 0 to Array.length net - 1 do
    let v = net.(k) in
    let x = xs.(v) and y = ys.(v) in
    if x < !x0 then x0 := x;
    if x > !x1 then x1 := x;
    if y < !y0 then y0 := y;
    if y > !y1 then y1 := y
  done;
  if !x1 < !x0 then 0 else !x1 - !x0 + (!y1 - !y0)

let compute_xy nets ~xs ~ys =
  Array.fold_left (fun acc net -> acc + net_span net ~xs ~ys) 0 nets

(* Reference form on boxed positions, for cold paths and tests. *)
let compute nets (pos : (int * int) array) =
  let n = Array.length pos in
  let xs = Array.make n 0 and ys = Array.make n 0 in
  for i = 0 to n - 1 do
    let x, y = pos.(i) in
    xs.(i) <- x;
    ys.(i) <- y
  done;
  compute_xy nets ~xs ~ys

let create ~n_nodes nets =
  let deg = Array.make n_nodes 0 in
  Array.iter (fun net -> Array.iter (fun v -> deg.(v) <- deg.(v) + 1) net) nets;
  let nets_of_node = Array.init n_nodes (fun v -> Array.make deg.(v) (-1)) in
  let fill = Array.make n_nodes 0 in
  Array.iteri
    (fun i net ->
      Array.iter
        (fun v ->
          nets_of_node.(v).(fill.(v)) <- i;
          fill.(v) <- fill.(v) + 1)
        net)
    nets;
  let n_nets = Array.length nets in
  {
    nets;
    nets_of_node;
    net_hpwl = Array.make n_nets 0;
    total = 0;
    mark = Array.make n_nets (-1);
    stamp = 0;
    undo_nets = Array.make n_nets 0;
    undo_vals = Array.make n_nets 0;
    undo_len = 0;
  }

let rebuild t ~xs ~ys =
  t.total <- 0;
  t.undo_len <- 0;
  Array.iteri
    (fun i net ->
      let v = net_span net ~xs ~ys in
      t.net_hpwl.(i) <- v;
      t.total <- t.total + v)
    t.nets;
  t.total

let total t = t.total

let update t ~xs ~ys ~(changed : int array) ~n_changed =
  t.stamp <- t.stamp + 1;
  t.undo_len <- 0;
  for k = 0 to n_changed - 1 do
    let incident = t.nets_of_node.(changed.(k)) in
    for j = 0 to Array.length incident - 1 do
      let i = incident.(j) in
      if t.mark.(i) <> t.stamp then begin
        t.mark.(i) <- t.stamp;
        let old = t.net_hpwl.(i) in
        let fresh = net_span t.nets.(i) ~xs ~ys in
        if fresh <> old then begin
          t.net_hpwl.(i) <- fresh;
          t.total <- t.total + fresh - old;
          t.undo_nets.(t.undo_len) <- i;
          t.undo_vals.(t.undo_len) <- old;
          t.undo_len <- t.undo_len + 1
        end
      end
    done
  done

let restore t =
  for k = 0 to t.undo_len - 1 do
    let i = t.undo_nets.(k) in
    let old = t.undo_vals.(k) in
    t.total <- t.total + old - t.net_hpwl.(i);
    t.net_hpwl.(i) <- old
  done;
  t.undo_len <- 0
