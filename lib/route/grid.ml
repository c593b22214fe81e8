module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3

let capacity = 1

let outside_die_cost = 6

(* Chunked sparse congestion state: the bounding box is carved into
   fixed-size [tile_edge]^3 tiles, allocated on first touch through a
   flat tile directory.  Memory scales with the number of touched tiles
   — the routed skeleton — not with the substrate volume, which for
   sparse assemblies is orders of magnitude larger. *)
let tile_bits = 3

let tile_edge = 1 lsl tile_bits

let tile_mask = tile_edge - 1

let tile_cells = tile_edge * tile_edge * tile_edge

(* One flag byte per cell: bit 0 obstacle, bit 1 shared. *)
let obstacle_bit = 1

let shared_bit = 2

(* Usage and history are 16-bit little-endian cells.  Usage counts the
   routes through a cell and history grows by a few units per
   negotiation iteration, so both stay far below the ceiling;
   [add_usage] and [add_history] refuse a write above it rather than
   wrap. *)
let max_cost = 0xFFFF

(* [t_usage] and [t_hist] stay empty (every cell 0) until the first
   write of a usage or a history: tiles that only hold obstacles and
   pins — module cores, and every tile of a grid rebuilt for checking —
   keep just their flag bytes. *)
type tile = {
  mutable t_usage : Bytes.t;
  mutable t_hist : Bytes.t;
  t_flags : Bytes.t;
  (* Incrementally maintained tile summaries, the capacity signal the
     coarse corridor search reads: total usage + history over the tile,
     and the count of obstacle cells (a fully-obstacled tile is
     impassable at the coarse level). *)
  mutable t_sum_usage : int;
  mutable t_sum_hist : int;
  mutable t_n_obst : int;
}

type t = {
  box : Box3.t;
  die : Box3.t;
  nx : int;
  ny : int;
  nz : int;
  (* tile directory dimensions: ceil (n / tile_edge) per axis *)
  tx : int;
  ty : int;
  tz : int;
  tiles : tile option array;
  (* Cells currently above capacity, by flat index.  Maintained
     incrementally by [add_usage]/[set_shared], so [overused] is
     O(overused) instead of rescanning the whole x*y*z volume every
     negotiation iteration. *)
  over : (int, unit) Hashtbl.t;
  (* Per-tile summary generations: [gens.(ti)] is the value of
     [gen_counter] at the last mutation that changed tile [ti]'s
     summary-visible state (usage, history, obstacle count, shared
     mask).  The corridor cache compares a region's tile generations
     against the counter value recorded when a corridor was computed:
     all [<= stamp] means no coarse-search input changed. *)
  gens : int array;
  mutable gen_counter : int;
}

let create ?die box =
  let nx = Box3.dx box and ny = Box3.dy box and nz = Box3.dz box in
  let tx = (nx + tile_mask) lsr tile_bits in
  let ty = (ny + tile_mask) lsr tile_bits in
  let tz = (nz + tile_mask) lsr tile_bits in
  {
    box;
    die = (match die with Some d -> d | None -> box);
    nx;
    ny;
    nz;
    tx;
    ty;
    tz;
    tiles = Array.make (tx * ty * tz) None;
    over = Hashtbl.create 64;
    gens = Array.make (tx * ty * tz) 0;
    gen_counter = 0;
  }

let bump_gen g ti =
  g.gen_counter <- g.gen_counter + 1;
  g.gens.(ti) <- g.gen_counter

let box g = g.box
let die g = g.die
let in_bounds g p = Box3.contains g.box p

(* Global flat cell index — unchanged from the dense grid, so the
   [overused] ordering (x, then y, then z ascending) is bit-identical to
   the historical full-scan order. *)
let index g (p : Vec3.t) =
  let x = p.x - g.box.Box3.lo.Vec3.x in
  let y = p.y - g.box.Box3.lo.Vec3.y in
  let z = p.z - g.box.Box3.lo.Vec3.z in
  ((x * g.ny) + y) * g.nz + z

let cell_of_index g i =
  let lo = g.box.Box3.lo in
  let z = i mod g.nz in
  let rest = i / g.nz in
  let y = rest mod g.ny in
  let x = rest / g.ny in
  Vec3.make (lo.Vec3.x + x) (lo.Vec3.y + y) (lo.Vec3.z + z)

(* Tile directory index and within-tile cell index of [p]. *)
let tile_cell g (p : Vec3.t) =
  let x = p.x - g.box.Box3.lo.Vec3.x in
  let y = p.y - g.box.Box3.lo.Vec3.y in
  let z = p.z - g.box.Box3.lo.Vec3.z in
  let ti =
    (((x lsr tile_bits) * g.ty) + (y lsr tile_bits)) * g.tz + (z lsr tile_bits)
  in
  let ci =
    (((x land tile_mask) lsl tile_bits) lor (y land tile_mask)) lsl tile_bits
    lor (z land tile_mask)
  in
  (ti, ci)

let guard g p name =
  if not (in_bounds g p) then
    invalid_arg (Printf.sprintf "Grid.%s: out of bounds %s" name (Vec3.to_string p))

let fresh_tile () =
  {
    t_usage = Bytes.empty;
    t_hist = Bytes.empty;
    t_flags = Bytes.make tile_cells '\000';
    t_sum_usage = 0;
    t_sum_hist = 0;
    t_n_obst = 0;
  }

let has_flag t bit ci = Bytes.get_uint8 t.t_flags ci land bit <> 0

(* Cell [ci] of a lazily allocated cost array: 0 before its first write. *)
let cell_of costs ci =
  if Bytes.length costs = 0 then 0 else Bytes.get_uint16_le costs (2 * ci)

(* Writes [v] to cell [ci] of [costs], allocating the array on the
   first write; returns the array the tile keeps. *)
let write costs ci v =
  let costs =
    if Bytes.length costs = 0 then Bytes.make (2 * tile_cells) '\000' else costs
  in
  Bytes.set_uint16_le costs (2 * ci) v;
  costs

let ensure_tile g ti =
  match g.tiles.(ti) with
  | Some t -> t
  | None ->
      let t = fresh_tile () in
      g.tiles.(ti) <- Some t;
      t

let set_obstacle g p =
  guard g p "set_obstacle";
  let ti, ci = tile_cell g p in
  let t = ensure_tile g ti in
  let f = Bytes.get_uint8 t.t_flags ci in
  if f land obstacle_bit = 0 then begin
    Bytes.set_uint8 t.t_flags ci (f lor obstacle_bit);
    t.t_n_obst <- t.t_n_obst + 1;
    bump_gen g ti
  end

let set_obstacle_box g b =
  match Box3.inter g.box b with
  | None -> ()
  | Some clipped -> List.iter (set_obstacle g) (Box3.cells clipped)

let is_obstacle g p =
  in_bounds g p
  &&
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with
  | None -> false
  | Some t -> has_flag t obstacle_bit ci

let set_shared g p =
  guard g p "set_shared";
  let ti, ci = tile_cell g p in
  let t = ensure_tile g ti in
  Bytes.set_uint8 t.t_flags ci (Bytes.get_uint8 t.t_flags ci lor shared_bit);
  bump_gen g ti;
  (* shared cells have unlimited capacity: whatever their usage, they can
     no longer be overused *)
  Hashtbl.remove g.over (index g p)

let is_shared g p =
  in_bounds g p
  &&
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with
  | None -> false
  | Some t -> has_flag t shared_bit ci

let usage g p =
  guard g p "usage";
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with None -> 0 | Some t -> cell_of t.t_usage ci

let add_usage g p delta =
  guard g p "add_usage";
  let ti, ci = tile_cell g p in
  (* reject before writing: a refused delta leaves the cell, the tile
     summary and the generation timeline exactly as they were *)
  let u = delta + match g.tiles.(ti) with None -> 0 | Some t -> cell_of t.t_usage ci in
  if u < 0 then invalid_arg "Grid.add_usage: negative usage";
  if u > max_cost then invalid_arg "Grid.add_usage: usage above 65535";
  let t = ensure_tile g ti in
  t.t_usage <- write t.t_usage ci u;
  t.t_sum_usage <- t.t_sum_usage + delta;
  if delta <> 0 then bump_gen g ti;
  if not (has_flag t shared_bit ci) then
    if u > capacity then Hashtbl.replace g.over (index g p) ()
    else Hashtbl.remove g.over (index g p)

let history g p =
  guard g p "history";
  let ti, ci = tile_cell g p in
  match g.tiles.(ti) with None -> 0 | Some t -> cell_of t.t_hist ci

let add_history g p delta =
  guard g p "add_history";
  let ti, ci = tile_cell g p in
  (* reject before writing, as [add_usage] does: a negative history
     would price a cell below the floor of 1 the A* kernels rely on *)
  let h = delta + match g.tiles.(ti) with None -> 0 | Some t -> cell_of t.t_hist ci in
  if h < 0 then invalid_arg "Grid.add_history: negative history";
  if h > max_cost then invalid_arg "Grid.add_history: history above 65535";
  let t = ensure_tile g ti in
  t.t_hist <- write t.t_hist ci h;
  t.t_sum_hist <- t.t_sum_hist + delta;
  if delta <> 0 then bump_gen g ti

(* The A* kernels' per-neighbour read: passability and entry cost from
   one bounds check and one tile lookup, on bare coordinates so the
   caller allocates no [Vec3.t]. *)
let probe g ~penalty ~dusage ~avoid_used ~exempt x y z =
  let lo = g.box.Box3.lo in
  let ox = x - lo.Vec3.x and oy = y - lo.Vec3.y and oz = z - lo.Vec3.z in
  if ox < 0 || oy < 0 || oz < 0 || ox >= g.nx || oy >= g.ny || oz >= g.nz then
    invalid_arg
      (Printf.sprintf "Grid.probe: out of bounds %s"
         (Vec3.to_string (Vec3.make x y z)));
  let d = g.die in
  let base =
    if
      x >= d.Box3.lo.Vec3.x && x <= d.Box3.hi.Vec3.x
      && y >= d.Box3.lo.Vec3.y && y <= d.Box3.hi.Vec3.y
      && z >= d.Box3.lo.Vec3.z && z <= d.Box3.hi.Vec3.z
    then 1
    else 1 + outside_die_cost
  in
  let ti =
    (((ox lsr tile_bits) * g.ty) + (oy lsr tile_bits)) * g.tz + (oz lsr tile_bits)
  in
  match g.tiles.(ti) with
  | None ->
      (* untouched tile: usage 0, history 0, no obstacle, not shared *)
      let over = dusage + 1 - capacity in
      base + (if over > 0 then penalty * over else 0)
  | Some t ->
      let ci =
        (((ox land tile_mask) lsl tile_bits) lor (oy land tile_mask)) lsl tile_bits
        lor (oz land tile_mask)
      in
      let f = Bytes.get_uint8 t.t_flags ci in
      let shared = f land shared_bit <> 0 in
      let usage = cell_of t.t_usage ci in
      if
        (not exempt)
        && (f land obstacle_bit <> 0
           || (avoid_used && (not shared) && usage >= capacity))
      then -1
      else if shared then base + cell_of t.t_hist ci
      else
        let over = usage + dusage + 1 - capacity in
        base + cell_of t.t_hist ci + (if over > 0 then penalty * over else 0)

let enter_cost g ~penalty (p : Vec3.t) =
  guard g p "enter_cost";
  probe g ~penalty ~dusage:0 ~avoid_used:false ~exempt:true p.x p.y p.z

let overused g =
  (* hash-order: sorted by flat index so the order matches the historical
     full scan (x, then y, then z ascending) whatever the hash layout *)
  Hashtbl.fold (fun i () acc -> i :: acc) g.over []
  |> List.sort Int.compare
  |> List.map (cell_of_index g)

let overused_count g = Hashtbl.length g.over

(* ------------------------------------------------------------------ *)
(* Tile-level queries for the hierarchical corridor search.            *)
(* ------------------------------------------------------------------ *)

let n_tiles g = g.tx * g.ty * g.tz

let tile_dims g = (g.tx, g.ty, g.tz)

let tile_index g (p : Vec3.t) =
  let x = p.x - g.box.Box3.lo.Vec3.x in
  let y = p.y - g.box.Box3.lo.Vec3.y in
  let z = p.z - g.box.Box3.lo.Vec3.z in
  (((x lsr tile_bits) * g.ty) + (y lsr tile_bits)) * g.tz + (z lsr tile_bits)

let tile_coords g ti =
  let z = ti mod g.tz in
  let rest = ti / g.tz in
  let y = rest mod g.ty in
  let x = rest / g.ty in
  (x, y, z)

(* In-bounds cell count of a (possibly boundary-clipped) tile. *)
let tile_volume g ti =
  let x, y, z = tile_coords g ti in
  let w = min tile_edge (g.nx - (x lsl tile_bits)) in
  let h = min tile_edge (g.ny - (y lsl tile_bits)) in
  let d = min tile_edge (g.nz - (z lsl tile_bits)) in
  w * h * d

let tile_congestion g ti =
  match g.tiles.(ti) with
  | None -> 0
  | Some t -> t.t_sum_usage + t.t_sum_hist

let tile_blocked g ti =
  match g.tiles.(ti) with
  | None -> false
  | Some t -> t.t_n_obst >= tile_volume g ti

let tile_free g ti =
  let vol = tile_volume g ti in
  match g.tiles.(ti) with
  | None -> vol
  | Some t -> max 0 (vol - t.t_n_obst - t.t_sum_usage)

let generation g = g.gen_counter

let tile_generation g ti = g.gens.(ti)

let region_unchanged_since g ~since region =
  match Box3.inter g.box region with
  | None -> true
  | Some r ->
      let lo = g.box.Box3.lo in
      let tlx = (r.Box3.lo.Vec3.x - lo.Vec3.x) lsr tile_bits in
      let tly = (r.Box3.lo.Vec3.y - lo.Vec3.y) lsr tile_bits in
      let tlz = (r.Box3.lo.Vec3.z - lo.Vec3.z) lsr tile_bits in
      let thx = (r.Box3.hi.Vec3.x - lo.Vec3.x) lsr tile_bits in
      let thy = (r.Box3.hi.Vec3.y - lo.Vec3.y) lsr tile_bits in
      let thz = (r.Box3.hi.Vec3.z - lo.Vec3.z) lsr tile_bits in
      (* cheap global pre-check: nothing at all changed since the stamp *)
      g.gen_counter <= since
      ||
      let unchanged = ref true in
      let tx = ref tlx in
      while !unchanged && !tx <= thx do
        let ty = ref tly in
        while !unchanged && !ty <= thy do
          let base = (((!tx * g.ty) + !ty) * g.tz) + tlz in
          let tz = ref 0 in
          while !unchanged && !tz <= thz - tlz do
            if g.gens.(base + !tz) > since then unchanged := false;
            incr tz
          done;
          incr ty
        done;
        incr tx
      done;
      !unchanged

(* ------------------------------------------------------------------ *)
(* Memory accounting for the scale-tier benchmarks.                    *)
(* ------------------------------------------------------------------ *)

type mem = {
  mem_tiles : int;
  mem_tiles_total : int;
  mem_usage_tiles : int;
  mem_history_tiles : int;
  mem_cells : int;
  mem_touched_cells : int;
  mem_words : int;
}

let mem g =
  let count f =
    Array.fold_left
      (fun a t -> match t with Some t when f t -> a + 1 | _ -> a)
      0 g.tiles
  in
  let written costs = Bytes.length costs > 0 in
  let tiles = count (fun _ -> true) in
  {
    mem_tiles = tiles;
    mem_tiles_total = Array.length g.tiles;
    mem_usage_tiles = count (fun t -> written t.t_usage);
    mem_history_tiles = count (fun t -> written t.t_hist);
    mem_cells = g.nx * g.ny * g.nz;
    mem_touched_cells = tiles * tile_cells;
    mem_words = Obj.reachable_words (Obj.repr g);
  }
