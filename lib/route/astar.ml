module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Pqueue = Tqec_util.Pqueue

(* Reusable per-searcher workspace.  Arrays grow geometrically with the
   largest region seen; a generation stamp marks which entries belong to
   the current search, so reuse needs no O(cells) clearing.  Each worker
   domain owns its scratch — nothing here is shared.

   A search cell is two words of [cells]: its meta word at [2 * code]
   and its g score at [2 * code + 1].  The meta word packs, from the
   low bits up, the direction of the step that reached the cell (one of
   [dir_*], or [no_parent]), the own-route flag (the cell lies on the
   searching net's own route), the exempt flag (a source or the target,
   exempt from blocking) and the generation of the search that last
   touched the cell.  Generations only grow, so a meta word below
   [gen lsl gen_shift] belongs to an earlier search and the cell reads
   as untouched: no flags, no parent, g infinite.  The heuristic is not
   stored: a search recomputes it from the cell's coordinates.

   [tile_stamp]/[tile_val] form a tile-indexed int map, valid where the
   stamp equals [gen]: a tile's corridor slot in the fine pass, its
   count of excluded cells in the coarse pass. *)
type scratch = {
  mutable cap : int;
  mutable cells : int array;
  mutable tile_stamp : int array;
  mutable tile_val : int array;
  mutable gen : int;
  queue : Pqueue.t;
  (* corridor assembly after a coarse search; [Hashtbl.clear] keeps the
     grown bucket table (where [reset] would shrink it) *)
  member : (int, unit) Hashtbl.t;
}

let create_scratch () =
  {
    cap = 0;
    cells = [||];
    tile_stamp = [||];
    tile_val = [||];
    gen = 0;
    queue = Pqueue.create ();
    member = Hashtbl.create 64;
  }

(* The step that reached a cell, in the order of Vec3.axis_neighbors;
   [no_parent] marks a source or a cell not reached yet. *)
let no_parent = 0
let dir_px = 1
let dir_nx = 2
let dir_py = 3
let dir_ny = 4
let dir_pz = 5
let dir_nz = 6
let dir_mask = 7
let own_flag = 8
let exempt_flag = 16
let gen_shift = 5

(* The code of the cell [code] was reached from by step [dir], in a
   row-major layout with x stride [sx], y stride [sy] and z stride 1. *)
let parent_code ~sx ~sy code dir =
  if dir = dir_px then code - sx
  else if dir = dir_nx then code + sx
  else if dir = dir_py then code - sy
  else if dir = dir_ny then code + sy
  else if dir = dir_pz then code - 1
  else code + 1

(* Set [flag] on cell [code] of the search whose shifted generation is
   [live], touching the cell first if an earlier search owns it. *)
let mark cells live code flag =
  let i = 2 * code in
  if cells.(i) < live then begin
    cells.(i) <- live lor flag;
    cells.(i + 1) <- max_int
  end
  else cells.(i) <- cells.(i) lor flag

(* [flag] is set in meta word [m], read by the search of shifted
   generation [live]. *)
let flagged live m flag = m >= live && m land flag <> 0

(* Record that the search of shifted generation [live] reached [code]
   by step [dir] at cost [g], keeping the cell's flags. *)
let reach cells live code dir g =
  let i = 2 * code in
  let m = cells.(i) in
  cells.(i) <- (if m < live then live else m land lnot dir_mask) lor dir;
  cells.(i + 1) <- g

(* Grow the cells to at least [n] slots and the tile map to at least
   [tiles] (the grid's directory size, fixed per grid).  Geometric
   growth: once the scratch has warmed to the largest region seen,
   further searches — including every widening step of the corridor
   escalation ladder — reallocate nothing ([Counters.scratch_grows]
   stays flat, which bench/route_stress.ml pins). *)
let grow ?(tiles = 0) scr n =
  if scr.cap < n || Array.length scr.tile_stamp < tiles then begin
    Atomic.incr Counters.scratch_grows;
    if scr.cap < n then begin
      let cap = max n (max 64 (2 * scr.cap)) in
      scr.cells <- Array.make (2 * cap) 0;
      scr.cap <- cap
    end;
    if Array.length scr.tile_stamp < tiles then begin
      scr.tile_stamp <- Array.make tiles 0;
      scr.tile_val <- Array.make tiles 0
    end
  end

(* Start a search: the generation whose shifted value [live] tells the
   search's cells from stale ones. *)
let next_gen scr =
  scr.gen <- scr.gen + 1;
  scr.gen lsl gen_shift

(* Per-search work, added once when a search ends. *)
let record_work ~pops ~pushes =
  ignore (Atomic.fetch_and_add Counters.astar_pops pops);
  ignore (Atomic.fetch_and_add Counters.astar_pushes pushes)

let clip grid region =
  match Box3.inter region (Grid.box grid) with
  | Some r -> r
  | None -> Grid.box grid

(* A negative penalty could price a cell below 1, which would break
   both the admissible heuristic and the queue's monotone contract. *)
let check_penalty name penalty =
  if penalty < 0 then invalid_arg (Printf.sprintf "Astar.%s: negative penalty" name)

(* Region-local dense state: cell codes are row-major offsets in the
   clipped region, so a neighbour's code is the popped code plus an
   axis stride and a search allocates nothing per expansion. *)
let search ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
  check_penalty "search" penalty;
  let region = clip grid region in
  let lo = region.Box3.lo and hi = region.Box3.hi in
  let lx = lo.Vec3.x and ly = lo.Vec3.y and lz = lo.Vec3.z in
  let hx = hi.Vec3.x and hy = hi.Vec3.y and hz = hi.Vec3.z in
  let ny = Box3.dy region and nz = Box3.dz region in
  let encode (p : Vec3.t) = ((((p.x - lx) * ny) + (p.y - ly)) * nz) + (p.z - lz) in
  let decode i =
    let z = i mod nz in
    let rest = i / nz in
    let y = rest mod ny in
    let x = rest / ny in
    Vec3.make (x + lx) (y + ly) (z + lz)
  in
  if not (Box3.contains region target) then None
  else begin
    Atomic.incr Counters.flat_searches;
    let scr = match scratch with Some s -> s | None -> create_scratch () in
    grow scr (Box3.dx region * ny * nz);
    let live = next_gen scr in
    let cells = scr.cells in
    let open_q = scr.queue in
    Pqueue.clear open_q;
    List.iter
      (fun s -> if Box3.contains region s then mark cells live (encode s) exempt_flag)
      sources;
    let target_code = encode target in
    mark cells live target_code exempt_flag;
    let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
    let h x y z = abs (x - tx) + abs (y - ty) + abs (z - tz) in
    (* Cells of the searching net's own current route are priced as if
       already ripped up (usage - 1). *)
    List.iter
      (fun c -> if Box3.contains region c then mark cells live (encode c) own_flag)
      exclude;
    let pushes = ref 0 in
    (* In-region sources are exempt, hence passable. *)
    List.iter
      (fun (s : Vec3.t) ->
        if Box3.contains region s then begin
          let code = encode s in
          cells.((2 * code) + 1) <- 0;
          incr pushes;
          Pqueue.push open_q (h s.x s.y s.z) code
        end)
      sources;
    (* A neighbour already reached this search at g <= gp + 1 cannot
       improve (every entry costs at least 1), so it is not probed; for
       it the probe and the comparison would change nothing. *)
    let relax gp dir x y z code =
      let m = cells.(2 * code) in
      if m < live || cells.((2 * code) + 1) > gp + 1 then begin
        let cost =
          Grid.probe grid ~penalty ~avoid_used
            ~exempt:(flagged live m exempt_flag)
            ~dusage:(if flagged live m own_flag then -1 else 0)
            x y z
        in
        if cost >= 0 then begin
          let tentative = gp + cost in
          if m < live || tentative < cells.((2 * code) + 1) then begin
            reach cells live code dir tentative;
            incr pushes;
            Pqueue.push open_q (tentative + h x y z) code
          end
        end
      end
    in
    let sx = ny * nz and sy = nz in
    let found = ref false in
    let pops = ref 0 in
    while (not !found) && (not (Pqueue.is_empty open_q))
          && !pops < max_expansions do
      incr pops;
      let f = Pqueue.min_key open_q in
      let code = Pqueue.pop open_q in
      let gp = cells.((2 * code) + 1) in
      let z = lz + (code mod nz) and rest = code / nz in
      let y = ly + (rest mod ny) and x = lx + (rest / ny) in
      (* skip stale queue entries *)
      if f <= gp + h x y z then begin
        if code = target_code then found := true
        else begin
          (* the order of Vec3.axis_neighbors: +x -x +y -y +z -z *)
          if x < hx then relax gp dir_px (x + 1) y z (code + sx);
          if x > lx then relax gp dir_nx (x - 1) y z (code - sx);
          if y < hy then relax gp dir_py x (y + 1) z (code + sy);
          if y > ly then relax gp dir_ny x (y - 1) z (code - sy);
          if z < hz then relax gp dir_pz x y (z + 1) (code + 1);
          if z > lz then relax gp dir_nz x y (z - 1) (code - 1)
        end
      end
    done;
    record_work ~pops:!pops ~pushes:!pushes;
    if not !found then None
    else begin
      let rec backtrack acc code =
        let acc = decode code :: acc in
        let dir = cells.(2 * code) land dir_mask in
        if dir = no_parent then acc else backtrack acc (parent_code ~sx ~sy code dir)
      in
      Some (backtrack [] target_code)
    end
  end

(* ------------------------------------------------------------------ *)
(* Hierarchical corridor search.                                       *)
(*                                                                     *)
(* Above a region-volume threshold (the caller's call), flat A* pays   *)
(* O(region volume) scratch and wavefront costs even when the useful   *)
(* geometry is a thin skeleton.  The hierarchical variant first runs a *)
(* coarse A* over the tile graph — one node per Grid tile, 6-neighbor  *)
(* adjacency, costs from the incrementally maintained per-tile         *)
(* summaries — then restricts the fine cell-level A* to the corridor:  *)
(* the coarse path's tiles plus their axis neighbors.  Scratch and     *)
(* wavefront now scale with the corridor volume.                       *)
(*                                                                     *)
(* The fine pass keeps its own copy of [search]'s loop instead of     *)
(* sharing one behind closures: it encodes cells by corridor slot and  *)
(* reaches a neighbour through the tile map rather than a region       *)
(* stride, and a loop parameterized by closures would tax every        *)
(* expansion of both.                                                  *)
(* ------------------------------------------------------------------ *)

(* The coarse pass prices tile congestion with a FIXED penalty instead
   of the caller's negotiation penalty.  The corridor choice is a guide
   (feasibility and exact costs are re-established by the fine pass), so
   the iteration-dependent penalty bought nothing — and removing it
   makes the coarse search a function of (sources' tiles, target tile,
   region, tile summaries) alone, which is what lets the corridor cache
   reuse one corridor across negotiation iterations and between the
   negotiation and cleanup phases. *)
let coarse_penalty = 6

(* Coarse pass: A* over the tile graph restricted to tiles meeting
   [region], from the sources' tiles to the target's tile.  Returns the
   corridor as a list of tile indices (path tiles plus axis neighbors),
   or None when even the coarse graph offers no path.

   [exclude] prices the net's own current route out of the tile
   congestion (each excluded cell carries exactly the +1 usage the net
   itself claimed, so a per-tile count subtraction is exact) — the
   coarse-level analogue of the fine pass's own-route bias.  Beyond
   route quality, this makes the coarse effective input invariant under
   the net's own rip-up/re-claim, which is what lets the corridor cache
   survive the batch-phase route/commit cycle (see the cache contract
   in pathfinder.ml).

   [source_tiles], when given, must be the deduplicated in-region
   source tiles in first-occurrence order — exactly the list the
   corridor cache computes for its key.  The coarse pass then seeds
   from it directly instead of re-walking the (much longer) source cell
   list; both derivations visit tiles in the same order, so the search
   is bit-identical either way. *)
let coarse_corridor ?(exclude = []) ?source_tiles scr grid ~region ~sources
    ~(target : Vec3.t) =
  let region = clip grid region in
  if not (Box3.contains region target) then None
  else begin
  Atomic.incr Counters.coarse_searches;
  let penalty = coarse_penalty in
  let _, tdy, tdz = Grid.tile_dims grid in
  let n_tiles = Grid.n_tiles grid in
  grow ~tiles:n_tiles scr n_tiles;
  let live = next_gen scr in
  let gen = scr.gen in
  let cells = scr.cells
  and excl_stamp = scr.tile_stamp
  and excl_count = scr.tile_val in
  let open_q = scr.queue in
  Pqueue.clear open_q;
  let edge = Grid.tile_edge in
  (* tile-coordinate bounds of the region: a tile is in play iff its
     coordinates fall inside (its cell box then meets [region]) *)
  let lo = (Grid.box grid).Box3.lo in
  let tlo = region.Box3.lo and thi = region.Box3.hi in
  let tlx = (tlo.Vec3.x - lo.Vec3.x) / edge
  and tly = (tlo.Vec3.y - lo.Vec3.y) / edge
  and tlz = (tlo.Vec3.z - lo.Vec3.z) / edge in
  let thx = (thi.Vec3.x - lo.Vec3.x) / edge
  and thy = (thi.Vec3.y - lo.Vec3.y) / edge
  and thz = (thi.Vec3.z - lo.Vec3.z) / edge in
  let sx = tdy * tdz and sy = tdz in
  let encode x y z = ((x * tdy) + y) * tdz + z in
  let die = Grid.die grid in
  let ttx = Grid.tile_index grid target / sx in
  let tty = Grid.tile_index grid target / tdz mod tdy in
  let ttz = Grid.tile_index grid target mod tdz in
  let target_code = encode ttx tty ttz in
  mark cells live target_code exempt_flag;
  (match source_tiles with
  | Some tiles -> List.iter (fun ti -> mark cells live ti exempt_flag) tiles
  | None ->
      List.iter
        (fun s ->
          if Box3.contains region s then
            mark cells live (Grid.tile_index grid s) exempt_flag)
        sources);
  List.iter
    (fun c ->
      if Box3.contains region c then begin
        let ti = Grid.tile_index grid c in
        if excl_stamp.(ti) = gen then excl_count.(ti) <- excl_count.(ti) + 1
        else begin
          excl_stamp.(ti) <- gen;
          excl_count.(ti) <- 1
        end
      end)
    exclude;
  let h x y z = (abs (x - ttx) + abs (y - tty) + abs (z - ttz)) * edge in
  (* Entering a tile costs roughly a tile traversal: the edge length at
     base cost, scaled up by the tile's average congestion (summed usage
     weighted by the negotiation penalty, plus history) and by the
     outside-die surcharge when the tile lies wholly outside the die.
     This is a guide, not a guarantee — feasibility is re-established by
     the fine pass. *)
  let enter_tile x y z code =
    (* clamped defensively: with the route_all call discipline the
       excluded cells' usage is really present, so the subtraction
       cannot go negative — but A* must never see a negative edge *)
    let congestion =
      max 0
        (Grid.tile_congestion grid code
        - if excl_stamp.(code) = gen then excl_count.(code) else 0)
    in
    let ox = lo.Vec3.x + (x * edge) and oy = lo.Vec3.y + (y * edge)
    and oz = lo.Vec3.z + (z * edge) in
    let outside =
      ox > die.Box3.hi.Vec3.x
      || oy > die.Box3.hi.Vec3.y
      || oz > die.Box3.hi.Vec3.z
      || ox + edge - 1 < die.Box3.lo.Vec3.x
      || oy + edge - 1 < die.Box3.lo.Vec3.y
      || oz + edge - 1 < die.Box3.lo.Vec3.z
    in
    let base = if outside then edge * (1 + Grid.outside_die_cost) else edge in
    base + (congestion * penalty * edge / Grid.tile_cells)
  in
  let pushes = ref 0 in
  (* every seed tile was marked exempt above, so it is touched *)
  let seed code =
    if cells.((2 * code) + 1) <> 0 then begin
      cells.((2 * code) + 1) <- 0;
      incr pushes;
      Pqueue.push open_q (h (code / sx) (code / tdz mod tdy) (code mod tdz)) code
    end
  in
  (match source_tiles with
  | Some tiles -> List.iter seed tiles
  | None ->
      List.iter
        (fun (s : Vec3.t) ->
          if Box3.contains region s then seed (Grid.tile_index grid s))
        sources);
  let expand gp dir nx ny nz =
    if
      nx >= tlx && nx <= thx && ny >= tly && ny <= thy && nz >= tlz
      && nz <= thz
    then begin
      let ncode = encode nx ny nz in
      let m = cells.(2 * ncode) in
      (* the flat pass's settled-neighbour skip: entering a tile costs
         at least [edge] *)
      if
        (m < live || cells.((2 * ncode) + 1) > gp + edge)
        && (flagged live m exempt_flag || not (Grid.tile_blocked grid ncode))
      then begin
        let tentative = gp + enter_tile nx ny nz ncode in
        if m < live || tentative < cells.((2 * ncode) + 1) then begin
          reach cells live ncode dir tentative;
          incr pushes;
          Pqueue.push open_q (tentative + h nx ny nz) ncode
        end
      end
    end
  in
  let found = ref false in
  let pops = ref 0 in
  while (not !found) && (not (Pqueue.is_empty open_q)) && !pops < n_tiles * 8
  do
    incr pops;
    let f = Pqueue.min_key open_q in
    let code = Pqueue.pop open_q in
    let gp = cells.((2 * code) + 1) in
    let x = code / sx and y = code / tdz mod tdy and z = code mod tdz in
    if f <= gp + h x y z then begin
      if code = target_code then found := true
      else begin
        expand gp dir_nx (x - 1) y z;
        expand gp dir_px (x + 1) y z;
        expand gp dir_ny x (y - 1) z;
        expand gp dir_py x (y + 1) z;
        expand gp dir_nz x y (z - 1);
        expand gp dir_pz x y (z + 1)
      end
    end
  done;
  record_work ~pops:!pops ~pushes:!pushes;
  if not !found then None
  else begin
    (* corridor = path tiles plus their in-range axis neighbors, in
       deterministic discovery order (slot numbering feeds cell codes) *)
    let member = scr.member in
    Hashtbl.clear member;
    let corridor = ref [] in
    let add code =
      if not (Hashtbl.mem member code) then begin
        Hashtbl.replace member code ();
        corridor := code :: !corridor
      end
    in
    let rec walk code =
      add code;
      let dir = cells.(2 * code) land dir_mask in
      if dir <> no_parent then walk (parent_code ~sx ~sy code dir)
    in
    walk target_code;
    let on_path = List.rev !corridor in
    List.iter
      (fun code ->
        let x = code / sx and y = code / tdz mod tdy and z = code mod tdz in
        let ring nx ny nz =
          if
            nx >= tlx && nx <= thx && ny >= tly && ny <= thy && nz >= tlz
            && nz <= thz
          then add (encode nx ny nz)
        in
        ring (x - 1) y z;
        ring (x + 1) y z;
        ring x (y - 1) z;
        ring x (y + 1) z;
        ring x y (z - 1);
        ring x y (z + 1))
      on_path;
    Some (List.rev !corridor)
  end
  end

(* Fine pass: cell-level A* restricted to [corridor], a tile-index list
   from [coarse_corridor] — freshly computed or replayed from the
   corridor cache; the result depends only on the corridor's content,
   never on where it came from.  Cells are encoded as slot * tile_cells
   + in-tile offset, so scratch scales with the corridor, never with
   the region's bounding volume.  The loop is [search]'s, with the
   region stride replaced by a tile-map lookup. *)
let fine_in_corridor ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) scr grid ~corridor ~region ~penalty ~sources ~target =
  check_penalty "fine_in_corridor" penalty;
  let region = clip grid region in
  if not (Box3.contains region target) then None
  else begin
    Atomic.incr Counters.fine_searches;
    let tcells = Grid.tile_cells in
    let slots = Array.of_list corridor in
    grow ~tiles:(Grid.n_tiles grid) scr (Array.length slots * tcells);
    let live = next_gen scr in
    let gen = scr.gen in
    let cells = scr.cells
    and slot_stamp = scr.tile_stamp
    and slot_of = scr.tile_val in
    Array.iteri
      (fun i ti ->
        slot_stamp.(ti) <- gen;
        slot_of.(ti) <- i)
      slots;
    let open_q = scr.queue in
    Pqueue.clear open_q;
    let _, tdy, tdz = Grid.tile_dims grid in
    let glo = (Grid.box grid).Box3.lo in
    let gx = glo.Vec3.x and gy = glo.Vec3.y and gz = glo.Vec3.z in
    (* Grid's tile layout in shifts and masks: the tile size is not a
       compile-time constant here, and a division by it costs a
       hardware divide per neighbour. *)
    let bits = Grid.tile_bits in
    let mask = Grid.tile_edge - 1 in
    (* -1: outside the corridor *)
    let encode x y z =
      let ox = x - gx and oy = y - gy and oz = z - gz in
      let ti =
        ((((ox lsr bits) * tdy) + (oy lsr bits)) * tdz) + (oz lsr bits)
      in
      if slot_stamp.(ti) <> gen then -1
      else
        (slot_of.(ti) lsl (3 * bits))
        lor (((((ox land mask) lsl bits) lor (oy land mask)) lsl bits)
            lor (oz land mask))
    in
    (* cell (x, y, z) of [code], written to [xyz] *)
    let xyz = Array.make 3 0 in
    let locate code =
      let ti = slots.(code lsr (3 * bits)) in
      xyz.(0) <- gx + ((ti / (tdy * tdz)) lsl bits) + ((code lsr (2 * bits)) land mask);
      xyz.(1) <- gy + ((ti / tdz mod tdy) lsl bits) + ((code lsr bits) land mask);
      xyz.(2) <- gz + ((ti mod tdz) lsl bits) + (code land mask)
    in
    List.iter
      (fun (s : Vec3.t) ->
        if Box3.contains region s then begin
          let c = encode s.x s.y s.z in
          if c >= 0 then mark cells live c exempt_flag
        end)
      sources;
    let target_code = encode target.Vec3.x target.Vec3.y target.Vec3.z in
    if target_code < 0 then None
    else begin
      mark cells live target_code exempt_flag;
      let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
      let h x y z = abs (x - tx) + abs (y - ty) + abs (z - tz) in
      List.iter
        (fun (c : Vec3.t) ->
          if Box3.contains region c then begin
            let code = encode c.x c.y c.z in
            if code >= 0 then mark cells live code own_flag
          end)
        exclude;
      let pushes = ref 0 in
      (* in-corridor sources are exempt, hence passable *)
      List.iter
        (fun (s : Vec3.t) ->
          if Box3.contains region s then begin
            let code = encode s.x s.y s.z in
            if code >= 0 then begin
              cells.((2 * code) + 1) <- 0;
              incr pushes;
              Pqueue.push open_q (h s.x s.y s.z) code
            end
          end)
        sources;
      let lx = region.Box3.lo.Vec3.x and hx = region.Box3.hi.Vec3.x
      and ly = region.Box3.lo.Vec3.y and hy = region.Box3.hi.Vec3.y
      and lz = region.Box3.lo.Vec3.z and hz = region.Box3.hi.Vec3.z in
      (* the flat pass's settled-neighbour skip *)
      let relax gp dir x y z =
        let code = encode x y z in
        if code >= 0 then begin
          let m = cells.(2 * code) in
          if m < live || cells.((2 * code) + 1) > gp + 1 then begin
            let cost =
              Grid.probe grid ~penalty ~avoid_used
                ~exempt:(flagged live m exempt_flag)
                ~dusage:(if flagged live m own_flag then -1 else 0)
                x y z
            in
            if cost >= 0 then begin
              let tentative = gp + cost in
              if m < live || tentative < cells.((2 * code) + 1) then begin
                reach cells live code dir tentative;
                incr pushes;
                Pqueue.push open_q (tentative + h x y z) code
              end
            end
          end
        end
      in
      let found = ref false in
      let pops = ref 0 in
      while (not !found) && (not (Pqueue.is_empty open_q))
            && !pops < max_expansions do
        incr pops;
        let f = Pqueue.min_key open_q in
        let code = Pqueue.pop open_q in
        let gp = cells.((2 * code) + 1) in
        locate code;
        let x = xyz.(0) and y = xyz.(1) and z = xyz.(2) in
        if f <= gp + h x y z then begin
          if code = target_code then found := true
          else begin
            (* the order of Vec3.axis_neighbors: +x -x +y -y +z -z *)
            if x < hx then relax gp dir_px (x + 1) y z;
            if x > lx then relax gp dir_nx (x - 1) y z;
            if y < hy then relax gp dir_py x (y + 1) z;
            if y > ly then relax gp dir_ny x (y - 1) z;
            if z < hz then relax gp dir_pz x y (z + 1);
            if z > lz then relax gp dir_nz x y (z - 1)
          end
        end
      done;
      record_work ~pops:!pops ~pushes:!pushes;
      if not !found then None
      else begin
        (* a parent is the cell one step back along the reaching
           direction; it was expanded, so it lies in the corridor *)
        let rec backtrack acc code =
          locate code;
          let x = xyz.(0) and y = xyz.(1) and z = xyz.(2) in
          let acc = Vec3.make x y z :: acc in
          let dir = cells.(2 * code) land dir_mask in
          if dir = no_parent then acc
          else
            let px = if dir = dir_px then x - 1 else if dir = dir_nx then x + 1 else x
            and py = if dir = dir_py then y - 1 else if dir = dir_ny then y + 1 else y
            and pz = if dir = dir_pz then z - 1 else if dir = dir_nz then z + 1 else z in
            backtrack acc (encode px py pz)
        in
        Some (backtrack [] target_code)
      end
    end
  end

let search_corridor ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
  check_penalty "search_corridor" penalty;
  let region = clip grid region in
  if not (Box3.contains region target) then None
  else
    let scr = match scratch with Some s -> s | None -> create_scratch () in
    match coarse_corridor ~exclude scr grid ~region ~sources ~target with
    | None -> None
    | Some corridor ->
        fine_in_corridor ~max_expansions ~avoid_used ~exclude scr grid
          ~corridor ~region ~penalty ~sources ~target

let path_cost grid ~penalty = function
  | [] -> 0
  | _ :: rest ->
      List.fold_left (fun acc p -> acc + Grid.enter_cost grid ~penalty p) 0 rest
