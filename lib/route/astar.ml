module Vec3 = Tqec_util.Vec3
module Box3 = Tqec_util.Box3
module Pqueue = Tqec_util.Pqueue

(* Reusable per-searcher workspace.  Arrays grow geometrically with the
   largest region seen; a generation stamp marks which entries belong to
   the current search, so reuse needs no O(cells) clearing.  Each worker
   domain owns its scratch — nothing here is shared.

   [own] and [exempt] are per-cell flags set when they equal [gen]: the
   cell lies on the searching net's own route, or is a source or the
   target (exempt from blocking).  [tile_stamp]/[tile_val] form a
   tile-indexed int map, valid where the stamp equals [gen]: a tile's
   corridor slot in the fine pass, its count of excluded cells in the
   coarse pass. *)
type scratch = {
  mutable cap : int;
  mutable g_score : int array;
  mutable parent : int array;
  mutable h_cache : int array;
  mutable stamp : int array;
  mutable own : int array;
  mutable exempt : int array;
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
    g_score = [||];
    parent = [||];
    h_cache = [||];
    stamp = [||];
    own = [||];
    exempt = [||];
    tile_stamp = [||];
    tile_val = [||];
    gen = 0;
    queue = Pqueue.create ();
    member = Hashtbl.create 64;
  }

(* Grow the per-cell arrays to at least [cells] slots and the tile map
   to at least [tiles] (the grid's directory size, fixed per grid).
   Geometric growth: once the scratch has warmed to the largest region
   seen, further searches — including every widening step of the
   corridor escalation ladder — reallocate nothing
   ([Counters.scratch_grows] stays flat, which bench/route_stress.ml
   pins). *)
let grow ?(tiles = 0) scr cells =
  if scr.cap < cells || Array.length scr.tile_stamp < tiles then begin
    Atomic.incr Counters.scratch_grows;
    if scr.cap < cells then begin
      let cap = max cells (max 64 (2 * scr.cap)) in
      scr.g_score <- Array.make cap max_int;
      scr.parent <- Array.make cap (-1);
      scr.h_cache <- Array.make cap 0;
      scr.stamp <- Array.make cap 0;
      scr.own <- Array.make cap 0;
      scr.exempt <- Array.make cap 0;
      scr.cap <- cap
    end;
    if Array.length scr.tile_stamp < tiles then begin
      scr.tile_stamp <- Array.make tiles 0;
      scr.tile_val <- Array.make tiles 0
    end
  end

(* Per-search work, added once when a search ends. *)
let record_work ~pops ~pushes =
  ignore (Atomic.fetch_and_add Counters.astar_pops pops);
  ignore (Atomic.fetch_and_add Counters.astar_pushes pushes)

let clip grid region =
  match Box3.inter region (Grid.box grid) with
  | Some r -> r
  | None -> Grid.box grid

(* Region-local dense state: cell codes are row-major offsets in the
   clipped region, so a neighbour's code is the popped code plus an
   axis stride and a search allocates nothing per expansion. *)
let search ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
  let region = clip grid region in
  let lo = region.Box3.lo and hi = region.Box3.hi in
  let lx = lo.Vec3.x and ly = lo.Vec3.y and lz = lo.Vec3.z in
  let hx = hi.Vec3.x and hy = hi.Vec3.y and hz = hi.Vec3.z in
  let ny = Box3.dy region and nz = Box3.dz region in
  let cells = Box3.dx region * ny * nz in
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
    grow scr cells;
    scr.gen <- scr.gen + 1;
    let gen = scr.gen in
    let g_score = scr.g_score
    and parent = scr.parent
    and h_cache = scr.h_cache
    and stamp = scr.stamp
    and own = scr.own
    and exempt = scr.exempt in
    let open_q = scr.queue in
    Pqueue.clear open_q;
    List.iter
      (fun s -> if Box3.contains region s then exempt.(encode s) <- gen)
      sources;
    let target_code = encode target in
    exempt.(target_code) <- gen;
    (* The heuristic is fixed per cell, so compute it once when the cell
       is first touched this search (against precomputed target
       coordinates): the stale-entry check at pop never decodes the cell
       or re-derives the Manhattan distance. *)
    let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
    let touch x y z code =
      if stamp.(code) <> gen then begin
        stamp.(code) <- gen;
        g_score.(code) <- max_int;
        parent.(code) <- -1;
        h_cache.(code) <- abs (x - tx) + abs (y - ty) + abs (z - tz)
      end
    in
    (* Cells of the searching net's own current route are priced as if
       already ripped up (usage - 1). *)
    List.iter
      (fun (c : Vec3.t) ->
        if Box3.contains region c then begin
          let code = encode c in
          touch c.x c.y c.z code;
          own.(code) <- gen
        end)
      exclude;
    let pushes = ref 0 in
    (* In-region sources are exempt, hence passable. *)
    List.iter
      (fun (s : Vec3.t) ->
        if Box3.contains region s then begin
          let code = encode s in
          touch s.x s.y s.z code;
          g_score.(code) <- 0;
          incr pushes;
          Pqueue.push open_q h_cache.(code) code
        end)
      sources;
    let relax gp from x y z code =
      let cost =
        Grid.probe grid ~penalty ~avoid_used ~exempt:(exempt.(code) = gen)
          ~dusage:(if own.(code) = gen then -1 else 0)
          x y z
      in
      if cost >= 0 then begin
        touch x y z code;
        let tentative = gp + cost in
        if tentative < g_score.(code) then begin
          g_score.(code) <- tentative;
          parent.(code) <- from;
          incr pushes;
          Pqueue.push open_q (tentative + h_cache.(code)) code
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
      let gp = g_score.(code) in
      (* skip stale queue entries *)
      if f <= gp + h_cache.(code) then begin
        if code = target_code then found := true
        else begin
          let z = lz + (code mod nz) and rest = code / nz in
          let y = ly + (rest mod ny) and x = lx + (rest / ny) in
          (* the order of Vec3.axis_neighbors: +x -x +y -y +z -z *)
          if x < hx then relax gp code (x + 1) y z (code + sx);
          if x > lx then relax gp code (x - 1) y z (code - sx);
          if y < hy then relax gp code x (y + 1) z (code + sy);
          if y > ly then relax gp code x (y - 1) z (code - sy);
          if z < hz then relax gp code x y (z + 1) (code + 1);
          if z > lz then relax gp code x y (z - 1) (code - 1)
        end
      end
    done;
    record_work ~pops:!pops ~pushes:!pushes;
    if not !found then None
    else begin
      let rec backtrack acc code =
        let acc = decode code :: acc in
        if parent.(code) = -1 then acc else backtrack acc parent.(code)
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
  scr.gen <- scr.gen + 1;
  let gen = scr.gen in
  let g_score = scr.g_score
  and parent = scr.parent
  and h_cache = scr.h_cache
  and stamp = scr.stamp
  and exempt = scr.exempt
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
  let encode x y z = ((x * tdy) + y) * tdz + z in
  let die = Grid.die grid in
  let ttx = Grid.tile_index grid target / (tdy * tdz) in
  let tty = Grid.tile_index grid target / tdz mod tdy in
  let ttz = Grid.tile_index grid target mod tdz in
  let target_code = encode ttx tty ttz in
  exempt.(target_code) <- gen;
  (match source_tiles with
  | Some tiles -> List.iter (fun ti -> exempt.(ti) <- gen) tiles
  | None ->
      List.iter
        (fun s ->
          if Box3.contains region s then exempt.(Grid.tile_index grid s) <- gen)
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
  let touch x y z code =
    if stamp.(code) <> gen then begin
      stamp.(code) <- gen;
      g_score.(code) <- max_int;
      parent.(code) <- -1;
      h_cache.(code) <- (abs (x - ttx) + abs (y - tty) + abs (z - ttz)) * edge
    end
  in
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
  let seed code =
    let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
    touch x y z code;
    if g_score.(code) <> 0 then begin
      g_score.(code) <- 0;
      incr pushes;
      Pqueue.push open_q h_cache.(code) code
    end
  in
  (match source_tiles with
  | Some tiles -> List.iter seed tiles
  | None ->
      List.iter
        (fun (s : Vec3.t) ->
          if Box3.contains region s then seed (Grid.tile_index grid s))
        sources);
  let expand gp from nx ny nz =
    if
      nx >= tlx && nx <= thx && ny >= tly && ny <= thy && nz >= tlz
      && nz <= thz
    then begin
      let ncode = encode nx ny nz in
      if exempt.(ncode) = gen || not (Grid.tile_blocked grid ncode)
      then begin
        touch nx ny nz ncode;
        let tentative = gp + enter_tile nx ny nz ncode in
        if tentative < g_score.(ncode) then begin
          g_score.(ncode) <- tentative;
          parent.(ncode) <- from;
          incr pushes;
          Pqueue.push open_q (tentative + h_cache.(ncode)) ncode
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
    let gp = g_score.(code) in
    if f <= gp + h_cache.(code) then begin
      if code = target_code then found := true
      else begin
        let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
        expand gp code (x - 1) y z;
        expand gp code (x + 1) y z;
        expand gp code x (y - 1) z;
        expand gp code x (y + 1) z;
        expand gp code x y (z - 1);
        expand gp code x y (z + 1)
      end
    end
  done;
  record_work ~pops:!pops ~pushes:!pushes;
  if not !found then None
  else begin
    (* corridor = path tiles plus their in-range axis neighbors, in
       deterministic discovery order (slot numbering feeds cell codes,
       and codes break priority-queue ties) *)
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
      if parent.(code) <> -1 then walk parent.(code)
    in
    walk target_code;
    let on_path = List.rev !corridor in
    List.iter
      (fun code ->
        let x = code / (tdy * tdz) and y = code / tdz mod tdy and z = code mod tdz in
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
  let region = clip grid region in
  if not (Box3.contains region target) then None
  else begin
    Atomic.incr Counters.fine_searches;
    let tcells = Grid.tile_cells in
    let slots = Array.of_list corridor in
    grow ~tiles:(Grid.n_tiles grid) scr (Array.length slots * tcells);
    scr.gen <- scr.gen + 1;
    let gen = scr.gen in
    let g_score = scr.g_score
    and parent = scr.parent
    and h_cache = scr.h_cache
    and stamp = scr.stamp
    and own = scr.own
    and exempt = scr.exempt
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
    let decode code =
      locate code;
      Vec3.make xyz.(0) xyz.(1) xyz.(2)
    in
    List.iter
      (fun (s : Vec3.t) ->
        if Box3.contains region s then begin
          let c = encode s.x s.y s.z in
          if c >= 0 then exempt.(c) <- gen
        end)
      sources;
    let target_code = encode target.Vec3.x target.Vec3.y target.Vec3.z in
    if target_code < 0 then None
    else begin
      exempt.(target_code) <- gen;
      let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
      let touch x y z code =
        if stamp.(code) <> gen then begin
          stamp.(code) <- gen;
          g_score.(code) <- max_int;
          parent.(code) <- -1;
          h_cache.(code) <- abs (x - tx) + abs (y - ty) + abs (z - tz)
        end
      in
      List.iter
        (fun (c : Vec3.t) ->
          if Box3.contains region c then begin
            let code = encode c.x c.y c.z in
            if code >= 0 then begin
              touch c.x c.y c.z code;
              own.(code) <- gen
            end
          end)
        exclude;
      let pushes = ref 0 in
      (* in-corridor sources are exempt, hence passable *)
      List.iter
        (fun (s : Vec3.t) ->
          if Box3.contains region s then begin
            let code = encode s.x s.y s.z in
            if code >= 0 then begin
              touch s.x s.y s.z code;
              g_score.(code) <- 0;
              incr pushes;
              Pqueue.push open_q h_cache.(code) code
            end
          end)
        sources;
      let lx = region.Box3.lo.Vec3.x and hx = region.Box3.hi.Vec3.x
      and ly = region.Box3.lo.Vec3.y and hy = region.Box3.hi.Vec3.y
      and lz = region.Box3.lo.Vec3.z and hz = region.Box3.hi.Vec3.z in
      let relax gp from x y z =
        let code = encode x y z in
        if code >= 0 then begin
          let cost =
            Grid.probe grid ~penalty ~avoid_used ~exempt:(exempt.(code) = gen)
              ~dusage:(if own.(code) = gen then -1 else 0)
              x y z
          in
          if cost >= 0 then begin
            touch x y z code;
            let tentative = gp + cost in
            if tentative < g_score.(code) then begin
              g_score.(code) <- tentative;
              parent.(code) <- from;
              incr pushes;
              Pqueue.push open_q (tentative + h_cache.(code)) code
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
        let gp = g_score.(code) in
        if f <= gp + h_cache.(code) then begin
          if code = target_code then found := true
          else begin
            locate code;
            let x = xyz.(0) and y = xyz.(1) and z = xyz.(2) in
            (* the order of Vec3.axis_neighbors: +x -x +y -y +z -z *)
            if x < hx then relax gp code (x + 1) y z;
            if x > lx then relax gp code (x - 1) y z;
            if y < hy then relax gp code x (y + 1) z;
            if y > ly then relax gp code x (y - 1) z;
            if z < hz then relax gp code x y (z + 1);
            if z > lz then relax gp code x y (z - 1)
          end
        end
      done;
      record_work ~pops:!pops ~pushes:!pushes;
      if not !found then None
      else begin
        let rec backtrack acc code =
          let acc = decode code :: acc in
          if parent.(code) = -1 then acc else backtrack acc parent.(code)
        in
        Some (backtrack [] target_code)
      end
    end
  end

let search_corridor ?scratch ?(max_expansions = 400_000) ?(avoid_used = false)
    ?(exclude = []) grid ~region ~penalty ~sources ~target =
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
