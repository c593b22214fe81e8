module Rng = Tqec_util.Rng

(* The skyline is checkpointed every [cp_interval] DFS steps; an
   incremental repack replays at most [cp_interval - 1] cached
   placements to rebuild the contour at the divergence point. *)
let cp_interval = 8

(* Tree slots form the binary tree; each slot holds a block id.  Moves
   permute block ids across slots, so [pack] can report positions per
   block id and callers keep stable identities. *)
type t = {
  n : int;
  w : int array; (* by block id *)
  h : int array;
  rot : bool array;
  block_at : int array; (* slot -> block id *)
  slot_of : int array; (* block id -> slot *)
  parent : int array; (* slot tree; -1 for root/none *)
  left : int array;
  right : int array;
  mutable root : int;
  (* free-arity slot set: in-tree slots with at most one child, the
     attach candidates.  Kept incrementally by detach/attach so a move
     picks a candidate in O(1) instead of scanning all slots. *)
  free : int array;
  free_pos : int array; (* slot -> index in [free], -1 if absent *)
  mutable free_len : int;
  (* flat skyline scratch: breakpoints (sorted x, segment height) *)
  sk_x : int array;
  sk_y : int array;
  mutable sk_len : int;
  (* DFS slot stack *)
  st_slot : int array;
  st_x : int array;
  (* --- incremental repack cache: the last pack as a DFS-step record.
     A prefix of steps whose (block, x0, w, h) tuples are unchanged
     packs to exactly the same positions and contour, so the next pack
     reuses it and restarts the skyline from a checkpoint. *)
  mutable c_valid : int; (* cached steps (0 before the first pack) *)
  c_block : int array; (* by DFS step *)
  c_x : int array;
  c_w : int array; (* effective (rotation-applied) dims at pack time *)
  c_h : int array;
  c_y : int array;
  (* contour BEFORE step j * cp_interval, row-major *)
  cp_x : int array;
  cp_y : int array;
  cp_len : int array;
  (* single-level undo of the last [perturb]: the move kind, its block
     operands, and for [Relink] the tree links from before the move *)
  mutable last : move;
  mutable last_a : int;
  mutable last_b : int;
  u_block_at : int array;
  u_slot_of : int array;
  u_parent : int array;
  u_left : int array;
  u_right : int array;
  mutable u_root : int;
}

and move = Nop | Rotate | Swap | Relink

let size t = t.n
let width t b = if t.rot.(b) then t.h.(b) else t.w.(b)
let height t b = if t.rot.(b) then t.w.(b) else t.h.(b)

(* ------------------------------------------------------------------ *)
(* free-arity set maintenance                                          *)
(* ------------------------------------------------------------------ *)

let free_add t slot =
  if t.free_pos.(slot) = -1 then begin
    t.free.(t.free_len) <- slot;
    t.free_pos.(slot) <- t.free_len;
    t.free_len <- t.free_len + 1
  end

let free_remove t slot =
  let idx = t.free_pos.(slot) in
  if idx <> -1 then begin
    let last = t.free.(t.free_len - 1) in
    t.free.(idx) <- last;
    t.free_pos.(last) <- idx;
    t.free_len <- t.free_len - 1;
    t.free_pos.(slot) <- -1
  end

let in_tree t slot = slot = t.root || t.parent.(slot) <> -1

(* rebuild the set from the links, ascending slot order *)
let rebuild_free t =
  t.free_len <- 0;
  for slot = 0 to t.n - 1 do
    t.free_pos.(slot) <- -1
  done;
  for slot = 0 to t.n - 1 do
    if in_tree t slot && (t.left.(slot) = -1 || t.right.(slot) = -1) then
      free_add t slot
  done

(* ------------------------------------------------------------------ *)
(* construction                                                        *)
(* ------------------------------------------------------------------ *)

let alloc dims =
  let n = Array.length dims in
  let cp_rows = (n / cp_interval) + 1 in
  let cp_width = (2 * n) + 2 in
  {
    n;
    w = Array.map fst dims;
    h = Array.map snd dims;
    rot = Array.make n false;
    block_at = Array.init n (fun i -> i);
    slot_of = Array.init n (fun i -> i);
    parent = Array.make n (-1);
    left = Array.make n (-1);
    right = Array.make n (-1);
    root = 0;
    free = Array.make n 0;
    free_pos = Array.make n (-1);
    free_len = 0;
    sk_x = Array.make cp_width 0;
    sk_y = Array.make cp_width 0;
    sk_len = 0;
    st_slot = Array.make (n + 1) 0;
    st_x = Array.make (n + 1) 0;
    c_valid = 0;
    c_block = Array.make n 0;
    c_x = Array.make n 0;
    c_w = Array.make n 0;
    c_h = Array.make n 0;
    c_y = Array.make n 0;
    cp_x = Array.make (cp_rows * cp_width) 0;
    cp_y = Array.make (cp_rows * cp_width) 0;
    cp_len = Array.make cp_rows 0;
    last = Nop;
    last_a = 0;
    last_b = 0;
    u_block_at = Array.make n 0;
    u_slot_of = Array.make n 0;
    u_parent = Array.make n 0;
    u_left = Array.make n 0;
    u_right = Array.make n 0;
    u_root = 0;
  }

let create dims =
  if Array.length dims = 0 then invalid_arg "Bstar_tree.create: no blocks";
  let t = alloc dims in
  let n = t.n in
  (* Initial shape: left-chain spine with right children hung off it in
     index order packs blocks into rows; a complete binary tree packs
     roughly square.  Use the complete tree. *)
  for i = 0 to n - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then begin
      t.left.(i) <- l;
      t.parent.(l) <- i
    end;
    if r < n then begin
      t.right.(i) <- r;
      t.parent.(r) <- i
    end
  done;
  rebuild_free t;
  t

let rotate t b = t.rot.(b) <- not t.rot.(b)
let is_rotated t b = t.rot.(b)

let swap_blocks t a b =
  if a <> b then begin
    let sa = t.slot_of.(a) and sb = t.slot_of.(b) in
    t.block_at.(sa) <- b;
    t.block_at.(sb) <- a;
    t.slot_of.(a) <- sb;
    t.slot_of.(b) <- sa
  end

(* Detach block [b]: bubble its id down to a leaf slot by swapping with
   child slots' ids, then unlink that leaf slot.  Returns the freed
   slot. *)
let detach t b =
  let cursor = ref t.slot_of.(b) in
  while t.left.(!cursor) <> -1 || t.right.(!cursor) <> -1 do
    let child =
      if t.left.(!cursor) <> -1 then t.left.(!cursor) else t.right.(!cursor)
    in
    swap_blocks t t.block_at.(!cursor) t.block_at.(child);
    cursor := child
  done;
  let leaf = !cursor in
  let p = t.parent.(leaf) in
  (* partial: perturbations only run on >= 2 blocks (Placer gate) *)
  if p = -1 then failwith "Bstar_tree.detach: cannot detach the only block";
  if t.left.(p) = leaf then t.left.(p) <- -1 else t.right.(p) <- -1;
  t.parent.(leaf) <- -1;
  (* the freed slot left the tree; its parent (re)gained a free arity *)
  free_remove t leaf;
  free_add t p;
  leaf

(* Candidate selection is O(1): one uniform draw from the maintained
   free-arity set.  The candidate ordering the RNG sees is the set's
   internal swap-removal order (deterministic for a given move history),
   which replaces the pre-maintained-set descending-slot scan order. *)
let attach t ~rng leaf =
  (* partial: detach always frees an arity before attach re-draws *)
  if t.free_len = 0 then failwith "Bstar_tree.attach: no free slot";
  let target = t.free.(Rng.int rng t.free_len) in
  let use_left =
    if t.left.(target) = -1 && t.right.(target) = -1 then Rng.bool rng
    else t.left.(target) = -1
  in
  if use_left then t.left.(target) <- leaf else t.right.(target) <- leaf;
  t.parent.(leaf) <- target;
  if t.left.(target) <> -1 && t.right.(target) <> -1 then
    free_remove t target;
  free_add t leaf

let move_block t ~rng b =
  if t.n >= 2 then begin
    let leaf = detach t b in
    attach t ~rng leaf
  end

(* The undo keeps the tree links in preallocated arrays, copied by int
   loops: no allocation and no write barrier per move.  The free-arity
   set is not saved: [undo] rebuilds it in ascending slot order from
   the restored links — an RNG-visible order (the next [attach] draws
   from it) that every recorded placement depends on. *)
let save_links t =
  for s = 0 to t.n - 1 do
    t.u_block_at.(s) <- t.block_at.(s);
    t.u_slot_of.(s) <- t.slot_of.(s);
    t.u_parent.(s) <- t.parent.(s);
    t.u_left.(s) <- t.left.(s);
    t.u_right.(s) <- t.right.(s)
  done;
  t.u_root <- t.root

let load_links t =
  for s = 0 to t.n - 1 do
    t.block_at.(s) <- t.u_block_at.(s);
    t.slot_of.(s) <- t.u_slot_of.(s);
    t.parent.(s) <- t.u_parent.(s);
    t.left.(s) <- t.u_left.(s);
    t.right.(s) <- t.u_right.(s)
  done;
  t.root <- t.u_root;
  rebuild_free t

let perturb t ~rng ~rotatable =
  let n_rot = Array.length rotatable in
  match if n_rot = 0 then 1 + Rng.int rng 2 else Rng.int rng 3 with
  | 0 ->
      let b = rotatable.(Rng.int rng n_rot) in
      rotate t b;
      t.last <- Rotate;
      t.last_a <- b
  | 1 ->
      let a = Rng.int rng t.n and b = Rng.int rng t.n in
      swap_blocks t a b;
      t.last <- Swap;
      t.last_a <- a;
      t.last_b <- b
  | _ ->
      if t.n < 2 then t.last <- Nop
      else begin
        save_links t;
        move_block t ~rng (Rng.int rng t.n);
        t.last <- Relink
      end

let undo t =
  (match t.last with
  | Nop -> ()
  | Rotate -> rotate t t.last_a
  | Swap -> swap_blocks t t.last_a t.last_b
  | Relink -> load_links t);
  t.last <- Nop

(* ------------------------------------------------------------------ *)
(* packing                                                             *)
(* ------------------------------------------------------------------ *)

(* Flat skyline placement on the scratch arrays: sorted breakpoints
   (x, y); (x, y) means the contour has height y from x to the next
   breakpoint (the last extends forever).  Returns the base y. *)
let flat_place t x0 x1 h =
  let sk_x = t.sk_x and sk_y = t.sk_y in
  let len = t.sk_len in
  (* binary search for the first breakpoint at or right of x0 — blocks
     pack left to right, so a scan from 0 would walk nearly the whole
     contour on every step *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if sk_x.(mid) < x0 then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  (* base: tallest segment overlapping (x0, x1); y_end: contour height
     just right of x1.  The segment at p-1 covers x0 unless a breakpoint
     sits exactly on it; segments in [p, q) are swallowed. *)
  let base = ref 0 and y_end = ref 0 in
  if p > 0 && (p = len || sk_x.(p) > x0) then begin
    let cy = sk_y.(p - 1) in
    base := cy;
    y_end := cy
  end;
  let q = ref p in
  while !q < len && sk_x.(!q) <= x1 do
    let by = sk_y.(!q) in
    if sk_x.(!q) < x1 && by > !base then base := by;
    y_end := by;
    incr q
  done;
  (* splice: keep breakpoints left of x0, insert (x0, base+h) and
     (x1, y_end), keep breakpoints right of x1.  The tail moves by an
     int loop, not [Array.blit]: the skyline lives in the major heap,
     where a blit pays the write barrier on every word. *)
  let tail = len - !q in
  let shift = p + 2 - !q in
  if shift < 0 then
    for k = !q to len - 1 do
      sk_x.(k + shift) <- sk_x.(k);
      sk_y.(k + shift) <- sk_y.(k)
    done
  else if shift > 0 then
    for k = len - 1 downto !q do
      sk_x.(k + shift) <- sk_x.(k);
      sk_y.(k + shift) <- sk_y.(k)
    done;
  sk_x.(p) <- x0;
  sk_y.(p) <- !base + h;
  sk_x.(p + 1) <- x1;
  sk_y.(p + 1) <- !y_end;
  t.sk_len <- p + 2 + tail;
  !base

let flat_reset t =
  t.sk_x.(0) <- 0;
  t.sk_y.(0) <- 0;
  t.sk_len <- 1

let cp_width t = (2 * t.n) + 2

(* Checkpoint copies are int loops for the same reason as the splice. *)
let flat_save_checkpoint t j =
  let off = j * cp_width t in
  for k = 0 to t.sk_len - 1 do
    t.cp_x.(off + k) <- t.sk_x.(k);
    t.cp_y.(off + k) <- t.sk_y.(k)
  done;
  t.cp_len.(j) <- t.sk_len

let flat_load_checkpoint t j =
  let off = j * cp_width t in
  let len = t.cp_len.(j) in
  for k = 0 to len - 1 do
    t.sk_x.(k) <- t.cp_x.(off + k);
    t.sk_y.(k) <- t.cp_y.(off + k)
  done;
  t.sk_len <- len

(* Restore the flat contour to its state just before cached step [k]:
   load the nearest checkpoint at or below [k] and replay the (at most
   [cp_interval - 1]) cached placements between the two. *)
let flat_restart t k =
  if k = 0 then flat_reset t
  else begin
    let j = k / cp_interval in
    flat_load_checkpoint t j;
    for i = j * cp_interval to k - 1 do
      ignore (flat_place t t.c_x.(i) (t.c_x.(i) + t.c_w.(i)) t.c_h.(i))
    done
  end

(* Incremental repack.  A pack is a fold over the DFS-step sequence of
   (block, x0, w, h) tuples: the y of step i and the contour after it
   depend only on steps 0..i.  So the longest prefix of tuples equal to
   the cached previous pack keeps its cached positions verbatim; the
   skyline restarts at the first divergent step — from the nearest
   checkpoint plus a short replay — and only the suffix is re-placed.
   The cache always describes the latest pack, even one the annealer
   later rejects: prefix equality is checked tuple by tuple, so a stale
   suffix can never be reused by accident. *)
let pack_xy t xs ys =
  let max_w = ref 0 and max_h = ref 0 in
  let diverged = ref false in
  let st_slot = t.st_slot and st_x = t.st_x in
  st_slot.(0) <- t.root;
  st_x.(0) <- 0;
  let sp = ref 1 in
  let i = ref 0 in
  while !sp > 0 do
    decr sp;
    let slot = st_slot.(!sp) and x0 = st_x.(!sp) in
    let b = t.block_at.(slot) in
    let w = width t b and h = height t b in
    if
      (not !diverged)
      && !i < t.c_valid
      && t.c_block.(!i) = b
      && t.c_x.(!i) = x0
      && t.c_w.(!i) = w
      && t.c_h.(!i) = h
    then begin
      (* unchanged prefix: cached position, no skyline work *)
      let y = t.c_y.(!i) in
      xs.(b) <- x0;
      ys.(b) <- y;
      if x0 + w > !max_w then max_w := x0 + w;
      if y + h > !max_h then max_h := y + h
    end
    else begin
      if not !diverged then begin
        diverged := true;
        flat_restart t !i
      end;
      if !i mod cp_interval = 0 then flat_save_checkpoint t (!i / cp_interval);
      let y = flat_place t x0 (x0 + w) h in
      t.c_block.(!i) <- b;
      t.c_x.(!i) <- x0;
      t.c_w.(!i) <- w;
      t.c_h.(!i) <- h;
      t.c_y.(!i) <- y;
      xs.(b) <- x0;
      ys.(b) <- y;
      if x0 + w > !max_w then max_w := x0 + w;
      if y + h > !max_h then max_h := y + h
    end;
    incr i;
    if t.right.(slot) <> -1 then begin
      st_slot.(!sp) <- t.right.(slot);
      st_x.(!sp) <- x0;
      incr sp
    end;
    if t.left.(slot) <> -1 then begin
      st_slot.(!sp) <- t.left.(slot);
      st_x.(!sp) <- x0 + w;
      incr sp
    end
  done;
  t.c_valid <- !i;
  (!max_w, !max_h)

let pack_into t pos =
  let xs = Array.make t.n 0 and ys = Array.make t.n 0 in
  let wh = pack_xy t xs ys in
  for b = 0 to t.n - 1 do
    pos.(b) <- (xs.(b), ys.(b))
  done;
  wh

let pack t =
  let pos = Array.make t.n (0, 0) in
  let wh = pack_into t pos in
  (pos, wh)

(* Brute-force O(n^2) reference packer: the same DFS, but each block's y
   is the max top of the already-placed blocks its x-interval overlaps.
   No contour, no cache — the differential-test oracle for [pack_xy]. *)
let pack_reference t =
  let n = t.n in
  let pos = Array.make n (0, 0) in
  let placed_b = Array.make n 0 in
  let st_slot = Array.make (n + 1) 0 and st_x = Array.make (n + 1) 0 in
  st_slot.(0) <- t.root;
  st_x.(0) <- 0;
  let sp = ref 1 and placed = ref 0 in
  let max_w = ref 0 and max_h = ref 0 in
  while !sp > 0 do
    decr sp;
    let slot = st_slot.(!sp) and x0 = st_x.(!sp) in
    let b = t.block_at.(slot) in
    let w = width t b and h = height t b in
    let x1 = x0 + w in
    let y = ref 0 in
    for j = 0 to !placed - 1 do
      let pb = placed_b.(j) in
      let px, py = pos.(pb) in
      if px < x1 && x0 < px + width t pb then begin
        let top = py + height t pb in
        if top > !y then y := top
      end
    done;
    pos.(b) <- (x0, !y);
    placed_b.(!placed) <- b;
    incr placed;
    if x1 > !max_w then max_w := x1;
    if !y + h > !max_h then max_h := !y + h;
    if t.right.(slot) <> -1 then begin
      st_slot.(!sp) <- t.right.(slot);
      st_x.(!sp) <- x0;
      incr sp
    end;
    if t.left.(slot) <> -1 then begin
      st_slot.(!sp) <- t.left.(slot);
      st_x.(!sp) <- x0 + w;
      incr sp
    end
  done;
  (pos, (!max_w, !max_h))

let check t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if t.parent.(t.root) <> -1 then err "root slot %d has a parent" t.root;
  for slot = 0 to t.n - 1 do
    let l = t.left.(slot) and r = t.right.(slot) in
    if l <> -1 && t.parent.(l) <> slot then err "left child %d of %d disowned" l slot;
    if r <> -1 && t.parent.(r) <> slot then
      err "right child %d of %d disowned" r slot;
    if l <> -1 && l = r then err "slot %d has twin children" slot;
    if t.slot_of.(t.block_at.(slot)) <> slot then
      err "slot %d block mapping inconsistent" slot
  done;
  let visited = Array.make t.n false in
  let rec visit slot count =
    if slot = -1 then count
    else if visited.(slot) then begin
      err "slot %d visited twice" slot;
      count
    end
    else begin
      visited.(slot) <- true;
      visit t.right.(slot) (visit t.left.(slot) (count + 1))
    end
  in
  let reached = visit t.root 0 in
  if reached <> t.n then err "only %d of %d slots reachable" reached t.n;
  (* the free-arity set matches the links exactly *)
  for slot = 0 to t.n - 1 do
    let should =
      in_tree t slot && (t.left.(slot) = -1 || t.right.(slot) = -1)
    in
    let is = t.free_pos.(slot) <> -1 in
    if should && not is then err "slot %d missing from the free set" slot;
    if is && not should then err "slot %d wrongly in the free set" slot;
    if is then begin
      let idx = t.free_pos.(slot) in
      if idx < 0 || idx >= t.free_len || t.free.(idx) <> slot then
        err "free-set index of slot %d inconsistent" slot
    end
  done;
  List.rev !errors

let overlaps positions dims =
  let n = Array.length positions in
  let overlap i j =
    let xi, yi = positions.(i) and wi, hi = dims.(i) in
    let xj, yj = positions.(j) and wj, hj = dims.(j) in
    xi < xj + wj && xj < xi + wi && yi < yj + hj && yj < yi + hi
  in
  let found = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if overlap i j then found := true
    done
  done;
  !found
