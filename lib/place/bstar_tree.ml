module Rng = Tqec_util.Rng

(* Tree slots form the binary tree; each slot holds a block id.  Moves
   permute block ids across slots, so [pack] can report positions per
   block id and callers keep stable identities. *)
type t = {
  n : int;
  w : int array; (* current footprint by block id: [rotate] swaps them *)
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
  (* dense contour: the highest placed top over each x column, sized
     for every block side by side on its longer side.  A pack zeroes
     only the [contour_w] columns the previous pack wrote. *)
  contour : int array;
  mutable contour_w : int;
  (* DFS slot stack *)
  st_slot : int array;
  st_x : int array;
  (* moved-block log of the last pack: each block whose (x, y) it
     changed, with the coordinates it overwrote *)
  mv_id : int array;
  mv_x : int array;
  mv_y : int array;
  mutable mv_len : int;
  (* the buffers the last pack wrote, what they hold relative to the
     tree, the extents of that tree and of the one before the last
     perturb, and the number of full repacks so far *)
  mutable pk_xs : int array;
  mutable pk_ys : int array;
  mutable sync : sync;
  mutable ext_w : int;
  mutable ext_h : int;
  mutable prev_w : int;
  mutable prev_h : int;
  mutable repacks : int;
  (* single-level undo of the last [perturb]: the move kind, its block
     operands, and for [Relink] what [detach] wrote — the slots it
     swapped block ids down (top first) and the parent and side it
     unlinked the leaf from.  [attach]'s link is found from the leaf. *)
  mutable last : move;
  mutable last_a : int;
  mutable last_b : int;
  path : int array;
  mutable path_len : int;
  mutable from_slot : int;
  mutable from_left : bool;
}

and move = Nop | Rotate | Swap | Relink

(* What [pk_xs]/[pk_ys] hold.  [Synced]: the pack of the current tree.
   [Moved]: the pack of the tree before the last [perturb], with no pack
   since.  [Packed]: [Synced], reached by packing out of [Moved], so the
   log leads back to the pre-perturb pack.  [Undone]: [Packed] after
   [undo]; [unpack] makes it [Synced] again.  [Stale]: unknown, so the
   next pack is a full repack. *)
and sync = Stale | Synced | Moved | Packed | Undone

let size t = t.n
let width t b = t.w.(b)
let height t b = t.h.(b)

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
  let span = Array.fold_left (fun acc (w, h) -> acc + max w h) 0 dims in
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
    contour = Array.make span 0;
    contour_w = 0;
    st_slot = Array.make (n + 1) 0;
    st_x = Array.make (n + 1) 0;
    mv_id = Array.make n 0;
    mv_x = Array.make n 0;
    mv_y = Array.make n 0;
    mv_len = 0;
    pk_xs = [||];
    pk_ys = [||];
    sync = Stale;
    ext_w = 0;
    ext_h = 0;
    prev_w = 0;
    prev_h = 0;
    repacks = 0;
    last = Nop;
    last_a = 0;
    last_b = 0;
    path = Array.make n 0;
    path_len = 0;
    from_slot = -1;
    from_left = false;
  }

let create dims =
  if Array.length dims = 0 then invalid_arg "Bstar_tree.create: no blocks";
  if Array.exists (fun (w, h) -> w < 1 || h < 1) dims then
    invalid_arg "Bstar_tree.create: a block side below 1";
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

(* [turn] and [exchange] are [rotate] and [swap_blocks] without the
   sync reset, for [perturb], [undo] and [detach], which keep it. *)
let turn t b =
  let w = t.w.(b) in
  t.w.(b) <- t.h.(b);
  t.h.(b) <- w;
  t.rot.(b) <- not t.rot.(b)

let exchange t a b =
  if a <> b then begin
    let sa = t.slot_of.(a) and sb = t.slot_of.(b) in
    t.block_at.(sa) <- b;
    t.block_at.(sb) <- a;
    t.slot_of.(a) <- sb;
    t.slot_of.(b) <- sa
  end

let rotate t b =
  turn t b;
  t.sync <- Stale

let is_rotated t b = t.rot.(b)

let swap_blocks t a b =
  exchange t a b;
  t.sync <- Stale

(* Detach block [b]: bubble its id down to a leaf slot by swapping with
   child slots' ids, then unlink that leaf slot.  Returns the freed
   slot.  The bubble path and the unlinked side are logged for [undo]. *)
let detach t b =
  let cursor = ref t.slot_of.(b) in
  t.path.(0) <- !cursor;
  t.path_len <- 1;
  while t.left.(!cursor) <> -1 || t.right.(!cursor) <> -1 do
    let child =
      if t.left.(!cursor) <> -1 then t.left.(!cursor) else t.right.(!cursor)
    in
    exchange t t.block_at.(!cursor) t.block_at.(child);
    cursor := child;
    t.path.(t.path_len) <- child;
    t.path_len <- t.path_len + 1
  done;
  let leaf = !cursor in
  let p = t.parent.(leaf) in
  (* partial: perturbations only run on >= 2 blocks (Placer gate) *)
  if p = -1 then failwith "Bstar_tree.detach: cannot detach the only block";
  t.from_slot <- p;
  t.from_left <- t.left.(p) = leaf;
  if t.from_left then t.left.(p) <- -1 else t.right.(p) <- -1;
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

let relink t ~rng b =
  let leaf = detach t b in
  attach t ~rng leaf

let move_block t ~rng b =
  if t.n >= 2 then begin
    relink t ~rng b;
    t.sync <- Stale
  end

(* Revert the last [move_block] from detach's log: unhook the leaf from
   where attach hung it, hang it back on its old parent's side, and undo
   the bubble swaps last first.  The free-arity set is not logged: it is
   rebuilt in ascending slot order from the restored links — an
   RNG-visible order (the next [attach] draws from it) that every
   recorded placement depends on. *)
let unmove t =
  let leaf = t.path.(t.path_len - 1) in
  let target = t.parent.(leaf) in
  if t.left.(target) = leaf then t.left.(target) <- -1
  else t.right.(target) <- -1;
  if t.from_left then t.left.(t.from_slot) <- leaf
  else t.right.(t.from_slot) <- leaf;
  t.parent.(leaf) <- t.from_slot;
  for k = t.path_len - 1 downto 1 do
    exchange t t.block_at.(t.path.(k - 1)) t.block_at.(t.path.(k))
  done;
  rebuild_free t

let perturb t ~rng ~rotatable =
  let n_rot = Array.length rotatable in
  (match if n_rot = 0 then 1 + Rng.int rng 2 else Rng.int rng 3 with
  | 0 ->
      let b = rotatable.(Rng.int rng n_rot) in
      turn t b;
      t.last <- Rotate;
      t.last_a <- b
  | 1 ->
      let a = Rng.int rng t.n and b = Rng.int rng t.n in
      exchange t a b;
      t.last <- Swap;
      t.last_a <- a;
      t.last_b <- b
  | _ ->
      if t.n < 2 then t.last <- Nop
      else begin
        relink t ~rng (Rng.int rng t.n);
        t.last <- Relink
      end);
  t.sync <-
    (match t.sync with
    | Synced | Packed -> Moved
    | Stale | Moved | Undone -> Stale)

let undo t =
  (match t.last with
  | Nop -> ()
  | Rotate -> turn t t.last_a
  | Swap -> exchange t t.last_a t.last_b
  | Relink -> unmove t);
  t.sync <-
    (match (t.sync, t.last) with
    | Moved, _ -> Synced
    | Packed, _ -> Undone
    | ((Synced | Undone) as s), Nop -> s
    | (Stale | Synced | Undone), _ -> Stale);
  t.last <- Nop

(* ------------------------------------------------------------------ *)
(* packing                                                             *)
(* ------------------------------------------------------------------ *)

(* The last [perturb] kept every slot's footprint: a square turned, two
   blocks of one footprint swapped (a block with itself included), or a
   no-op.  Each slot then packs where it did, so the swapped blocks trade
   coordinates and nothing else moves. *)
let keeps_footprints t =
  match t.last with
  | Nop -> true
  | Rotate -> t.w.(t.last_a) = t.h.(t.last_a)
  | Swap ->
      let a = t.last_a and b = t.last_b in
      t.w.(a) = t.w.(b) && t.h.(a) = t.h.(b)
  | Relink -> false

(* [pack_xy] for a move [keeps_footprints] accepts, on the buffers that
   hold the pre-move pack: a swap's two blocks, logged a first, trade
   coordinates. *)
let pack_kept t xs ys =
  let a = t.last_a and b = t.last_b in
  match t.last with
  | Swap when a <> b ->
      let ax = xs.(a) and ay = ys.(a) in
      t.mv_id.(0) <- a;
      t.mv_x.(0) <- ax;
      t.mv_y.(0) <- ay;
      t.mv_id.(1) <- b;
      t.mv_x.(1) <- xs.(b);
      t.mv_y.(1) <- ys.(b);
      t.mv_len <- 2;
      xs.(a) <- xs.(b);
      ys.(a) <- ys.(b);
      xs.(b) <- ax;
      ys.(b) <- ay
  | Nop | Rotate | Swap | Relink -> t.mv_len <- 0

(* The one pack loop: a full repack in DFS (preorder) order.  A block's
   y is the highest contour column under its x-range, and its top then
   fills that range.  A column so holds the highest top of the placed
   blocks covering it, and y is the highest top among the placed blocks
   whose x-range the block overlaps — [pack_reference]'s rule.  Every
   block whose coordinates in [xs]/[ys] change is logged with the ones
   it overwrote. *)
let repack t xs ys =
  let contour = t.contour in
  for x = 0 to t.contour_w - 1 do
    contour.(x) <- 0
  done;
  let max_w = ref 0 and max_h = ref 0 and moved = ref 0 in
  let st_slot = t.st_slot and st_x = t.st_x in
  st_slot.(0) <- t.root;
  st_x.(0) <- 0;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let slot = st_slot.(!sp) and x0 = st_x.(!sp) in
    let b = t.block_at.(slot) in
    let x1 = x0 + width t b in
    let y = ref 0 in
    for x = x0 to x1 - 1 do
      let c = contour.(x) in
      if c > !y then y := c
    done;
    let y = !y in
    let top = y + height t b in
    for x = x0 to x1 - 1 do
      contour.(x) <- top
    done;
    if xs.(b) <> x0 || ys.(b) <> y then begin
      t.mv_id.(!moved) <- b;
      t.mv_x.(!moved) <- xs.(b);
      t.mv_y.(!moved) <- ys.(b);
      incr moved;
      xs.(b) <- x0;
      ys.(b) <- y
    end;
    if x1 > !max_w then max_w := x1;
    if top > !max_h then max_h := top;
    if t.right.(slot) <> -1 then begin
      st_slot.(!sp) <- t.right.(slot);
      st_x.(!sp) <- x0;
      incr sp
    end;
    if t.left.(slot) <> -1 then begin
      st_slot.(!sp) <- t.left.(slot);
      st_x.(!sp) <- x1;
      incr sp
    end
  done;
  t.contour_w <- !max_w;
  t.mv_len <- !moved;
  t.ext_w <- !max_w;
  t.ext_h <- !max_h;
  t.repacks <- t.repacks + 1

(* The annealer's entry: the DFS repack, skipped when the buffers are
   the ones last packed, they hold the pack from before the last
   [perturb], and that move kept every footprint. *)
let pack_xy t xs ys =
  let after_perturb =
    match t.sync with
    | Moved -> xs == t.pk_xs && ys == t.pk_ys
    | Stale | Synced | Packed | Undone -> false
  in
  t.prev_w <- t.ext_w;
  t.prev_h <- t.ext_h;
  if after_perturb && keeps_footprints t then pack_kept t xs ys
  else begin
    repack t xs ys;
    t.pk_xs <- xs;
    t.pk_ys <- ys
  end;
  t.sync <- (if after_perturb then Packed else Synced);
  (t.ext_w, t.ext_h)

let moved t = t.mv_id
let n_moved t = t.mv_len
let repacks t = t.repacks

(* Written into the packed buffers, the log takes them back to the pack
   before the last one: after [undo] that is the current tree's pack
   again.  Elsewhere it only drops the log. *)
let unpack t xs ys =
  for k = 0 to t.mv_len - 1 do
    let b = t.mv_id.(k) in
    xs.(b) <- t.mv_x.(k);
    ys.(b) <- t.mv_y.(k)
  done;
  t.mv_len <- 0;
  let into_x = xs == t.pk_xs and into_y = ys == t.pk_ys in
  t.sync <-
    (match t.sync with
    | Undone when into_x && into_y ->
        t.ext_w <- t.prev_w;
        t.ext_h <- t.prev_h;
        Synced
    | _ when into_x || into_y -> Stale
    | Packed -> Synced
    | Undone -> Stale
    | (Stale | Synced | Moved) as s -> s)

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
   No contour — the differential-test oracle for [pack_xy]. *)
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
