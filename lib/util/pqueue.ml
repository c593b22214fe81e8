(* Monotone bucket queue.  Bucket [k land mask] of a power-of-two ring
   holds the entries of key [k] as a FIFO list (head, tail, per-entry
   [next] links).  Every queued key lies in [lo, hi], and the ring
   grows to keep [hi - lo] below its size, so one bucket never mixes
   two keys: popping the head of the lowest non-empty bucket gives the
   (key, insertion order) sequence of a stable heap.  Entries live in
   two parallel int arrays; a popped entry goes on a free list, and
   slots at or above [top] have not been used since the last [clear].
   Every stored word is an immediate int, so no write goes through the
   GC write barrier. *)
type t = {
  mutable heads : int array;  (* per bucket: first entry, -1 when empty *)
  mutable tails : int array;  (* per bucket: last entry, read when non-empty *)
  mutable next : int array;  (* per entry: next in its bucket or the free list *)
  mutable vals : int array;
  mutable free : int;
  mutable top : int;
  mutable len : int;
  (* the scan cursor: no queued key is below [lo] *)
  mutable lo : int;
  mutable hi : int;
  (* the last popped key, min_int before the first pop *)
  mutable floor : int;
}

let initial_buckets = 64

let create () =
  {
    heads = Array.make initial_buckets (-1);
    tails = Array.make initial_buckets 0;
    next = [||];
    vals = [||];
    free = -1;
    top = 0;
    len = 0;
    lo = 0;
    hi = 0;
    floor = min_int;
  }

let length t = t.len
let is_empty t = t.len = 0

(* Move every bucket of the live keys [t.lo, t.hi] to a ring wider than
   [spread]; a bucket's list moves whole, so its FIFO order is kept. *)
let grow_ring t spread =
  if spread >= Sys.max_array_length then invalid_arg "Pqueue.push: key spread too wide";
  let old_heads = t.heads and old_tails = t.tails in
  let old_mask = Array.length old_heads - 1 in
  let n = ref (2 * Array.length old_heads) in
  while !n <= spread do
    n := 2 * !n
  done;
  let heads = Array.make !n (-1) and tails = Array.make !n 0 in
  let mask = !n - 1 in
  for k = t.lo to t.hi do
    let b = k land old_mask in
    if old_heads.(b) >= 0 then begin
      heads.(k land mask) <- old_heads.(b);
      tails.(k land mask) <- old_tails.(b)
    end
  done;
  t.heads <- heads;
  t.tails <- tails

let alloc t =
  if t.free >= 0 then begin
    let e = t.free in
    t.free <- t.next.(e);
    e
  end
  else begin
    if t.top = Array.length t.vals then begin
      let cap = max 16 (2 * t.top) in
      let extend a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 t.top;
        b
      in
      t.next <- extend t.next;
      t.vals <- extend t.vals
    end;
    let e = t.top in
    t.top <- e + 1;
    e
  end

let push t key value =
  if key < t.floor then invalid_arg "Pqueue.push: key below the last popped key";
  if t.len = 0 then begin
    t.lo <- key;
    t.hi <- key
  end
  else if key < t.lo then begin
    if t.hi - key >= Array.length t.heads then grow_ring t (t.hi - key);
    t.lo <- key
  end
  else if key > t.hi then begin
    if key - t.lo >= Array.length t.heads then grow_ring t (key - t.lo);
    t.hi <- key
  end;
  let e = alloc t in
  t.vals.(e) <- value;
  t.next.(e) <- -1;
  let b = key land (Array.length t.heads - 1) in
  if t.heads.(b) < 0 then t.heads.(b) <- e else t.next.(t.tails.(b)) <- e;
  t.tails.(b) <- e;
  t.len <- t.len + 1

(* Advance the cursor to the lowest non-empty bucket, whose key it then
   is.  [min_key] followed by [pop] scans once: the second call finds
   the cursor's bucket non-empty. *)
let settle t =
  let heads = t.heads in
  let mask = Array.length heads - 1 in
  let k = ref t.lo in
  while heads.(!k land mask) < 0 do
    incr k
  done;
  t.lo <- !k

let min_key t =
  if t.len = 0 then raise Not_found;
  settle t;
  t.lo

let pop t =
  if t.len = 0 then raise Not_found;
  settle t;
  let b = t.lo land (Array.length t.heads - 1) in
  let e = t.heads.(b) in
  t.heads.(b) <- t.next.(e);
  t.next.(e) <- t.free;
  t.free <- e;
  t.len <- t.len - 1;
  t.floor <- t.lo;
  t.vals.(e)

let clear t =
  if t.len > 0 then begin
    let mask = Array.length t.heads - 1 in
    for k = t.lo to t.hi do
      t.heads.(k land mask) <- -1
    done
  end;
  t.free <- -1;
  t.top <- 0;
  t.len <- 0;
  t.floor <- min_int
