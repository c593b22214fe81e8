(* Binary min-heap over (key, insertion sequence) in three parallel int
   arrays.  Every stored word is an immediate int, so pushes and pops
   allocate nothing once the arrays have grown, and no write goes
   through the GC write barrier. *)
type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let ncap = max 16 (2 * Array.length t.keys) in
  let extend a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.keys <- extend t.keys;
  t.seqs <- extend t.seqs;
  t.vals <- extend t.vals

let push t key value =
  if t.len = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* sift a hole up from the new leaf; the new entry's sequence number
     exceeds every stored one, so it moves above a parent only on a
     strictly smaller key *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let min_key t =
  if t.len = 0 then raise Not_found;
  t.keys.(0)

let pop t =
  if t.len = 0 then raise Not_found;
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let top = vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* sift the last entry down from the root through a hole *)
    let key = keys.(n) and seq = seqs.(n) and value = vals.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if keys.(c) < key || (keys.(c) = key && seqs.(c) < seq) then begin
          keys.(!i) <- keys.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    vals.(!i) <- value
  end;
  top

let clear t =
  t.len <- 0;
  t.next_seq <- 0
