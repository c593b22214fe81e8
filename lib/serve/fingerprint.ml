module Icm = Tqec_icm.Icm

(* A fingerprint must be total over the semantic content of the run: two
   requests share a cache entry iff the pipeline is guaranteed to print
   the same bytes for both.  That means every ICM field participates
   (gate ORDER matters — CNOTs don't commute in general) and every
   result-affecting knob participates — the knob table's key, so a new
   row cannot be left out. *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_str b s =
  (* length prefix keeps concatenated strings unambiguous *)
  add_int b (String.length s);
  Buffer.add_string b s

let icm_bytes (icm : Icm.t) =
  let b = Buffer.create 4096 in
  add_str b icm.Icm.name;
  add_int b icm.Icm.n_lines;
  Array.iter
    (fun k ->
      add_int b
        (match k with
        | Icm.Init_z -> 0
        | Icm.Init_x -> 1
        | Icm.Inject_y -> 2
        | Icm.Inject_a -> 3))
    icm.Icm.inits;
  Buffer.add_char b '|';
  Array.iter
    (fun { Icm.control; target } ->
      add_int b control;
      add_int b target)
    icm.Icm.cnots;
  Buffer.add_char b '|';
  Array.iter
    (fun { Icm.m_line; m_basis; m_order } ->
      add_int b m_line;
      add_int b (match m_basis with Icm.Mz -> 0 | Icm.Mx -> 1);
      (match m_order with
      | Icm.Order_free -> add_int b (-1)
      | Icm.Order_first id ->
          add_int b 0;
          add_int b id
      | Icm.Order_second id ->
          add_int b 1;
          add_int b id))
    icm.Icm.meas;
  Buffer.add_char b '|';
  Array.iter
    (fun (g : Icm.t_gadget) ->
      add_int b g.Icm.t_id;
      add_int b g.Icm.t_wire;
      add_int b g.Icm.t_seq;
      List.iter (add_int b) g.Icm.t_lines;
      Buffer.add_char b '/';
      List.iter (add_int b) g.Icm.t_cnots;
      Buffer.add_char b '/';
      add_int b g.Icm.t_first_meas;
      List.iter (add_int b) g.Icm.t_second_meas)
    icm.Icm.t_gadgets;
  Buffer.add_char b '|';
  Array.iter (add_int b) icm.Icm.line_of_wire;
  Buffer.contents b

let of_icm icm ~config =
  Digest.to_hex
    (Digest.string (icm_bytes icm ^ "#" ^ Tqec_compress.Knobs.key config))
