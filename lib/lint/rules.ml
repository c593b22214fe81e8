(* The rule catalog.  Pattern strings below are exactly that — string
   data matched against code tokens — so this file never triggers its
   own rules: the lexer sees them as literals, not tokens. *)

(* --- race: mutation inside a pool-closure window ------------------- *)

(* Heuristic closure window: from a [Pool.map] token, the window is the
   first parenthesized group opening on the same or the next line (in
   practice the inline closure argument), through its matching close
   paren.  A call whose tasks are named functions opens no window.
   Inside the window, mutation tokens are race candidates: the write
   may run on any worker domain concurrently with its siblings.  The
   audit may sit at the mutation site or at the [Pool.map] call that
   opens the window. *)
let race_entry_points = [ "Pool.map" ]
let race_mutations = [ ":="; "<-"; "Hashtbl.replace"; "Hashtbl.add" ]

let race_sites (lx : Lexer.t) =
  let tokens = lx.Lexer.tokens in
  let n = Array.length tokens in
  let sites = ref [] in
  for i = 0 to n - 1 do
    if
      List.exists
        (fun u -> Rule.unit_matches u tokens.(i).Lexer.t_text)
        race_entry_points
    then begin
      let call_line = tokens.(i).Lexer.t_line in
      (* first paren group opening on the call's line or the next *)
      let rec find_open j =
        if j >= n || tokens.(j).Lexer.t_line > call_line + 1 then None
        else if tokens.(j).Lexer.t_text = "(" then Some j
        else find_open (j + 1)
      in
      match find_open (i + 1) with
      | None -> ()
      | Some open_idx ->
          let depth = ref 1 in
          let j = ref (open_idx + 1) in
          while !depth > 0 && !j < n do
            let text = tokens.(!j).Lexer.t_text in
            if text = "(" then incr depth
            else if text = ")" then decr depth
            else if
              !depth > 0
              && List.exists (fun u -> Rule.unit_matches u text) race_mutations
            then
              sites :=
                {
                  Rule.s_line = tokens.(!j).Lexer.t_line;
                  s_col = tokens.(!j).Lexer.t_col;
                  s_token = text;
                  s_context_line = call_line;
                }
                :: !sites;
            incr j
          done
    end
  done;
  List.rev !sites

(* --- swallow: catch-all exception handlers ------------------------- *)

(* A bare [with _ ->] (or [with | _ ->]) is a swallow only when the
   [with] closes a [try]; the same token shape closes value matches
   ([match x with | _ -> ...]) all over test code.  Attribute each
   candidate [with] to its owner by scanning backwards with a nesting
   counter: every intervening [with] demands one more [match]/[try]
   before ours.  Record-update [with]s inflate the counter and can
   misattribute in principle; when no owner is found we flag
   (conservative). *)
let swallow_sites (lx : Lexer.t) =
  let tokens = lx.Lexer.tokens in
  let n = Array.length tokens in
  let text i = tokens.(i).Lexer.t_text in
  let catch_all_at i =
    (* [with _ ->] or [with | _ ->] starting at token i *)
    text i = "with"
    &&
    let j = if i + 1 < n && text (i + 1) = "|" then i + 2 else i + 1 in
    j + 1 < n && text j = "_" && text (j + 1) = "->"
  in
  let owned_by_try i =
    let rec scan j pending =
      if j < 0 then true (* no owner: flag conservatively *)
      else
        match text j with
        | "with" -> scan (j - 1) (pending + 1)
        | "try" when pending = 0 -> true
        | "match" when pending = 0 -> false
        | "try" | "match" -> scan (j - 1) (pending - 1)
        | _ -> scan (j - 1) pending
    in
    scan (i - 1) 0
  in
  let sites = ref [] in
  for i = 0 to n - 1 do
    if catch_all_at i && owned_by_try i then
      sites :=
        {
          Rule.s_line = tokens.(i).Lexer.t_line;
          s_col = tokens.(i).Lexer.t_col;
          s_token = "with _ ->";
          s_context_line = tokens.(i).Lexer.t_line;
        }
        :: !sites
  done;
  List.rev !sites

(* --- the catalog --------------------------------------------------- *)

let all =
  [
    Rule.make ~id:"hash-order" ~marker:"hash-order:"
      ~doc:
        "Hashtbl.iter/Hashtbl.fold: iteration order depends on the hash \
         layout and must never reach an output path"
      ~advice:
        "order-sensitive iteration; sort the output, fold commutatively, or \
         audit with `hash-order:`"
      (Rule.pattern_sites [ "Hashtbl.iter"; "Hashtbl.fold" ]);
    Rule.make ~id:"env-read" ~marker:"env-read:" ~before:6
      ~applies:Rule.in_lib
      ~doc:
        "Sys.getenv/Sys.getenv_opt in library code: ambient environment \
         reads freeze one process-wide value across every served request"
      ~advice:
        "environment read in library code; thread it through a config (the \
         CLI layer owns env defaults) or audit call-time capture with \
         `env-read:`"
      (Rule.pattern_sites [ "Sys.getenv"; "Sys.getenv_opt" ]);
    Rule.make ~id:"partial" ~marker:"partial:" ~applies:Rule.in_lib
      ~doc:
        "failwith / assert false / exit in library code: partiality a \
         daemon cannot catch structurally"
      ~advice:
        "partial library code; raise a structured exception (the \
         Stage_failure precedent) or audit the invariant with `partial:`"
      (Rule.pattern_sites [ "failwith"; "assert false"; "exit" ]);
    Rule.make ~id:"swallow" ~marker:"swallow:"
      ~doc:
        "`with _ ->` catch-alls: a swallowed exception hides real failures \
         (Stack_overflow, Out_of_memory, bugs) from every caller"
      ~advice:
        "catch-all exception handler; match the exceptions you mean, keep \
         the message, or audit with `swallow:`"
      swallow_sites;
    Rule.make ~id:"wallclock" ~marker:"wallclock:" ~applies:Rule.in_lib
      ~doc:
        "Unix.gettimeofday/Sys.time in library code outside declared \
         timing sites: a determinism and replay hazard"
      ~advice:
        "wall-clock read in library code; results must not depend on it — \
         declare the timing site with `wallclock:`"
      (Rule.pattern_sites [ "Unix.gettimeofday"; "Sys.time" ]);
    Rule.make ~id:"unsafe" ~marker:"unsafe:"
      ~doc:
        "Obj.magic, Marshal.*, Random.self_init, Array.unsafe_*: memory- \
         or determinism-unsafe primitives"
      ~advice:
        "unsafe primitive; prefer a typed/checked alternative or audit the \
         proof obligation with `unsafe:`"
      (Rule.pattern_sites
         [ "Obj.magic"; "Marshal.*"; "Random.self_init"; "Array.unsafe_*" ]);
    Rule.make ~id:"race" ~marker:"race:" ~before:3
      ~doc:
        "mutation tokens (:=, <-, Hashtbl.replace/add) inside a Pool.map \
         closure window: shared-state writes on concurrent pool tasks"
      ~advice:
        "mutation inside a pool closure; make the task pure (return the \
         value) or audit the synchronization by name with `race:`"
      race_sites;
  ]

let find id = List.find_opt (fun (r : Rule.t) -> r.Rule.r_id = id) all
let ids = List.map (fun (r : Rule.t) -> r.Rule.r_id) all
