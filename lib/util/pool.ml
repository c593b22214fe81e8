(* Fork-join over OCaml 5 domains.

   A parallel [map] spawns min(jobs, n) - 1 helper domains.  They and
   the caller claim indices from one atomic counter until none is left,
   each keeping the outcomes it computed; the caller then joins the
   helpers ([Domain.join] orders their writes before its reads) and
   puts the outcomes back in index order.

   A run makes few parallel maps (the suite fan-out, restart epochs,
   partition anneals, routing iterations, lint's file list), so a
   spawn per map, a millisecond at most, is all that keeping domains
   alive between maps could save.  A task that calls [map] runs it
   inline: it has no helpers to wait for, so it never runs a sibling's
   work inside its own span.

   Determinism: which domain claims an index decides only where a task
   runs.  Results are keyed by index and the lowest failing index
   wins, so nothing a caller observes depends on the split. *)

(* Set on a domain while it claims a parallel map's tasks; a [map]
   called there runs inline. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* OCaml allows 128 domains per process: leave headroom for the main
   domain and for domains spawned outside this module. *)
let max_helpers = 118

let map ?jobs f arr =
  let n = Array.length arr in
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  let jobs = min jobs n in
  if jobs <= 1 || Domain.DLS.get in_task then Array.map f arr
  else begin
    let next = Atomic.make 0 in
    (* Every outcome is kept, so a raising task never stops the rest. *)
    let rec claim outcomes =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then outcomes
      else
        let outcome =
          match f arr.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        claim ((i, outcome) :: outcomes)
    in
    let backtraces = Printexc.backtrace_status () in
    let run () =
      (* a new domain starts with backtraces off: follow the caller *)
      Printexc.record_backtrace backtraces;
      Domain.DLS.set in_task true;
      claim []
    in
    (* [Domain.spawn] raises [Failure] when the process is out of
       domains or memory for one: the fan-out narrows, and the caller
       and the helpers already running claim the rest. *)
    let rec spawn k helpers =
      if k = 0 then helpers
      else
        match Domain.spawn run with
        | d -> spawn (k - 1) (d :: helpers)
        | exception Failure _ -> helpers
    in
    let helpers = spawn (min (jobs - 1) max_helpers) [] in
    let own = run () in
    Domain.DLS.set in_task false;
    let outcomes =
      Array.of_list (List.concat (own :: List.map Domain.join helpers))
    in
    Array.sort (fun (i, _) (j, _) -> Int.compare i j) outcomes;
    (* [Array.map] goes in index order, so the first [Error] it meets
       is the one the serial path would have raised. *)
    Array.map
      (function
        | _, Ok v -> v | _, Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  end
