module Placer = Tqec_place.Placer

type row = {
  flag : string;
  alias : string option;
  env : string option;
  wire : string option;
  affects_result : bool;
  docv : string;
  doc : string;
  unset : string option;
  print : Pipeline.config -> string;
  parse : string -> (Pipeline.config -> Pipeline.config, string) result;
}

(* A knob's text syntax: [read] and [show] must round-trip, which the
   table's property test checks for every row. *)
type 'a syntax = {
  read : string -> 'a option;
  show : 'a -> string;
  expect : string;
  none : string option;
}

let enum show all =
  {
    read =
      (fun s ->
        let s = String.lowercase_ascii s in
        List.find_opt (fun v -> show v = s) all);
    show;
    expect = String.concat "|" (List.map show all);
    none = None;
  }

let int_from lo expect =
  {
    read =
      (fun s ->
        match int_of_string_opt s with
        | Some v when v >= lo -> Some v
        | _ -> None);
    show = string_of_int;
    expect;
    none = None;
  }

(* Shortest decimal form that reads back to the same float, so the cache
   key separates every distinct margin and --help shows 0.05, not
   0.050000000000000003. *)
let margin =
  {
    read =
      (fun s ->
        match float_of_string_opt s with
        | Some m when m >= 0. -> Some m
        | _ -> None);
    show =
      (fun m ->
        let s = Printf.sprintf "%.15g" m in
        if float_of_string_opt s = Some m then s else Printf.sprintf "%.17g" m);
    expect = "a non-negative margin";
    none = None;
  }

let optional none s =
  {
    read =
      (fun x ->
        if String.lowercase_ascii x = none then Some None
        else Option.map Option.some (s.read x));
    show = (function None -> none | Some v -> s.show v);
    expect = Printf.sprintf "%s or '%s'" s.expect none;
    none = Some none;
  }

let row ?alias ?env ?wire ~affects ~docv ~doc flag syntax get set =
  {
    flag;
    alias;
    env;
    wire;
    affects_result = affects;
    docv;
    doc;
    unset = syntax.none;
    print = (fun c -> syntax.show (get c));
    parse =
      (fun text ->
        match syntax.read text with
        | Some v -> Ok (fun c -> set c v)
        | None -> Error ("expected " ^ syntax.expect));
  }

let variant_name = function
  | Pipeline.Full -> "full"
  | Pipeline.Dual_only -> "dual-only"
  | Pipeline.Modular_only -> "modular"

let effort_name = function
  | Placer.Quick -> "quick"
  | Placer.Normal -> "normal"
  | Placer.Full -> "full"

let rows =
  [
    row "variant" ~wire:"variant" ~affects:true ~docv:"VARIANT"
      ~doc:"Flow variant: full (ours), dual-only ([10]), modular."
      (enum variant_name Pipeline.[ Full; Dual_only; Modular_only ])
      (fun c -> c.Pipeline.variant)
      (fun c variant -> { c with Pipeline.variant });
    row "effort" ~alias:"e" ~env:"TQEC_EFFORT" ~wire:"effort" ~affects:true
      ~docv:"EFFORT" ~doc:"Placement effort: quick, normal or full."
      (enum effort_name Placer.[ Quick; Normal; Full ])
      (fun c -> c.Pipeline.effort)
      (fun c effort -> { c with Pipeline.effort });
    row "seed" ~env:"TQEC_SEED" ~wire:"seed" ~affects:true ~docv:"SEED"
      ~doc:"Random seed for the annealer and tie-breaking."
      (int_from 0 "a non-negative integer")
      (fun c -> c.Pipeline.seed)
      (fun c seed -> { c with Pipeline.seed });
    row "restarts" ~alias:"r" ~env:"TQEC_RESTARTS" ~wire:"restarts"
      ~affects:true ~docv:"K"
      ~doc:
        "Independent annealing trajectories per placement (multi-start; \
         the best result wins).  Deterministic in (seed, restarts) \
         whatever the worker count."
      (int_from 1 "a positive integer")
      (fun c -> c.Pipeline.restarts)
      (fun c restarts -> { c with Pipeline.restarts });
    row "jobs" ~alias:"j" ~env:"TQEC_JOBS" ~wire:"jobs" ~affects:false
      ~docv:"N"
      ~doc:
        "Worker domains for parallel placement restarts, per-iteration \
         routing batches, and benchmark fan-out.  $(b,auto) defers to \
         $(b,TQEC_JOBS) or the machine's domain count; 1 forces serial \
         execution.  Results are identical for any value."
      (optional "auto" (int_from 1 "a positive worker count"))
      (fun c -> c.Pipeline.jobs)
      (fun c jobs -> { c with Pipeline.jobs });
    row "early-stop" ~env:"TQEC_EARLY_STOP" ~wire:"early_stop" ~affects:true
      ~docv:"MARGIN"
      ~doc:
        "Adaptive multi-start: relative margin by which a restart's best \
         may trail the shared global best before it stops early (e.g. \
         0.05); $(b,off) disables early stopping.  Lane 0 always runs to \
         completion and results stay deterministic in (seed, restarts) \
         for any worker count."
      (optional "off" margin)
      (fun c -> c.Pipeline.early_stop_margin)
      (fun c early_stop_margin -> { c with Pipeline.early_stop_margin });
    row "partition" ~env:"TQEC_PARTITION" ~wire:"partition" ~affects:true
      ~docv:"CAP"
      ~doc:
        "Node-count cap for divide-and-conquer placement: an instance \
         with more super-module nodes is partitioned (deterministic BFS \
         bisection of the net hypergraph), each part annealed \
         independently, and the parts stitched by shelf packing.  \
         Defaults to $(b,TQEC_PARTITION); $(b,off) leaves it to the \
         placer's automatic 4000-node cap.  Results are deterministic in \
         (seed, restarts, cap) for any worker count."
      (optional "off" (int_from 1 "a positive node cap"))
      (fun c -> c.Pipeline.partition)
      (fun c partition -> { c with Pipeline.partition });
    row "corridor" ~wire:"corridor" ~affects:true ~docv:"CELLS"
      ~doc:
        "Hierarchical-routing threshold: search windows above this many \
         cells take the coarse corridor path.  $(b,off) keeps the \
         router's default.  Recorded in fuzzing reproducers so a shrunk \
         case replays its exact routing trajectory."
      (optional "off" (int_from 1 "a positive cell count"))
      (fun c -> c.Pipeline.corridor_cells)
      (fun c corridor_cells -> { c with Pipeline.corridor_cells });
    row "corridor-cache" ~affects:false ~docv:"on|off"
      ~doc:
        "Corridor reuse across routing negotiation iterations: $(b,on) \
         replays a net's coarse corridor when the grid's tile summary \
         generations prove it unchanged, $(b,off) recomputes every \
         coarse search.  Routes are bit-identical either way — off \
         exists for cross-checks and benchmark baselines."
      (enum (fun b -> if b then "on" else "off") [ true; false ])
      (fun c -> c.Pipeline.corridor_cache)
      (fun c corridor_cache -> { c with Pipeline.corridor_cache });
    row "sa-moves-cap" ~affects:true ~docv:"MOVES"
      ~doc:
        "Hard ceiling on annealing moves per trajectory, below the \
         effort-derived budget; $(b,off) keeps that budget.  The fuzzing \
         harness bounds per-case placement work with it, so its replay \
         lines carry it."
      (optional "off" (int_from 1 "a positive move count"))
      (fun c -> c.Pipeline.sa_moves_cap)
      (fun c sa_moves_cap -> { c with Pipeline.sa_moves_cap });
  ]

let defaults = { Pipeline.default_config with effort = Placer.Quick }

let apply r text config = Result.map (fun set -> set config) (r.parse text)

let of_env ?vars getenv config =
  let wanted var =
    match vars with None -> true | Some vars -> List.mem var vars
  in
  List.fold_left
    (fun acc r ->
      match (acc, r.env) with
      | Ok config, Some var when wanted var -> (
          match getenv var with
          | None -> acc
          | Some text ->
              Result.map_error
                (Printf.sprintf "%s=%S: %s" var text)
                (apply r text config))
      | _ -> acc)
    (Ok config) rows

let key config =
  rows
  |> List.filter (fun r -> r.affects_result)
  |> List.map (fun r -> r.flag ^ "=" ^ r.print config)
  |> String.concat ";"
