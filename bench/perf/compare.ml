(* compare.exe — diff two sets of perf.exe run ledgers.

     compare.exe [--bench BENCHMARK.json] BASE NEW...

   BASE and each NEW are a ledger file (one ledger or a JSON list of
   them) or a directory of *.json ledgers; all NEW arguments pool into
   one set.

   - Result fields (volumes, fingerprints, counters per op) and the
     fail rate must match exactly between runs of the same (workload,
     input seed, smoke), within each set and across the two.
   - Every end-to-end metric of BENCHMARK.json is compared by median and
     interquartile range over a workload's runs (over its samples when
     a set holds one run).  A change worse than the metric's bound is a
     regression; a spread wider than the bound on either side leaves
     the metric unresolved.  A metric the ledger marks as derived from
     another (verdict "= source") and the per-layer metrics are printed
     unjudged.

   Exit 1 on a result mismatch, a schema error, a failed run or a
   regression; 2 on unreadable input. *)

module Json = Tqec_serve.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
    fmt

let problems = ref 0

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      incr problems;
      print_endline ("MISMATCH " ^ msg))
    fmt

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

type bound = { name : string; lower_better : bool; bound : float option }

let load_bench path =
  let j = match Ledger.read_file path with Ok j -> j | Error m -> die "%s" m in
  let section key =
    match Option.bind (Json.member key j) Json.to_list with
    | None -> die "%s: no %S list" path key
    | Some l ->
        List.map
          (fun m ->
            match
              ( Option.bind (Json.member "name" m) Json.to_str,
                Option.bind (Json.member "better" m) Json.to_str )
            with
            | Some name, Some better ->
                {
                  name;
                  lower_better = better = "lower";
                  bound = Option.bind (Json.member "bound" m) Json.to_float;
                }
            | _ -> die "%s: malformed %S entry" path key)
          l
  in
  (section "end_to_end", section "per_layer")

let ledgers_of_path path =
  let files =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map
    (fun file ->
      let j = match Ledger.read_file file with Ok j -> j | Error m -> die "%s" m in
      let items = match j with Json.List l -> l | j -> [ j ] in
      List.map
        (fun j ->
          match Ledger.of_json j with Ok l -> l | Error m -> die "%s: %s" file m)
        items)
    files

(* Schema beyond the ledger's shape: a run with metrics carries every
   end-to-end metric, and a traced run every per-layer one. *)
let check_schema (e2e, layers) side (l : Ledger.t) =
  if l.Ledger.metrics <> [] then
    List.iter
      (fun b ->
        if not (List.mem_assoc b.name l.Ledger.metrics) then
          problem "%s %s seed %d: metric %s missing" side l.workload l.seed b.name)
      (e2e @ if l.traced then layers else []);
  if not l.correct then problem "%s %s seed %d: run reported incorrect" side l.workload l.seed

(* ------------------------------------------------------------------ *)
(* Result fields                                                      *)
(* ------------------------------------------------------------------ *)

let fail_rate (l : Ledger.t) =
  if l.attempted = 0 then 0. else float_of_int l.failed /. float_of_int l.attempted

(* results depend on the circuits, not on the order seed *)
let group_key (l : Ledger.t) = (l.workload, l.input_seed, l.smoke)

let groups ledgers =
  List.sort_uniq compare (List.map group_key ledgers)
  |> List.map (fun k -> (k, List.filter (fun l -> group_key l = k) ledgers))

let diff_results ~what (a : Ledger.t) (b : Ledger.t) =
  let ops l = List.map fst l.Ledger.results in
  if ops a <> ops b then
    problem "%s: op sets differ (%s vs %s)" what (String.concat "," (ops a))
      (String.concat "," (ops b))
  else
    List.iter2
      (fun (op, ja) (_, jb) ->
        match (ja, jb) with
        | Json.Obj fa, Json.Obj fb ->
            List.iter
              (fun (k, va) ->
                match List.assoc_opt k fb with
                | Some vb when Json.to_string va = Json.to_string vb -> ()
                | Some vb ->
                    problem "%s %s.%s: %s vs %s" what op k (Json.to_string va)
                      (Json.to_string vb)
                | None -> problem "%s %s.%s: missing" what op k)
              fa;
            List.iter
              (fun (k, _) -> if not (List.mem_assoc k fa) then problem "%s %s.%s: added" what op k)
              fb
        | _ -> if Json.to_string ja <> Json.to_string jb then problem "%s %s differs" what op)
      a.Ledger.results b.Ledger.results;
  if fail_rate a <> fail_rate b then
    problem "%s: fail_rate %g vs %g" what (fail_rate a) (fail_rate b)

let compare_results base news =
  let gb = groups base and gn = groups news in
  let show (w, input_seed, smoke) =
    Printf.sprintf "%s input-seed %d%s" w input_seed (if smoke then " smoke" else "")
  in
  List.iter
    (fun (k, runs) ->
      match runs with
      | [] -> ()
      | first :: rest ->
          List.iter (diff_results ~what:(show k ^ " (within a set)") first) rest)
    (gb @ gn);
  List.iter
    (fun (k, runs) ->
      match (List.assoc_opt k gb, runs) with
      | Some (b :: _), n :: _ ->
          let before = !problems in
          diff_results ~what:(show k) b n;
          if !problems = before then
            Printf.printf "results  %-32s %d op(s) identical\n" (show k)
              (List.length n.Ledger.results)
      | _ -> Printf.printf "results  %-32s not in BASE\n" (show k))
    gn

(* ------------------------------------------------------------------ *)
(* Measured metrics                                                   *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4) (exclusive method): Q1, Q3. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* A workload's samples of one metric: one value per run, or the reps of
   the single run a set holds. *)
let samples workload name ledgers =
  let runs =
    List.filter_map
      (fun (l : Ledger.t) ->
        if l.workload = workload then List.assoc_opt name l.metrics else None)
      ledgers
  in
  match runs with
  | [ m ] when m.Ledger.samples <> [] -> m.samples
  | ms -> List.map (fun m -> m.Ledger.value) ms

(* The metric a workload's copy of [name] repeats, if it is one. *)
let derived workload name ledgers =
  List.find_map
    (fun (l : Ledger.t) ->
      if l.workload = workload then
        Option.bind (List.assoc_opt name l.metrics) (fun m -> m.Ledger.derived)
      else None)
    ledgers

let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let compare_metrics ~judge metrics base news =
  let workloads =
    List.sort_uniq compare (List.map (fun (l : Ledger.t) -> l.workload) news)
  in
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          let xs = samples w b.name base and ys = samples w b.name news in
          if xs <> [] && ys <> [] then begin
            let mb = median xs and mn = median ys in
            let change = if mb = 0. then 0. else (mn -. mb) /. Float.abs mb in
            let worse = if b.lower_better then change else -.change in
            let sb = spread xs and sn = spread ys in
            let verdict =
              match (judge, b.bound, derived w b.name (base @ news)) with
              | _, _, Some source -> "= " ^ source
              | false, _, _ | _, None, _ -> "-"
              | true, Some bound, None ->
                  if sb > bound || sn > bound then "unresolved"
                  else if worse > bound then begin
                    incr problems;
                    "REGRESSED"
                  end
                  else if worse < -.bound then "improved"
                  else "ok"
            in
            Printf.printf "%-12s %-24s %12.6g (%5.1f%%) %12.6g (%5.1f%%) %+7.1f%% %6s  %s\n" w
              b.name mb (100. *. sb) mn (100. *. sn) (100. *. change)
              (match b.bound with Some x -> Printf.sprintf "%g%%" (100. *. x) | None -> "-")
              verdict
          end)
        metrics)
    workloads

let () =
  let bench = ref "BENCHMARK.json" and paths = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "FILE  bounds (default BENCHMARK.json)") ]
    (fun p -> paths := p :: !paths)
    "usage: compare.exe [--bench BENCHMARK.json] BASE NEW...";
  let base_path, new_paths =
    match List.rev !paths with
    | b :: (_ :: _ as ns) -> (b, ns)
    | _ -> die "usage: compare.exe [--bench BENCHMARK.json] BASE NEW..."
  in
  let ((e2e, layers) as spec) = load_bench !bench in
  let base = ledgers_of_path base_path in
  let news = List.concat_map ledgers_of_path new_paths in
  List.iter (check_schema spec "BASE") base;
  List.iter (check_schema spec "NEW") news;
  compare_results base news;
  if List.exists (fun (l : Ledger.t) -> l.metrics <> []) base then
    Printf.printf "%-12s %-24s %21s %21s %8s %6s  %s\n" "workload" "metric" "BASE median (IQR)"
      "NEW median (IQR)" "change" "bound" "verdict";
  compare_metrics ~judge:true e2e base news;
  compare_metrics ~judge:false layers base news;
  if !problems > 0 then begin
    Printf.printf "%d problem(s)\n" !problems;
    exit 1
  end
