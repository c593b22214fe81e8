(* The run ledger: what one perf.exe run records, and the only place
   that knows its JSON shape.  perf.exe writes it, compare.exe reads it
   back; the committed expected*.json files are lists of ledgers without
   their "metrics" member (deterministic fields only). *)

module Json = Tqec_serve.Json

let schema = "tqec-perf/1"

type metric = {
  value : float;  (** the reported number: a median, a sum of per-op medians, or a count *)
  unit_ : string;
  samples : float list;  (** per-pass (per-session) values behind [value]; [] for counts *)
  derived : string option;
      (** the metric this one is computed from, when it measures nothing
          of its own; compare.exe does not judge it *)
}

type t = {
  workload : string;
  seed : int;  (** orders ops and requests; results do not depend on it *)
  input_seed : int;  (** varies the circuits; results do *)
  smoke : bool;
  traced : bool;
  reps : int;
  attempted : int;
  failed : int;
  correct : bool;
  results : (string * Json.t) list;
      (** per op: deterministic fields (volume, fingerprint, counters);
          equal across reps, processes and machines for one seed *)
  metrics : (string * metric) list;
}

let metric_json m =
  Json.Obj
    ([
       ("value", Json.Float m.value);
       ("unit", Json.String m.unit_);
       ("samples", Json.List (List.map (fun s -> Json.Float s) m.samples));
     ]
    @ match m.derived with Some d -> [ ("derived", Json.String d) ] | None -> [])

let to_json l =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String l.workload);
      ("seed", Json.Int l.seed);
      ("input_seed", Json.Int l.input_seed);
      ("smoke", Json.Bool l.smoke);
      ("traced", Json.Bool l.traced);
      ("reps", Json.Int l.reps);
      ("attempted", Json.Int l.attempted);
      ("failed", Json.Int l.failed);
      ("correct", Json.Bool l.correct);
      ("results", Json.Obj l.results);
      ("metrics", Json.Obj (List.map (fun (k, m) -> (k, metric_json m)) l.metrics));
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped %S" name)

let assoc = function Json.Obj kvs -> Some kvs | _ -> None

let all_ok f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric_of_json (name, j) =
  let* value = field "value" Json.to_float j in
  let* unit_ = field "unit" Json.to_str j in
  let* samples = field "samples" Json.to_list j in
  let* samples =
    all_ok
      (fun s ->
        Option.to_result ~none:(name ^ ": non-numeric sample") (Json.to_float s))
      samples
  in
  let* derived =
    match Json.member "derived" j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (field "derived" Json.to_str j)
  in
  Ok (name, { value; unit_; samples; derived })

let of_json j =
  let* s = field "schema" Json.to_str j in
  let* () =
    if s = schema then Ok () else Error (Printf.sprintf "schema %S, want %S" s schema)
  in
  let* workload = field "workload" Json.to_str j in
  let* seed = field "seed" Json.to_int j in
  let* smoke = field "smoke" Json.to_bool j in
  let* attempted = field "attempted" Json.to_int j in
  let* failed = field "failed" Json.to_int j in
  let* results = field "results" assoc j in
  (* expected ledgers carry only the deterministic members *)
  let opt name conv default =
    match Json.member name j with None -> Ok default | Some _ -> field name conv j
  in
  let* input_seed = opt "input_seed" Json.to_int 0 in
  let* traced = opt "traced" Json.to_bool false in
  let* reps = opt "reps" Json.to_int 0 in
  let* correct = opt "correct" Json.to_bool (failed = 0) in
  let* metrics = opt "metrics" assoc [] in
  let* metrics = all_ok metric_of_json metrics in
  Ok { workload; seed; input_seed; smoke; traced; reps; attempted; failed; correct; results; metrics }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
      match Json.of_string text with
      | exception Json.Parse_error m -> Error (path ^ ": " ^ m)
      | j -> Ok j)

let write_file path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')
