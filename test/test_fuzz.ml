(* Fuzzing fleet under Alcotest: the QCheck2 property tests (with a
   fixed random state so CI replays one deterministic case sequence),
   the .qct fixture format round-trip, and the planted-fault gate that
   proves the oracles catch a real pipeline bug and shrink it to a
   minimal reproducer. *)

open Tqec_circuit
open Tqec_fuzz

let check = Alcotest.check

(* Fixed-seed QCheck runs, the qcheck-alcotest bridge: each property is
   a handful of cases here — the heavy campaign lives behind
   bench/fuzz.exe and the @fuzz-smoke alias. *)
let rand () = Random.State.make [| 0xF522 |]

let qcheck_tests =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(rand ()) t)
    [
      Harness.test ~count:8 ~name:"pipeline oracles hold" ();
      Lint_soup.test ~count:500;
      QCheck2.Test.make ~count:50 ~name:"qct round-trips"
        ~print:(fun c -> Qct.to_string c)
        Case.gen_circuit
        (fun c ->
          let c' = Qct.parse_string ~name:c.Circuit.name (Qct.to_string c) in
          c'.Circuit.n_qubits = c.Circuit.n_qubits
          && c'.Circuit.gates = c.Circuit.gates);
    ]

(* --- .qct parse errors --------------------------------------------- *)

let expect_parse_error ~line text =
  match Qct.parse_string ~name:"bad" text with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Qct.Parse_error { line = got; _ } ->
      check Alcotest.int "error line" line got

let test_qct_malformed () =
  expect_parse_error ~line:1 "h 0\n";
  (* gates before the qubits directive *)
  expect_parse_error ~line:2 "qubits 2\nqubits 3\n";
  expect_parse_error ~line:1 "qubits 0\n";
  expect_parse_error ~line:2 "qubits 2\ncnot 0 0\n";
  expect_parse_error ~line:2 "qubits 2\nh 2\n";
  expect_parse_error ~line:2 "qubits 2\ntoffoli 0 1\n";
  expect_parse_error ~line:0 "# only a comment\n"

let test_qct_comments_and_case () =
  let c =
    Qct.parse_string ~name:"ok"
      "# header\nQUBITS 3\n\nH 0   # trailing\n\tcnot\t1  2\n"
  in
  check Alcotest.int "qubits" 3 c.Circuit.n_qubits;
  check Alcotest.int "gates" 2 (List.length c.Circuit.gates)

let test_qct_rejects_non_clifford_t () =
  let c =
    Circuit.make ~name:"toff" ~n_qubits:3
      [ Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  match Qct.to_string c with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- planted faults ------------------------------------------------ *)

(* The acceptance gate: with a stage fault planted into every result
   the campaign must fail, and integrated shrinking must walk the
   counterexample down to a minimal reproducer (<= 8 gates; the volume
   misreport is observable even on the empty circuit). *)
let test_planted_fault_shrinks () =
  let o = Harness.run ~fault:Oracle.Volume_misreport ~seed:7 ~count:40 () in
  match o.Harness.failure with
  | None -> Alcotest.fail "planted fault was not caught"
  | Some f ->
      let gates = List.length f.Harness.case.Case.circuit.Circuit.gates in
      check Alcotest.bool
        (Printf.sprintf "shrunk to %d gates (<= 8)" gates)
        true (gates <= 8);
      check Alcotest.bool "oracle message mentions the stage" true
        (String.length f.Harness.message > 0)

let test_all_faults_caught () =
  List.iter
    (fun fault ->
      let o = Harness.run ~fault ~seed:11 ~count:25 () in
      check Alcotest.bool (Oracle.fault_name fault ^ " caught") true
        (o.Harness.failure <> None))
    [ Oracle.Volume_misreport; Oracle.Route_drop_cell; Oracle.Placement_collide ]

let test_fault_names_roundtrip () =
  List.iter
    (fun f ->
      check Alcotest.bool (Oracle.fault_name f) true
        (Oracle.fault_of_string (Oracle.fault_name f) = Some f))
    [ Oracle.Volume_misreport; Oracle.Route_drop_cell; Oracle.Placement_collide ];
  check Alcotest.bool "unknown fault" true (Oracle.fault_of_string "bogus" = None)

(* --- reproducer rendering ------------------------------------------ *)

let test_flag_vector_replayable () =
  let case =
    {
      Case.circuit = Circuit.make ~name:"f" ~n_qubits:2 [ Gate.T 0 ];
      seed = 9;
      restarts = 2;
      jobs = 3;
      partition = Some 4;
      corridor_cells = Some 64;
    }
  in
  check Alcotest.string "flags"
    "--seed 9 --restarts 2 --jobs 3 --partition 4 --corridor 64 \
     --sa-moves-cap 3000"
    (Case.flag_vector case);
  let printed = Case.print case in
  check Alcotest.bool "embeds qct" true
    (String.length printed > 0
    && printed.[0] = '#'
    (* the fixture part must itself parse back *)
    &&
    let c = Qct.parse_string ~name:"f" (Qct.to_string case.Case.circuit) in
    c.Circuit.gates = [ Gate.T 0 ])

(* The replay line is exact: its flags, parsed back through the knob
   table's rows onto the CLI defaults (what `tqecc check` does with
   them), give the very config the fuzz case ran with. *)
let prop_flag_vector_replays_config =
  let module Knobs = Tqec_compress.Knobs in
  let parse words =
    let rec go acc = function
      | flag :: value :: rest -> (
          let row =
            List.find_opt
              (fun (r : Knobs.row) -> "--" ^ r.Knobs.flag = flag)
              Knobs.rows
          in
          match row with
          | Some r -> go (Result.bind acc (Knobs.apply r value)) rest
          | None -> Error ("unknown flag " ^ flag))
      | [] -> acc
      | [ w ] -> Error ("dangling " ^ w)
    in
    go (Ok Knobs.defaults) words
  in
  QCheck2.Test.make ~name:"flag vector parses back to config_of" ~count:200
    ~print:Case.print Case.gen (fun case ->
      let words =
        String.split_on_char ' ' (Case.flag_vector case)
        |> List.filter (( <> ) "")
      in
      parse words = Ok (Case.config_of case))

let suites =
  [
    ("fuzz.properties", qcheck_tests);
    ( "fuzz.qct",
      [
        Alcotest.test_case "malformed inputs" `Quick test_qct_malformed;
        Alcotest.test_case "comments and case" `Quick test_qct_comments_and_case;
        Alcotest.test_case "non-Clifford+T unprintable" `Quick
          test_qct_rejects_non_clifford_t;
      ] );
    ( "fuzz.faults",
      [
        Alcotest.test_case "volume fault shrinks <= 8 gates" `Quick
          test_planted_fault_shrinks;
        Alcotest.test_case "all faults caught" `Quick test_all_faults_caught;
        Alcotest.test_case "fault names" `Quick test_fault_names_roundtrip;
      ] );
    ( "fuzz.reproducer",
      [
        Alcotest.test_case "flag vector" `Quick test_flag_vector_replayable;
        QCheck_alcotest.to_alcotest ~rand:(rand ())
          prop_flag_vector_replays_config;
      ] );
  ]
