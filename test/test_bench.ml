(* The bench registry: the tiny JSON layer it is built on, the hotpath
   report encoder, the section parser, every gate of every entry firing,
   and every committed BENCH_*.json passing its gates. *)

module Json = Rgpdos_util.Json
module Bench = Rgpdos_workload.Bench
module E = Rgpdos_workload.Experiments

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)

let sample =
  Json.Obj
    [
      ("s", Json.Str "a \"quoted\" line\nwith\ttabs and \\slashes");
      ("n", Json.Num 42.0);
      ("f", Json.Num 1.5);
      ("yes", Json.Bool true);
      ("no", Json.Bool false);
      ("nothing", Json.Null);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List
          [ Json.Num 1.0; Json.Str "two"; Json.Obj [ ("k", Json.Num 3.0) ] ] );
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample) with
      | Ok v ->
          check_bool
            (Printf.sprintf "roundtrip indent=%d" indent)
            true (v = sample)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ 0; 2; 4 ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "tru"; "{\"a\" 1}"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  (match Json.member "n" sample with
  | Some v -> check_bool "num" true (Json.to_float v = Some 42.0)
  | None -> Alcotest.fail "member n missing");
  check_bool "missing member" true (Json.member "absent" sample = None);
  check_bool "member of non-obj" true (Json.member "x" (Json.Num 1.0) = None)

(* ------------------------------------------------------------------ *)
(* the hotpath report                                                 *)

let entries = Bench.registry ~micro:(fun () -> [])
let hotpath = Bench.find "hotpath"

let hotpath_micro =
  [
    { Bench.name = "core/sha256/1KiB"; ns_per_op = 11000.0; r2 = 0.97 };
    { Bench.name = "core/chacha20/1KiB"; ns_per_op = 8300.0; r2 = 0.96 };
    { Bench.name = "core/audit/append"; ns_per_op = 2200.0; r2 = 0.93 };
  ]

let fake_e1 : E.e1_result =
  {
    e1_subjects = 10;
    e1_stage_ns = [ ("load_membrane", 500); ("load_data", 400) ];
    e1_total_ns = 1000;
    e1_device = [ ("merged_runs", 2); ("reads", 20); ("vec_reads", 2) ];
  }

let fake_e4 : E.e4_row list =
  [ { e4_records_per_subject = 1; e4_sim_us = 18.2; e4_export_complete = true } ]

let report micro =
  Bench.hotpath_json ~quick:true ~micro ~e1:(fake_e1, 12.5) ~e4:(fake_e4, 3.25)

let rejected v = Result.is_error (Bench.validate hotpath v)

let test_report_valid_and_parses_back () =
  let report = report hotpath_micro in
  (match Bench.validate hotpath report with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" (String.concat "; " e));
  (* what the file holds must parse back to an equally valid report *)
  match Json.of_string (Json.to_string report) with
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  | Ok parsed ->
      check_bool "identical after roundtrip" true (parsed = report);
      check_bool "parsed report valid" false (rejected parsed)

let test_report_rejects_bad_shapes () =
  check_bool "empty object" true (rejected (Json.Obj []));
  check_bool "wrong schema id" true
    (rejected (Json.Obj [ ("schema", Json.Str "something-else/9") ]));
  (* dropping a required hot-path row must fail validation *)
  check_bool "missing hot-path row" true
    (rejected
       (report
          (List.filter (fun r -> r.Bench.name <> "core/chacha20/1KiB") hotpath_micro)));
  check_bool "non-positive ns_per_op" true
    (rejected
       (report
          ({ Bench.name = "core/sha256/1KiB"; ns_per_op = 0.0; r2 = 1.0 }
          :: List.tl hotpath_micro)))

(* ------------------------------------------------------------------ *)
(* the registry                                                       *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_section_parser () =
  let names = List.map (fun e -> e.Bench.section) entries in
  (match Bench.parse_sections entries [] with
  | Ok all ->
      check_bool "no argument selects every entry" true
        (List.for_all (fun n -> List.mem n all) names);
      check_bool "and the print-only sections" true (List.mem "fig1" all)
  | Error e -> Alcotest.fail e);
  check_bool "known names pass through" true
    (Bench.parse_sections entries [ "vecio"; "e3" ] = Ok [ "vecio"; "e3" ]);
  match Bench.parse_sections entries [ "vecio"; "vecoi" ] with
  | Ok _ -> Alcotest.fail "a misspelt section was accepted"
  | Error e ->
      check_bool "names the unknown section" true (contains e "vecoi");
      List.iter
        (fun n -> check_bool ("lists " ^ n) true (contains e n))
        (names @ [ "fig1"; "a3" ])

(* `dune runtest` runs from the test dir (the deps are staged one level
   up); `dune exec test/test_bench.exe` runs from the project root *)
let committed (e : Bench.entry) =
  match
    List.find_opt Sys.file_exists [ Filename.concat ".." e.file; e.file ]
  with
  | None -> Alcotest.failf "%s missing (regenerate: %s)" e.file e.regen
  | Some path -> (
      match Bench.read_file path with
      | Ok v -> v
      | Error msg -> Alcotest.fail msg)

let test_committed_artifact (e : Bench.entry) () =
  match Bench.validate e (committed e) with
  | Ok _ -> ()
  | Error lines -> Alcotest.failf "%s: %s" e.file (String.concat "; " lines)

let fails_naming name = function
  | Ok _ -> Alcotest.failf "gate %S did not fire" name
  | Error lines ->
      check_bool
        (Printf.sprintf "a failure names %S: %s" name (String.concat "; " lines))
        true
        (List.exists
           (fun l ->
             String.length l >= String.length name
             && String.sub l 0 (String.length name) = name)
           lines)

(* a value just past the bar; behind a trailing Len, the list is cut
   below or grown past it *)
let past_bar path cmp =
  match (List.rev path, cmp) with
  | Bench.Len :: _, Bench.Ge b -> (
      function
      | Json.List xs -> Json.List (List.filteri (fun i _ -> float_of_int (i + 1) < b) xs)
      | v -> v)
  | Bench.Len :: _, Bench.Eq _ -> (
      function Json.List xs -> Json.List (Json.Null :: xs) | v -> v)
  | Bench.Len :: _, _ -> Alcotest.fail "no length gate of this kind"
  | _, Ge b -> fun _ -> Json.Num (b -. 0.01)
  | _, Gt b -> fun _ -> Json.Num b
  | _, Le b -> fun _ -> Json.Num (b +. 0.01)
  | _, Eq b -> fun _ -> Json.Num (b +. 1.0)

let test_bars_and_flags_fire () =
  List.iter
    (fun (e : Bench.entry) ->
      let v = committed e in
      List.iter
        (function
          | Bench.Bar { name; path; cmp } ->
              (* moving only the largest row would leave the next one
                 largest: move them all *)
              let all = List.map (function Bench.Max_by _ -> Bench.Each | s -> s) path in
              fails_naming name (Bench.validate e (Bench.update all (past_bar path cmp) v))
          | Flag { name; path } ->
              fails_naming name
                (Bench.validate e (Bench.update path (fun _ -> Json.Bool false) v))
          | Drift _ | Rule _ | Drift_rule _ -> ())
        e.gates;
      fails_naming "schema"
        (Bench.validate e (Bench.update [ K "schema" ] (fun _ -> Json.Str "x/0") v)))
    entries

let test_drift_gates () =
  let drifts =
    List.concat_map
      (fun (e : Bench.entry) ->
        List.filter_map
          (function
            | Bench.Drift { name; path; better; _ } -> Some (e, name, path, better)
            | _ -> None)
          e.gates)
      entries
  in
  check_bool "five drift gates" true (List.length drifts = 5);
  List.iter
    (fun ((e : Bench.entry), name, path, better) ->
      let v = committed e in
      let scaled k =
        Bench.update path
          (function Json.Num x -> Json.Num (x *. k) | j -> j)
          v
      in
      let worse by =
        match better with
        | Bench.Higher -> 1.0 -. ((Bench.drift_pct +. by) /. 100.0)
        | Lower -> 1.0 +. ((Bench.drift_pct +. by) /. 100.0)
      in
      (match Bench.compare e ~committed:v (scaled (worse (-0.5))) with
      | Ok _ -> ()
      | Error l -> Alcotest.failf "%s: just inside failed: %s" name (String.concat "; " l));
      fails_naming name (Bench.compare e ~committed:v (scaled (worse 0.5))))
    drifts;
  (* the per-stage E1 drift rule: every stage 24.5% / 25.5% slower *)
  let v = committed hotpath in
  let slower k =
    Bench.update [ K "e1"; K "stage_ns" ]
      (function
        | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (s, x) ->
                   (s, match x with Json.Num n -> Json.Num (n *. k) | j -> j))
                 kvs)
        | j -> j)
      v
  in
  check_bool "E1 just inside passes" true
    (Result.is_ok (Bench.compare hotpath ~committed:v (slower 1.245)));
  fails_naming "E1 drift" (Bench.compare hotpath ~committed:v (slower 1.255))

let rule (e : Bench.entry) name =
  match
    List.find_opt (fun g -> Bench.gate_name g = name) e.gates
  with
  | Some (Bench.Rule { check; _ }) -> check
  | _ -> Alcotest.failf "%s has no rule %S" e.section name

let test_named_predicates () =
  let rejects section name mutate =
    let e = Bench.find section in
    let v = committed e in
    check_bool (name ^ " holds on the committed artifact") true
      (Result.is_ok (rule e name v));
    fails_naming name (Bench.validate e (mutate v))
  in
  rejects "fault" "fault-point exhaustiveness"
    (Bench.update [ K "points" ] (function
      | Json.List (_ :: rest) -> Json.List rest
      | j -> j));
  rejects "model" "crash matrix"
    (Bench.update [ K "crash_configs" ] (fun _ -> Json.Num 17.0));
  rejects "sla" "equal Art. 15 counts"
    (Bench.update
       [ K "edf"; K "rights"; Where [ ("label", Json.Str "art15") ]; K "count" ]
       (function Json.Num n -> Json.Num (n +. 1.0) | j -> j));
  rejects "mount" "zipf within budget"
    (Bench.update [ K "zipf"; K "resident_max" ] (function
      | Json.Num n -> Json.Num (n *. 100.0)
      | j -> j));
  rejects "async" "no per-subject cliff"
    (Bench.update
       [
         K "sizes";
         Max_by "subjects";
         K "rows";
         Where [ ("depth", Json.Num 1.0) ];
         K "total_ns";
       ]
       (function Json.Num n -> Json.Num (n *. 6.0) | j -> j))

let test_missing_artifact () =
  match Bench.read_file "no-such-BENCH.json" with
  | Ok _ -> Alcotest.fail "a missing artifact was read"
  | Error msg -> check_bool "says missing" true (contains msg "missing")

let () =
  Alcotest.run "bench-report"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "report",
        [
          Alcotest.test_case "valid and parses back" `Quick
            test_report_valid_and_parses_back;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_report_rejects_bad_shapes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "section parser" `Quick test_section_parser;
          Alcotest.test_case "bars and flags fire" `Quick test_bars_and_flags_fire;
          Alcotest.test_case "drift gates" `Quick test_drift_gates;
          Alcotest.test_case "named predicates" `Quick test_named_predicates;
          Alcotest.test_case "missing artifact" `Quick test_missing_artifact;
        ] );
      ( "artifact",
        List.map
          (fun (e : Bench.entry) ->
            Alcotest.test_case (e.file ^ " passes its gates") `Quick
              (test_committed_artifact e))
          entries );
    ]
