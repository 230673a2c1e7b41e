(* The executable GDPR model and its refinement harness: pure-model
   unit laws, the qcheck lockstep law (any generated op script leaves
   the real DBFS observationally equal to the model, on both
   allocators, with the index/cache-coherence audit riding along), the
   crash-refinement and degraded-mode laws, the full campaign
   (linearizability at 1/2/4 domains included), the injected-bug
   demonstration (a deliberately broken DBFS shim is caught with a
   shrunk, replayable counterexample), and the BENCH_model_check.json
   artifact machinery (absolute conformance gate included). *)

module Json = Rgpdos_util.Json
module Prng = Rgpdos_util.Prng
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module M = Rgpdos_membrane.Membrane
module Model = Rgpdos_model.Model
module RF = Rgpdos_model.Refine
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_strings = Alcotest.(check (list string))

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "model error: %s"
        (match e with
        | Model.Unknown_pd id -> "unknown pd " ^ id
        | Model.Already_erased id -> "already erased " ^ id)

let membrane ~pd_id ~subject ?ttl () =
  M.make ~pd_id ~type_name:"item" ~subject_id:subject ~origin:M.Subject
    ~consents:[ ("service", M.All) ]
    ~created_at:1_000 ?ttl ()

let record i = [ ("k_int", Value.VInt i); ("k_str", Value.VString "x") ]

let seeded_model () =
  let m = Model.empty in
  let m =
    Model.insert m ~pd_id:"pd1" ~type_name:"item" ~subject:"s0"
      ~record:(record 1)
      ~membrane:(membrane ~pd_id:"pd1" ~subject:"s0" ())
  in
  let m =
    Model.insert m ~pd_id:"pd2" ~type_name:"item" ~subject:"s1"
      ~record:(record 2)
      ~membrane:(membrane ~pd_id:"pd2" ~subject:"s1" ~ttl:500 ())
  in
  Model.insert m ~pd_id:"pd3" ~type_name:"item" ~subject:"s0"
    ~record:(record 3)
    ~membrane:(membrane ~pd_id:"pd3" ~subject:"s0" ())

(* ------------------------------------------------------------------ *)
(* pure model                                                         *)

let test_model_observables () =
  let m = seeded_model () in
  check_strings "subjects sorted" [ "s0"; "s1" ] (Model.subjects m);
  check_strings "pds_of_subject insertion order" [ "pd1"; "pd3" ]
    (Model.pds_of_subject m "s0");
  check_strings "list_pds" [ "pd1"; "pd2"; "pd3" ] (Model.list_pds m "item");
  check_strings "select live matches" [ "pd2"; "pd3" ]
    (Model.select m "item" (Query.Gt ("k_int", Value.VInt 1)));
  check_strings "expired: pd2 only, ttl 500 from created_at 1000" [ "pd2" ]
    (Model.expired m ~now:2_000);
  check_strings "nothing expired before the ttl" []
    (Model.expired m ~now:1_200);
  check_int "live_count" 3 (Model.live_count m)

let test_model_erase_delete () =
  let m = seeded_model () in
  let m = ok (Model.erase m "pd1" ~sealed:"sealed-bytes") in
  (match Model.find m "pd1" with
  | Some { Model.p_state = Model.Erased s; _ } ->
      check_string "sealed envelope kept" "sealed-bytes" s
  | _ -> Alcotest.fail "pd1 not erased");
  (* erased entries stay accountable but drop out of live observables *)
  check_strings "erased pd still listed" [ "pd1"; "pd3" ]
    (Model.pds_of_subject m "s0");
  check_strings "erased pd not selected" []
    (Model.select m "item" (Query.Eq ("k_int", Value.VInt 1)));
  (match Model.update_record m "pd1" (record 9) with
  | Error (Model.Already_erased _) -> ()
  | _ -> Alcotest.fail "update_record on erased pd must fail");
  (* membranes on erased entries stay updatable (consent is live even
     after crypto-erasure), like Dbfs.update_membrane *)
  let pd1 = Option.get (Model.find m "pd1") in
  let m =
    ok (Model.update_membrane m "pd1" (M.withdraw pd1.Model.p_membrane ~purpose:"service"))
  in
  let m = ok (Model.delete m "pd3") in
  check_strings "deleted pd gone" [ "pd1" ] (Model.pds_of_subject m "s0");
  (match Model.update_record m "nope" (record 0) with
  | Error (Model.Unknown_pd _) -> ()
  | _ -> Alcotest.fail "unknown pd must fail");
  check_int "live_count after erase+delete" 1 (Model.live_count m)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_model_dump () =
  let m = seeded_model () in
  check_bool "dump mentions every pd" true
    (List.for_all (fun id -> contains ~needle:id (Model.dump m))
       [ "pd1"; "pd2"; "pd3" ]);
  (* dump_excluding drops quarantined entries on the model side, the
     same way the crash harness drops them from the recovered store *)
  let full = Model.dump m in
  let excl = Model.dump_excluding m ~exclude:[ "pd2" ] in
  check_bool "dump differs once pd2 is excluded" true (full <> excl);
  check_string "excluding nothing is dump" full
    (Model.dump_excluding m ~exclude:[]);
  check_bool "equal is structural" true
    (Model.equal m (seeded_model ()));
  check_bool "equal detects divergence" false
    (Model.equal m (ok (Model.delete m "pd1")))

(* ------------------------------------------------------------------ *)
(* qcheck laws                                                        *)

let qcount default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

(* Scripts shrink by op removal (QCheck.Shrink.list), matching the
   harness's own greedy shrinker; counterexamples print as the
   replayable script dump. *)
let arb_script =
  QCheck.make
    ~print:RF.script_to_string ~shrink:QCheck.Shrink.list
    (QCheck.Gen.map
       (fun seed -> RF.gen_script (Prng.create ~seed:(Int64.of_int seed) ()))
       (QCheck.Gen.int_bound 1_000_000))

let prop_lockstep =
  QCheck.Test.make ~count:(qcount 15)
    ~name:"lockstep: dbfs == model on every observable, both allocators"
    arb_script
    (fun script ->
      List.for_all
        (fun cfg ->
          match RF.run_script cfg script with
          | Ok _ -> true
          | Error e -> QCheck.Test.fail_reportf "%s: %s" (RF.cfg_to_string cfg) e)
        [ RF.base_cfg; { RF.base_cfg with RF.segmented = true } ])

let prop_degraded =
  QCheck.Test.make ~count:(qcount 8)
    ~name:"degraded: unrecoverable damage => every mutation refused, \
           Art. 15 reads survive"
    arb_script
    (fun script ->
      match RF.check_degraded script with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ------------------------------------------------------------------ *)
(* crash refinement + full campaign                                   *)

let test_crash_matrix () =
  let script = RF.gen_script (Prng.create ~seed:99L ()) in
  List.iteri
    (fun i cfg ->
      match RF.run_crash ~spec_seed:(7_000 + i) cfg script with
      | Ok n -> check_bool "exercised at least the crash point" true (n >= 1)
      | Error e -> Alcotest.failf "crash refinement (%s): %s" (RF.cfg_to_string cfg) e)
    RF.all_cfgs

let test_campaign () =
  let r = RF.run ~seed:7 ~scripts:2 () in
  check_bool "campaign passes" true (RF.all_pass r);
  Alcotest.(check (float 0.0)) "conformance 100" 100.0 (RF.conformance_pct r);
  check_int "scripts" 2 r.RF.r_scripts;
  Alcotest.(check (list int)) "lin domains" [ 1; 2; 4 ] r.RF.r_lin_domains;
  check_bool "crash matrix covered" true
    (r.RF.r_crash_runs = 2 * List.length RF.all_cfgs);
  check_bool "fault points exercised" true (r.RF.r_fault_points > 0);
  check_bool "observables compared" true (r.RF.r_ops_checked > 100)

(* ------------------------------------------------------------------ *)
(* the harness catches an injected semantic bug                       *)

let test_injected_bug_caught_and_shrunk () =
  match
    RF.find_counterexample ~bug:RF.Drop_consent_flip ~seed:3 ~max_scripts:50
      RF.base_cfg
  with
  | None -> Alcotest.fail "injected consent-flip bug was not caught"
  | Some f ->
      let n = List.length f.RF.f_script in
      check_bool "counterexample shrunk to <= 4 ops" true (n <= 4);
      check_bool "shrinking recorded" true (f.RF.f_shrunk_from >= n);
      check_bool "a consent flip survives shrinking" true
        (List.exists (function RF.Flip _ -> true | _ -> false) f.RF.f_script);
      (* replayable: the shrunk script still fails under the bug and
         passes without it *)
      (match RF.run_script ~bug:RF.Drop_consent_flip RF.base_cfg f.RF.f_script with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shrunk counterexample does not replay");
      (match RF.run_script RF.base_cfg f.RF.f_script with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "shrunk script fails without the bug: %s" e);
      let rendered = RF.failure_to_string f in
      check_bool "report carries the seed" true
        (String.length rendered > 0 && f.RF.f_seed >= 0)

(* ------------------------------------------------------------------ *)
(* artifact machinery                                                 *)

let test_report_roundtrip () =
  let e = Bench.find "model" in
  let r = RF.run ~seed:11 ~scripts:2 () in
  let j = RF.to_json ~wall_ms:12.0 r in
  (match Bench.validate e j with
  | Ok _ -> ()
  | Error l -> Alcotest.failf "fresh report invalid: %s" (String.concat "; " l));
  (* the JSON survives a print/parse cycle *)
  (match Json.of_string (Json.to_string j) with
  | Ok j' -> check_bool "reparsed report valid" true (Result.is_ok (Bench.validate e j'))
  | Error e -> Alcotest.failf "report does not reparse: %s" e);
  (* the gate is absolute on both sides *)
  check_bool "100% passes" true (Result.is_ok (Bench.compare e ~committed:j j));
  let below = Bench.update [ K "conformance_pct" ] (fun _ -> Json.Num 99.9) j in
  check_bool "gate fails under 100% conformance" true
    (Result.is_error (Bench.compare e ~committed:j below))

let () =
  Alcotest.run "model"
    [
      ( "pure-model",
        [
          Alcotest.test_case "observables" `Quick test_model_observables;
          Alcotest.test_case "erase/delete" `Quick test_model_erase_delete;
          Alcotest.test_case "dump/equal" `Quick test_model_dump;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest prop_lockstep;
          QCheck_alcotest.to_alcotest prop_degraded;
        ] );
      ( "crash",
        [ Alcotest.test_case "config matrix" `Quick test_crash_matrix ] );
      ( "campaign",
        [ Alcotest.test_case "full run" `Quick test_campaign ] );
      ( "injected-bug",
        [
          Alcotest.test_case "caught, shrunk, replayable" `Quick
            test_injected_bug_caught_and_shrunk;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "fresh report roundtrip + gate" `Quick
            test_report_roundtrip;
        ] );
    ]
