(* End-to-end tests of the booted rgpdOS machine: the paper's Listings 1-3
   scenario (user type + compute_age processing), the eight-step DED
   pipeline, PS registration rules, subject rights, TTL sweeping,
   enforcement attacks, and the compliance checker. *)

module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Membrane = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Dbfs = Rgpdos_dbfs.Dbfs
module Syscall = Rgpdos_kernel.Syscall
module Audit_log = Rgpdos_audit.Audit_log
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Ps = Rgpdos_ps.Processing_store
module Authority = Rgpdos_gdpr.Authority
module Ttl_sweeper = Rgpdos_gdpr.Ttl_sweeper
module Compliance = Rgpdos_gdpr.Compliance
module Block_device = Rgpdos_block.Block_device
module Machine = Rgpdos.Machine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* The paper's declarations: Listing 1 plus purposes 1-3. *)
let declarations =
  {|
type user {
  fields {
    name: string,
    pwd: string,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { year_of_birthdate };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: v_ano
  };
  collection { web_form: user_form.html };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}

type age_pd {
  fields { age: int };
  consent { purpose3: all };
  sensitivity: low;
}

purpose purpose1 {
  description: "operate the user account";
  reads: user;
  legal_basis: contract;
}

purpose purpose2 {
  description: "profile users for partner advertising";
  reads: user;
  legal_basis: consent;
}

purpose purpose3 {
  description: "compute the age of the input user";
  reads: user.v_ano;
  produces: age_pd;
  legal_basis: consent;
}
|}

let current_year = 2026

(* Listing 2: compute_age, with the line-4 availability check *)
let compute_age_impl _ctx inputs =
  let ages =
    List.filter_map
      (fun (i : Processing.pd_input) ->
        match Record.get i.record "year_of_birthdate" with
        | Some (Value.VInt y) ->
            (* is age allowed to be seen? *)
            Some (i.subject, [ ("age", Value.VInt (current_year - y)) ])
        | _ -> None (* field not available under this view: skip *))
      inputs
  in
  Ok
    {
      Processing.value = Some (Value.VInt (List.length ages));
      produced = List.map (fun (subject, r) -> ("age_pd", subject, r)) ages;
    }

let user_record name year : Record.t =
  [
    ("name", Value.VString name);
    ("pwd", Value.VString ("pwdhash-" ^ name));
    ("year_of_birthdate", Value.VInt year);
  ]

let boot_with_users () =
  let m = Machine.boot ~seed:7L () in
  let types, purposes = ok (Machine.load_declarations m declarations) in
  check_int "types loaded" 2 types;
  check_int "purposes loaded" 3 purposes;
  let collect name year =
    ok
      (Machine.collect m ~type_name:"user"
         ~subject:("sub-" ^ String.lowercase_ascii name)
         ~interface:"web_form:user_form.html"
         ~record:(user_record name year) ())
  in
  let pd_alice = collect "Alice" 1990 in
  let pd_bob = collect "Bob" 1985 in
  let pd_carol = collect "Carol" 2000 in
  (m, pd_alice, pd_bob, pd_carol)

let register_compute_age m =
  let spec =
    ok
      (Machine.make_processing m ~name:"compute_age" ~purpose:"purpose3"
         ~touches:[ ("user", [ "year_of_birthdate" ]) ]
         compute_age_impl)
  in
  match ok (Machine.register_processing m spec) with
  | Ps.Registered -> ()
  | Ps.Registered_with_alert reason ->
      Alcotest.failf "unexpected alert: %s" reason

(* ------------------------------------------------------------------ *)
(* the Listing 1-3 scenario                                           *)

let test_compute_age_end_to_end () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  (* all three users consent to purpose3 through v_ano (schema default) *)
  check_int "3 users processed" 3 outcome.Ded.consumed;
  check_int "none filtered" 0 outcome.Ded.filtered;
  check_bool "non-PD count returned" true (outcome.Ded.value = Some (Value.VInt 3));
  check_int "3 age_pd produced" 3 (List.length outcome.Ded.produced_refs);
  (* produced PD is stored and wrapped *)
  List.iter
    (fun pd_id ->
      let m' = ok (Result.map_error Dbfs.error_to_string
                     (Dbfs.get_membrane (Machine.dbfs m) ~actor:"ded" pd_id)) in
      check_string "type" "age_pd" m'.Membrane.type_name)
    outcome.Ded.produced_refs

let test_view_projection_hides_fields () =
  (* a processing under purpose3 must never see name or pwd *)
  let m, _, _, _ = boot_with_users () in
  let leak = ref [] in
  let spy_impl _ctx inputs =
    List.iter
      (fun (i : Processing.pd_input) ->
        leak := List.map fst i.Processing.record @ !leak)
      inputs;
    Ok Processing.no_output
  in
  let spec =
    ok
      (Machine.make_processing m ~name:"spy" ~purpose:"purpose3"
         ~touches:[ ("user", [ "year_of_birthdate" ]) ]
         spy_impl)
  in
  ignore (ok (Machine.register_processing m spec));
  ignore (ok (Machine.invoke m ~name:"spy" ~target:(Ded.All_of_type "user") ()));
  check_bool "only v_ano fields visible" true
    (List.for_all (( = ) "year_of_birthdate") !leak);
  check_bool "saw something" true (!leak <> [])

let test_denied_purpose_filters_everything () =
  let m, _, _, _ = boot_with_users () in
  let spec =
    ok
      (Machine.make_processing m ~name:"ad_profiling" ~purpose:"purpose2"
         ~touches:[ ("user", [ "name" ]) ]
         (fun _ctx inputs ->
           Ok (Processing.value_output (Value.VInt (List.length inputs)))))
  in
  ignore (ok (Machine.register_processing m spec));
  let outcome =
    ok (Machine.invoke m ~name:"ad_profiling" ~target:(Ded.All_of_type "user") ())
  in
  check_int "nothing consumed" 0 outcome.Ded.consumed;
  check_int "all filtered" 3 outcome.Ded.filtered;
  (* the refusals are in the audit log *)
  let audit = Machine.audit m in
  let refusals =
    List.filter
      (fun e ->
        match e.Audit_log.event with
        | Audit_log.Filtered_out { purpose = "purpose2"; _ } -> true
        | _ -> false)
      (Audit_log.entries audit)
  in
  check_int "refusals logged" 3 (List.length refusals)

let test_stage_breakdown_present () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  let stages = List.map fst outcome.Ded.stage_ns in
  Alcotest.(check (list string))
    "stage order"
    [ "ded_type2req"; "ded_load_membrane"; "ded_filter"; "ded_load_data";
      "ded_execute"; "ded_build_membrane+store"; "ded_return" ]
    stages;
  check_bool "membrane load costs time" true
    (List.assoc "ded_load_membrane" outcome.Ded.stage_ns > 0);
  (* the DBFS counters agree with the pipeline: one membrane read and one
     record read per subject in this invoke (plus the earlier register) *)
  let stats = Dbfs.stats (Machine.dbfs m) in
  check_bool "membrane reads counted" true
    (Rgpdos_util.Stats.Counter.get stats "membrane_reads" >= 3);
  check_bool "record reads counted" true
    (Rgpdos_util.Stats.Counter.get stats "record_reads" >= 3)

let test_target_pd_refs () =
  let m, pd_alice, _, _ = boot_with_users () in
  register_compute_age m;
  let outcome =
    ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.Pd_refs [ pd_alice ]) ())
  in
  check_int "one consumed" 1 outcome.Ded.consumed

let test_selection_target () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  (* alice 1990, bob 1985, carol 2000: select year > 1987 *)
  let outcome =
    ok
      (Machine.invoke m ~name:"compute_age"
         ~target:
           (Ded.Selection
              ( "user",
                Rgpdos_dbfs.Query.Gt ("year_of_birthdate", Value.VInt 1987) ))
         ())
  in
  check_int "two match the selection" 2 outcome.Ded.consumed;
  (* selection on a field hidden by the view fails closed: purpose3 only
     sees year_of_birthdate, so a predicate on name matches nothing *)
  let hidden =
    ok
      (Machine.invoke m ~name:"compute_age"
         ~target:
           (Ded.Selection
              ("user", Rgpdos_dbfs.Query.Eq ("name", Value.VString "Alice")))
         ())
  in
  check_int "hidden-field selection matches nothing" 0 hidden.Ded.consumed

let test_attestation_in_audit () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  let attested =
    List.filter_map
      (fun e ->
        match e.Audit_log.event with
        | Audit_log.Attested { processing = "compute_age"; measurement } ->
            Some measurement
        | _ -> None)
      (Audit_log.entries (Machine.audit m))
  in
  check_int "one attestation per run" 1 (List.length attested);
  (* the recorded measurement matches what the regulator would recompute
     from the registered spec *)
  let spec =
    ok
      (Machine.make_processing m ~name:"compute_age_copy" ~purpose:"purpose3"
         ~touches:[ ("user", [ "year_of_birthdate" ]) ]
         compute_age_impl)
  in
  let recomputed = Ded.measurement { spec with Processing.name = "compute_age" } in
  check_string "measurement reproducible" recomputed (List.hd attested);
  (* and a different footprint yields a different measurement *)
  check_bool "measurement binds the footprint" true
    (Ded.measurement spec <> recomputed
    || spec.Processing.name = "compute_age")

let test_location_cost_model () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let run location =
    let clock = Machine.clock m in
    let t0 = Rgpdos_util.Clock.now clock in
    ignore
      (ok
         (Machine.invoke m ~location ~name:"compute_age"
            ~target:(Ded.All_of_type "user") ()));
    Rgpdos_util.Clock.now clock - t0
  in
  let host = run Ded.Host in
  let pim = run Ded.Pim in
  (* compute_age is cheap per record: near-data should not be slower than
     host by more than the scaled execute cost, and both must make progress *)
  check_bool "both ran" true (host > 0 && pim > 0)

let test_single_phase_mode_overreads () =
  let m, _, _, _ = boot_with_users () in
  (* carol denies purpose1?  No: purpose1 default is All.  Use purpose3
     after withdrawing carol's consent so one membrane refuses. *)
  register_compute_age m;
  ignore (ok (Machine.withdraw_consent m ~subject:"sub-carol" ~purpose:"purpose3"));
  let two =
    ok
      (Machine.invoke m ~fetch_mode:Ded.Two_phase ~name:"compute_age"
         ~target:(Ded.All_of_type "user") ())
  in
  check_int "two-phase never overreads" 0 two.Ded.overread;
  let single =
    ok
      (Machine.invoke m ~fetch_mode:Ded.Single_phase ~name:"compute_age"
         ~target:(Ded.All_of_type "user") ())
  in
  check_int "single-phase reads carol's refused PD" 1 single.Ded.overread;
  check_int "same consumed either way" two.Ded.consumed single.Ded.consumed

let test_ded_edge_targets () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  (* empty reference list: a clean no-op *)
  let empty = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.Pd_refs []) ()) in
  check_int "nothing consumed" 0 empty.Ded.consumed;
  check_int "nothing produced" 0 (List.length empty.Ded.produced_refs);
  (* unknown reference: surfaced as a storage error, not a crash *)
  (match
     Machine.invoke m ~name:"compute_age"
       ~target:(Ded.Pd_refs [ "pd-99999999" ]) ()
   with
  | Error msg -> check_bool "mentions unknown pd" true (contains_sub msg "pd-99999999")
  | Ok _ -> Alcotest.fail "unknown ref must fail");
  (* unknown type behind All_of_type *)
  (match Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "ghost") () with
  | Error msg -> check_bool "mentions ghost type" true (contains_sub msg "ghost")
  | Ok _ -> Alcotest.fail "unknown type must fail");
  (* selection over an empty match set is a clean no-op too *)
  let none =
    ok
      (Machine.invoke m ~name:"compute_age"
         ~target:
           (Ded.Selection
              ("user", Rgpdos_dbfs.Query.Gt ("year_of_birthdate", Value.VInt 3000)))
         ())
  in
  check_int "selection matches nothing" 0 none.Ded.consumed

(* ------------------------------------------------------------------ *)
(* PS registration rules                                              *)

let test_ps_rejects_purposeless () =
  let m, _, _, _ = boot_with_users () in
  let spec = Processing.make ~name:"anonymous_fn" (fun _ _ -> Ok Processing.no_output) in
  match Machine.register_processing m spec with
  | Error msg -> check_bool "explains" true (contains_sub msg "no purpose")
  | Ok _ -> Alcotest.fail "must reject purposeless function"

let test_ps_alerts_on_footprint_mismatch () =
  let m, _, _, _ = boot_with_users () in
  (* claims purpose3 (v_ano only) but touches the name field *)
  let spec =
    ok
      (Machine.make_processing m ~name:"overreach" ~purpose:"purpose3"
         ~touches:[ ("user", [ "name"; "year_of_birthdate" ]) ]
         (fun _ _ -> Ok Processing.no_output))
  in
  (match ok (Machine.register_processing m spec) with
  | Ps.Registered_with_alert reason ->
      check_bool "reason names the field" true (contains_sub reason "name")
  | Ps.Registered -> Alcotest.fail "expected an alert");
  (* cannot invoke before sysadmin approval *)
  (match Machine.invoke m ~name:"overreach" ~target:(Ded.All_of_type "user") () with
  | Error msg -> check_bool "awaits approval" true (contains_sub msg "approval")
  | Ok _ -> Alcotest.fail "must await approval");
  (* sysadmin approves; now it runs (but the DED still projects views!) *)
  ok (Machine.approve_processing m "overreach");
  check_bool "runs after approval" true
    (Result.is_ok (Machine.invoke m ~name:"overreach" ~target:(Ded.All_of_type "user") ()))

let test_ps_duplicate_registration () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let spec =
    ok
      (Machine.make_processing m ~name:"compute_age" ~purpose:"purpose3"
         (fun _ _ -> Ok Processing.no_output))
  in
  check_bool "duplicate rejected" true
    (Result.is_error (Machine.register_processing m spec))

let test_ps_unknown_processing () =
  let m, _, _, _ = boot_with_users () in
  check_bool "unknown" true
    (Result.is_error (Machine.invoke m ~name:"ghost" ~target:(Ded.All_of_type "user") ()))

let test_ps_pending_alerts_listing () =
  let m, _, _, _ = boot_with_users () in
  let spec =
    ok
      (Machine.make_processing m ~name:"sneaky" ~purpose:"purpose3"
         ~touches:[ ("user", [ "pwd" ]) ]
         (fun _ _ -> Ok Processing.no_output))
  in
  ignore (ok (Machine.register_processing m spec));
  let pending = Ps.pending_alerts (Machine.ps m) in
  check_int "one pending" 1 (List.length pending);
  check_string "name" "sneaky" (fst (List.hd pending))

(* ------------------------------------------------------------------ *)
(* sandbox enforcement                                                *)

let test_sandbox_kills_exfiltrating_processing () =
  let m, _, _, _ = boot_with_users () in
  let evil_impl (ctx : Processing.context) _inputs =
    (* try to write PD to the network — seccomp must block it *)
    match ctx.Processing.syscall Syscall.Sys_net_send with
    | Ok () -> Ok (Processing.value_output (Value.VString "sent!"))
    | Error _ ->
        (* even if the function shrugs the error off, the DED aborts *)
        Ok Processing.no_output
  in
  let spec =
    ok
      (Machine.make_processing m ~name:"exfiltrate" ~purpose:"purpose1"
         ~touches:[ ("user", [ "name" ]) ]
         evil_impl)
  in
  ignore (ok (Machine.register_processing m spec));
  match Machine.invoke m ~name:"exfiltrate" ~target:(Ded.All_of_type "user") () with
  | Error msg -> check_bool "seccomp message" true (contains_sub msg "blocked")
  | Ok _ -> Alcotest.fail "sandbox must kill the processing"

let test_sandbox_blocks_raw_pd_return () =
  let m, _, _, _ = boot_with_users () in
  let leak_impl _ctx inputs =
    match inputs with
    | (i : Processing.pd_input) :: _ -> (
        match Record.get i.Processing.record "name" with
        | Some v -> Ok (Processing.value_output v)
        | None -> Ok Processing.no_output)
    | [] -> Ok Processing.no_output
  in
  let spec =
    ok
      (Machine.make_processing m ~name:"leak_return" ~purpose:"purpose1"
         ~touches:[ ("user", [ "name" ]) ]
         leak_impl)
  in
  ignore (ok (Machine.register_processing m spec));
  match Machine.invoke m ~name:"leak_return" ~target:(Ded.All_of_type "user") () with
  | Error msg -> check_bool "return leak caught" true (contains_sub msg "raw PD")
  | Ok _ -> Alcotest.fail "raw PD return must be blocked"

let test_lsm_blocks_direct_dbfs_access () =
  let m, pd_alice, _, _ = boot_with_users () in
  (* a rogue application tries to read DBFS directly, bypassing PS/DED *)
  match Dbfs.get_record (Machine.dbfs m) ~actor:"rogue_app" pd_alice with
  | Error (Dbfs.Access_denied _) ->
      check_bool "denial recorded" true
        (Rgpdos_kernel.Lsm.denial_count (Machine.lsm m) > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Dbfs.error_to_string e)
  | Ok _ -> Alcotest.fail "LSM must block direct DBFS access"

let test_crashing_implementation_contained () =
  let m, _, _, _ = boot_with_users () in
  let spec =
    ok
      (Machine.make_processing m ~name:"crasher" ~purpose:"purpose1"
         (fun _ _ -> failwith "segfault simulation"))
  in
  ignore (ok (Machine.register_processing m spec));
  match Machine.invoke m ~name:"crasher" ~target:(Ded.All_of_type "user") () with
  | Error msg -> check_bool "contained" true (contains_sub msg "segfault")
  | Ok _ -> Alcotest.fail "crash must surface as an error"

(* ------------------------------------------------------------------ *)
(* subject rights                                                     *)

let test_right_of_access () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  let response = ok (Machine.right_of_access m ~subject:"sub-alice") in
  (* meaningful keys, actual values, and processing history *)
  check_bool "has name field" true (contains_sub response "\"name\": \"Alice\"");
  check_bool "has records" true (contains_sub response "\"records\"");
  check_bool "has processing history" true (contains_sub response "\"processings\"");
  check_bool "history mentions purpose3" true (contains_sub response "purpose3")

let test_right_to_portability () =
  let m, _, _, _ = boot_with_users () in
  let out = ok (Machine.right_to_portability m ~subject:"sub-bob") in
  check_bool "structured" true (out.[0] = '[');
  check_bool "meaningful key" true (contains_sub out "\"year_of_birthdate\": 1985")

let test_right_to_erasure_full_cycle () =
  let m, pd_alice, _, _ = boot_with_users () in
  let erased = ok (Machine.right_to_erasure m ~subject:"sub-alice") in
  check_int "one PD erased" 1 erased;
  (* plaintext unreadable *)
  (match Dbfs.get_record (Machine.dbfs m) ~actor:"ded" pd_alice with
  | Error (Dbfs.Erased _) -> ()
  | _ -> Alcotest.fail "record must be erased");
  (* no forensic trace of the name on the PD device *)
  check_int "no plaintext on device" 0
    (List.length (Block_device.scan (Machine.pd_device m) "Alice"));
  (* the authority can still open the envelope (legal investigation) *)
  let sealed = ok (Result.map_error Dbfs.error_to_string
                     (Dbfs.erased_payload (Machine.dbfs m) ~actor:"ded" pd_alice)) in
  let record = ok (Authority.open_record (Machine.authority m) sealed) in
  check_bool "authority recovers the record" true
    (Record.get record "name" = Some (Value.VString "Alice"));
  (* erasing again is a no-op *)
  check_int "idempotent" 0 (ok (Machine.right_to_erasure m ~subject:"sub-alice"))

let test_erased_pd_skipped_by_processing () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.right_to_erasure m ~subject:"sub-bob"));
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  (* bob's membrane now denies everything; only alice+carol processed *)
  check_int "two remain" 2 outcome.Ded.consumed

let test_right_to_rectification () =
  let m, pd_alice, _, _ = boot_with_users () in
  ok (Machine.right_to_rectification m ~pd_id:pd_alice (user_record "Alicia" 1991));
  let r = ok (Result.map_error Dbfs.error_to_string
                (Dbfs.get_record (Machine.dbfs m) ~actor:"ded" pd_alice)) in
  check_bool "rectified" true (Record.get r "name" = Some (Value.VString "Alicia"))

let test_consent_withdrawal_changes_processing () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let n = ok (Machine.withdraw_consent m ~subject:"sub-carol" ~purpose:"purpose3") in
  check_int "one membrane updated" 1 n;
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  check_int "carol filtered out" 2 outcome.Ded.consumed;
  check_int "one refusal" 1 outcome.Ded.filtered;
  (* re-grant *)
  ignore (ok (Machine.set_consent m ~subject:"sub-carol" ~purpose:"purpose3"
                (Membrane.View "v_ano")));
  let outcome2 = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  check_int "carol back" 3 outcome2.Ded.consumed

(* ------------------------------------------------------------------ *)
(* collection interfaces                                              *)

let test_collect_via_registered_interface () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  Machine.register_collector m ~interface:"web_form" (fun () ->
      [ ("sub-erin", user_record "Erin" 1999);
        ("sub-farid", user_record "Farid" 1969) ]);
  let n = ok (Machine.collect_via m ~type_name:"user" ~interface:"web_form") in
  check_int "two rows pulled" 2 n;
  (* collected PD is wrapped and processable immediately *)
  let outcome =
    ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ())
  in
  check_int "5 users now" 5 outcome.Ded.consumed;
  (* the acquisitions are in the audit log *)
  let collected =
    List.filter
      (fun e ->
        match e.Audit_log.event with
        | Audit_log.Collected { interface = "web_form"; _ } -> true
        | _ -> false)
      (Audit_log.entries (Machine.audit m))
  in
  check_int "collections audited" 2 (List.length collected)

let test_collect_via_undeclared_interface_refused () =
  let m, _, _, _ = boot_with_users () in
  Machine.register_collector m ~interface:"dark_pattern_scraper" (fun () ->
      [ ("victim", user_record "Scraped" 1980) ]);
  (match Machine.collect_via m ~type_name:"user" ~interface:"dark_pattern_scraper" with
  | Error msg -> check_bool "refused" true (contains_sub msg "not a declared")
  | Ok _ -> Alcotest.fail "undeclared collection channel must be refused");
  check_bool "unregistered interface also fails" true
    (Result.is_error (Machine.collect_via m ~type_name:"user" ~interface:"ghost"))

let test_describe_trees () =
  let m, pd_alice, _, _ = boot_with_users () in
  let trees =
    ok
      (Result.map_error Dbfs.error_to_string
         (Dbfs.describe_trees (Machine.dbfs m) ~actor:"ded"))
  in
  check_bool "subject tree section" true (contains_sub trees "subject tree");
  check_bool "schema tree section" true (contains_sub trees "schema tree");
  check_bool "format descriptors" true (contains_sub trees "format descriptors");
  check_bool "alice's inode listed" true (contains_sub trees pd_alice);
  check_bool "user fields listed" true (contains_sub trees "field year_of_birthdate: int")

(* ------------------------------------------------------------------ *)
(* TTL sweeping & compliance                                          *)

let test_ttl_sweep_crypto_erases_expired () =
  let m, _, _, _ = boot_with_users () in
  (* user TTL is 1Y; advance past it *)
  Clock.advance (Machine.clock m) (Clock.year + Clock.day);
  let report = Machine.sweep_ttl m () in
  check_int "all three expired" 3 report.Ttl_sweeper.expired;
  check_int "all removed" 3 report.Ttl_sweeper.removed;
  check_bool "no errors" true (report.Ttl_sweeper.errors = []);
  (* second sweep finds nothing *)
  let report2 = Machine.sweep_ttl m () in
  check_int "drained" 0 report2.Ttl_sweeper.expired

let test_compliance_clean_machine () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  ignore (ok (Machine.right_to_erasure m ~subject:"sub-alice"));
  let evidence =
    Machine.compliance_evidence m ~forensic_probes:[ "Alice"; "pwdhash-Alice" ] ()
  in
  let verdicts = Compliance.evaluate evidence in
  check_bool
    (Compliance.summary verdicts)
    true (Compliance.all_ok verdicts)

let test_compliance_catches_expired_pd () =
  let m, _, _, _ = boot_with_users () in
  Clock.advance (Machine.clock m) (2 * Clock.year);
  (* no sweep: expired PD still live *)
  let verdicts = Compliance.evaluate (Machine.compliance_evidence m ()) in
  check_bool "violation found" false (Compliance.all_ok verdicts);
  let v =
    List.find
      (fun v -> v.Compliance.article = Rgpdos_gdpr.Articles.Art5_1e_storage_limitation)
      verdicts
  in
  check_bool "storage limitation flagged" false v.Compliance.ok

(* ------------------------------------------------------------------ *)
(* collection with explicit subject consents                          *)

let test_collect_with_explicit_consents () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let pd =
    ok
      (Machine.collect m ~type_name:"user" ~subject:"sub-dave"
         ~interface:"web_form:user_form.html"
         ~record:(user_record "Dave" 1970)
         ~consents:[ ("purpose1", Membrane.All); ("purpose3", Membrane.Denied) ]
         ())
  in
  ignore pd;
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  (* dave opted out of purpose3 at collection time *)
  check_int "dave filtered" 3 outcome.Ded.consumed;
  check_int "one refusal" 1 outcome.Ded.filtered

let test_restriction_of_processing () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let n = ok (Machine.restrict_processing m ~subject:"sub-alice") in
  check_int "one membrane restricted" 1 n;
  let outcome =
    ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ())
  in
  check_int "alice excluded while restricted" 2 outcome.Ded.consumed;
  (* data is retained: access still works *)
  let response = ok (Machine.right_of_access m ~subject:"sub-alice") in
  check_bool "data retained" true (contains_sub response "Alice");
  ignore (ok (Machine.lift_restriction m ~subject:"sub-alice"));
  let outcome2 =
    ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ())
  in
  check_int "alice back after lifting" 3 outcome2.Ded.consumed

(* ------------------------------------------------------------------ *)
(* consent and restriction touch only the subject's own membranes      *)

let membrane_reads m =
  Rgpdos_util.Stats.Counter.get (Dbfs.stats (Machine.dbfs m)) "membrane_reads"

let dbfs_ok r = ok (Result.map_error Dbfs.error_to_string r)

let membrane_of m pd =
  dbfs_ok (Dbfs.get_membrane (Machine.dbfs m) ~actor:Ded.actor pd)

let copy_of m pd = dbfs_ok (Dbfs.copy_pd (Machine.dbfs m) ~actor:Ded.actor pd)

(* Alice's PD interleaved with Bob's: a second record of hers, and copies
   of both subjects' PD made in between. *)
let boot_with_copies () =
  let m, pd_alice, pd_bob, _ = boot_with_users () in
  let alice_copy = copy_of m pd_alice in
  let bob_copy = copy_of m pd_bob in
  let alice2 =
    ok
      (Machine.collect m ~type_name:"user" ~subject:"sub-alice"
         ~interface:"web_form:user_form.html"
         ~record:(user_record "Alice" 1990) ())
  in
  let alice2_copy = copy_of m alice2 in
  (m, [ pd_alice; alice_copy; alice2; alice2_copy ], [ pd_bob; bob_copy ])

let test_consent_reads_only_subject () =
  let m, alice, _ = boot_with_copies () in
  Alcotest.(check (list string)) "subject index lists the copies" alice
    (dbfs_ok (Dbfs.pds_of_subject (Machine.dbfs m) ~actor:Ded.actor "sub-alice"));
  let r0 = membrane_reads m in
  ignore
    (ok (Machine.set_consent m ~subject:"sub-alice" ~purpose:"purpose1"
           Membrane.Denied));
  check_int "consent reads the subject's membranes once" (List.length alice)
    (membrane_reads m - r0);
  let r1 = membrane_reads m in
  ignore (ok (Machine.restrict_processing m ~subject:"sub-alice"));
  check_int "restriction reads the subject's membranes once"
    (List.length alice) (membrane_reads m - r1)

let index_page_reads m =
  Rgpdos_util.Stats.Counter.get (Dbfs.stats (Machine.dbfs m)) "index_page_reads"

let pages_read m f =
  let r0 = index_page_reads m in
  ignore (f ());
  index_page_reads m - r0

(* On a checkpointed store whose subjects hold one PD each, a rights
   request walks the subject index once and descends the entries tree
   once: it reads at most the pages of one [pds_of_subject] plus one
   [entry_info] for the subject's PD. *)
let test_rights_read_each_page_once () =
  let m = Machine.boot ~seed:7L () in
  ignore (ok (Machine.load_declarations m declarations));
  let subject i = Printf.sprintf "sub-%03d" i in
  let pds =
    Array.init 300 (fun i ->
        ok
          (Machine.collect m ~type_name:"user" ~subject:(subject i)
             ~interface:"web_form:user_form.html"
             ~record:(user_record (Printf.sprintf "User%03d" i) 1990)
             ()))
  in
  let store = Machine.dbfs m in
  Dbfs.checkpoint store;
  let bound i =
    let p =
      pages_read m (fun () -> Dbfs.pds_of_subject store ~actor:Ded.actor (subject i))
    in
    let e =
      pages_read m (fun () -> Dbfs.entry_info store ~actor:Ded.actor pds.(i))
    in
    check_bool "the entries tree has interior levels" true (e >= 2);
    p + e
  in
  let check name i f =
    let b = bound i in
    let got = pages_read m f in
    check_bool
      (Printf.sprintf "%s reads %d pages, at most %d" name got b)
      true (got <= b)
  in
  check "right of access" 100 (fun () ->
      ok (Machine.right_of_access m ~subject:(subject 100)));
  check "right to portability" 150 (fun () ->
      ok (Machine.right_to_portability m ~subject:(subject 150)));
  check "right to erasure" 200 (fun () ->
      check_int "one PD erased" 1
        (ok (Machine.right_to_erasure m ~subject:(subject 200))))

let test_consent_rewrites_subject_copies () =
  let m, alice, bob = boot_with_copies () in
  let bob_before = List.map (membrane_of m) bob in
  let audit0 = Audit_log.length (Machine.audit m) in
  let n =
    ok (Machine.set_consent m ~subject:"sub-alice" ~purpose:"purpose1"
          Membrane.Denied)
  in
  check_int "originals and copies rewritten" (List.length alice) n;
  List.iter
    (fun pd ->
      check_bool ("denied on " ^ pd) false
        (Membrane.allows (membrane_of m pd) ~purpose:"purpose1" ~now:0))
    alice;
  check_bool "bob's membranes unchanged" true
    (List.map (membrane_of m) bob = bob_before);
  let changed =
    List.filter_map
      (fun e ->
        match e.Audit_log.event with
        | Audit_log.Consent_changed { pd_id; purpose; granted }
          when e.Audit_log.seq >= audit0 ->
            check_string "purpose" "purpose1" purpose;
            check_bool "withdrawn" false granted;
            Some pd_id
        | _ -> None)
      (Audit_log.entries (Machine.audit m))
  in
  (* one entry per lineage, naming the subject's first PD in it *)
  Alcotest.(check (list string)) "one entry per lineage"
    [ List.nth alice 0; List.nth alice 2 ] changed

let test_consent_ignores_other_subjects_damage () =
  let m, _, pd_bob, _ = boot_with_users () in
  let m = ok (Machine.reboot m) in
  let _, membrane_blocks =
    dbfs_ok (Dbfs.entry_blocks (Machine.dbfs m) ~actor:Ded.actor pd_bob)
  in
  Block_device.unsafe_flip (Machine.pd_device m)
    ~block:(List.hd membrane_blocks) ~byte:4 ~bit:0;
  check_int "alice's consent change still succeeds" 1
    (ok (Machine.set_consent m ~subject:"sub-alice" ~purpose:"purpose1"
           Membrane.Denied));
  check_bool "bob's own consent change meets the damage" true
    (Result.is_error
       (Machine.set_consent m ~subject:"sub-bob" ~purpose:"purpose1"
          Membrane.Denied))

let test_audit_persistence () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  ok (Machine.persist_audit m);
  let n = ok (Machine.verify_persisted_audit m) in
  check_int "persisted length" (Audit_log.length (Machine.audit m)) n;
  (* tamper with the file on the NPD filesystem: verification must fail *)
  let fs = Machine.npd_fs m in
  let raw =
    match Rgpdos_journalfs.Journalfs.read_file fs "/var/audit.chain" with
    | Ok r -> r
    | Error e -> Alcotest.fail (Rgpdos_journalfs.Journalfs.error_to_string e)
  in
  let b = Bytes.of_string raw in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 1));
  (match Rgpdos_journalfs.Journalfs.write_file fs "/var/audit.chain" (Bytes.to_string b) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Rgpdos_journalfs.Journalfs.error_to_string e));
  check_bool "tampered file rejected" true
    (Result.is_error (Machine.verify_persisted_audit m))

(* a chain larger than the NPD journal is refused with an Error (it used
   to raise from the ring), and the chain persisted before survives *)
let test_audit_persistence_too_long () =
  let m, _, _, _ = boot_with_users () in
  ok (Machine.persist_audit m);
  let persisted = ok (Machine.verify_persisted_audit m) in
  let log = Machine.audit m in
  while Audit_log.length log < 8_000 do
    ignore
      (Audit_log.append log ~now:0 ~actor:"ded"
         (Audit_log.Processed { purpose = "p"; inputs = [ "pd-1" ]; produced = [] }))
  done;
  check_bool "8,000-entry chain refused" true
    (Result.is_error (Machine.persist_audit m));
  check_int "earlier chain still verifies" persisted
    (ok (Machine.verify_persisted_audit m))

let test_machine_jobs_and_repartition () =
  let m, _, _, _ = boot_with_users () in
  for i = 0 to 9 do
    let data_class =
      if i mod 2 = 0 then Rgpdos_kernel.Scheduler.Pd
      else Rgpdos_kernel.Scheduler.Npd
    in
    ok
      (Machine.submit_job m
         {
           Rgpdos_kernel.Scheduler.job_id = string_of_int i;
           data_class;
           work = 100_000;
         })
  done;
  Machine.run_jobs m;
  check_int "all jobs done" 10
    (List.length (Rgpdos_kernel.Scheduler.completed (Machine.scheduler m)));
  (* dynamic repartition: move CPU from general to rgpdos *)
  let before = Machine.cpu_partitions m in
  check_int "rgpdos initial share" 3_000
    (let _, cpu, _ = List.find (fun (id, _, _) -> id = "rgpdos") before in cpu);
  ok (Machine.repartition_cpu m ~rgpd_mcpu:5_000 ~general_mcpu:2_000);
  let after = Machine.cpu_partitions m in
  check_int "rgpdos grown" 5_000
    (let _, cpu, _ = List.find (fun (id, _, _) -> id = "rgpdos") after in cpu);
  check_int "general shrunk" 2_000
    (let _, cpu, _ = List.find (fun (id, _, _) -> id = "general") after in cpu);
  (* over-allocation refused *)
  check_bool "overcommit refused" true
    (Result.is_error (Machine.repartition_cpu m ~rgpd_mcpu:9_000 ~general_mcpu:2_000))

let test_consent_receipts () =
  let m, _, _, _ = boot_with_users () in
  let n, receipt =
    ok
      (Machine.set_consent_with_receipt m ~subject:"sub-alice"
         ~purpose:"purpose2" (Membrane.View "v_name"))
  in
  check_int "one membrane" 1 n;
  check_bool "receipt verifies" true (Machine.verify_receipt m receipt);
  check_string "subject" "sub-alice" receipt.Machine.receipt_subject;
  check_string "purpose" "purpose2" receipt.Machine.receipt_purpose;
  (* a forged receipt (changed scope) is rejected *)
  check_bool "forgery rejected" false
    (Machine.verify_receipt m { receipt with Machine.receipt_scope = "all" });
  (* a receipt pointing at the wrong audit entry is rejected *)
  check_bool "wrong audit seq rejected" false
    (Machine.verify_receipt m
       { receipt with Machine.receipt_audit_seq = 0 });
  (* a second machine (different key) rejects it *)
  let other = Machine.boot ~seed:999L () in
  check_bool "other machine rejects" false (Machine.verify_receipt other receipt)

(* a subject with no PD has no decision to record, so no receipt may cite
   the latest audit entry, which is another subject's *)
let test_receipt_without_pd_refused () =
  let m, _, _, _ = boot_with_users () in
  ignore (ok (Machine.withdraw_consent m ~subject:"sub-alice" ~purpose:"purpose1"));
  check_bool "no receipt for a subject without PD" true
    (Result.is_error
       (Machine.set_consent_with_receipt m ~subject:"nobody" ~purpose:"purpose1"
          Membrane.All))

let test_float_bool_fields_end_to_end () =
  let m = Machine.boot ~seed:31L () in
  ignore
    (ok
       (Machine.load_declarations m
          {|type sensor_profile {
              fields { owner: string, weight_kg: float, opted_in: bool };
              consent { wellness: all };
            }
            purpose wellness {
              description: "wellness trend computation";
              reads: sensor_profile;
              legal_basis: consent;
            }|}));
  let pd =
    ok
      (Machine.collect m ~type_name:"sensor_profile" ~subject:"sub-w"
         ~interface:"web_form"
         ~record:
           [
             ("owner", Value.VString "W");
             ("weight_kg", Value.VFloat 72.5);
             ("opted_in", Value.VBool true);
           ]
         ())
  in
  let r = ok (Result.map_error Dbfs.error_to_string
                (Dbfs.get_record (Machine.dbfs m) ~actor:"ded" pd)) in
  check_bool "float roundtrips" true
    (Record.get r "weight_kg" = Some (Value.VFloat 72.5));
  check_bool "bool roundtrips" true
    (Record.get r "opted_in" = Some (Value.VBool true));
  (* wrong types rejected at the door *)
  check_bool "float field rejects int" true
    (Result.is_error
       (Machine.collect m ~type_name:"sensor_profile" ~subject:"sub-w"
          ~interface:"web_form"
          ~record:
            [
              ("owner", Value.VString "W");
              ("weight_kg", Value.VInt 72);
              ("opted_in", Value.VBool true);
            ]
          ()))

let test_machine_reboot () =
  let m, pd_alice, _, _ = boot_with_users () in
  register_compute_age m;
  ignore (ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  ok (Machine.persist_audit m);
  let audit_len = Audit_log.length (Machine.audit m) in
  let m2 = ok (Machine.reboot m) in
  (* stored PD and membranes survive the power cycle *)
  let r = ok (Result.map_error Dbfs.error_to_string
                (Dbfs.get_record (Machine.dbfs m2) ~actor:"ded" pd_alice)) in
  check_bool "record survives" true
    (Record.get r "name" = Some (Value.VString "Alice"));
  (* the persisted audit chain was reloaded and verifies *)
  check_int "audit chain reloaded" audit_len (Audit_log.length (Machine.audit m2));
  check_bool "chain verifies" true (Audit_log.verify (Machine.audit m2) = Ok ());
  (* in-memory state is gone: the processing must be redeployed *)
  check_bool "processing gone" true
    (Result.is_error
       (Machine.invoke m2 ~name:"compute_age" ~target:(Ded.All_of_type "user") ()));
  (* the LSM policy is re-armed on the remounted DBFS *)
  check_bool "LSM re-armed" true
    (Result.is_error (Dbfs.get_record (Machine.dbfs m2) ~actor:"rogue" pd_alice));
  (* operator redeploys code: declarations without types (already in DBFS) *)
  let _, purposes =
    ok
      (Machine.load_declarations m2
         {|purpose purpose3 {
             description: "compute the age of the input user";
             reads: user.v_ano;
             produces: age_pd;
             legal_basis: consent;
           }|})
  in
  check_int "purpose redeclared" 1 purposes;
  register_compute_age m2;
  let outcome =
    ok (Machine.invoke m2 ~name:"compute_age" ~target:(Ded.All_of_type "user") ())
  in
  check_int "processing runs on surviving PD" 3 outcome.Ded.consumed

(* a persisted chain is reloaded as stored: a tampered entry survives the
   power cycle and still fails verification *)
let test_reboot_keeps_tampered_chain () =
  let m, _, _, _ = boot_with_users () in
  let log = Machine.audit m in
  while Audit_log.length log < 5 do
    ignore
      (Audit_log.append log ~now:0 ~actor:"ded"
         (Audit_log.Processed { purpose = "p"; inputs = [ "pd-1" ]; produced = [] }))
  done;
  ok (Machine.persist_audit m);
  Audit_log.unsafe_tamper log ~seq:2 ~actor:"mallory";
  ok (Machine.persist_audit m);
  check_bool "persisted chain reported corrupt" true
    (Result.is_error (Machine.verify_persisted_audit m));
  let m2 = ok (Machine.reboot m) in
  check_int "tampered chain reloaded" 5 (Audit_log.length (Machine.audit m2));
  check_bool "tampered entry still caught" true
    (Audit_log.verify (Machine.audit m2) = Error 2)

let test_reboot_refuses_garbage_chain () =
  let m, _, _, _ = boot_with_users () in
  ok (Machine.persist_audit m);
  (match
     Rgpdos_journalfs.Journalfs.write_file (Machine.npd_fs m) "/var/audit.chain"
       "not an audit chain"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Rgpdos_journalfs.Journalfs.error_to_string e));
  check_bool "undecodable chain fails the reboot" true
    (Result.is_error (Machine.reboot m))

(* ------------------------------------------------------------------ *)
(* subject request desk (art. 12(3))                                  *)

module Requests = Rgpdos.Subject_requests

let test_request_desk_lifecycle () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let desk = Requests.create m in
  let r_access = Requests.file desk ~subject:"sub-alice" Requests.Access in
  let r_erase = Requests.file desk ~subject:"sub-bob" Requests.Erasure in
  check_int "two pending" 2 (List.length (Requests.pending desk));
  (* fulfilment dispatches to the machine rights *)
  let fulfilled = ok (Requests.fulfil desk r_access.Requests.request_id) in
  (match fulfilled.Requests.response with
  | Some doc -> check_bool "access doc returned" true (contains_sub doc "Alice")
  | None -> Alcotest.fail "access must carry a response");
  ignore (ok (Requests.fulfil desk r_erase.Requests.request_id));
  (match Dbfs.get_record (Machine.dbfs m) ~actor:"ded"
           (List.hd (ok (Result.map_error Dbfs.error_to_string
                           (Dbfs.pds_of_subject (Machine.dbfs m) ~actor:"ded" "sub-bob"))))
   with
  | Error (Dbfs.Erased _) -> ()
  | _ -> Alcotest.fail "erasure request must erase");
  check_int "none pending" 0 (List.length (Requests.pending desk));
  (* double fulfilment refused *)
  check_bool "refulfil fails" true
    (Result.is_error (Requests.fulfil desk r_access.Requests.request_id));
  let filed, fulfilled_n, rejected, overdue = Requests.statistics desk in
  check_int "filed" 2 filed;
  check_int "fulfilled" 2 fulfilled_n;
  check_int "rejected" 0 rejected;
  check_int "overdue" 0 overdue

let test_request_desk_deadlines () =
  let m, _, _, _ = boot_with_users () in
  let desk = Requests.create m in
  ignore (Requests.file desk ~subject:"sub-alice" Requests.Portability);
  check_int "not overdue yet" 0 (List.length (Requests.overdue desk));
  (* 29 days pass: still inside the statutory month *)
  Clock.advance (Machine.clock m) (29 * Clock.day);
  check_int "day 29: fine" 0 (List.length (Requests.overdue desk));
  (* day 31: art. 12(3) violated *)
  Clock.advance (Machine.clock m) (2 * Clock.day);
  check_int "day 31: overdue" 1 (List.length (Requests.overdue desk));
  (* fulfilling clears it (late, but no longer pending) *)
  check_int "fulfil all" 1 (Requests.fulfil_all_pending desk);
  check_int "cleared" 0 (List.length (Requests.overdue desk))

let test_request_desk_all_kinds () =
  let m, _, _, _ = boot_with_users () in
  register_compute_age m;
  let desk = Requests.create m in
  List.iter
    (fun kind -> ignore (Requests.file desk ~subject:"sub-carol" kind))
    [ Requests.Access; Requests.Portability;
      Requests.Withdraw_consent "purpose3"; Requests.Restriction;
      Requests.Lift_restriction; Requests.Erasure ];
  check_int "all six fulfilled" 6 (Requests.fulfil_all_pending desk);
  (* after the sequence carol is erased *)
  let outcome = ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ()) in
  check_int "carol gone from processing" 2 outcome.Ded.consumed

let () =
  Alcotest.run "machine"
    [
      ( "listing-scenario",
        [
          Alcotest.test_case "compute_age end-to-end" `Quick test_compute_age_end_to_end;
          Alcotest.test_case "view projection hides fields" `Quick
            test_view_projection_hides_fields;
          Alcotest.test_case "denied purpose filters all" `Quick
            test_denied_purpose_filters_everything;
          Alcotest.test_case "stage breakdown" `Quick test_stage_breakdown_present;
          Alcotest.test_case "target pd refs" `Quick test_target_pd_refs;
          Alcotest.test_case "single-phase ablation overreads" `Quick
            test_single_phase_mode_overreads;
          Alcotest.test_case "selection target + hidden fields" `Quick
            test_selection_target;
          Alcotest.test_case "attestation in audit" `Quick test_attestation_in_audit;
          Alcotest.test_case "location cost model" `Quick test_location_cost_model;
          Alcotest.test_case "edge targets" `Quick test_ded_edge_targets;
        ] );
      ( "processing-store",
        [
          Alcotest.test_case "rejects purposeless" `Quick test_ps_rejects_purposeless;
          Alcotest.test_case "alerts on mismatch" `Quick test_ps_alerts_on_footprint_mismatch;
          Alcotest.test_case "duplicate registration" `Quick test_ps_duplicate_registration;
          Alcotest.test_case "unknown processing" `Quick test_ps_unknown_processing;
          Alcotest.test_case "pending alerts" `Quick test_ps_pending_alerts_listing;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "sandbox kills exfiltration" `Quick
            test_sandbox_kills_exfiltrating_processing;
          Alcotest.test_case "raw PD return blocked" `Quick test_sandbox_blocks_raw_pd_return;
          Alcotest.test_case "LSM blocks direct DBFS access" `Quick
            test_lsm_blocks_direct_dbfs_access;
          Alcotest.test_case "crashing impl contained" `Quick
            test_crashing_implementation_contained;
        ] );
      ( "rights",
        [
          Alcotest.test_case "right of access" `Quick test_right_of_access;
          Alcotest.test_case "portability" `Quick test_right_to_portability;
          Alcotest.test_case "erasure full cycle" `Quick test_right_to_erasure_full_cycle;
          Alcotest.test_case "erased PD skipped" `Quick test_erased_pd_skipped_by_processing;
          Alcotest.test_case "rectification" `Quick test_right_to_rectification;
          Alcotest.test_case "consent withdrawal" `Quick
            test_consent_withdrawal_changes_processing;
          Alcotest.test_case "collect with explicit consents" `Quick
            test_collect_with_explicit_consents;
          Alcotest.test_case "art. 18 restriction of processing" `Quick
            test_restriction_of_processing;
          Alcotest.test_case "consent reads only the subject's membranes"
            `Quick test_consent_reads_only_subject;
          Alcotest.test_case "consent rewrites the subject's copies" `Quick
            test_consent_rewrites_subject_copies;
          Alcotest.test_case "rights read each index page once" `Quick
            test_rights_read_each_page_once;
          Alcotest.test_case "consent ignores another subject's damage" `Quick
            test_consent_ignores_other_subjects_damage;
        ] );
      ( "collection",
        [
          Alcotest.test_case "collect via registered interface" `Quick
            test_collect_via_registered_interface;
          Alcotest.test_case "undeclared interface refused" `Quick
            test_collect_via_undeclared_interface_refused;
          Alcotest.test_case "describe inode trees" `Quick test_describe_trees;
        ] );
      ( "operations",
        [
          Alcotest.test_case "ttl sweep" `Quick test_ttl_sweep_crypto_erases_expired;
          Alcotest.test_case "compliance clean" `Quick test_compliance_clean_machine;
          Alcotest.test_case "compliance catches expired" `Quick
            test_compliance_catches_expired_pd;
          Alcotest.test_case "jobs + dynamic repartition" `Quick
            test_machine_jobs_and_repartition;
          Alcotest.test_case "audit persistence on NPD fs" `Quick
            test_audit_persistence;
          Alcotest.test_case "audit chain larger than the journal" `Quick
            test_audit_persistence_too_long;
        ] );
      ( "consent-receipts",
        [
          Alcotest.test_case "issue + verify + forgeries" `Quick test_consent_receipts;
          Alcotest.test_case "no receipt without PD" `Quick
            test_receipt_without_pd_refused;
          Alcotest.test_case "float/bool fields e2e" `Quick
            test_float_bool_fields_end_to_end;
        ] );
      ( "reboot",
        [
          Alcotest.test_case "power cycle" `Quick test_machine_reboot;
          Alcotest.test_case "tampered chain survives the power cycle" `Quick
            test_reboot_keeps_tampered_chain;
          Alcotest.test_case "undecodable chain fails the reboot" `Quick
            test_reboot_refuses_garbage_chain;
        ] );
      ( "request-desk",
        [
          Alcotest.test_case "lifecycle" `Quick test_request_desk_lifecycle;
          Alcotest.test_case "art. 12(3) deadlines" `Quick test_request_desk_deadlines;
          Alcotest.test_case "all kinds dispatch" `Quick test_request_desk_all_kinds;
        ] );
    ]
