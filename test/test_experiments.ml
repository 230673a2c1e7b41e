(* Small-scale smoke runs of every experiment harness, asserting the
   qualitative shape EXPERIMENTS.md records (who wins, who violates). *)

module E = Rgpdos_workload.Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_e1_shape () =
  let r = E.e1_ded_stages ~subjects:100 () in
  check_int "7 stages" 7 (List.length r.E.e1_stage_ns);
  check_bool "total positive" true (r.E.e1_total_ns > 0);
  (* membrane+data loads do the device IO; packed pages move little more
     than the payload, so they no longer dominate the pipeline *)
  let load =
    List.assoc "ded_load_membrane" r.E.e1_stage_ns
    + List.assoc "ded_load_data" r.E.e1_stage_ns
  in
  check_bool "IO stages charged, below half" true
    (load > 0 && load < r.E.e1_total_ns / 2);
  ignore (E.render_e1 r)

let test_e2_shape () =
  let rows = E.e2_gdprbench ~subjects:60 ~ops_per_role:40 () in
  check_int "3 backends x 4 roles" 12 (List.length rows);
  List.iter
    (fun r ->
      check_int (r.E.e2_backend ^ "/" ^ r.E.e2_role ^ " errors") 0 r.E.e2_errors)
    rows;
  (* vanilla must be the fastest processor backend (no enforcement) *)
  let sim backend =
    (List.find
       (fun r -> r.E.e2_backend = backend && r.E.e2_role = "processor")
       rows)
      .E.e2_sim_ms
  in
  check_bool "vanilla <= gdpr baseline on processor" true
    (sim "db-vanilla" <= sim "db-gdpr");
  ignore (E.render_e2 rows)

let test_e2b_shape () =
  let rows = E.e2b_scaling ~sizes:[ 40; 80 ] ~ops:20 () in
  check_int "2 sizes x 3 backends" 6 (List.length rows);
  (* simulated time grows with population for every backend *)
  List.iter
    (fun backend ->
      let at n =
        (List.find
           (fun r -> r.E.e2b_backend = backend && r.E.e2b_subjects = n)
           rows)
          .E.e2b_sim_ms
      in
      check_bool (backend ^ " scales with data") true (at 80 > at 40))
    [ "rgpdos"; "db-gdpr"; "db-vanilla" ];
  ignore (E.render_e2b rows)

let test_e3_shape () =
  let rows = E.e3_erasure ~subjects:40 ~erase_fraction:0.2 () in
  check_int "four systems" 4 (List.length rows);
  let find name =
    List.find
      (fun r ->
        String.length r.E.e3_system >= String.length name
        && String.sub r.E.e3_system 0 (String.length name) = name)
      rows
  in
  let plain = find "db-gdpr (plain" in
  let secure = find "db-gdpr (secure delete" in
  let scrubbed = find "db-gdpr (secure + journal" in
  let rgpdos = find "rgpdOS" in
  (* the paper's claim: the baseline leaks, through free blocks and the
     journal; scrubbing fixes it; rgpdOS never leaks and keeps escrow *)
  check_bool "plain delete leaks" true (plain.E.e3_leaked_subjects > 0);
  check_bool "secure delete still leaks (journal)" true
    (secure.E.e3_leaked_subjects > 0);
  check_int "scrub removes the leak" 0 scrubbed.E.e3_leaked_subjects;
  check_int "rgpdOS never leaks" 0 rgpdos.E.e3_leaked_subjects;
  check_bool "authority escrow works" true rgpdos.E.e3_authority_recovers;
  ignore (E.render_e3 rows)

let test_e4_shape () =
  let rows = E.e4_access ~records_per_subject:[ 1; 10; 50 ] () in
  check_int "three points" 3 (List.length rows);
  List.iter
    (fun r -> check_bool "export complete" true r.E.e4_export_complete)
    rows;
  (* latency grows with volume *)
  let us = List.map (fun r -> r.E.e4_sim_us) rows in
  check_bool "monotone" true (List.sort compare us = us);
  ignore (E.render_e4 rows)

let test_e5_shape () =
  let rows = E.e5_ttl ~sizes:[ 100; 200 ] ~expired_fraction:0.3 () in
  List.iter
    (fun r ->
      check_int "all expired removed" r.E.e5_expired r.E.e5_removed;
      check_bool "expected expiry count" true
        (abs (r.E.e5_expired - (r.E.e5_records * 3 / 10)) <= 1))
    rows;
  ignore (E.render_e5 rows)

let test_e6_shape () =
  let rows = E.e6_filter ~subjects:100 ~rates:[ 0.0; 0.5; 1.0 ] () in
  (match rows with
  | [ r0; r_half; r1 ] ->
      check_int "rate 0: nothing consumed" 0 r0.E.e6_consumed;
      check_int "rate 0: all filtered" 100 r0.E.e6_filtered;
      check_int "rate 1: all consumed" 100 r1.E.e6_consumed;
      check_bool "rate .5 in between" true
        (r_half.E.e6_consumed > 20 && r_half.E.e6_consumed < 80)
  | _ -> Alcotest.fail "expected three rows");
  ignore (E.render_e6 rows)

let test_e7_shape () =
  let r = E.e7_leak ~attacks:40 () in
  check_bool "baseline leaks every dangling read" true
    (r.E.e7_baseline_leaks = r.E.e7_baseline_dangling_reads
    && r.E.e7_baseline_leaks > 0);
  check_int "rgpdOS leaks nothing" 0 r.E.e7_rgpdos_leaks;
  check_int "every rgpdOS attack blocked" r.E.e7_rgpdos_attacks r.E.e7_rgpdos_blocked;
  ignore (E.render_e7 r)

let test_e8_shape () =
  let r = E.e8_register () in
  check_int "no misclassification" 0 r.E.e8_misclassified;
  check_int "accepted" 3 r.E.e8_accepted;
  check_int "rejected" 1 r.E.e8_rejected_no_purpose;
  check_int "alerted" 2 r.E.e8_alerted;
  ignore (E.render_e8 r)

let test_e9_shape () =
  let rows = E.e9_kernels ~jobs:20 () in
  check_int "three splits + two multicore configs" 5 (List.length rows);
  List.iter
    (fun r ->
      check_bool "separation invariant" false r.E.e9_pd_on_general;
      check_bool "both kernels worked" true
        (r.E.e9_general_busy_ms > 0.0 && r.E.e9_rgpd_busy_ms > 0.0))
    rows;
  (match rows with
  | [ small; balanced; big; cores2; cores4 ] ->
      (* giving rgpdOS more CPU shrinks its busy (wall) time *)
      check_bool "bigger rgpd partition => less rgpd wall time" true
        (big.E.e9_rgpd_busy_ms < small.E.e9_rgpd_busy_ms);
      (* multicore: busy time (aggregate core-time) is invariant, the
         makespan shrinks with the per-round critical path *)
      List.iter
        (fun mc ->
          check_bool "busy invariant under cores" true
            (mc.E.e9_rgpd_busy_ms = balanced.E.e9_rgpd_busy_ms
            && mc.E.e9_general_busy_ms = balanced.E.e9_general_busy_ms))
        [ cores2; cores4 ];
      check_bool "2 cores shrink makespan" true
        (cores2.E.e9_makespan_ms < balanced.E.e9_makespan_ms);
      check_bool "4 cores shrink it further" true
        (cores4.E.e9_makespan_ms < cores2.E.e9_makespan_ms)
  | _ -> Alcotest.fail "expected five rows");
  ignore (E.render_e9 rows)

let test_e11_shape () =
  let r = E.e11_consent_churn ~subjects:60 ~copy_fraction:0.25 ~flips:30 () in
  check_int "copies made" 15 r.E.e11_copies;
  check_bool "updates include copies" true (r.E.e11_membranes_updated >= r.E.e11_flips);
  check_int "no copy left inconsistent" 0 r.E.e11_inconsistent_copies;
  ignore (E.render_e11 r)

let test_a1_shape () =
  let rows = E.a1_fetch_mode ~subjects:60 ~rates:[ 0.1; 0.9 ] () in
  check_int "2 rates x 2 modes" 4 (List.length rows);
  let find mode rate =
    List.find (fun r -> r.E.a1_mode = mode && r.E.a1_grant_rate = rate) rows
  in
  (* two-phase never overreads *)
  check_int "two-phase overread @0.1" 0 (find "two-phase" 0.1).E.a1_overread;
  check_int "two-phase overread @0.9" 0 (find "two-phase" 0.9).E.a1_overread;
  (* single-phase reads refused PD, the more so the lower the grant rate *)
  check_bool "single-phase overreads @0.1" true
    ((find "single-phase" 0.1).E.a1_overread > 0);
  check_bool "overread shrinks with grant rate" true
    ((find "single-phase" 0.9).E.a1_overread
    < (find "single-phase" 0.1).E.a1_overread);
  (* at low grant rates two-phase is cheaper: it skips the refused data *)
  check_bool "two-phase cheaper @0.1" true
    ((find "two-phase" 0.1).E.a1_sim_us < (find "single-phase" 0.1).E.a1_sim_us);
  ignore (E.render_a1 rows)

let test_a2_shape () =
  let rows = E.a2_placement ~subjects:100 ~cpu_costs_ns:[ 1_000; 50_000 ] () in
  check_int "2 costs x 3 locations" 6 (List.length rows);
  let at loc cost =
    (List.find
       (fun r -> r.E.a2_location = loc && r.E.a2_cpu_cost_us = cost)
       rows)
      .E.a2_sim_ms
  in
  (* IO-bound (1us/record): near-data wins by skipping the transfer *)
  check_bool "pim beats host when IO-bound" true (at "pim" 1.0 < at "host" 1.0);
  (* compute-bound (50us/record): the host's fast cores win *)
  check_bool "host beats pis when compute-bound" true
    (at "host" 50.0 < at "pis" 50.0);
  ignore (E.render_a2 rows)

let test_e10_shape () =
  let rows = E.e10_audit ~sizes:[ 50; 500 ] () in
  List.iter
    (fun r -> check_bool "tamper detected" true r.E.e10_tamper_detected)
    rows;
  ignore (E.render_e10 rows)

let () =
  Alcotest.run "experiments"
    [
      ( "shapes",
        [
          Alcotest.test_case "E1 ded stages" `Quick test_e1_shape;
          Alcotest.test_case "E2 gdprbench" `Slow test_e2_shape;
          Alcotest.test_case "E2b scaling" `Slow test_e2b_shape;
          Alcotest.test_case "E3 erasure" `Slow test_e3_shape;
          Alcotest.test_case "E4 access" `Quick test_e4_shape;
          Alcotest.test_case "E5 ttl" `Quick test_e5_shape;
          Alcotest.test_case "E6 filter" `Quick test_e6_shape;
          Alcotest.test_case "E7 leak" `Quick test_e7_shape;
          Alcotest.test_case "E8 register" `Quick test_e8_shape;
          Alcotest.test_case "E9 kernels" `Quick test_e9_shape;
          Alcotest.test_case "E11 consent churn" `Quick test_e11_shape;
          Alcotest.test_case "A1 fetch-mode ablation" `Quick test_a1_shape;
          Alcotest.test_case "A2 placement ablation" `Quick test_a2_shape;
          Alcotest.test_case "E10 audit" `Quick test_e10_shape;
        ] );
    ]
