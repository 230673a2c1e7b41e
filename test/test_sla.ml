(* Rights-under-load tests: the scheduler's deadline lane (FIFO
   submission-order pin, EDF overtaking, preemption / deadline-miss
   counters, the policy-invariance qcheck property), the DED's
   shard-wave cooperative yield, Sla_bench determinism across domain
   counts, and the absolute gate on the committed BENCH_rights_sla.json. *)

module Clock = Rgpdos_util.Clock
module Pool = Rgpdos_util.Pool
module Json = Rgpdos_util.Json
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Resource = Rgpdos_kernel.Resource
module Syscall = Rgpdos_kernel.Syscall
module Subkernel = Rgpdos_kernel.Subkernel
module Scheduler = Rgpdos_kernel.Scheduler
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Machine = Rgpdos.Machine
module SLA = Rgpdos_workload.Sla_bench
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok = function Ok v -> v | Error e -> Alcotest.fail e
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* scheduler: deadline lane                                           *)

let make_kernels () =
  let r = Resource.create ~cpu_millis:8000 ~mem_pages:10000 in
  let claim owner cpu =
    Result.get_ok (Resource.claim r ~owner ~cpu_millis:cpu ~mem_pages:100)
  in
  let general =
    Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
      ~partition:(claim "general" 4000) ~policy:Syscall.Policy.allow_all ()
  in
  let rgpd =
    Subkernel.make ~id:"rgpdos" ~kind:Subkernel.Rgpd
      ~partition:(claim "rgpdos" 2000) ~policy:Syscall.Policy.builtin_policy ()
  in
  (general, rgpd)

let make_sched () =
  let general, rgpd = make_kernels () in
  let clock = Clock.create () in
  (Scheduler.create ~clock ~kernels:[ general; rgpd ], clock)

let pd_job id work = { Scheduler.job_id = id; data_class = Scheduler.Pd; work }

(* Satellite regression pin: under FIFO, same-class jobs are served
   strictly in submission order even when every job spans several
   quanta — the head job holds its core slot until completion and an
   unfinished job resumes ahead of the waiting tail.  The pre-EDF
   implementation got this only incidentally from Queue.transfer
   ordering. *)
let test_fifo_submission_order () =
  let sched, _ = make_sched () in
  let ids = List.init 6 (fun i -> Printf.sprintf "j%d" i) in
  List.iter
    (fun id -> ignore (ok (Scheduler.submit sched (pd_job id 2_500_000))))
    ids;
  Scheduler.run_until_idle sched ();
  check_bool "completion order = submission order" true
    (Scheduler.completed sched = ids)

let test_counters_zero_defaults () =
  let sched, _ = make_sched () in
  let cs = Scheduler.counters sched in
  List.iter
    (fun name -> check_int name 0 (List.assoc name cs))
    Scheduler.counter_names

let test_max_queue_depth_high_water () =
  let sched, _ = make_sched () in
  for i = 0 to 4 do
    ignore (ok (Scheduler.submit sched (pd_job (string_of_int i) 1_000_000)))
  done;
  Scheduler.run_until_idle sched ();
  (* the high-water mark survives the drain *)
  check_int "depth sampled at submit" 5
    (List.assoc "max_queue_depth" (Scheduler.counters sched))

(* A rights job submitted behind started batch work overtakes it under
   EDF (counting a preemption and meeting its deadline) but waits its
   turn under FIFO (no preemption, deadline missed). *)
let run_overtake policy =
  let sched, clock = make_sched () in
  Scheduler.set_policy sched policy;
  List.iter
    (fun id -> ignore (ok (Scheduler.submit sched (pd_job id 5_000_000))))
    [ "b1"; "b2"; "b3" ];
  (* let b1 start (two 1 ms quanta) before the rights request arrives *)
  Scheduler.run_round sched 1_000_000;
  Scheduler.run_round sched 1_000_000;
  let deadline = Clock.now clock + 1_600_000 in
  ignore (ok (Scheduler.submit sched ~deadline (pd_job "r" 1_000_000)));
  Scheduler.run_until_idle sched ();
  (sched, Scheduler.completed sched)

let test_edf_rights_overtake_batch () =
  let fifo, fifo_done = run_overtake Scheduler.Fifo in
  let edf, edf_done = run_overtake Scheduler.Edf in
  let pos order id =
    let rec go i = function
      | [] -> Alcotest.failf "%s not completed" id
      | x :: _ when x = id -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  check_int "FIFO serves the right last" 3 (pos fifo_done "r");
  check_int "EDF serves the right first" 0 (pos edf_done "r");
  let c sched name = List.assoc name (Scheduler.counters sched) in
  check_int "FIFO never preempts" 0 (c fifo "preemptions");
  check_bool "EDF preempted the batch head" true (c edf "preemptions" > 0);
  check_int "FIFO missed the deadline" 1 (c fifo "deadline_misses");
  check_int "EDF met the deadline" 0 (c edf "deadline_misses");
  check_int "rights_jobs counted (fifo)" 1 (c fifo "rights_jobs");
  check_int "rights_jobs counted (edf)" 1 (c edf "rights_jobs")

let test_deadline_miss_counter () =
  let sched, _ = make_sched () in
  (* unmeetable: the deadline is in the past by the time the slice ends *)
  ignore (ok (Scheduler.submit sched ~deadline:1 (pd_job "late" 2_000_000)));
  (* comfortably meetable *)
  ignore
    (ok (Scheduler.submit sched ~deadline:1_000_000_000 (pd_job "fine" 1_000)));
  Scheduler.run_until_idle sched ();
  check_int "one miss" 1
    (List.assoc "deadline_misses" (Scheduler.counters sched));
  check_int "both were rights jobs" 2
    (List.assoc "rights_jobs" (Scheduler.counters sched))

(* The policy-invariance property (qcheck-pinned, promised by the mli):
   switching FIFO to EDF changes ordering and latency only — the
   completed-job set and every kernel's aggregate busy time are
   identical, because slices and per-core rates do not depend on the
   policy. *)
let prop_edf_preserves_outcomes_and_busy =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (int_range 1 30) bool (option (int_range 0 40))))
  in
  QCheck.Test.make ~count:100
    ~name:"EDF = FIFO on completed set and kernel busy time" gen (fun jobs ->
      let run policy =
        let sched, _ = make_sched () in
        Scheduler.set_policy sched policy;
        List.iteri
          (fun i (w, is_pd, dl) ->
            let job =
              {
                Scheduler.job_id = string_of_int i;
                data_class = (if is_pd then Scheduler.Pd else Scheduler.Npd);
                work = w * 137_000;
              }
            in
            let deadline = Option.map (fun d -> d * 1_000_000) dl in
            ignore (ok (Scheduler.submit sched ?deadline job)))
          jobs;
        Scheduler.run_until_idle sched ();
        ( List.sort compare (Scheduler.completed sched),
          Scheduler.kernel_busy_time sched )
      in
      let fifo_done, fifo_busy = run Scheduler.Fifo in
      let edf_done, edf_busy = run Scheduler.Edf in
      fifo_done = edf_done && fifo_busy = edf_busy)

(* ------------------------------------------------------------------ *)
(* DED: shard-wave cooperative yield                                  *)

let declarations =
  {|
type user {
  fields {
    name: string,
    year_of_birthdate: int
  };
  view v_ano { year_of_birthdate };
  consent { purpose3: v_ano };
  collection { web_form: user_form.html };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}

purpose purpose3 {
  description: "count users born after 1990";
  reads: user.v_ano;
  legal_basis: consent;
}
|}

let count_young_impl _ctx inputs =
  let n =
    List.length
      (List.filter
         (fun (i : Processing.pd_input) ->
           match Record.get i.record "year_of_birthdate" with
           | Some (Value.VInt y) -> y > 1990
           | _ -> false)
         inputs)
  in
  Ok (Processing.value_output (Value.VInt n))

let boot_counting_machine ~subjects =
  let m = Machine.boot ~seed:99L () in
  ignore (ok (Machine.load_declarations m declarations));
  for i = 0 to subjects - 1 do
    let consents =
      if i mod 3 = 0 then Some [ ("purpose3", Rgpdos_membrane.Membrane.Denied) ]
      else None
    in
    ignore
      (ok
         (Machine.collect m ~type_name:"user"
            ~subject:(Printf.sprintf "sub-%03d" i)
            ~interface:"web_form:user_form.html"
            ~record:
              [
                ("name", Value.VString (Printf.sprintf "u%d" i));
                ("year_of_birthdate", Value.VInt (1970 + (i mod 40)));
              ]
            ?consents ()))
  done;
  let spec =
    ok
      (Machine.make_processing m ~name:"count_young" ~purpose:"purpose3"
         ~touches:[ ("user", [ "year_of_birthdate" ]) ]
         ~cpu_cost_per_record:4_000 ~shard_reduce:Processing.reduce_int_sum
         count_young_impl)
  in
  ignore (ok (Machine.register_processing m spec));
  m

let invoke_outcome m ?pool ?grain ?yield () =
  ok
    (Machine.invoke m ?pool ?grain ?yield ~name:"count_young"
       ~target:(Ded.All_of_type "user") ())

let same_observables label (a : Ded.outcome) (b : Ded.outcome) =
  check_bool (label ^ ": value") true (a.Ded.value = b.Ded.value);
  check_int (label ^ ": consumed") a.Ded.consumed b.Ded.consumed;
  check_int (label ^ ": filtered") a.Ded.filtered b.Ded.filtered;
  check_int (label ^ ": overread") a.Ded.overread b.Ded.overread

let test_ded_yield_fires_between_waves () =
  let subjects = 97 in
  let grain = 2 in
  let m = boot_counting_machine ~subjects in
  let yields = ref 0 in
  let o = invoke_outcome m ~grain ~yield:(fun () -> incr yields) () in
  (* waves of [location_cores Host] shards of [grain] records; the
     yield fires between waves, never after the last one *)
  let shards = (o.Ded.consumed + grain - 1) / grain in
  let cores = Ded.location_cores Ded.Host in
  let waves = (shards + cores - 1) / cores in
  check_bool "several waves" true (waves > 1);
  check_int "one yield per wave boundary" (waves - 1) !yields

let test_ded_yield_preserves_outcome () =
  let subjects = 97 in
  let plain = invoke_outcome (boot_counting_machine ~subjects) () in
  let yielded =
    invoke_outcome (boot_counting_machine ~subjects) ~grain:4
      ~yield:(fun () -> ())
      ()
  in
  same_observables "yield vs plain" plain yielded;
  check_bool "counted something" true
    (match plain.Ded.value with Some (Value.VInt n) -> n > 0 | _ -> false)

let test_ded_yield_pool_unobservable () =
  let subjects = 64 in
  let m_inline = boot_counting_machine ~subjects in
  let m_pooled = boot_counting_machine ~subjects in
  let inline = invoke_outcome m_inline ~grain:4 ~yield:(fun () -> ()) () in
  let pooled =
    Pool.with_pool ~workers:4 (fun pool ->
        invoke_outcome m_pooled ~pool ~grain:4 ~yield:(fun () -> ()) ())
  in
  same_observables "pool vs inline (yield mode)" inline pooled;
  check_bool "identical stage costs" true
    (inline.Ded.stage_ns = pooled.Ded.stage_ns);
  check_int "identical virtual clocks"
    (Clock.now (Machine.clock m_inline))
    (Clock.now (Machine.clock m_pooled))

(* ------------------------------------------------------------------ *)
(* Sla_bench: domain-count determinism                                *)

(* The report must be byte-identical at 1/2/4 domains except for host
   wall clock (and the domain count itself) — the pool accelerates wall
   time only, never the virtual timeline. *)
let test_sla_bench_domains_deterministic () =
  let run domains = SLA.run ~domains ~subjects:240 ~batches:4 () in
  let norm_side (s : SLA.side) = { s with SLA.sd_wall_s = 0.0 } in
  let norm (r : SLA.result) =
    {
      r with
      SLA.r_domains = 0;
      r_fifo = norm_side r.SLA.r_fifo;
      r_edf = norm_side r.SLA.r_edf;
    }
  in
  let r1 = run 1 in
  let r2 = run 2 in
  let r4 = run 4 in
  check_bool "1 vs 2 domains" true (norm r1 = norm r2);
  check_bool "2 vs 4 domains" true (norm r2 = norm r4);
  (* sanity on the shared schedule: both sides served the same rights *)
  let count label (s : SLA.side) =
    match List.find_opt (fun r -> r.SLA.rs_label = label) s.SLA.sd_rights with
    | Some r -> r.SLA.rs_count
    | None -> 0
  in
  check_bool "art15 traffic present" true (count "art15" r1.SLA.r_fifo > 0);
  check_int "same art15 count on both sides"
    (count "art15" r1.SLA.r_fifo)
    (count "art15" r1.SLA.r_edf);
  check_bool "EDF preempted" true
    (List.assoc "preemptions" r1.SLA.r_edf.SLA.sd_counters > 0);
  check_int "FIFO never preempts" 0
    (List.assoc "preemptions" r1.SLA.r_fifo.SLA.sd_counters);
  check_int "storm = 10% of subjects" 24 r1.SLA.r_storm.SLA.st_requests;
  check_bool "breach enumerated subjects" true
    (r1.SLA.r_breach.SLA.bn_affected > 0);
  check_bool "improvement factor computed" true
    (Option.is_some (SLA.improvement r1 "art15"))

(* ------------------------------------------------------------------ *)
(* the compare gate                                                   *)

let sla = Bench.find "sla"

(* `dune runtest` runs from the test dir (the dep is staged one level
   up); `dune exec test/test_sla.exe` runs from the project root *)
let read_artifact () =
  match
    List.find_opt Sys.file_exists [ Filename.concat ".." sla.Bench.file; sla.file ]
  with
  | None -> Alcotest.failf "%s missing (regenerate: %s)" sla.file sla.regen
  | Some path -> (
      match Bench.read_file path with Ok v -> v | Error msg -> Alcotest.fail msg)

(* the improvement factor deepens with schedule length, so both sides of
   the compare are held to the absolute bar instead of a drift *)
let test_compare_sla_gate () =
  let v = read_artifact () in
  let fresh x =
    Bench.update [ K "improvement"; K "art15" ] (fun _ -> Json.Num x) v
  in
  check_bool "fresh at the bar passes" true
    (Result.is_ok (Bench.compare sla ~committed:v (fresh 5.0)));
  check_bool "fresh under the bar fails" true
    (Result.is_error (Bench.compare sla ~committed:v (fresh 4.2)));
  check_bool "committed under the bar fails" true
    (Result.is_error (Bench.compare sla ~committed:(fresh 4.2) v))

let test_validate_sla_rejects_garbage () =
  check_bool "empty object" true (Result.is_error (Bench.validate sla (Json.Obj [])))

let () =
  Alcotest.run "rights-sla"
    [
      ( "scheduler-deadline-lane",
        [
          Alcotest.test_case "FIFO submission order pinned" `Quick
            test_fifo_submission_order;
          Alcotest.test_case "canonical counters default to 0" `Quick
            test_counters_zero_defaults;
          Alcotest.test_case "max_queue_depth high-water" `Quick
            test_max_queue_depth_high_water;
          Alcotest.test_case "EDF rights overtake batch" `Quick
            test_edf_rights_overtake_batch;
          Alcotest.test_case "deadline misses counted" `Quick
            test_deadline_miss_counter;
          qt prop_edf_preserves_outcomes_and_busy;
        ] );
      ( "ded-yield",
        [
          Alcotest.test_case "yield fires between waves" `Quick
            test_ded_yield_fires_between_waves;
          Alcotest.test_case "yield preserves outcome" `Quick
            test_ded_yield_preserves_outcome;
          Alcotest.test_case "pool unobservable in yield mode" `Quick
            test_ded_yield_pool_unobservable;
        ] );
      ( "sla-bench",
        [
          Alcotest.test_case "deterministic at 1/2/4 domains" `Slow
            test_sla_bench_domains_deterministic;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "compare gate is absolute" `Quick
            test_compare_sla_gate;
          Alcotest.test_case "garbage rejected" `Quick
            test_validate_sla_rejects_garbage;
        ] );
    ]
