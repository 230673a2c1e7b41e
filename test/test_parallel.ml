(* Domain-parallel execution tests: the Pool primitive, PRNG stream
   splitting, the Clock/Idgen single-writer rule, the scheduler's
   multicore invariants, and — the load-bearing acceptance test — that a
   parallel DED / sharded-bench run is observably identical to the
   sequential run in everything but host wall-clock time. *)

module Pool = Rgpdos_util.Pool
module Prng = Rgpdos_util.Prng
module Clock = Rgpdos_util.Clock
module Idgen = Rgpdos_util.Idgen
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Resource = Rgpdos_kernel.Resource
module Syscall = Rgpdos_kernel.Syscall
module Subkernel = Rgpdos_kernel.Subkernel
module Scheduler = Rgpdos_kernel.Scheduler
module Audit_log = Rgpdos_audit.Audit_log
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Machine = Rgpdos.Machine
module SB = Rgpdos_workload.Shard_bench
module Json = Rgpdos_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)

let test_pool_map_preserves_order () =
  Pool.with_pool ~workers:3 (fun p ->
      let input = Array.init 100 (fun i -> i) in
      let out = Pool.map_array p (fun i -> i * i) input in
      Array.iteri (fun i v -> check_int "square in order" (i * i) v) out;
      let lst = Pool.map_list p string_of_int [ 5; 4; 3 ] in
      check_bool "list order" true (lst = [ "5"; "4"; "3" ]))

let test_pool_exception_propagates () =
  Pool.with_pool ~workers:2 (fun p ->
      let raised =
        try
          ignore
            (Pool.map_array p
               (fun i -> if i = 3 then failwith "boom3" else i)
               (Array.init 8 (fun i -> i)));
          false
        with Failure m -> m = "boom3"
      in
      check_bool "task failure re-raised" true raised;
      (* pool still usable after a failed map *)
      let out = Pool.map_array p (fun i -> i + 1) [| 1; 2 |] in
      check_bool "pool survives" true (out = [| 2; 3 |]))

let test_pool_inline () =
  (* workers:0 runs everything in the calling domain, immediately *)
  let p = Pool.create ~workers:0 () in
  check_int "no workers" 0 (Pool.workers p);
  let here = (Domain.self () :> int) in
  let fut = Pool.async p (fun () -> (Domain.self () :> int)) in
  check_int "inline task runs in caller's domain" here (Pool.await fut);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let prop_chunks_cover_exactly =
  QCheck.Test.make ~count:300 ~name:"Pool.chunks covers each item once, balanced"
    QCheck.(pair (int_bound 500) (int_range 1 32))
    (fun (items, chunks) ->
      let ranges = Pool.chunks ~items ~chunks in
      let seen = Array.make (max items 1) 0 in
      Array.iter
        (fun (off, len) ->
          for i = off to off + len - 1 do
            seen.(i) <- seen.(i) + 1
          done)
        ranges;
      let covered =
        items = 0 || Array.for_all (fun c -> c = 1) (Array.sub seen 0 items)
      in
      let lens = Array.map snd ranges in
      let balanced =
        Array.length lens = 0
        || Array.fold_left max 0 lens - Array.fold_left min max_int lens <= 1
      in
      let bounded = Array.length ranges <= chunks in
      covered && balanced && bounded)

(* ------------------------------------------------------------------ *)
(* PRNG splitting                                                     *)

let prop_split_reproducible =
  QCheck.Test.make ~count:100 ~name:"Prng.split: same parent, same child stream"
    QCheck.int64 (fun seed ->
      let draw g = List.init 16 (fun _ -> Prng.next64 g) in
      let a = Prng.split (Prng.create ~seed ()) in
      let b = Prng.split (Prng.create ~seed ()) in
      draw a = draw b)

let prop_split_independent =
  QCheck.Test.make ~count:100
    ~name:"Prng.split: child stream differs from parent and siblings"
    QCheck.int64 (fun seed ->
      let g = Prng.create ~seed () in
      let kids = Prng.split_n g 4 in
      let draws = List.map (fun k -> List.init 8 (fun _ -> Prng.next64 k)) kids in
      let parent = List.init 8 (fun _ -> Prng.next64 g) in
      let all = parent :: draws in
      (* pairwise distinct streams *)
      List.for_all
        (fun s -> List.length (List.filter (( = ) s) all) = 1)
        all)

let test_split_n_shards_reproducible () =
  (* the sharded driver's seeding discipline: splitting the master PRNG
     n ways yields the same per-shard streams on every run *)
  let streams seed =
    Prng.split_n (Prng.create ~seed ()) 8
    |> List.map (fun g -> List.init 4 (fun _ -> Prng.next64 g))
  in
  check_bool "8-way split stable" true (streams 42L = streams 42L);
  check_bool "seed changes streams" true (streams 42L <> streams 43L)

(* ------------------------------------------------------------------ *)
(* single-writer rule for the mutable virtual-time primitives          *)

let test_clock_single_writer () =
  let c = Clock.create () in
  Clock.advance c 10;
  (* claimed by this domain *)
  let tripped =
    Domain.join
      (Domain.spawn (fun () ->
           try
             Clock.advance c 1;
             false
           with Failure _ -> true))
  in
  check_bool "cross-domain clock mutation trips assertion" true tripped;
  (* reads stay allowed anywhere; owner keeps writing *)
  check_int "read survives" 10
    (Domain.join (Domain.spawn (fun () -> Clock.now c)));
  Clock.advance c 5;
  check_int "owner still writes" 15 (Clock.now c)

let test_idgen_single_writer () =
  let g = Idgen.create ~prefix:"pd" in
  ignore (Idgen.fresh g);
  let tripped =
    Domain.join
      (Domain.spawn (fun () ->
           try
             ignore (Idgen.fresh_int g);
             false
           with Failure _ -> true))
  in
  check_bool "cross-domain idgen mutation trips assertion" true tripped;
  check_string "owner still allocates" "pd-00000001" (Idgen.fresh g)

(* ------------------------------------------------------------------ *)
(* scheduler multicore                                                *)

let make_kernels ~general_cores ~rgpd_cores =
  let r = Resource.create ~cpu_millis:8000 ~mem_pages:10000 in
  let claim owner cpu =
    Result.get_ok (Resource.claim r ~owner ~cpu_millis:cpu ~mem_pages:100)
  in
  let general =
    Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
      ~partition:(claim "general" 4000) ~policy:Syscall.Policy.allow_all
      ~cores:general_cores ()
  in
  let rgpd =
    Subkernel.make ~id:"rgpdos" ~kind:Subkernel.Rgpd
      ~partition:(claim "rgpdos" 2000) ~policy:Syscall.Policy.builtin_policy
      ~cores:rgpd_cores ()
  in
  (general, rgpd)

let run_mix ~general_cores ~rgpd_cores =
  let general, rgpd = make_kernels ~general_cores ~rgpd_cores in
  let clock = Clock.create () in
  let sched = Scheduler.create ~clock ~kernels:[ general; rgpd ] in
  for i = 0 to 15 do
    ignore
      (Scheduler.submit sched
         {
           Scheduler.job_id = Printf.sprintf "pd%d" i;
           data_class = Scheduler.Pd;
           work = 1_000_000;
         });
    ignore
      (Scheduler.submit sched
         {
           Scheduler.job_id = Printf.sprintf "npd%d" i;
           data_class = Scheduler.Npd;
           work = 1_000_000;
         })
  done;
  Scheduler.run_until_idle sched ();
  (Scheduler.kernel_busy_time sched, Clock.now clock)

let test_scheduler_multicore_invariants () =
  let busy1, makespan1 = run_mix ~general_cores:1 ~rgpd_cores:1 in
  let busy4, makespan4 = run_mix ~general_cores:4 ~rgpd_cores:4 in
  (* busy time is aggregate core-time: invariant across core counts *)
  check_int "general busy invariant" (List.assoc "general" busy1)
    (List.assoc "general" busy4);
  check_int "rgpd busy invariant" (List.assoc "rgpdos" busy1)
    (List.assoc "rgpdos" busy4);
  (* the virtual clock advances by the per-round critical path, so four
     cores finish the same work markedly faster *)
  check_bool "multicore makespan shrinks" true (makespan4 * 2 < makespan1);
  check_bool "speedup bounded by core count" true (makespan4 * 4 >= makespan1)

let test_pd_never_on_general_any_core_count () =
  List.iter
    (fun cores ->
      let general, rgpd = make_kernels ~general_cores:cores ~rgpd_cores:cores in
      let clock = Clock.create () in
      let sched = Scheduler.create ~clock ~kernels:[ general; rgpd ] in
      for i = 0 to 9 do
        ignore
          (Scheduler.submit sched
             {
               Scheduler.job_id = Printf.sprintf "pd%d" i;
               data_class = Scheduler.Pd;
               work = 500_000;
             })
      done;
      Scheduler.run_until_idle sched ();
      let busy = Scheduler.kernel_busy_time sched in
      check_int
        (Printf.sprintf "general idle at %d cores" cores)
        0
        (List.assoc "general" busy);
      check_bool "rgpd did the work" true (List.assoc "rgpdos" busy > 0))
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* DED: parallel == sequential                                        *)

let declarations =
  {|
type user {
  fields {
    name: string,
    pwd: string,
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
      (* every third subject refuses, so the filtered counter is live *)
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
                ("pwd", Value.VString "x");
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

let invoke_outcome m ?cores ?pool () =
  ok
    (Machine.invoke m ?cores ?pool ~name:"count_young"
       ~target:(Ded.All_of_type "user") ())

let same_observables label (a : Ded.outcome) (b : Ded.outcome) =
  check_bool (label ^ ": value") true (a.Ded.value = b.Ded.value);
  check_bool (label ^ ": produced_refs") true
    (a.Ded.produced_refs = b.Ded.produced_refs);
  check_int (label ^ ": consumed") a.Ded.consumed b.Ded.consumed;
  check_int (label ^ ": filtered") a.Ded.filtered b.Ded.filtered;
  check_int (label ^ ": overread") a.Ded.overread b.Ded.overread

(* The acceptance-criteria test: a parallel DED run yields the same
   outcome, the same filter/overread counters and the same audit
   verdict as the sequential run. *)
let test_ded_parallel_equals_sequential () =
  let subjects = 97 in
  let m_seq = boot_counting_machine ~subjects in
  let m_par = boot_counting_machine ~subjects in
  let seq = invoke_outcome m_seq ~cores:1 () in
  let par = invoke_outcome m_par ~cores:8 () in
  same_observables "cores 8 vs 1" seq par;
  check_bool "sequential counted something" true
    (match seq.Ded.value with Some (Value.VInt n) -> n > 0 | _ -> false);
  check_bool "some subjects filtered" true (seq.Ded.filtered > 0);
  check_int "overread zero (two-phase)" 0 seq.Ded.overread;
  (* both audit chains verify, with identical verdicts and lengths *)
  let verdict m = Result.is_ok (Audit_log.verify (Machine.audit m)) in
  check_bool "sequential audit verifies" true (verdict m_seq);
  check_bool "parallel audit verifies" true (verdict m_par);
  check_int "same audit length"
    (Audit_log.length (Machine.audit m_seq))
    (Audit_log.length (Machine.audit m_par));
  (* critical-path charging: the parallel ded_execute stage is strictly
     cheaper in simulated time than the sequential one *)
  let exec o = List.assoc "ded_execute" o.Ded.stage_ns in
  check_bool "parallel ded_execute cheaper" true (exec par < exec seq)

let test_ded_pool_changes_nothing () =
  (* with the same core count, running the shards on real domains must
     be fully unobservable: same outcome, same virtual clock, same
     audit head *)
  let subjects = 64 in
  let m_inline = boot_counting_machine ~subjects in
  let m_pooled = boot_counting_machine ~subjects in
  let inline = invoke_outcome m_inline ~cores:8 () in
  let pooled =
    Pool.with_pool ~workers:4 (fun pool ->
        invoke_outcome m_pooled ~cores:8 ~pool ())
  in
  same_observables "pool vs inline" inline pooled;
  check_bool "identical stage costs" true
    (inline.Ded.stage_ns = pooled.Ded.stage_ns);
  check_int "identical virtual clocks"
    (Clock.now (Machine.clock m_inline))
    (Clock.now (Machine.clock m_pooled));
  let head m =
    match List.rev (Audit_log.entries (Machine.audit m)) with
    | e :: _ -> e.Audit_log.hash
    | [] -> "genesis"
  in
  check_string "identical audit heads" (head m_inline) (head m_pooled)

let test_ded_filter_linear () =
  (* pin ded_filter's linearity: cost per membrane examined, so doubling
     the population doubles the stage *)
  let filter_ns subjects =
    let m = boot_counting_machine ~subjects in
    List.assoc "ded_filter" (invoke_outcome m ~cores:1 ()).Ded.stage_ns
  in
  let f40 = filter_ns 40 and f80 = filter_ns 80 in
  check_int "filter linear in selection" (2 * f40) f80;
  check_int "per-membrane constant" (Ded.cost_filter_per_membrane * 40) f40

(* ------------------------------------------------------------------ *)
(* sharded GDPRBench driver                                           *)

let test_shard_bench_pool_deterministic () =
  let run pool =
    SB.run ?pool ~role:Rgpdos_workload.Gdprbench.Processor ~subjects:120
      ~total_ops:60 ~shards:4 ()
  in
  let inline = run None in
  let pooled = Pool.with_pool ~workers:4 (fun p -> run (Some p)) in
  check_bool "audit ok inline" true inline.SB.audit_ok;
  check_bool "audit ok pooled" true pooled.SB.audit_ok;
  (* identical in everything but host wall-clock *)
  check_bool "same report modulo wall" true
    ({ inline with SB.wall_seconds = 0. }
    = { pooled with SB.wall_seconds = 0. });
  check_string "same cross-link" inline.SB.cross_link pooled.SB.cross_link;
  check_int "all ops accounted" 60
    (List.fold_left (fun a (o : SB.shard_outcome) -> a + o.SB.ops) 0
       inline.SB.per_shard)

let test_shard_bench_partition () =
  let pop =
    Rgpdos_workload.Population.generate (Prng.create ~seed:7L ()) ~n:200
  in
  let parts = SB.partition ~shards:8 pop in
  check_int "8 buckets" 8 (Array.length parts);
  check_int "partition covers population" 200
    (Array.fold_left (fun a p -> a + List.length p) 0 parts);
  (* deterministic: same population partitions the same way *)
  let again = SB.partition ~shards:8 pop in
  check_bool "partition deterministic" true (parts = again)

let test_shard_bench_speedup () =
  let run shards =
    SB.run ~role:Rgpdos_workload.Gdprbench.Processor ~subjects:200
      ~total_ops:80 ~shards ()
  in
  let base = run 1 and four = run 4 in
  check_bool "1-shard audit ok" true base.SB.audit_ok;
  check_bool "4-shard audit ok" true four.SB.audit_ok;
  let s = SB.speedup ~baseline:base four in
  check_bool
    (Printf.sprintf "4-shard speedup %.2f >= 2.5" s)
    true (s >= 2.5)

(* ------------------------------------------------------------------ *)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_pool_map_preserves_order;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "inline pool" `Quick test_pool_inline;
          qt prop_chunks_cover_exactly;
        ] );
      ( "prng-split",
        [
          qt prop_split_reproducible;
          qt prop_split_independent;
          Alcotest.test_case "split_n reproducible" `Quick
            test_split_n_shards_reproducible;
        ] );
      ( "single-writer",
        [
          Alcotest.test_case "clock" `Quick test_clock_single_writer;
          Alcotest.test_case "idgen" `Quick test_idgen_single_writer;
        ] );
      ( "scheduler-multicore",
        [
          Alcotest.test_case "busy invariant, makespan shrinks" `Quick
            test_scheduler_multicore_invariants;
          Alcotest.test_case "PD never on general" `Quick
            test_pd_never_on_general_any_core_count;
        ] );
      ( "ded-parallel",
        [
          Alcotest.test_case "parallel == sequential" `Quick
            test_ded_parallel_equals_sequential;
          Alcotest.test_case "pool unobservable" `Quick
            test_ded_pool_changes_nothing;
          Alcotest.test_case "ded_filter linear" `Quick test_ded_filter_linear;
        ] );
      ( "shard-bench",
        [
          Alcotest.test_case "pool deterministic" `Quick
            test_shard_bench_pool_deterministic;
          Alcotest.test_case "partition" `Quick test_shard_bench_partition;
          Alcotest.test_case "speedup at 4 shards" `Quick
            test_shard_bench_speedup;
        ] );
    ]
