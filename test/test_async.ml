(* The submission/completion queues: engine arithmetic, depth 1 as the
   blocking model (the device's and DBFS's), the qcheck law (an op script
   produces identical images, payloads and counters at depths 1, 4 and 64
   — only the latency telemetry may differ), the DBFS warm==cold pin at
   depth 4, and the BENCH_async_io.json artifact machinery (regression
   gate included). *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Json = Rgpdos_util.Json
module Prng = Rgpdos_util.Prng
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Dbfs = Rgpdos_dbfs.Dbfs
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module AB = Rgpdos_workload.Async_bench
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ded = "ded"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "dbfs error: %s" (Dbfs.error_to_string e)

let counter dev name = Stats.Counter.get (Block_device.stats dev) name

(* 16-byte blocks, seek 10, 1 ns/byte: a single-block vectored read
   costs exactly 26 ns — small enough to do the queue arithmetic by
   hand. *)
let async_config ~queue_depth =
  {
    Block_device.block_size = 16;
    block_count = 64;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 1;
    vectored = true;
    queue_depth;
  }

let make_dev ~queue_depth =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:(async_config ~queue_depth) ~clock () in
  (dev, clock)

let read_1 = 10 + 16 (* one single-block read: seek + 16 bytes *)

(* ------------------------------------------------------------------ *)
(* engine: depth 1 is the blocking model                               *)

(* At depth 1 a submission awaited at once costs exactly the blocking
   call and moves the same bytes and IO counters; only the queue
   counters tell them apart. *)
let test_depth1_is_blocking () =
  let blocking, bclock = make_dev ~queue_depth:1 in
  let queued, qclock = make_dev ~queue_depth:1 in
  List.iter
    (fun dev ->
      Block_device.write_vec dev
        (List.map (fun i -> (i, Printf.sprintf "b%d" i)) [ 3; 4; 5 ]);
      Block_device.reset_stats dev)
    [ blocking; queued ];
  let cost clock f =
    let t0 = Clock.now clock in
    let v = f () in
    (v, Clock.now clock - t0)
  in
  let await = Block_device.await queued in
  let got_b, cb =
    cost bclock (fun () -> Block_device.read_vec blocking [ 3; 4; 5 ])
  in
  let got_q, cq =
    cost qclock (fun () -> await (Block_device.submit_read_vec queued [ 5; 3; 4 ]))
  in
  check_int "read_vec: one seek + 48 bytes" (10 + 48) cb;
  check_int "read: queued == blocking" cb cq;
  check_bool "read: same payload" true (got_b = got_q);
  let _, cb =
    cost bclock (fun () -> Block_device.charge_read_vec blocking [ 3; 4; 5 ])
  in
  let got_q, cq =
    cost qclock (fun () ->
        await (Block_device.submit_charge_read_vec queued [ 3; 4; 5 ]))
  in
  check_int "charge-only: queued == blocking" cb cq;
  check_bool "charge-only payload empty" true (got_q = []);
  let ws = [ (7, "x"); (8, "y") ] in
  let _, cb = cost bclock (fun () -> Block_device.write_vec blocking ws) in
  let _, cq =
    cost qclock (fun () -> await (Block_device.submit_write_vec queued ws))
  in
  check_int "write_vec: one seek + 32 bytes" (20 + 32) cb;
  check_int "write: queued == blocking" cb cq;
  check_bool "same image" true
    (Block_device.snapshot blocking = Block_device.snapshot queued);
  List.iter
    (fun k -> check_int k (counter blocking k) (counter queued k))
    [
      "reads"; "bytes_read"; "vec_reads"; "writes"; "bytes_written";
      "vec_writes"; "write_ops"; "merged_runs";
    ];
  check_int "submits" 3 (counter queued "async_submits");
  check_int "completions" 3 (counter queued "async_completions");
  check_int "nothing hidden" 0 (counter queued "overlap_ns_hidden");
  check_int "highwater" 1 (counter queued "queue_depth_highwater");
  check_int "nothing outstanding" 0 (Block_device.outstanding queued)

(* ------------------------------------------------------------------ *)
(* engine: queue arithmetic                                           *)

let test_depth1_is_serial () =
  let dev, clock = make_dev ~queue_depth:1 in
  let t0 = Clock.now clock in
  let tk1 = Block_device.submit_read_vec dev [ 3 ] in
  let tk2 = Block_device.submit_read_vec dev [ 9 ] in
  check_int "submission is free under async" 0 (Clock.now clock - t0);
  check_int "two in flight" 2 (Block_device.outstanding dev);
  ignore (Block_device.await dev tk1);
  check_int "first completion at one service" read_1 (Clock.now clock - t0);
  ignore (Block_device.await dev tk2);
  (* depth 1: the second request queued behind the first *)
  check_int "second completion serialised" (2 * read_1) (Clock.now clock - t0);
  check_int "no compute, no overlap" 0 (counter dev "overlap_ns_hidden");
  check_int "highwater" 2 (counter dev "queue_depth_highwater")

let test_overlap_at_depth4 () =
  let dev, clock = make_dev ~queue_depth:4 in
  let t0 = Clock.now clock in
  let tks =
    List.map (fun i -> Block_device.submit_read_vec dev [ i ]) [ 1; 2; 3; 4 ]
  in
  (* 4 slots, 4 requests: all complete at t0 + 26; 10 ns of caller
     compute hides 10 ns of the first await and all of the rest *)
  Clock.advance clock 10;
  List.iter (fun tk -> ignore (Block_device.await dev tk)) tks;
  check_int "all four settled at one service" read_1 (Clock.now clock - t0);
  check_int "service submitted" (4 * read_1) (counter dev "async_service_ns");
  check_int "hidden = compute + 3 full services" (10 + (3 * read_1))
    (counter dev "overlap_ns_hidden");
  check_int "highwater" 4 (counter dev "queue_depth_highwater");
  check_int "submits" 4 (counter dev "async_submits");
  check_int "completions" 4 (counter dev "async_completions")

let test_queueing_beyond_depth () =
  let dev, clock = make_dev ~queue_depth:2 in
  let t0 = Clock.now clock in
  let tks =
    List.map (fun i -> Block_device.submit_read_vec dev [ i ]) [ 1; 2; 3; 4 ]
  in
  List.iter (fun tk -> ignore (Block_device.await dev tk)) tks;
  (* 4 requests over 2 slots: two service generations *)
  check_int "two generations of service" (2 * read_1) (Clock.now clock - t0);
  check_int "highwater counts queued submissions" 4
    (counter dev "queue_depth_highwater")

let test_channels_are_independent () =
  let dev, clock = make_dev ~queue_depth:1 in
  let t0 = Clock.now clock in
  let a = Block_device.submit_read_vec dev ~channel:0 [ 3 ] in
  let b = Block_device.submit_read_vec dev ~channel:1 [ 9 ] in
  ignore (Block_device.await dev a);
  ignore (Block_device.await dev b);
  (* depth 1 per channel, but each channel has its own slot *)
  check_int "channels overlap each other" read_1 (Clock.now clock - t0)

let test_await_idempotent_and_drain () =
  let dev, clock = make_dev ~queue_depth:4 in
  Block_device.write_vec dev [ (5, "payload-five") ];
  Block_device.reset_stats dev;
  let tk = Block_device.submit_read_vec dev [ 5 ] in
  ignore (Block_device.submit_read_vec dev [ 6 ]);
  ignore (Block_device.submit_read_vec dev [ 7 ]);
  check_int "three outstanding" 3 (Block_device.outstanding dev);
  Block_device.drain dev;
  check_int "drain settles everything" 0 (Block_device.outstanding dev);
  check_int "completions" 3 (counter dev "async_completions");
  let t0 = Clock.now clock in
  let p1 = Block_device.await dev tk in
  check_int "re-await is free" 0 (Clock.now clock - t0);
  check_int "re-await does not re-complete" 3 (counter dev "async_completions");
  check_bool "re-await returns the captured payload" true
    (match p1 with
    | [ (5, data) ] -> String.sub data 0 12 = "payload-five"
    | _ -> false)

let test_write_bytes_persist_at_submit () =
  let dev, clock = make_dev ~queue_depth:4 in
  let t0 = Clock.now clock in
  let tk = Block_device.submit_write_vec dev [ (5, "hello-async") ] in
  check_int "submission is free" 0 (Clock.now clock - t0);
  (* bytes are on the medium before the completion settles *)
  check_bool "bytes visible before await" true
    (match Block_device.read_vec dev [ 5 ] with
    | [ (_, data) ] -> String.sub data 0 11 = "hello-async"
    | _ -> false);
  check_bool "scan sees them too" true
    (Block_device.scan dev "hello-async" <> []);
  ignore (Block_device.await dev tk);
  check_int "write counters" 1 (counter dev "writes")

(* ------------------------------------------------------------------ *)
(* the qcheck law: depth 1 == depths 4/64 modulo latency telemetry    *)

(* A deterministic op script drawn from a seed: submissions on a few
   channels, interleaved compute, early awaits of the oldest ticket.
   The law: running one script at depth 1 (the blocking model) and at
   depths 4 / 64 yields identical payloads, identical final images and
   identical counters — except queue_depth_highwater and
   overlap_ns_hidden, which describe the queue itself. *)

type op =
  | Read of int * int list          (* channel, indices *)
  | ChargeRead of int * int list
  | Write of int * (int * string) list
  | Compute of int
  | AwaitOldest

let gen_script seed =
  let prng = Prng.create ~seed:(Int64.of_int seed) () in
  let indices () =
    List.init (1 + Prng.int prng 4) (fun _ -> Prng.int prng 64)
  in
  List.init
    (8 + Prng.int prng 25)
    (fun _ ->
      let ch = Prng.int prng 3 in
      match Prng.int prng 10 with
      | 0 | 1 | 2 -> Read (ch, indices ())
      | 3 | 4 -> ChargeRead (ch, indices ())
      | 5 | 6 ->
          Write
            ( ch,
              List.map
                (fun i -> (i, Printf.sprintf "w%02d-%d" i (Prng.int prng 100)))
                (indices ()) )
      | 7 | 8 -> Compute (Prng.int prng 40)
      | _ -> AwaitOldest)

let run_script ~queue_depth script =
  let dev, clock = make_dev ~queue_depth in
  (* a deterministic pre-image so reads have bytes to capture *)
  Block_device.write_vec dev
    (List.init 64 (fun i -> (i, Printf.sprintf "init-%02d" i)));
  Block_device.reset_stats dev;
  let payloads = ref [] in
  let pending = ref [] in
  let settle tk = payloads := Block_device.await dev tk :: !payloads in
  List.iter
    (fun op ->
      match op with
      | Read (ch, idx) ->
          pending := !pending @ [ Block_device.submit_read_vec dev ~channel:ch idx ]
      | ChargeRead (ch, idx) ->
          pending :=
            !pending @ [ Block_device.submit_charge_read_vec dev ~channel:ch idx ]
      | Write (ch, ws) ->
          pending := !pending @ [ Block_device.submit_write_vec dev ~channel:ch ws ]
      | Compute ns -> Clock.advance clock ns
      | AwaitOldest -> (
          match !pending with
          | [] -> ()
          | tk :: rest ->
              settle tk;
              pending := rest))
    script;
  List.iter settle !pending;
  Block_device.drain dev;
  let counters =
    List.filter
      (fun (k, _) -> k <> "queue_depth_highwater" && k <> "overlap_ns_hidden")
      (List.sort compare (Stats.Counter.to_list (Block_device.stats dev)))
  in
  (List.rev !payloads, Block_device.snapshot dev, counters)

let prop_async_eq_sync =
  QCheck.Test.make ~count:60
    ~name:"async == sync: payloads, images, counters (mod latency telemetry)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let script = gen_script seed in
      let reference = run_script ~queue_depth:1 script in
      List.for_all
        (fun depth -> run_script ~queue_depth:depth script = reference)
        [ 4; 64 ])

(* ------------------------------------------------------------------ *)
(* DBFS: depth 1 is blocking, warm == cold, outcomes unchanged         *)

let dbfs_config ~queue_depth =
  {
    Block_device.block_size = 512;
    block_count = 512;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth;
  }

let user_schema () =
  match
    Schema.make ~name:"user"
      ~fields:
        [
          { Schema.fname = "name"; ftype = Value.TString; required = true };
          { Schema.fname = "pwd"; ftype = Value.TString; required = true };
        ]
      ~default_consents:[ ("service", M.All) ]
      ~default_ttl:Clock.year ~default_sensitivity:M.High ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let setup_dbfs ~queue_depth =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:(dbfs_config ~queue_depth) ~clock () in
  let t = Dbfs.format dev ~journal_blocks:16 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  (t, dev, clock)

let insert_user t ~subject ~pwd =
  let schema = ok (Dbfs.schema t ~actor:ded "user") in
  ok
    (Dbfs.insert t ~actor:ded ~subject ~type_name:"user"
       ~record:[ ("name", Value.VString subject); ("pwd", Value.VString pwd) ]
       ~membrane_of:(fun ~pd_id ->
         M.make ~pd_id ~type_name:"user" ~subject_id:subject
           ~origin:schema.Schema.default_origin
           ~consents:schema.Schema.default_consents ~created_at:0
           ?ttl:schema.Schema.default_ttl
           ~sensitivity:schema.Schema.default_sensitivity
           ~collection:schema.Schema.collection ()))

(* At depth 1 a batch load is one request settled before any decode:
   [get_membranes], [get_records] and a residual [select] each cost
   exactly one blocking [read_vec] of the batch's blocks (the
   [charge_read_vec] it equals once every entry is cached) plus the
   per-entry checksum charges, cold and warm alike. *)
let test_dbfs_depth1_is_blocking () =
  let t, dev, clock = setup_dbfs ~queue_depth:1 in
  let pds =
    List.init 6 (fun i -> insert_user t ~subject:(Printf.sprintf "b%d" i) ~pwd:"pw")
  in
  let blocks pick =
    List.concat_map (fun pd -> pick (ok (Dbfs.entry_blocks t ~actor:ded pd))) pds
  in
  let membrane_sizes =
    List.map
      (fun (_, m) -> String.length (M.encode m))
      (ok (Dbfs.get_membranes t ~actor:ded pds))
  in
  let record_sizes =
    List.map
      (fun (_, r) -> String.length (Record.encode (Option.get r)))
      (ok (Dbfs.get_records t ~actor:ded pds))
  in
  (* one blocking read of [bs], on a twin device *)
  let blocking bs =
    let twin_clock = Clock.create () in
    let twin =
      Block_device.create ~config:(dbfs_config ~queue_depth:1) ~clock:twin_clock ()
    in
    Block_device.charge_read_vec twin bs;
    Clock.now twin_clock
  in
  let checksums sizes = List.fold_left (fun acc n -> acc + max 1 (n / 64)) 0 sizes in
  let check_batch what ~blocks ~sizes f =
    (* a remount empties every cache: the first pass is cold *)
    let cold =
      match Dbfs.crash_and_remount t with Ok c -> c | Error e -> Alcotest.fail e
    in
    List.iter
      (fun pass ->
        let reads = counter dev "vec_reads" in
        let t0 = Clock.now clock in
        ignore (ok (f cold));
        check_int
          (Printf.sprintf "%s (%s): one blocking read + checksums" what pass)
          (blocking blocks + checksums sizes)
          (Clock.now clock - t0);
        check_int
          (Printf.sprintf "%s (%s): one request" what pass)
          1
          (counter dev "vec_reads" - reads))
      [ "cold"; "warm" ]
  in
  check_batch "get_membranes" ~blocks:(blocks snd) ~sizes:membrane_sizes
    (fun t -> Dbfs.get_membranes t ~actor:ded pds);
  check_batch "get_records" ~blocks:(blocks fst) ~sizes:record_sizes (fun t ->
      Dbfs.get_records t ~actor:ded pds);
  check_batch "residual select" ~blocks:(blocks fst) ~sizes:record_sizes
    (fun t ->
      Dbfs.select t ~actor:ded ~use_indexes:false "user"
        (Query.Eq ("pwd", Value.VString "pw")))

let test_dbfs_warm_eq_cold_under_async () =
  let t, _, clock = setup_dbfs ~queue_depth:4 in
  let pds =
    List.init 8 (fun i -> insert_user t ~subject:(Printf.sprintf "w%d" i) ~pwd:"pw")
  in
  let cost f =
    let t0 = Clock.now clock in
    ignore (ok (f ()));
    Clock.now clock - t0
  in
  let cold = cost (fun () -> Dbfs.get_membranes t ~actor:ded pds) in
  let warm = cost (fun () -> Dbfs.get_membranes t ~actor:ded pds) in
  check_bool "queued batch charges device time" true (cold > 0);
  (* cache hits ride the charge-only submission path with the same
     chunk shape as the cold fetch, so the pipeline hides the same
     amount of service both times *)
  check_int "warm batch costs exactly the cold cost" cold warm;
  let cold_r = cost (fun () -> Dbfs.get_records t ~actor:ded pds) in
  let warm_r = cost (fun () -> Dbfs.get_records t ~actor:ded pds) in
  check_int "records: warm = cold" cold_r warm_r

(* depth 4 against the depth-1 (blocking) reference *)
let test_dbfs_outcomes_match_sync () =
  let build ~queue_depth =
    let t, dev, _ = setup_dbfs ~queue_depth in
    let pds =
      List.init 10 (fun i ->
          insert_user t ~subject:(Printf.sprintf "s%d" i) ~pwd:"secret")
    in
    ok (Dbfs.delete t ~actor:ded (List.nth pds 3));
    let ms = ok (Dbfs.get_membranes t ~actor:ded (List.filteri (fun i _ -> i <> 3) pds)) in
    let rs = ok (Dbfs.get_records t ~actor:ded (List.filteri (fun i _ -> i <> 3) pds)) in
    Block_device.drain dev;
    (ms, rs, Block_device.snapshot dev)
  in
  let sm, sr, simg = build ~queue_depth:1 in
  let am, ar, aimg = build ~queue_depth:4 in
  check_bool "membranes identical" true (sm = am);
  check_bool "records identical" true (sr = ar);
  check_bool "on-device image identical" true (simg = aimg)

(* ------------------------------------------------------------------ *)
(* artifact + regression gate                                         *)

let fake_row ~depth ~speedup ~overlap =
  {
    AB.ar_depth = depth;
    ar_total_ns = 1_000_000;
    ar_load_ns = 400_000;
    ar_load_speedup = speedup;
    ar_total_speedup = speedup;
    ar_overlap_pct = overlap;
    ar_submits = 32;
    ar_highwater = depth;
  }

let fake_result ?(invariant = true) ~speedup ~overlap () =
  {
    AB.a_depths = [ 1; 4 ];
    a_sizes =
      [
        {
          AB.as_subjects = 100;
          as_rows =
            [
              fake_row ~depth:1 ~speedup:1.0 ~overlap:0.0;
              fake_row ~depth:4 ~speedup ~overlap;
            ];
          as_invariant_ok = invariant;
        };
      ];
    a_best_load_speedup = speedup;
    a_best_overlap_pct = overlap;
  }

let async = Bench.find "async"

let report ?invariant ~speedup ~overlap () =
  AB.to_json ~wall_ms:1.0 (fake_result ?invariant ~speedup ~overlap ())

let valid v = Result.is_ok (Bench.validate async v)

let test_make_async_validates () =
  let good = report ~speedup:2.5 ~overlap:70.0 () in
  check_bool "good report valid" true (valid good);
  (match Json.of_string (Json.to_string good) with
  | Ok parsed -> check_bool "parsed report valid" true (valid parsed)
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  check_bool "below-bar speedup rejected" false
    (valid (report ~speedup:1.2 ~overlap:70.0 ()));
  check_bool "below-bar overlap rejected" false
    (valid (report ~speedup:2.5 ~overlap:10.0 ()));
  check_bool "broken invariant rejected" false
    (valid (report ~invariant:false ~speedup:2.5 ~overlap:70.0 ()));
  check_bool "garbage rejected" false
    (valid (Json.Obj [ ("schema", Json.Str "x") ]))

(* the async gates are absolute bars on both sides, not drifts *)
let test_compare_async_gate () =
  let committed = report ~speedup:2.5 ~overlap:70.0 () in
  let passes ~committed fresh =
    Result.is_ok (Bench.compare async ~committed fresh)
  in
  check_bool "passing run accepted" true
    (passes ~committed (report ~speedup:2.0 ~overlap:55.0 ()));
  check_bool "fresh speedup under the absolute bar trips the gate" false
    (passes ~committed (report ~speedup:1.5 ~overlap:55.0 ()));
  check_bool "fresh overlap under the absolute bar trips the gate" false
    (passes ~committed (report ~speedup:2.0 ~overlap:20.0 ()));
  check_bool "under-bar committed artifact trips the gate" false
    (passes
       ~committed:(report ~speedup:1.1 ~overlap:70.0 ())
       (report ~speedup:2.0 ~overlap:55.0 ()))

let () =
  Alcotest.run "async-io"
    [
      ( "engine",
        [
          Alcotest.test_case "depth 1 is the blocking model" `Quick
            test_depth1_is_blocking;
          Alcotest.test_case "depth 1 is serial" `Quick test_depth1_is_serial;
          Alcotest.test_case "overlap at depth 4" `Quick test_overlap_at_depth4;
          Alcotest.test_case "queueing beyond depth" `Quick
            test_queueing_beyond_depth;
          Alcotest.test_case "channels independent" `Quick
            test_channels_are_independent;
          Alcotest.test_case "await idempotent, drain settles" `Quick
            test_await_idempotent_and_drain;
          Alcotest.test_case "write bytes persist at submit" `Quick
            test_write_bytes_persist_at_submit;
        ] );
      ("law", [ QCheck_alcotest.to_alcotest prop_async_eq_sync ]);
      ( "dbfs",
        [
          Alcotest.test_case "depth 1 is the blocking model" `Quick
            test_dbfs_depth1_is_blocking;
          Alcotest.test_case "warm == cold under async" `Quick
            test_dbfs_warm_eq_cold_under_async;
          Alcotest.test_case "outcomes match sync" `Quick
            test_dbfs_outcomes_match_sync;
        ] );
      ( "report",
        [
          Alcotest.test_case "make_async validates" `Quick
            test_make_async_validates;
          Alcotest.test_case "compare gate" `Quick test_compare_async_gate;
        ] );
    ]
