(* The submission/completion queues: engine arithmetic, depth 1 as the
   blocking model (the device's and DBFS's), the qcheck law (an op script
   produces identical images, payloads and counters at depths 1, 4 and 64
   — only the latency telemetry may differ), the streaming law of a read
   consumed while its blocks land, the DBFS warm==cold pin at depth 4,
   the DED's streamed two-phase loads against their blocking reference,
   and the BENCH_async_io.json artifact machinery (regression gate
   included). *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Json = Rgpdos_util.Json
module Prng = Rgpdos_util.Prng
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Fault_plan = Block_device.Fault_plan
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
  check_int "submits" 2 (counter queued "async_submits");
  check_int "completions" 2 (counter queued "async_completions");
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
(* engine: a queued read consumed while its blocks land               *)

(* Blocks land in elevator order at the rate the request is charged:
   [3; 4; 5] is one run and [9] a second, so block 3 lands one seek and
   one block after the start, 4 and 5 one block later each, and 9 one
   more seek and block later: at completion. *)
let test_await_blocks_streams () =
  let dev, clock = make_dev ~queue_depth:1 in
  Block_device.write_vec dev
    (List.map (fun i -> (i, Printf.sprintf "b%d" i)) [ 3; 4; 5; 9 ]);
  Block_device.reset_stats dev;
  let t0 = Clock.now clock in
  let tk = Block_device.submit_read_vec dev [ 9; 5; 4; 3 ] in
  let landed blocks =
    ignore (Block_device.await_blocks dev tk blocks);
    Clock.now clock - t0
  in
  check_int "block 4: a seek and two blocks" (10 + 32) (landed [ 4 ]);
  check_int "block 3 has landed already" (10 + 32) (landed [ 3 ]);
  check_int "block 5: one block later" (10 + 48) (landed [ 5 ]);
  check_int "block 9: a second seek, at completion" (20 + 64) (landed [ 9 ]);
  check_int "still outstanding" 1 (Block_device.outstanding dev);
  check_int "nothing completed yet" 0 (counter dev "async_completions");
  check_bool "the named blocks' bytes, ascending" true
    (match Block_device.await_blocks dev tk [ 5; 3 ] with
    | [ (3, a); (5, b) ] -> String.sub a 0 2 = "b3" && String.sub b 0 2 = "b5"
    | _ -> false);
  ignore (Block_device.await dev tk);
  check_int "the settle costs nothing more" (20 + 64) (Clock.now clock - t0);
  check_int "no compute, nothing hidden" 0 (counter dev "overlap_ns_hidden");
  check_int "settled" 0 (Block_device.outstanding dev);
  match Block_device.await_blocks dev tk [ 6 ] with
  | _ -> Alcotest.fail "a block outside the request must be refused"
  | exception Invalid_argument _ -> ()

(* The streaming law.  One queued read of a random block set (vectored
   or not, at depth 1, 4 or 64), consumed as consecutive groups of its
   blocks in elevator order with random compute before each, then
   settled:
   - the groups' bytes and the settle's payload are [read_vec]'s;
   - awaited one at a time with no compute, the blocks land at
     nondecreasing instants, each one seek per run and one transfer per
     block after the start up to and including its own, the last at
     completion;
   - the clock moves by the compute plus the service less what the
     device counts as hidden;
   - with no compute, the partial awaits and the settle cost exactly one
     [await]. *)
let stream_dev ~vectored ~queue_depth =
  let clock = Clock.create () in
  let dev =
    Block_device.create ~config:{ (async_config ~queue_depth) with vectored } ~clock ()
  in
  Block_device.write_vec dev (List.init 64 (fun i -> (i, Printf.sprintf "blk-%02d" i)));
  Block_device.reset_stats dev;
  (dev, clock)

(* [sorted] cut into consecutive nonempty groups before each of [cuts] *)
let groups_of sorted cuts =
  let cuts = List.sort_uniq compare cuts in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | b :: rest ->
        if List.mem k cuts && cur <> [] then go (List.rev cur :: acc) [ b ] (k + 1) rest
        else go acc (b :: cur) (k + 1) rest
  in
  go [] [] 0 sorted

let prop_stream_law =
  let gen =
    QCheck.Gen.(
      quad bool (oneofl [ 1; 4; 64 ])
        (list_size (int_range 1 24) (int_bound 63))
        (pair (list_size (int_bound 6) (int_bound 24)) (list_repeat 26 (int_bound 60))))
  in
  let print (vectored, depth, blocks, (cuts, _)) =
    Printf.sprintf "vectored=%b depth=%d blocks=[%s] cuts=[%s]" vectored depth
      (String.concat ";" (List.map string_of_int blocks))
      (String.concat ";" (List.map string_of_int cuts))
  in
  QCheck.Test.make ~count:300
    ~name:"await_blocks: bytes, arrival order, clock = compute + service - hidden"
    (QCheck.make ~print gen)
    (fun (vectored, queue_depth, blocks, (cuts, computes)) ->
      let sorted = List.sort_uniq compare blocks in
      let groups = groups_of sorted cuts in
      let expected =
        let dev, _ = stream_dev ~vectored ~queue_depth in
        Block_device.read_vec dev blocks
      in
      (* consume [groups] with [compute k] before group k and before the
         settle: (the groups' bytes, the payload, clock delta, service,
         hidden, total compute) *)
      let run compute =
        let dev, clock = stream_dev ~vectored ~queue_depth in
        let t0 = Clock.now clock in
        let tk = Block_device.submit_read_vec dev blocks in
        let total = ref 0 in
        let think k =
          Clock.advance clock (compute k);
          total := !total + compute k
        in
        let parts =
          List.concat
            (List.mapi
               (fun k g ->
                 think k;
                 Block_device.await_blocks dev tk g)
               groups)
        in
        think (List.length groups);
        let payload = Block_device.await dev tk in
        ( parts,
          payload,
          Clock.now clock - t0,
          counter dev "async_service_ns",
          counter dev "overlap_ns_hidden",
          !total )
      in
      let parts, payload, delta, service, hidden, compute =
        run (fun k -> List.nth computes k)
      in
      let parts0, _, delta0, _, _, _ = run (fun _ -> 0) in
      let one_await =
        let dev, clock = stream_dev ~vectored ~queue_depth in
        let t0 = Clock.now clock in
        ignore (Block_device.await dev (Block_device.submit_read_vec dev blocks));
        Clock.now clock - t0
      in
      let arrivals =
        let dev, clock = stream_dev ~vectored ~queue_depth in
        let t0 = Clock.now clock in
        let tk = Block_device.submit_read_vec dev blocks in
        List.map
          (fun b ->
            ignore (Block_device.await_blocks dev tk [ b ]);
            Clock.now clock - t0)
          sorted
      in
      let formula =
        List.mapi
          (fun j b ->
            let runs =
              if vectored then
                List.length
                  (List.filteri
                     (fun i b' -> i <= j && not (List.mem (b' - 1) sorted))
                     sorted)
              else j + 1
            in
            ignore b;
            (10 * runs) + (16 * (j + 1)))
          sorted
      in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      parts = expected && parts0 = expected && payload = expected
      && arrivals = formula && nondecreasing arrivals
      && List.nth arrivals (List.length arrivals - 1) = service
      && delta = compute + service - hidden
      && delta0 = one_await && one_await = service)

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
      | 0 | 1 | 2 | 3 | 4 -> Read (ch, indices ())
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
   exactly one blocking [read_vec] of the batch's blocks plus the
   per-entry checksum charges, cold and warm alike: a cached entry skips
   only its decode. *)
let test_dbfs_depth1_is_blocking () =
  let t, dev, clock = setup_dbfs ~queue_depth:1 in
  let pds =
    List.init 6 (fun i -> insert_user t ~subject:(Printf.sprintf "b%d" i) ~pwd:"pw")
  in
  let blocks pick =
    List.concat_map
      (fun pd -> (pick (ok (Dbfs.entry_extents t ~actor:ded pd))).Space.blocks)
      pds
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
  (* a cached entry's page is read in the same chunk as on the cold
     fetch, so the pipeline hides the same amount of service both
     times *)
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
    ok (Dbfs.delete t ~actor:ded [ List.nth pds 3 ]);
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

(* A commit's payload write is in flight while its journal record
   flushes.  At depth 1 and window 1 a heap rectification costs
   max(payload write, head-block read + flush) + destruction: exactly
   one write service below the serial sum of its device requests, and
   that service is what the device counts as hidden. *)
let test_dbfs_commit_overlaps_payload () =
  let clock = Clock.create () in
  let dev = Block_device.create ~clock () in
  let t = Dbfs.format dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let pds =
    List.init 6 (fun i ->
        insert_user t ~subject:(Printf.sprintf "c%d" i) ~pwd:"pw")
  in
  let cfg = Block_device.config dev in
  let block_ns base = base + (cfg.Block_device.block_size * cfg.byte_latency) in
  let write_1 = block_ns cfg.write_latency in
  let read_1 = block_ns cfg.read_latency in
  let names = [ "write_ops"; "bytes_written"; "reads"; "overlap_ns_hidden" ] in
  List.iter
    (fun pd ->
      let before = List.map (counter dev) names in
      let t0 = Clock.now clock in
      ok
        (Dbfs.update_record t ~actor:ded pd
           [ ("name", Value.VString pd); ("pwd", Value.VString "rectified") ]);
      let delta = Clock.now clock - t0 in
      let writes, bytes, reads, hidden =
        match
          List.map2 (fun name n -> counter dev name - n) names before
        with
        | [ w; b; r; h ] -> (w, b, r, h)
        | _ -> assert false
      in
      check_int "payload write, flush, destruction" 3 writes;
      check_int "one block each" (3 * cfg.block_size) bytes;
      check_bool "at most the flush's head-block read" true (reads <= 1);
      check_int "one write service below the serial sum"
        ((writes * write_1) + (reads * read_1) - write_1)
        delta;
      check_int "the payload write is hidden" write_1 hidden;
      check_int "nothing outstanding" 0 (Block_device.outstanding dev))
    pds

(* The cost law of packed pages.  On the heap at depth 1 and window 1,
   destroying a superseded slot rewrites its page, and the page read that
   needs is submitted on a channel of its own when the commit starts, so
   it hides behind the payload write: a consent change (the membrane load
   and its rewrite), a rectification and a DED erasure (withdraw + seal)
   of a pd whose pages hold live neighbours cost no more than they did at
   one extent per block — R + W + W, W + W and 2R + 2W(2 runs) + 2W(2
   runs), checksum charges included — whether the pd sits in closed pages
   (a destruction read happens) or in its zones' open pages (the images
   serve).  Nothing is left outstanding. *)
let test_dbfs_packed_cost_law () =
  let clock = Clock.create () in
  let dev = Block_device.create ~clock () in
  let t = Dbfs.format dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let pds =
    Array.init 150 (fun i ->
        insert_user t ~subject:(Printf.sprintf "p%03d" i) ~pwd:"pw")
  in
  let page pd pick = List.hd (pick (ok (Dbfs.entry_extents t ~actor:ded pd))).Space.blocks in
  let shares pd pick =
    Array.exists (fun o -> o <> pd && page o pick = page pd pick) pds
  in
  let consent pd =
    let m = List.assoc pd (ok (Dbfs.get_membranes t ~actor:ded [ pd ])) in
    ok (Dbfs.update_membrane t ~actor:ded pd (M.withdraw m ~purpose:"service"))
  in
  let rectify pd =
    ok
      (Dbfs.update_record t ~actor:ded pd
         [ ("name", Value.VString pd); ("pwd", Value.VString "rectified") ])
  in
  let erase pd =
    ignore
      (ok
         (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pd ]
            ~seal:(fun _ -> "sealed")))
  in
  let cases =
    [ ("consent", consent, 74_579, 5, 147); ("rectification", rectify, 56_384, 6, 148);
      ("DED erasure", erase, 149_156, 7, 149) ]
  in
  List.iter
    (fun (name, op, bound, closed, opened) ->
      List.iter
        (fun (where, i) ->
          let pd = pds.(i) in
          let at what = Printf.sprintf "%s, %s pd: %s" name where what in
          check_bool (at "its record page holds a neighbour") true (shares pd fst);
          check_bool (at "its membrane page holds a neighbour") true (shares pd snd);
          let reads = counter dev "reads" and t0 = Clock.now clock in
          op pd;
          let cost = Clock.now clock - t0 in
          check_bool (Printf.sprintf "%s: %d sim-ns <= %d" (at "cost") cost bound)
            true (cost <= bound);
          if where = "closed-page" then
            check_bool (at "the destruction read its page") true
              (counter dev "reads" - reads > (if name = "rectification" then 0 else 1));
          check_int (at "nothing outstanding") 0 (Block_device.outstanding dev))
        [ ("closed-page", closed); ("open-page", opened) ])
    cases;
  (* On segments an erasure purges the dirty set; here only its own two
     superseded slots, whose pages are read with the commit too. *)
  let clock = Clock.create () in
  let dev = Block_device.create ~clock () in
  let t = Dbfs.format ~allocator:Space.segments dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let pds =
    Array.init 150 (fun i ->
        insert_user t ~subject:(Printf.sprintf "q%03d" i) ~pwd:"pw")
  in
  List.iter
    (fun (where, i) ->
      let at what = Printf.sprintf "segments, DED erasure, %s pd: %s" where what in
      let t0 = Clock.now clock in
      ignore
        (ok
           (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pds.(i) ]
              ~seal:(fun _ -> "sealed")));
      let cost = Clock.now clock - t0 in
      check_bool (Printf.sprintf "%s: %d sim-ns <= 149156" (at "cost") cost) true
        (cost <= 149_156);
      check_int (at "nothing outstanding") 0 (Block_device.outstanding dev))
    [ ("closed-page", 7); ("open-page", 149) ]

(* The cost law of a batched sweep.  On the heap at depth 1 and window 1,
   a TTL sweep of k due pds — any k whose journal record fits one chunk —
   is the expiry probe, two batched loads (the membranes it re-checks,
   the records it seals: one request each, however many pds), one commit
   (one payload write, one journal flush) and one destruction (its page
   read hidden behind the payload write, then one write): the requests
   of a sweep of one pd, each pd's slots read once — plus, when the
   longer record ends in a new ring block, the flush's read of it.
   Before batching every pd paid its own loads, commit and
   destruction. *)
let test_sweep_cost_law () =
  let sweep k =
    let clock = Clock.create () in
    let dev = Block_device.create ~clock () in
    let t = Dbfs.format dev ~journal_blocks:64 in
    ok (Dbfs.create_type t ~actor:ded (user_schema ()));
    let insert subject ~created_at =
      ok
        (Dbfs.insert t ~actor:ded ~subject ~type_name:"user"
           ~record:[ ("name", Value.VString subject); ("pwd", Value.VString "pw") ]
           ~membrane_of:(fun ~pd_id ->
             M.make ~pd_id ~type_name:"user" ~subject_id:subject
               ~origin:M.Subject ~consents:[ ("service", M.All) ] ~created_at
               ~ttl:Clock.year ~sensitivity:M.High ()))
    in
    (* the due pds come first, so their pages are closed and hold live
       neighbours: the destruction reads them *)
    let due = List.init k (fun i -> insert (Printf.sprintf "due%d" i) ~created_at:0) in
    for i = 0 to 149 do
      ignore (insert (Printf.sprintf "n%03d" i) ~created_at:Clock.day)
    done;
    let dbfs_counter name = Stats.Counter.get (Dbfs.stats t) name in
    let before =
      List.map (counter dev) [ "vec_reads"; "vec_writes" ]
      @ List.map dbfs_counter [ "membrane_reads"; "record_reads" ]
    in
    let rep =
      Rgpdos_gdpr.Ttl_sweeper.sweep ~dbfs:t ~audit:(Rgpdos_audit.Audit_log.create ())
        ~now:Clock.year
        ~seal:(fun _ -> "sealed")
        ()
    in
    let after =
      List.map (counter dev) [ "vec_reads"; "vec_writes" ]
      @ List.map dbfs_counter [ "membrane_reads"; "record_reads" ]
    in
    check_int (Printf.sprintf "k=%d: every due pd removed" k) k
      rep.Rgpdos_gdpr.Ttl_sweeper.removed;
    List.iter
      (fun pd ->
        check_bool (Printf.sprintf "k=%d: %s erased" k pd) true
          (Dbfs.get_record t ~actor:ded pd = Error (Dbfs.Erased pd)))
      due;
    check_int (Printf.sprintf "k=%d: nothing outstanding" k) 0
      (Block_device.outstanding dev);
    List.map2 ( - ) after before
  in
  match sweep 1 with
  | [ reads; writes; membranes; records ] ->
      check_int "one pd: payload write, flush, destruction" 3 writes;
      check_int "one pd: probe, two loads, destruction read" 4 reads;
      check_int "one pd: one membrane" 1 membranes;
      check_int "one pd: one record" 1 records;
      List.iter
        (fun k ->
          match sweep k with
          | [ reads'; writes'; membranes'; records' ] ->
              let at what = Printf.sprintf "k=%d: %s" k what in
              check_int (at "the requests of a sweep of one, writes") writes writes';
              (* a longer record may end in a ring block the last flush
                 did not, which the flush reads first *)
              check_bool (at "the reads of a sweep of one, or the flush's ring block")
                true
                (reads' = reads || reads' = reads + 1);
              check_int (at "each membrane read once") k membranes';
              check_int (at "each record read once") k records'
          | _ -> Alcotest.fail "counter shape")
        [ 2; 3; 6; 12; 20 ]
  | _ -> Alcotest.fail "counter shape"

(* Every commit settles its payload ticket: at window 1 nothing is
   outstanding after any mutation of a mixed script, on the heap and on
   one-block segments (so the few packed pages seal and the compactor has
   victims) — through appends that overflow the small ring into a
   checkpoint, a compaction, a rectification whose flush fails once and
   is retried, and a last one whose flush fails every retry, so its
   append raises and the store turns read-only. *)
let test_dbfs_commits_settle ~allocator () =
  let clock = Clock.create () in
  let dev =
    Block_device.create
      ~config:{ (dbfs_config ~queue_depth:1) with block_count = 2048 }
      ~clock ()
  in
  let t = Dbfs.format ~allocator dev ~journal_blocks:16 in
  let settled what =
    check_int (what ^ ": nothing outstanding") 0 (Block_device.outstanding dev)
  in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  settled "create_type";
  let pds =
    List.init 40 (fun i ->
        let pd = insert_user t ~subject:(Printf.sprintf "m%d" i) ~pwd:"pw" in
        settled "insert";
        pd)
  in
  let rectify pd v =
    ok
      (Dbfs.update_record t ~actor:ded pd
         [ ("name", Value.VString pd); ("pwd", Value.VString v) ])
  in
  List.iter
    (fun pd ->
      rectify pd "v1";
      settled "update_record";
      let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
      ok (Dbfs.update_membrane t ~actor:ded pd (M.withdraw_all m));
      settled "update_membrane")
    pds;
  (* the rectification's second write op is its journal flush *)
  let retries () = Stats.Counter.get (Dbfs.stats t) "fault_retries" in
  let r0 = retries () in
  let plan = Fault_plan.create () in
  Fault_plan.on_write plan ~nth:2 (Fault_plan.Fail_write { transient = true });
  Block_device.set_fault_plan dev (Some plan);
  rectify (List.hd pds) "after-a-failed-flush";
  Block_device.set_fault_plan dev None;
  check_int "the flush was retried" 1 (retries () - r0);
  settled "a rectification whose flush is retried";
  check_bool "the retried rectification applied" true
    (ok (Dbfs.get_record t ~actor:ded (List.hd pds))
    = [
        ("name", Value.VString (List.hd pds));
        ("pwd", Value.VString "after-a-failed-flush");
      ]);
  List.iteri
    (fun i pd ->
      if i mod 3 = 0 then begin
        ignore
          (ok
             (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pd ]
                ~seal:(fun _ -> "sealed")));
        settled "erase_with"
      end
      else if i mod 3 = 1 then begin
        ok (Dbfs.delete t ~actor:ded [ pd ]);
        settled "delete"
      end)
    pds;
  let moved () = Stats.Counter.get (Dbfs.stats t) "compact_relocations" in
  let m0 = moved () in
  ignore (Dbfs.compact t ~max_victims:64 ~liveness_pct:100.0);
  settled "compact";
  if allocator <> Space.Heap then
    check_bool "the compaction relocated survivors" true (moved () > m0);
  check_bool "fsck clean" true (Dbfs.fsck t = Ok ());
  check_bool "an append overflowed into a checkpoint" true
    (Dbfs.entry_page_blocks t <> []);
  let plan = Fault_plan.create () in
  List.iter
    (fun nth ->
      Fault_plan.on_write plan ~nth (Fault_plan.Fail_write { transient = true }))
    [ 2; 3; 4; 5 ];
  Block_device.set_fault_plan dev (Some plan);
  (match
     Dbfs.update_record t ~actor:ded (List.nth pds 2)
       [ ("name", Value.VString "x"); ("pwd", Value.VString "never") ]
   with
  | Error (Dbfs.Degraded _) -> ()
  | _ -> Alcotest.fail "expected the failed flush to degrade the store");
  settled "a rectification whose flush fails every retry"

(* ------------------------------------------------------------------ *)
(* the DED's streamed two-phase loads                                 *)

module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Audit_log = Rgpdos_audit.Audit_log

let stream_schema () =
  match
    Schema.make ~name:"user"
      ~fields:
        [
          { Schema.fname = "name"; ftype = Value.TString; required = true };
          { Schema.fname = "yob"; ftype = Value.TInt; required = true };
        ]
      ~views:[ { Schema.vname = "v_ano"; vfields = [ "yob" ] } ]
      ~default_sensitivity:M.High ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A store of [n] pds (4 KiB blocks at [queue_depth]; with [free] a
   device that charges nothing), each with a consent drawn from [seed]
   for "analytics" and "marketing" (all, the view, denied); one pd in
   eleven is erased without withdrawing its consents, so its membrane
   may grant while its record reads nothing.  No checkpoint happens, so
   resolving a pd reads no page. *)
let stream_store ?(free = false) ~queue_depth ~seed n =
  let cfg = { Block_device.default_config with queue_depth } in
  let cfg =
    if free then { cfg with read_latency = 0; write_latency = 0; byte_latency = 0 } else cfg
  in
  let clock = Clock.create () in
  let dev = Block_device.create ~config:cfg ~clock () in
  let t = Dbfs.format dev ~journal_blocks:512 in
  ok (Dbfs.create_type t ~actor:ded (stream_schema ()));
  let prng = Prng.create ~seed:(Int64.of_int seed) () in
  let scope () =
    match Prng.int prng 3 with 0 -> M.All | 1 -> M.View "v_ano" | _ -> M.Denied
  in
  let pds =
    List.init n (fun i ->
        let subject = Printf.sprintf "s%04d" i in
        let consents = [ ("analytics", scope ()); ("marketing", scope ()) ] in
        ok
          (Dbfs.insert t ~actor:ded ~subject ~type_name:"user"
             ~record:[ ("name", Value.VString subject); ("yob", Value.VInt (1950 + (i mod 50))) ]
             ~membrane_of:(fun ~pd_id ->
               M.make ~pd_id ~type_name:"user" ~subject_id:subject ~origin:M.Subject
                 ~consents ~created_at:0 ~sensitivity:M.High ())))
  in
  ignore
    (ok
       (Dbfs.erase_with t ~actor:ded
          (List.filteri (fun i _ -> i mod 11 = 5) pds)
          ~seal:(fun _ -> "sealed")));
  if Dbfs.entry_page_blocks t <> [] then Alcotest.fail "the store checkpointed";
  (t, dev, clock)

(* A processing for [purpose] whose body records the inputs it is shown
   and returns their count. *)
let recording_reader purpose seen =
  Processing.make ~name:"reader"
    ~purpose:
      {
        Rgpdos_lang.Ast.p_name = purpose;
        p_description = "streamed-load law";
        p_reads = [ ("user", None) ];
        p_produces = None;
        p_legal_basis = Rgpdos_lang.Ast.Consent;
      }
    ~cpu_cost_per_record:700
    (fun _ inputs ->
      seen := inputs;
      Ok (Processing.value_output (Value.VInt (List.length inputs))))

let io_counters = [ "vec_reads"; "merged_runs"; "reads"; "bytes_read" ]

(* One invocation on a fresh store: the outcome (or error), the body's
   inputs, the Filtered_out pd ids and Processed inputs it audited, the
   clock delta and the deltas of [names]. *)
let invoke ?free ?(flip = fun _ _ -> ()) ~queue_depth ~seed ~n ~purpose ~refs names =
  let t, dev, clock = stream_store ?free ~queue_depth ~seed n in
  let pds = ok (Dbfs.list_pds t ~actor:ded "user") in
  let t =
    (* a cold store, so every slot is checked against the medium *)
    match Dbfs.crash_and_remount t with Ok t -> t | Error e -> Alcotest.fail e
  in
  flip t dev;
  let audit = Audit_log.create () in
  let d = Ded.create ~clock ~dbfs:t ~audit () in
  let seen = ref [] in
  let before = List.map (counter dev) names and t0 = Clock.now clock in
  let result =
    Ded.execute d ~processing:(recording_reader purpose seen) ~target:(Ded.Pd_refs (refs pds)) ()
  in
  let delta = Clock.now clock - t0 in
  let deltas = List.map2 (fun name n -> counter dev name - n) names before in
  let filtered, processed =
    List.fold_right
      (fun (e : Audit_log.entry) (f, p) ->
        match e.Audit_log.event with
        | Audit_log.Filtered_out { pd_id; _ } -> (pd_id :: f, p)
        | Audit_log.Processed { inputs; _ } -> (f, inputs :: p)
        | _ -> (f, p))
      (Audit_log.entries audit) ([], [])
  in
  (t, dev, result, !seen, filtered, processed, delta, deltas)

(* The DED law.  Populations of 1-1,200 pds (pieces of 256 straddled),
   mixed consents, either purpose, depth 1, 4 or 64, the pds in order or
   shuffled:
   - the outcome, the order of the Filtered_out entries, the Processed
     inputs and the body's inputs are those of a reference built from
     [get_membranes], [Membrane.decide] and [get_records] (overread 0);
   - the device requests are the reference's: one per kind per depth
     chunk, the same blocks and runs;
   - the clock moves by the compute charges (the same invocation on a
     device that charges nothing) plus the service submitted less what
     the device counts as hidden. *)
let prop_ded_stream =
  let gen =
    QCheck.Gen.(
      quad
        (oneof [ int_range 1 300; int_range 240 1200 ])
        (oneofl [ 1; 4; 64 ])
        (oneofl [ "analytics"; "marketing" ])
        (pair bool (int_bound 1_000_000)))
  in
  let print (n, depth, purpose, (shuffled, seed)) =
    Printf.sprintf "n=%d depth=%d purpose=%s shuffled=%b seed=%d" n depth purpose shuffled
      seed
  in
  QCheck.Test.make ~count:25 ~long_factor:10
    ~name:"streamed two-phase loads == get_membranes/decide/get_records"
    (QCheck.make ~print gen)
    (fun (n, queue_depth, purpose, (shuffled, seed)) ->
      let refs pds =
        if shuffled then begin
          let a = Array.of_list pds in
          Prng.shuffle (Prng.create ~seed:(Int64.of_int (seed + 1)) ()) a;
          Array.to_list a
        end
        else pds
      in
      let names = io_counters @ [ "async_service_ns"; "overlap_ns_hidden" ] in
      let _, dev, result, seen, filtered, processed, delta, deltas =
        invoke ~queue_depth ~seed ~n ~purpose ~refs names
      in
      let t0, dev0, _, _, _, _, compute, _ =
        invoke ~free:true ~queue_depth ~seed ~n ~purpose ~refs []
      in
      let outcome = match result with Ok o -> o | Error e -> Alcotest.fail (Ded.error_to_string e) in
      (* the reference, on the free twin *)
      let refs = refs (ok (Dbfs.list_pds t0 ~actor:ded "user")) in
      let before = List.map (counter dev0) io_counters in
      let membranes = ok (Dbfs.get_membranes t0 ~actor:ded refs) in
      let decided =
        List.map (fun (pd, m) -> (pd, m, M.decide m ~purpose ~now:0)) membranes
      in
      let granted =
        List.filter_map
          (fun (pd, m, d) -> match d with M.Granted scope -> Some (pd, m, scope) | _ -> None)
          decided
      in
      let refused =
        List.filter_map (fun (pd, _, d) -> match d with M.Refused _ -> Some pd | _ -> None) decided
      in
      let records = ok (Dbfs.get_records t0 ~actor:ded (List.map (fun (pd, _, _) -> pd) granted)) in
      let schema = stream_schema () in
      let inputs =
        List.filter_map
          (fun ((pd_id, m, scope), (_, r)) ->
            Option.map
              (fun r ->
                {
                  Processing.pd_id;
                  subject = m.M.subject_id;
                  record = Record.project r (Schema.view_fields schema scope);
                })
              r)
          (List.combine granted records)
      in
      let reference_io = List.map2 (fun name n -> counter dev0 name - n) io_counters before in
      let service, hidden =
        match List.rev deltas with h :: s :: _ -> (s, h) | _ -> assert false
      in
      outcome.Ded.value = Some (Value.VInt (List.length inputs))
      && outcome.Ded.consumed = List.length inputs
      && outcome.Ded.filtered = List.length refused
      && outcome.Ded.overread = 0
      && filtered = refused
      && processed = [ List.map (fun (i : Processing.pd_input) -> i.pd_id) inputs ]
      && seen = inputs
      && List.filteri (fun i _ -> i < 4) deltas = reference_io
      && delta = compute + service - hidden
      && Block_device.outstanding dev = 0)

(* A bit flipped in a membrane slot of the third piece: the invocation
   fails with a storage error before it audits anything, and leaves no
   request of the batch outstanding. *)
let test_ded_stream_membrane_fault () =
  List.iter
    (fun queue_depth ->
      let at what = Printf.sprintf "depth %d: %s" queue_depth what in
      let flip t dev =
        let pd = List.nth (ok (Dbfs.list_pds t ~actor:ded "user")) 600 in
        let _, m = ok (Dbfs.entry_extents t ~actor:ded pd) in
        Block_device.unsafe_flip dev ~block:(List.hd m.Space.blocks) ~byte:(m.Space.off + 3)
          ~bit:2
      in
      let _, dev, result, _, filtered, processed, _, _ =
        invoke ~flip ~queue_depth ~seed:7 ~n:800 ~purpose:"analytics" ~refs:Fun.id []
      in
      check_bool (at "a storage error") true
        (match result with Error (Ded.Storage_error _) -> true | _ -> false);
      check_int (at "no Filtered_out entry") 0 (List.length filtered);
      check_int (at "no Processed entry") 0 (List.length processed);
      check_int (at "nothing outstanding") 0 (Block_device.outstanding dev))
    [ 1; 4 ]

(* A bit flipped in the record slot of the last granted pd: the outcome
   of a blocking load — the refusals audited, a storage error, nothing
   processed — and no request left outstanding. *)
let test_ded_stream_record_fault () =
  List.iter
    (fun queue_depth ->
      let at what = Printf.sprintf "depth %d: %s" queue_depth what in
      let flip t dev =
        let pds = ok (Dbfs.list_pds t ~actor:ded "user") in
        let last =
          List.fold_left
            (fun acc (pd, m) ->
              match (M.decide m ~purpose:"analytics" ~now:0, Dbfs.entry_info t ~actor:ded pd) with
              | M.Granted _, Ok (_, _, false) -> Some pd
              | _ -> acc)
            None
            (ok (Dbfs.get_membranes t ~actor:ded pds))
        in
        let r, _ = ok (Dbfs.entry_extents t ~actor:ded (Option.get last)) in
        Block_device.unsafe_flip dev ~block:(List.hd r.Space.blocks) ~byte:(r.Space.off + 3)
          ~bit:2
      in
      let _, dev, result, _, filtered, processed, _, _ =
        invoke ~flip ~queue_depth ~seed:7 ~n:800 ~purpose:"analytics" ~refs:Fun.id []
      in
      check_bool (at "a storage error") true
        (match result with Error (Ded.Storage_error _) -> true | _ -> false);
      check_bool (at "the refusals audited") true (filtered <> []);
      check_int (at "no Processed entry") 0 (List.length processed);
      check_int (at "nothing outstanding") 0 (Block_device.outstanding dev))
    [ 1; 4 ]

(* The record batch reuses the membrane batch's resolution: on a
   remounted checkpointed store, where resolving pds reads entries-tree
   pages, an invocation reads the pages of one descent, as one
   [get_membranes] of its pds does. *)
let test_ded_stream_one_descent () =
  let t, _, clock = stream_store ~queue_depth:1 ~seed:3 600 in
  Dbfs.checkpoint t;
  let t = match Dbfs.crash_and_remount t with Ok t -> t | Error e -> Alcotest.fail e in
  let pds = ok (Dbfs.list_pds t ~actor:ded "user") in
  let pages f =
    let count () = Stats.Counter.get (Dbfs.stats t) "index_page_reads" in
    let before = count () in
    f ();
    count () - before
  in
  let descent = pages (fun () -> ignore (ok (Dbfs.get_membranes t ~actor:ded pds))) in
  check_bool "resolving the batch reads pages" true (descent > 0);
  let d = Ded.create ~clock ~dbfs:t ~audit:(Audit_log.create ()) () in
  let invocation =
    pages (fun () ->
        match
          Ded.execute d ~processing:(recording_reader "analytics" (ref []))
            ~target:(Ded.Pd_refs pds) ()
        with
        | Ok o -> check_bool "records granted" true (o.Ded.consumed > 0)
        | Error e -> Alcotest.fail (Ded.error_to_string e))
  in
  check_int "one descent for both batches" descent invocation

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
          Alcotest.test_case "await_blocks streams a read" `Quick
            test_await_blocks_streams;
        ] );
      ( "law",
        [
          QCheck_alcotest.to_alcotest prop_async_eq_sync;
          QCheck_alcotest.to_alcotest prop_stream_law;
        ] );
      ( "dbfs",
        [
          Alcotest.test_case "depth 1 is the blocking model" `Quick
            test_dbfs_depth1_is_blocking;
          Alcotest.test_case "warm == cold under async" `Quick
            test_dbfs_warm_eq_cold_under_async;
          Alcotest.test_case "outcomes match sync" `Quick
            test_dbfs_outcomes_match_sync;
          Alcotest.test_case "packed pages keep every write path's cost" `Quick
            test_dbfs_packed_cost_law;
          Alcotest.test_case "a commit overlaps its payload write" `Quick
            test_dbfs_commit_overlaps_payload;
          Alcotest.test_case "a k-pd sweep costs a sweep of one" `Quick
            test_sweep_cost_law;
          Alcotest.test_case "every commit settles (heap)" `Quick
            (test_dbfs_commits_settle ~allocator:Space.Heap);
          Alcotest.test_case "every commit settles (segments)" `Quick
            (test_dbfs_commits_settle ~allocator:(Space.Segments 1));
        ] );
      ( "ded",
        [
          QCheck_alcotest.to_alcotest prop_ded_stream;
          Alcotest.test_case "a bad membrane fails before any audit" `Quick
            test_ded_stream_membrane_fault;
          Alcotest.test_case "a bad record fails after the refusals" `Quick
            test_ded_stream_record_fault;
          Alcotest.test_case "both batches resolve in one descent" `Quick
            test_ded_stream_one_descent;
        ] );
      ( "report",
        [
          Alcotest.test_case "make_async validates" `Quick
            test_make_async_validates;
          Alcotest.test_case "compare gate" `Quick test_compare_async_gate;
        ] );
    ]
