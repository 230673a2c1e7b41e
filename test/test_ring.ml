(* Direct unit and property tests of the shared journal ring (both
   filesystems sit on it, so its replay/checkpoint semantics deserve their
   own coverage). *)

module Clock = Rgpdos_util.Clock
module Block_device = Rgpdos_block.Block_device
module Ring = Rgpdos_block.Journal_ring
module Prng = Rgpdos_util.Prng
module Stats = Rgpdos_util.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_ring ?(num_blocks = 8) () =
  let clock = Clock.create () in
  let dev =
    Block_device.create
      ~config:
        {
          Block_device.block_size = 128;
          block_count = 64;
          read_latency = 1;
          write_latency = 1;
          byte_latency = 0;
          vectored = true;
          queue_depth = 1;
        }
      ~clock ()
  in
  (Ring.create dev ~counters:(Stats.Counter.create ()) ~start_block:2
     ~num_blocks,
   dev)

let attach dev = Ring.attach dev ~counters:(Stats.Counter.create ())

let no_overflow () = Alcotest.fail "unexpected ring overflow"

let test_append_replay_roundtrip () =
  let ring, dev = make_ring () in
  let payloads = [ "alpha"; "beta"; "gamma with spaces"; "" ] in
  List.iter (Ring.append ring ~on_overflow:no_overflow) payloads;
  check_int "live records" 4 (fst (Ring.live ring));
  (* replay from a fresh attach at position 0 *)
  let reader = attach dev ~start_block:2 ~num_blocks:8 ~head:0 ~seq:0 in
  let seen = ref [] in
  let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
  Alcotest.(check (list string)) "replayed in order" payloads (List.rev !seen);
  check_int "summary counts records" 4 summary.Ring.records_replayed;
  check_bool "clean stop" true (summary.Ring.stop_reason = Ring.Clean)

let test_replay_from_checkpoint_position () =
  let ring, dev = make_ring () in
  Ring.append ring ~on_overflow:no_overflow "before";
  let head = Ring.head ring and seq = Ring.seq ring in
  Ring.append ring ~on_overflow:no_overflow "after-1";
  Ring.append ring ~on_overflow:no_overflow "after-2";
  let reader = attach dev ~start_block:2 ~num_blocks:8 ~head ~seq in
  let seen = ref [] in
  let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
  Alcotest.(check (list string)) "only post-checkpoint records"
    [ "after-1"; "after-2" ] (List.rev !seen);
  check_int "summary counts records" 2 summary.Ring.records_replayed

let test_overflow_triggers_checkpoint_callback () =
  let ring, _ = make_ring ~num_blocks:2 () in
  (* 2 * 128 = 256 bytes of ring; 64-byte payloads + ~30B framing *)
  let checkpoints = ref 0 in
  let on_overflow () =
    incr checkpoints;
    Ring.mark_checkpointed ring
  in
  for _ = 1 to 10 do
    Ring.append ring ~on_overflow (String.make 64 'x')
  done;
  check_bool "overflow fired" true (!checkpoints > 0)

let test_record_too_large () =
  let ring, _ = make_ring ~num_blocks:1 () in
  Alcotest.check_raises "oversized record"
    (Failure "Journal_ring: record larger than ring") (fun () ->
      Ring.append ring ~on_overflow:no_overflow (String.make 1000 'x'))

let test_overflow_handler_must_checkpoint () =
  let ring, _ = make_ring ~num_blocks:1 () in
  Alcotest.check_raises "bad handler"
    (Failure "Journal_ring: overflow handler did not checkpoint") (fun () ->
      for _ = 1 to 10 do
        Ring.append ring ~on_overflow:(fun () -> ()) (String.make 64 'x')
      done)

let test_replay_stops_at_garbage () =
  let ring, dev = make_ring () in
  (* enough records that some land in device block 4 (ring bytes 256+) *)
  for i = 1 to 10 do
    Ring.append ring ~on_overflow:no_overflow (Printf.sprintf "good-%02d" i)
  done;
  (* clobber a block in the middle of the appended records *)
  Block_device.write_vec dev [ (4, String.make 128 'Z') ];
  let reader = attach dev ~start_block:2 ~num_blocks:8 ~head:0 ~seq:0 in
  let seen = ref 0 in
  let summary = Ring.replay reader (fun _ -> incr seen) in
  check_bool "stops without crashing" true (!seen < 10);
  check_int "summary agrees with callback count" !seen
    summary.Ring.records_replayed;
  check_bool "damage reported, not clean" true
    (summary.Ring.stop_reason <> Ring.Clean)

let test_scrub_zeroes_dead_blocks () =
  let ring, dev = make_ring () in
  Ring.append ring ~on_overflow:no_overflow "SECRET-IN-RING";
  check_bool "present before scrub" true
    (Block_device.scan dev "SECRET-IN-RING" <> []);
  Ring.mark_checkpointed ring;
  Ring.scrub ring;
  check_int "scrubbed" 0 (List.length (Block_device.scan dev "SECRET-IN-RING"))

let test_scrub_preserves_live_records () =
  let ring, dev = make_ring () in
  Ring.append ring ~on_overflow:no_overflow "dead-record";
  Ring.mark_checkpointed ring;
  let head = Ring.head ring and seq = Ring.seq ring in
  Ring.append ring ~on_overflow:no_overflow "LIVE-RECORD";
  Ring.scrub ring;
  check_bool "live survives" true (Block_device.scan dev "LIVE-RECORD" <> []);
  (* and it still replays from the checkpoint position *)
  let reader = attach dev ~start_block:2 ~num_blocks:8 ~head ~seq in
  let seen = ref [] in
  let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
  Alcotest.(check (list string)) "live replays" [ "LIVE-RECORD" ] !seen;
  check_bool "clean stop after scrub" true
    (summary.Ring.stop_reason = Ring.Clean)

(* A flush that wraps the ring is two runs: the ring's first block (the
   frame's tail) and its last (the frame's head).  Torn after the first
   run, with the power cut on that op, the frame reaches the medium
   without its head, over the previous lap's bytes: replay must return
   every earlier record and stop at the damage. *)
let test_torn_wrapping_flush () =
  let ring, dev = make_ring ~num_blocks:4 () in
  let cap = Ring.capacity ring in
  let overhead = cap - Ring.max_payload ring in
  (* lap 1: one frame filling the ring, so lap 2 runs over stale bytes *)
  Ring.append ring ~on_overflow:no_overflow
    (String.make (Ring.max_payload ring) 'x');
  let ckpt = ref (0, 0) in
  let checkpoint () =
    ckpt := (Ring.head ring, Ring.seq ring);
    Ring.mark_checkpointed ring
  in
  let payload i = Printf.sprintf "lap-2-%02d" i in
  let fits i = (Ring.head ring mod cap) + String.length (payload i) + overhead <= cap in
  let i = ref 0 in
  let durable = ref [] in
  while fits !i do
    Ring.append ring ~on_overflow:checkpoint (payload !i);
    durable := payload !i :: !durable;
    if !i = 1 then (checkpoint (); durable := []);
    incr i
  done;
  check_bool "records after the checkpoint" true (!durable <> []);
  let plan = Block_device.Fault_plan.create () in
  Block_device.Fault_plan.on_write plan ~nth:1
    (Block_device.Fault_plan.Torn_write { keep_runs = 1 });
  Block_device.Fault_plan.crash_after_writes plan 1;
  Block_device.set_fault_plan dev (Some plan);
  let seq = Ring.seq ring in
  (try
     Ring.append ring ~on_overflow:no_overflow
       (String.make 40 '.' ^ "WRAPPED-TAIL");
     Alcotest.fail "expected the torn flush to raise"
   with Block_device.Faulted _ -> ());
  check_int "the failed append is rolled back" seq (Ring.seq ring);
  let image =
    match Block_device.crash_image dev with
    | Some image -> image
    | None -> Alcotest.fail "crash image not captured"
  in
  let dev' =
    Block_device.create ~config:(Block_device.config dev)
      ~clock:(Clock.create ()) ()
  in
  Block_device.restore dev' image;
  check_bool "the frame's tail reached the medium" true
    (Block_device.scan dev' "WRAPPED-TAIL" <> []);
  let head, seq = !ckpt in
  let reader = attach dev' ~start_block:2 ~num_blocks:4 ~head ~seq in
  let seen = ref [] in
  let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
  Alcotest.(check (list string)) "every earlier record" (List.rev !durable)
    (List.rev !seen);
  check_bool "stops at the torn frame" true
    (List.mem summary.Ring.stop_reason [ Ring.Torn_frame; Ring.Bad_checksum ])

(* A flush whose write faults never returns its ticket, so the device
   settles it before the fault propagates: the failed flush is charged
   and not left outstanding, and once the retried append commits every
   submission has completed. *)
let test_faulted_flush_settles () =
  let ring, dev = make_ring () in
  let plan = Block_device.Fault_plan.create () in
  Block_device.Fault_plan.on_write plan ~nth:1
    (Block_device.Fault_plan.Fail_write { transient = true });
  Block_device.set_fault_plan dev (Some plan);
  let clock = Block_device.clock dev in
  let t0 = Clock.now clock in
  (try
     Ring.append ring ~on_overflow:no_overflow "retried";
     Alcotest.fail "expected the first flush to fault"
   with Block_device.Faulted _ -> ());
  check_int "the faulted flush is not outstanding" 0
    (Block_device.outstanding dev);
  check_bool "the faulted flush is charged" true (Clock.now clock > t0);
  Ring.append ring ~on_overflow:no_overflow "retried";
  let stat = Stats.Counter.get (Block_device.stats dev) in
  check_int "nothing outstanding after the retry" 0
    (Block_device.outstanding dev);
  check_int "two submissions" 2 (stat "async_submits");
  check_int "every submission completed" (stat "async_submits")
    (stat "async_completions");
  let reader = attach dev ~start_block:2 ~num_blocks:8 ~head:0 ~seq:0 in
  let seen = ref [] in
  ignore (Ring.replay reader (fun p -> seen := p :: !seen));
  Alcotest.(check (list string)) "the retried record replays" [ "retried" ]
    !seen

let prop_roundtrip_arbitrary_payloads =
  QCheck.Test.make ~name:"ring roundtrips arbitrary payload lists" ~count:100
    QCheck.(list_of_size Gen.(0 -- 12) (string_of_size Gen.(0 -- 100)))
    (fun payloads ->
      let ring, dev = make_ring ~num_blocks:32 () in
      List.iter (Ring.append ring ~on_overflow:(fun () -> assert false)) payloads;
      let reader = attach dev ~start_block:2 ~num_blocks:32 ~head:0 ~seq:0 in
      let seen = ref [] in
      let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
      List.rev !seen = payloads
      && summary.Ring.records_replayed = List.length payloads
      && summary.Ring.stop_reason = Ring.Clean)

let prop_wraparound_preserves_tail =
  (* fill the ring several times over with checkpoints; the records since
     the last checkpoint must always replay *)
  QCheck.Test.make ~name:"wraparound keeps post-checkpoint records" ~count:50
    QCheck.(int_range 1 40)
    (fun n ->
      let ring, dev = make_ring ~num_blocks:3 () in
      let last_ckpt = ref (0, 0) in
      for i = 1 to n do
        Ring.append ring
          ~on_overflow:(fun () ->
            last_ckpt := (Ring.head ring, Ring.seq ring);
            Ring.mark_checkpointed ring)
          (Printf.sprintf "record-%04d" i)
      done;
      let head, seq = !last_ckpt in
      let reader = attach dev ~start_block:2 ~num_blocks:3 ~head ~seq in
      let seen = ref [] in
      let (_ : Ring.replay_summary) =
        Ring.replay reader (fun p -> seen := p :: !seen)
      in
      (* the replayed list must be a contiguous suffix ending at record n *)
      match !seen with
      | [] -> fst (Ring.live ring) = 0
      | last :: _ -> last = Printf.sprintf "record-%04d" n)

let () =
  Alcotest.run "journal-ring"
    [
      ( "ring",
        [
          Alcotest.test_case "append/replay roundtrip" `Quick test_append_replay_roundtrip;
          Alcotest.test_case "replay from checkpoint" `Quick
            test_replay_from_checkpoint_position;
          Alcotest.test_case "overflow callback" `Quick
            test_overflow_triggers_checkpoint_callback;
          Alcotest.test_case "record too large" `Quick test_record_too_large;
          Alcotest.test_case "handler must checkpoint" `Quick
            test_overflow_handler_must_checkpoint;
          Alcotest.test_case "replay stops at garbage" `Quick test_replay_stops_at_garbage;
          Alcotest.test_case "scrub zeroes dead blocks" `Quick test_scrub_zeroes_dead_blocks;
          Alcotest.test_case "scrub preserves live" `Quick test_scrub_preserves_live_records;
          Alcotest.test_case "faulted flush settles" `Quick
            test_faulted_flush_settles;
          Alcotest.test_case "torn wrapping flush stops replay" `Quick
            test_torn_wrapping_flush;
          QCheck_alcotest.to_alcotest prop_roundtrip_arbitrary_payloads;
          QCheck_alcotest.to_alcotest prop_wraparound_preserves_tail;
        ] );
    ]
