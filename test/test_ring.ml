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
  List.iter (fun p -> Ring.append ring ~on_overflow:no_overflow p) payloads;
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

(* [tail_ok] is asked about the last record only.  Rejected, that record
   is not applied, the head and sequence number end before it, the stop
   reason says why, and the next append takes its place: it never
   replays again. *)
let test_replay_tail_check () =
  let ring, dev = make_ring () in
  List.iter
    (Ring.append ring ~on_overflow:no_overflow)
    [ "one"; "two"; "three" ];
  let replay ~tail_ok =
    let reader = attach dev ~start_block:2 ~num_blocks:8 ~head:0 ~seq:0 in
    let seen = ref [] and asked = ref [] in
    let summary =
      Ring.replay reader
        ~tail_ok:(fun p ->
          asked := p :: !asked;
          tail_ok p)
        (fun p -> seen := p :: !seen)
    in
    (reader, summary, List.rev !seen, !asked)
  in
  let _, summary, seen, asked = replay ~tail_ok:(fun _ -> true) in
  Alcotest.(check (list string))
    "accepted tail applies" [ "one"; "two"; "three" ] seen;
  Alcotest.(check (list string))
    "only the last record is asked" [ "three" ] asked;
  check_bool "clean stop" true (summary.Ring.stop_reason = Ring.Clean);
  let reader, summary, seen, _ = replay ~tail_ok:(fun _ -> false) in
  Alcotest.(check (list string))
    "rejected tail is not applied" [ "one"; "two" ] seen;
  check_int "records replayed" 2 summary.Ring.records_replayed;
  check_bool "stop reason names the unwritten data" true
    (summary.Ring.stop_reason = Ring.Unwritten_data);
  check_int "sequence ends before the tail" 2 (Ring.seq reader);
  Ring.append reader ~on_overflow:no_overflow "four";
  let _, summary, seen, _ = replay ~tail_ok:(fun _ -> true) in
  Alcotest.(check (list string)) "the next append replaces the tail"
    [ "one"; "two"; "four" ] seen;
  check_int "and the tail never replays" 3 summary.Ring.records_replayed

(* A replay that stops before a frame leaves that frame's bytes past the
   head.  The next append writes a shorter frame over its start, and must
   leave no stale byte behind it: the following replay sees every record
   and a clean end, both when the stop was a rejected last record and
   when it was a torn frame.  A clean mount writes nothing. *)
let test_append_after_stop_ends_clean () =
  let replay dev ~tail_ok =
    let reader = attach dev ~start_block:2 ~num_blocks:8 ~head:0 ~seq:0 in
    let seen = ref [] in
    let summary = Ring.replay reader ~tail_ok (fun p -> seen := p :: !seen) in
    (reader, summary, List.rev !seen)
  in
  let long = String.make 150 'c' in
  (* a last record the mount rejects *)
  let ring, dev = make_ring () in
  List.iter (Ring.append ring ~on_overflow:no_overflow) [ "one"; "two"; long ];
  let reader, summary, _ =
    replay dev ~tail_ok:(fun p -> p <> long)
  in
  check_bool "the last record is dropped" true
    (summary.Ring.stop_reason = Ring.Unwritten_data);
  Ring.append reader ~on_overflow:no_overflow "four";
  let _, summary, seen = replay dev ~tail_ok:(fun _ -> true) in
  Alcotest.(check (list string)) "every record replays"
    [ "one"; "two"; "four" ] seen;
  Alcotest.(check string) "and the journal ends clean" "clean"
    (Ring.stop_reason_to_string summary.Ring.stop_reason);
  (* a torn frame: the tail of a long record lost *)
  let ring, dev = make_ring () in
  List.iter (Ring.append ring ~on_overflow:no_overflow) [ "one"; "two"; long ];
  let tail = List.nth (Block_device.read_vec dev [ 3 ]) 0 |> snd in
  Block_device.write_vec dev
    [ (3, String.mapi (fun i c -> if i < 60 then c else '\255') tail) ];
  let reader, summary, _ = replay dev ~tail_ok:(fun _ -> true) in
  check_bool "replay stops at the damaged frame" true
    (summary.Ring.stop_reason <> Ring.Clean);
  Ring.append reader ~on_overflow:no_overflow "four";
  let _, summary, seen = replay dev ~tail_ok:(fun _ -> true) in
  Alcotest.(check (list string)) "every record replays after the damage"
    [ "one"; "two"; "four" ] seen;
  Alcotest.(check string) "and ends clean" "clean"
    (Ring.stop_reason_to_string summary.Ring.stop_reason);
  (* a clean replay marks nothing: the next flush writes its block only *)
  let ring, dev = make_ring () in
  Ring.append ring ~on_overflow:no_overflow "one";
  let reader, summary, _ = replay dev ~tail_ok:(fun _ -> true) in
  check_bool "clean" true (summary.Ring.stop_reason = Ring.Clean);
  let before = Stats.Counter.get (Block_device.stats dev) "writes" in
  Ring.append reader ~on_overflow:no_overflow "two";
  check_int "one block written" 1
    (Stats.Counter.get (Block_device.stats dev) "writes" - before)

(* Replay keeps the block it read last: a header or frame inside it
   costs no request, so N records over B ring blocks replay in at most
   B + 1 one-block reads (not one or two per record). *)
let test_replay_reads_each_block_once () =
  let ring, dev = make_ring ~num_blocks:16 () in
  let payloads = List.init 40 (Printf.sprintf "record-%02d") in
  List.iter (fun p -> Ring.append ring ~on_overflow:no_overflow p) payloads;
  let bs = (Block_device.config dev).Block_device.block_size in
  let spanned = ((Ring.head ring - 1) / bs) + 1 in
  let reads () = Stats.Counter.get (Block_device.stats dev) "reads" in
  let before = reads () in
  let reader = attach dev ~start_block:2 ~num_blocks:16 ~head:0 ~seq:0 in
  let seen = ref [] in
  let summary = Ring.replay reader (fun p -> seen := p :: !seen) in
  Alcotest.(check (list string)) "every record" payloads (List.rev !seen);
  check_bool "clean stop" true (summary.Ring.stop_reason = Ring.Clean);
  check_bool
    (Printf.sprintf "%d reads for %d records over %d blocks" (reads () - before)
       (List.length payloads) spanned)
    true
    (reads () - before <= spanned + 1)

(* Differential check of the head-block image.  Ring A keeps its image
   across flushes; ring B, on a second device, is attached afresh at A's
   head and sequence number before every flush, so it has no image and
   reads its head block back.  Groups of one to three records, each
   committed by one flush through the group-commit window, whose frames
   straddle blocks and wrap the ring, checkpoints and scrubs in between:
   after every flush both rings hold the same bytes, and between two
   image drops A reads at most one block per block its flushes started
   writing into, plus one.  A failed write and a torn wrapping flush drop
   the image: the retried flush reads back exactly what B's does, and
   replay returns every record appended since the last checkpoint. *)
let test_image_matches_read_back () =
  let num_blocks = 6 in
  let ring_a, dev_a = make_ring ~num_blocks () in
  let _, dev_b = make_ring ~num_blocks () in
  let bs = (Block_device.config dev_a).Block_device.block_size in
  let blocks dev = Array.sub (Block_device.snapshot dev) 2 num_blocks in
  let reads dev = Stats.Counter.get (Block_device.stats dev) "reads" in
  let ckpt = ref (0, 0) and appended = ref [] in
  let on_overflow () =
    ckpt := (Ring.head ring_a, Ring.seq ring_a);
    appended := [];
    Ring.mark_checkpointed ring_a
  in
  (* the read bound holds between image drops *)
  let started = Hashtbl.create 16 and epoch_reads = ref 0 in
  let new_epoch () =
    Hashtbl.reset started;
    epoch_reads := reads dev_a
  in
  let ring_b () =
    attach dev_b ~start_block:2 ~num_blocks ~head:(Ring.head ring_a)
      ~seq:(Ring.seq ring_a)
  in
  let n = ref 0 in
  let batch prng =
    List.init (1 + Prng.int prng 3) (fun _ ->
        incr n;
        Printf.sprintf "r%04d-%s" !n (String.make (Prng.int prng 200) 'x'))
  in
  (* a group of records committed by one flush: the window holds every
     record until the last one's append; A checkpoints up front if the
     whole group would lap its live records, so no record of the group is
     dropped as pending by a checkpoint halfway through *)
  let cap = Ring.capacity ring_a in
  let overhead = cap - Ring.max_payload ring_a in
  let group ring ~on_overflow b =
    Ring.set_window ring (List.length b);
    Fun.protect
      ~finally:(fun () -> Ring.set_window ring 1)
      (fun () -> List.iter (Ring.append ring ~on_overflow) b)
  in
  let fit b =
    let bytes =
      List.fold_left (fun n p -> n + String.length p + overhead) 0 b
    in
    if snd (Ring.live ring_a) + bytes > cap then on_overflow ()
  in
  let append_both step b =
    fit b;
    Hashtbl.replace started (Ring.head ring_a / bs) ();
    let rb = ring_b () in
    group ring_a ~on_overflow b;
    group rb ~on_overflow:no_overflow b;
    appended := List.rev_append b !appended;
    check_bool (Printf.sprintf "append %d: same ring bytes" step) true
      (blocks dev_a = blocks dev_b);
    check_bool
      (Printf.sprintf "append %d: %d reads over %d started blocks" step
         (reads dev_a - !epoch_reads) (Hashtbl.length started))
      true
      (reads dev_a - !epoch_reads <= Hashtbl.length started + 1)
  in
  let scrub_both () =
    (* B learns A's live region by replaying it from A's tail *)
    let recs, bytes = Ring.live ring_a in
    let rb =
      attach dev_b ~start_block:2 ~num_blocks ~head:(Ring.head ring_a - bytes)
        ~seq:(Ring.seq ring_a - recs)
    in
    check_int "B replays A's live records" recs
      (Ring.replay rb ignore).Ring.records_replayed;
    Ring.scrub ring_a;
    Ring.scrub rb;
    check_bool "same bytes after scrub" true (blocks dev_a = blocks dev_b);
    new_epoch ()
  in
  let prng = Prng.create ~seed:23L () in
  for step = 1 to 300 do
    append_both step (batch prng);
    if Prng.int prng 8 = 0 then on_overflow ();
    if Prng.int prng 10 = 0 then scrub_both ()
  done;
  (* a failed flush, then its retry: A must read back what B reads.  The
     records before the group's last stay pending through the fault, so
     the retry appends the last one again, at window 1 *)
  let faulted_then_retried action b =
    fit b;
    List.iter
      (fun dev ->
        let plan = Block_device.Fault_plan.create () in
        Block_device.Fault_plan.on_write plan ~nth:1 action;
        Block_device.set_fault_plan dev (Some plan))
      [ dev_a; dev_b ];
    let faults append =
      match append () with
      | () -> Alcotest.fail "expected the flush to fault"
      | exception Block_device.Faulted _ -> ()
    in
    let rb = ring_b () in
    faults (fun () -> group ring_a ~on_overflow b);
    faults (fun () -> group rb ~on_overflow:no_overflow b);
    check_bool "same bytes after the fault" true (blocks dev_a = blocks dev_b);
    let ra = reads dev_a and rb_reads = reads dev_b in
    let last = List.nth b (List.length b - 1) in
    Ring.append ring_a ~on_overflow last;
    Ring.append rb ~on_overflow:no_overflow last;
    appended := List.rev_append b !appended;
    check_int "the retry reads back what a ring without image reads"
      (reads dev_b - rb_reads) (reads dev_a - ra);
    check_bool "same bytes after the retry" true (blocks dev_a = blocks dev_b);
    new_epoch ()
  in
  (* a transient failure mid-block, where A holds the image of its head
     block: its last flush ended there *)
  append_both 0 [ "hold" ];
  if Ring.head ring_a mod bs = 0 then append_both 0 [ "align" ];
  faulted_then_retried
    (Block_device.Fault_plan.Fail_write { transient = true })
    [ "failed-once-a"; "failed-once-b" ];
  (* a torn flush that wraps the ring: its first run (the ring's first
     block, the batch's tail) reaches the medium, its head does not *)
  while (Ring.head ring_a mod cap) + 150 < cap - bs do
    append_both 0 [ String.make 40 'f' ]
  done;
  let wrapping = [ String.make 100 'w'; String.make 120 'v' ] in
  check_bool "the batch wraps" true ((Ring.head ring_a mod cap) + 280 > cap);
  faulted_then_retried (Block_device.Fault_plan.Torn_write { keep_runs = 1 })
    wrapping;
  let head, seq = !ckpt in
  let seen = ref [] in
  let (_ : Ring.replay_summary) =
    Ring.replay (attach dev_a ~start_block:2 ~num_blocks ~head ~seq) (fun p ->
        seen := p :: !seen)
  in
  Alcotest.(check (list string)) "replay returns every appended record"
    (List.rev !appended) (List.rev !seen)

let prop_roundtrip_arbitrary_payloads =
  QCheck.Test.make ~name:"ring roundtrips arbitrary payload lists" ~count:100
    QCheck.(list_of_size Gen.(0 -- 12) (string_of_size Gen.(0 -- 100)))
    (fun payloads ->
      let ring, dev = make_ring ~num_blocks:32 () in
      List.iter
        (fun p -> Ring.append ring ~on_overflow:(fun () -> assert false) p)
        payloads;
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
          Alcotest.test_case "an append after a stopped replay ends clean"
            `Quick test_append_after_stop_ends_clean;
          Alcotest.test_case "replay checks its last record" `Quick
            test_replay_tail_check;
          Alcotest.test_case "replay reads each block once" `Quick
            test_replay_reads_each_block_once;
          Alcotest.test_case "head-block image matches read-back" `Quick
            test_image_matches_read_back;
          QCheck_alcotest.to_alcotest prop_roundtrip_arbitrary_payloads;
          QCheck_alcotest.to_alcotest prop_wraparound_preserves_tail;
        ] );
    ]
