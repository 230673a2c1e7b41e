(* Fault injection, crash recovery and self-healing: the programmable
   fault plan on the block device, DBFS checksum/quarantine/degraded-mode
   behaviour, and the deterministic crash-point campaign. *)

module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Json = Rgpdos_util.Json
module Stats = Rgpdos_util.Stats
module Block_device = Rgpdos_block.Block_device
module Fault_plan = Block_device.Fault_plan
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Membrane = Rgpdos_membrane.Membrane
module Machine = Rgpdos.Machine
module Population = Rgpdos_workload.Population
module FC = Rgpdos_workload.Fault_campaign
module Bench = Rgpdos_workload.Bench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* block device: vectored-write semantics and the fault plan           *)

let small_config =
  {
    Block_device.block_size = 128;
    block_count = 64;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = 1;
  }

(* single-block access through the vectored calls *)
let read_block dev i = snd (List.hd (Block_device.read_vec dev [ i ]))
let write_block dev i data = Block_device.write_vec dev [ (i, data) ]

let make_dev () =
  let clock = Clock.create () in
  (Block_device.create ~config:small_config ~clock (), clock)

let get dev name = Stats.Counter.get (Block_device.stats dev) name

(* regression: a vectored request naming the same block twice must
   resolve duplicates before charging — one seek, one transfer, later
   pair wins *)
let test_write_vec_dedup () =
  let dev, clock = make_dev () in
  let t0 = Clock.now clock in
  Block_device.write_vec dev [ (5, "first"); (5, "second") ];
  let elapsed = Clock.now clock - t0 in
  (* counters first: the probe read below counts a run of its own *)
  check_int "one per-block write" 1 (get dev "writes");
  check_int "one merged run" 1 (get dev "merged_runs");
  check_int "one block of bytes" small_config.Block_device.block_size
    (get dev "bytes_written");
  check_int "one write op" 1 (get dev "write_ops");
  (* duplicate resolved before charging: cost of exactly one seek *)
  check_int "single-seek charge" small_config.Block_device.write_latency
    elapsed;
  check_string "later pair wins" "second"
    (String.sub (read_block dev 5) 0 6 |> String.trim)

let test_write_vec_out_of_range_atomic () =
  let dev, clock = make_dev () in
  write_block dev 1 "keep";
  let writes0 = get dev "writes" and t0 = Clock.now clock in
  (try
     Block_device.write_vec dev [ (1, "clobber"); (9_999, "x") ];
     Alcotest.fail "expected Out_of_range"
   with Block_device.Out_of_range 9_999 -> ());
  check_string "existing block untouched" "keep"
    (String.trim (read_block dev 1) |> fun s ->
     String.sub s 0 4);
  check_int "no write charged" writes0 (get dev "writes");
  (* only the probe read above advanced the clock *)
  check_int "no time charged by the failed request"
    (small_config.Block_device.read_latency)
    (Clock.now clock - t0)

(* An oversize payload is refused before the request has any effect, on
   the blocking and the queued path alike: nothing persisted, no time, no
   counters, no fault-plan write ordinal. *)
let test_write_vec_oversize_atomic () =
  let oversize = String.make (small_config.Block_device.block_size + 4) 'x' in
  List.iter
    (fun (path, submit) ->
      let dev, clock = make_dev () in
      let plan = Fault_plan.create () in
      Block_device.set_fault_plan dev (Some plan);
      let counters0 = Stats.Counter.to_list (Block_device.stats dev) in
      (try
         submit dev [ (1, "ok"); (2, oversize) ];
         Alcotest.failf "%s: expected Invalid_argument" path
       with Invalid_argument _ -> ());
      check_bool (path ^ ": block 1 not persisted") false
        (Block_device.is_written dev 1);
      check_int (path ^ ": no time charged") 0 (Clock.now clock);
      check_bool (path ^ ": no counters") true
        (Stats.Counter.to_list (Block_device.stats dev) = counters0);
      check_int (path ^ ": no write ordinal") 0 (Fault_plan.writes_seen plan);
      check_int (path ^ ": nothing outstanding") 0 (Block_device.outstanding dev))
    [
      ("write_vec", Block_device.write_vec);
      ( "submit_write_vec",
        fun dev writes -> ignore (Block_device.submit_write_vec dev writes) );
    ]

let test_read_vec_faulted_atomic () =
  let dev, clock = make_dev () in
  write_block dev 1 "a";
  write_block dev 3 "b";
  Block_device.inject_fault dev 3;
  let reads0 = get dev "reads" and t0 = Clock.now clock in
  (try
     ignore (Block_device.read_vec dev [ 1; 3 ]);
     Alcotest.fail "expected Faulted"
   with Block_device.Faulted 3 -> ());
  check_int "no read charged" reads0 (get dev "reads");
  check_int "no time charged" 0 (Clock.now clock - t0)

let test_write_vec_faulted_atomic () =
  let dev, _ = make_dev () in
  write_block dev 2 "keep";
  Block_device.inject_fault dev 7;
  (try
     Block_device.write_vec dev [ (2, "clobber"); (7, "x") ];
     Alcotest.fail "expected Faulted"
   with Block_device.Faulted 7 -> ());
  check_string "no partial persistence" "keep"
    (String.sub (read_block dev 2) 0 4)

let test_crash_after_writes_snapshots_nth () =
  let dev, _ = make_dev () in
  let plan = Fault_plan.create () in
  Fault_plan.crash_after_writes plan 2;
  Block_device.set_fault_plan dev (Some plan);
  write_block dev 1 "one";
  check_bool "not yet captured" true (Block_device.crash_image dev = None);
  write_block dev 2 "two";
  write_block dev 3 "three";
  Block_device.set_fault_plan dev None;
  match Block_device.crash_image dev with
  | None -> Alcotest.fail "crash image not captured"
  | Some image ->
      let clock = Clock.create () in
      let dev2 = Block_device.create ~config:small_config ~clock () in
      Block_device.restore dev2 image;
      check_string "write 1 present" "one"
        (String.sub (read_block dev2 1) 0 3);
      check_string "write 2 present" "two"
        (String.sub (read_block dev2 2) 0 3);
      check_bool "write 3 absent (after the crash)" false
        (Block_device.is_written dev2 3)

let test_torn_write_keeps_prefix_runs () =
  let dev, _ = make_dev () in
  let plan = Fault_plan.create () in
  Fault_plan.on_write plan ~nth:1 (Fault_plan.Torn_write { keep_runs = 1 });
  Block_device.set_fault_plan dev (Some plan);
  (* two contiguous runs: [4;5] and [9] *)
  (try
     Block_device.write_vec dev [ (4, "aa"); (5, "bb"); (9, "cc") ];
     Alcotest.fail "expected Faulted"
   with Block_device.Faulted 9 -> ());
  Block_device.set_fault_plan dev None;
  check_bool "first run persisted" true
    (Block_device.is_written dev 4 && Block_device.is_written dev 5);
  check_bool "second run lost" false (Block_device.is_written dev 9)

let test_bit_flip_action () =
  let dev, _ = make_dev () in
  let plan = Fault_plan.create () in
  Fault_plan.on_write plan ~nth:1
    (Fault_plan.Bit_flip { block = 6; byte = 0; bit = 0 });
  Block_device.set_fault_plan dev (Some plan);
  write_block dev 6 "A";
  (* 'A' = 0x41; bit 0 flipped -> 0x40 = '@' *)
  Block_device.set_fault_plan dev None;
  check_string "one bit flipped" "@" (String.sub (read_block dev 6) 0 1)

(* same seed => same schedule: two identical devices running the same
   writes under two identically seeded random plans end up bit-identical
   and fail at the same ops *)
let test_random_plan_deterministic () =
  let run () =
    let dev, _ = make_dev () in
    let plan =
      Fault_plan.random
        ~prng:(Prng.create ~seed:99L ())
        ~writes:20 ~faults:6
        ~block_count:small_config.Block_device.block_count ()
    in
    Block_device.set_fault_plan dev (Some plan);
    let failures = ref [] in
    for i = 1 to 20 do
      try write_block dev (i mod 32) (Printf.sprintf "w%02d" i)
      with Block_device.Faulted _ -> failures := i :: !failures
    done;
    Block_device.set_fault_plan dev None;
    (Block_device.snapshot dev, !failures)
  in
  let snap1, fails1 = run () and snap2, fails2 = run () in
  check_bool "same medium state" true (snap1 = snap2);
  Alcotest.(check (list int)) "same failing ops" fails1 fails2

(* ------------------------------------------------------------------ *)
(* DBFS self-healing                                                   *)

let pd_config =
  { Block_device.default_config with block_size = 512; block_count = 4_096 }

let npd_config =
  { Block_device.default_config with block_size = 512; block_count = 2_048 }

let actor = "ded"

let boot_machine ?(subjects = 3) () =
  let m =
    Machine.boot ~seed:11L ~pd_device:pd_config ~npd_device:npd_config ()
  in
  (match Machine.load_declarations m Population.type_declaration with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("load_declarations: " ^ e));
  let people = Population.generate (Prng.create ~seed:11L ()) ~n:subjects in
  List.iter
    (fun (p : Population.person) ->
      match
        Machine.collect m ~type_name:Population.type_name
          ~subject:p.Population.subject_id ~interface:"web_form"
          ~record:(Population.record_of p)
          ~consents:p.Population.consent_profile ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("collect: " ^ e))
    people;
  (m, people)

let first_pd store (p : Population.person) =
  match Dbfs.pds_of_subject store ~actor p.Population.subject_id with
  | Ok (pd :: _) -> pd
  | _ -> Alcotest.fail "no pd for subject"

let record_extent store pd =
  match Dbfs.entry_extents store ~actor pd with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail (Dbfs.error_to_string e)

let cold_remount store =
  match Dbfs.crash_and_remount store with
  | Ok s -> s
  | Error e -> Alcotest.fail ("remount: " ^ e)

let test_record_bit_rot_detected_and_healed () =
  let m, people = boot_machine () in
  let pd = first_pd (Machine.dbfs m) (List.hd people) in
  let record = record_extent (Machine.dbfs m) pd in
  let store = cold_remount (Machine.dbfs m) in
  Block_device.unsafe_flip (Dbfs.device store)
    ~block:(List.hd record.Space.blocks) ~byte:(record.Space.off + 10) ~bit:3;
  (match Dbfs.get_record store ~actor pd with
  | Error (Dbfs.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "rotten record read back as Ok"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Dbfs.error_to_string e));
  check_bool "fsck flags the damage" true (Result.is_error (Dbfs.fsck store));
  let rep = Dbfs.fsck_repair store in
  check_bool "rotten pd quarantined" true
    (List.mem_assoc pd rep.Dbfs.rr_quarantined);
  check_bool "store clean after repair" true rep.Dbfs.rr_clean;
  check_bool "re-check passes" true (Result.is_ok (Dbfs.fsck store));
  (* the other subjects' data survived *)
  List.iteri
    (fun i p ->
      if i > 0 then
        check_bool "survivor still readable" true
          (Result.is_ok (Dbfs.get_record store ~actor (first_pd store p))))
    people

let test_index_damage_detected_and_rebuilt () =
  let m, people = boot_machine () in
  let store = Machine.dbfs m in
  let pd = first_pd store (List.hd people) in
  check_bool "tamper hook applied" true (Dbfs.unsafe_tamper_index store pd);
  check_bool "fsck flags the dropped posting" true
    (Result.is_error (Dbfs.fsck store));
  let rep = Dbfs.fsck_repair store in
  check_bool "clean after rebuild" true rep.Dbfs.rr_clean;
  check_int "nothing quarantined" 0 (List.length rep.Dbfs.rr_quarantined);
  check_string "index matches a from-scratch rebuild"
    (Dbfs.rebuilt_index_dump store) (Dbfs.index_dump store)

(* One rotten record is one problem, its checksum's: the index lines
   about a pd already reported damaged are left out.  One rotten index
   page is one problem too, however many walks meet it. *)
let test_fsck_reports_each_problem_once () =
  let m, people = boot_machine () in
  let pd = first_pd (Machine.dbfs m) (List.hd people) in
  let record = record_extent (Machine.dbfs m) pd in
  let store = cold_remount (Machine.dbfs m) in
  Block_device.unsafe_flip (Dbfs.device store)
    ~block:(List.hd record.Space.blocks) ~byte:(record.Space.off + 10) ~bit:3;
  Alcotest.(check (result unit (list string)))
    "bit rot: the record's checksum, once"
    (Error [ Printf.sprintf "entry %s: record extent checksum mismatch" pd ])
    (Dbfs.fsck store);
  let m, _ = boot_machine () in
  Dbfs.checkpoint (Machine.dbfs m);
  let block =
    match Dbfs.index_page_blocks (Machine.dbfs m) with
    | (b, _) :: _ -> b
    | [] -> Alcotest.fail "no index pages after a checkpoint"
  in
  let store = cold_remount (Machine.dbfs m) in
  Block_device.unsafe_flip (Dbfs.device store) ~block ~byte:8 ~bit:3;
  Alcotest.(check (result unit (list string)))
    "index-page rot: the page, once"
    (Error [ Printf.sprintf "index page %d fails its checksum" block ])
    (Dbfs.fsck store)

(* A data page that still faults after its retries costs only the
   extents on it: the scan reads every other page, and fsck reports
   exactly the records of that page as unreadable. *)
let test_faulted_page_costs_only_its_extents () =
  let m, _ = boot_machine ~subjects:40 () in
  let store = cold_remount (Machine.dbfs m) in
  let pds =
    match Dbfs.list_pds store ~actor Population.type_name with
    | Ok pds -> pds
    | Error e -> Alcotest.fail (Dbfs.error_to_string e)
  in
  let page = List.hd (record_extent store (List.hd pds)).Space.blocks in
  let on_page =
    List.filter (fun pd -> List.mem page (record_extent store pd).Space.blocks) pds
  in
  check_bool "the page holds some records, not all" true
    (on_page <> [] && List.length on_page < List.length pds);
  Block_device.inject_fault (Dbfs.device store) page;
  Alcotest.(check (result unit (list string)))
    "only the faulted page's records are unreadable"
    (Error
       (List.map
          (fun pd -> Printf.sprintf "entry %s: record extent unreadable (device fault)" pd)
          on_page))
    (Dbfs.fsck store)

let mentions s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The dump law [index_dump = rebuilt_index_dump] sees a posting lost
   from a paged index: each index family renders from its own
   structures, so the pdinfo tree still naming the pd's key does not
   hide the loss. *)
let test_dump_law_sees_lost_posting_when_paged () =
  let m, people = boot_machine () in
  Dbfs.checkpoint (Machine.dbfs m);
  let store = cold_remount (Machine.dbfs m) in
  let pd = first_pd store (List.hd people) in
  check_string "a sound paged index dumps as its rebuild"
    (Dbfs.rebuilt_index_dump store) (Dbfs.index_dump store);
  check_bool "tamper hook applied" true (Dbfs.unsafe_tamper_index store pd);
  check_bool "the dump differs from the rebuild" true
    (Dbfs.index_dump store <> Dbfs.rebuilt_index_dump store);
  match Dbfs.fsck store with
  | Ok () -> Alcotest.fail "fsck missed the lost posting"
  | Error problems ->
      check_bool "fsck names the pd" true
        (List.exists (fun p -> mentions p pd) problems)

(* A node page's payload opens with its tag, "PI" for an interior node:
   the frame's u32 length, the tag's u32 length, then the tag. *)
let interior_pages store =
  let image = Block_device.snapshot (Dbfs.device store) in
  List.length
    (List.filter
       (fun (b, _) -> String.sub image.(b) 8 2 = "PI")
       (Dbfs.index_page_blocks store @ Dbfs.entry_page_blocks store))

(* The entries tree and the four index trees. *)
let metadata_trees = 5

(* The free-space bitmap of [pd_config]'s data region, which the first
   check after a mount loads. *)
let bitmap_blocks = 1

(* fsck of a cold store reads each leaf page once and each interior page
   at most twice: every data page once, in one request, each
   entries-tree and index page once for its facts, and the bitmap.  The
   heap-bounds walk reads only each tree's interior pages and its
   leftmost leaf, which gives the walk the tree's height.  Repairing the
   clean store checks it twice, before and after, and scrubs every data
   page once more. *)
let test_fsck_reads_each_page_at_most_twice () =
  let m, _ = boot_machine ~subjects:300 () in
  Dbfs.checkpoint (Machine.dbfs m);
  let store = cold_remount (Machine.dbfs m) in
  let dev = Dbfs.device store in
  let lay = Dbfs.layout store in
  let data = ref 0 in
  for b = lay.Space.l_data_start to lay.Space.l_block_count - 1 do
    if Block_device.is_written dev b then incr data
  done;
  let pages =
    !data
    + List.length (Dbfs.index_page_blocks store)
    + List.length (Dbfs.entry_page_blocks store)
  in
  let walk = interior_pages store + metadata_trees in
  let reads f =
    Block_device.reset_stats dev;
    f ();
    get dev "reads"
  in
  let fsck =
    reads (fun () -> check_bool "fsck clean" true (Dbfs.fsck store = Ok ()))
  in
  let repair =
    reads (fun () ->
        check_bool "repair clean" true (Dbfs.fsck_repair store).Dbfs.rr_clean)
  in
  check_bool
    (Printf.sprintf "fsck: %d reads for %d pages, %d walked" fsck pages walk)
    true
    (fsck <= pages + walk + bitmap_blocks);
  check_bool
    (Printf.sprintf "repair: %d reads for %d pages, %d walked" repair pages walk)
    true
    (repair <= (2 * (pages + walk + bitmap_blocks)) + !data)

(* Repairing a clean store writes in as many requests at 300 subjects as
   at 30: the data-page scrub (which writes nothing here), the
   checkpoint and the zeroing of the stale metadata heap blocks are each
   one request, however many blocks they name. *)
let test_clean_repair_writes_do_not_grow () =
  let write_requests subjects =
    let m, _ = boot_machine ~subjects () in
    Dbfs.checkpoint (Machine.dbfs m);
    let store = cold_remount (Machine.dbfs m) in
    let dev = Dbfs.device store in
    Block_device.reset_stats dev;
    let r = Dbfs.fsck_repair store in
    check_bool "repair clean" true r.Dbfs.rr_clean;
    check_int "nothing to scrub" 0 r.Dbfs.rr_scrubbed_blocks;
    get dev "vec_writes"
  in
  let small = write_requests 30 in
  let big = write_requests 300 in
  check_int
    (Printf.sprintf "write requests: %d at 30 subjects, %d at 300" small big)
    small big

let test_transient_fault_ridden_out () =
  let m, people = boot_machine () in
  let pd = first_pd (Machine.dbfs m) (List.hd people) in
  let blocks = (record_extent (Machine.dbfs m) pd).Space.blocks in
  let store = cold_remount (Machine.dbfs m) in
  Block_device.inject_transient_fault (Dbfs.device store) (List.hd blocks)
    ~count:2;
  check_bool "read rides out the transient" true
    (Result.is_ok (Dbfs.get_record store ~actor pd));
  check_bool "bounded retries recorded" true
    (Stats.Counter.get (Dbfs.stats store) "fault_retries" > 0)

(* The next-sibling prefetch of a tree scan is speculative: a page the
   scan never reads must not fail it, whether the scan stops early or
   fsck collects the whole entries tree. *)
let test_faulted_prefetch_sibling_skipped () =
  let m, people = boot_machine ~subjects:40 () in
  Dbfs.checkpoint (Machine.dbfs m);
  let store = cold_remount (Machine.dbfs m) in
  let dev = Dbfs.device store in
  let pds_of s =
    match Dbfs.pds_of_subject store ~actor s with
    | Ok pds -> pds
    | Error e -> Alcotest.fail (s ^ ": " ^ Dbfs.error_to_string e)
  in
  let ids =
    List.map (fun (p : Population.person) -> p.Population.subject_id) people
  in
  let all = List.concat_map pds_of ids in
  (* early stop: fault every index page but the subject tree's left spine,
     whose pages all hold the first subject's keys; its scan ends inside
     the leftmost leaf after prefetching that leaf's faulted sibling *)
  let first = List.fold_left min (List.hd ids) ids in
  let expected = pds_of first in
  let spine = List.map fst (Block_device.scan dev (first ^ "\x00")) in
  let off_spine =
    List.filter
      (fun (b, n) -> not (List.exists (fun x -> x >= b && x < b + n) spine))
      (Dbfs.index_page_blocks store)
  in
  check_bool "some index pages faulted" true (off_spine <> []);
  List.iter (fun (b, _) -> Block_device.inject_fault dev b) off_spine;
  check_bool "early-stopping scan still answers" true (pds_of first = expected);
  List.iter (fun (b, _) -> Block_device.clear_fault dev b) off_spine;
  (* full scan: a fault on the entries tree's rightmost leaf loses that
     leaf's entries, and only those, to fsck_repair *)
  let pages = Dbfs.entry_page_blocks store in
  check_bool "entries tree has several leaves" true (List.length pages >= 3);
  let leaf, _ = List.nth pages (List.length pages - 1) in
  Block_device.inject_fault dev leaf;
  let kept =
    List.filter (fun pd -> Result.is_ok (Dbfs.entry_extents store ~actor pd)) all
  in
  check_bool "the leaf holds some entries, not all" true
    (kept <> [] && List.length kept < List.length all);
  ignore (Dbfs.fsck_repair store);
  Block_device.clear_fault dev leaf;
  List.iter
    (fun pd ->
      check_bool ("entry before the faulted leaf kept: " ^ pd) true
        (Result.is_ok (Dbfs.get_record store ~actor pd)))
    kept

let test_degraded_mode_read_only () =
  let m, people = boot_machine () in
  (* after a reboot no page is open, so the next insert takes fresh
     pages *)
  let m =
    match Machine.reboot m with Ok m -> m | Error e -> Alcotest.fail e
  in
  let store = Machine.dbfs m in
  let dev = Machine.pd_device m in
  let lay = Dbfs.layout store in
  let faulted = ref [] in
  for b = lay.l_rec_start to lay.l_high_start - 1 do
    if not (Block_device.is_written dev b) then begin
      Block_device.inject_fault dev b;
      faulted := b :: !faulted
    end
  done;
  let victim = List.hd people in
  let fresh : Population.person =
    { victim with subject_id = "sub-degraded"; email = "degraded@x.test" }
  in
  (match
     Machine.collect m ~type_name:Population.type_name
       ~subject:fresh.Population.subject_id ~interface:"web_form"
       ~record:(Population.record_of fresh)
       ~consents:fresh.Population.consent_profile ()
   with
  | Ok _ -> Alcotest.fail "insert on a dead medium should fail"
  | Error _ -> ());
  check_bool "store flips to degraded" true (Dbfs.degraded store <> None);
  (match
     Machine.set_consent m ~subject:victim.Population.subject_id
       ~purpose:"marketing" Membrane.Denied
   with
  | Ok _ -> Alcotest.fail "mutation accepted while degraded"
  | Error _ -> ());
  (* art. 15 is still served from a degraded store *)
  check_bool "right of access still served" true
    (Result.is_ok
       (Machine.right_of_access m ~subject:victim.Population.subject_id));
  List.iter (Block_device.clear_fault dev) !faulted;
  let rep = Dbfs.fsck_repair store in
  check_bool "repair comes back clean" true rep.Dbfs.rr_clean;
  check_bool "degraded mode cleared" true (Dbfs.degraded store = None);
  (match
     Machine.collect m ~type_name:Population.type_name
       ~subject:fresh.Population.subject_id ~interface:"web_form"
       ~record:(Population.record_of fresh)
       ~consents:fresh.Population.consent_profile ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("writes refused after recovery: " ^ e))

let test_remount_error_on_corrupt_superblock () =
  let m, _ = boot_machine () in
  let store = Machine.dbfs m in
  (* zero the superblock: mount must refuse, not crash *)
  Block_device.trim (Machine.pd_device m) 0;
  match Dbfs.crash_and_remount store with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mounted a device with a destroyed superblock"

(* ------------------------------------------------------------------ *)
(* the campaign itself                                                 *)

let campaign = lazy (FC.run ~seed:5 ~subjects:4 ())

let test_campaign_exhaustive_all_invariants () =
  let r = Lazy.force campaign in
  check_bool "workload produced writes" true (r.FC.fc_total_writes > 0);
  check_bool "not sampled" false r.FC.fc_sampled;
  check_int "every write op crashed exactly once" r.FC.fc_total_writes
    (List.length r.FC.fc_points);
  Alcotest.(check (list int))
    "ordinals cover 1..W"
    (List.init r.FC.fc_total_writes (fun i -> i + 1))
    (List.map (fun p -> p.FC.cp_write) r.FC.fc_points |> List.sort compare);
  List.iter
    (fun p ->
      let ctx = Printf.sprintf "write %d (%s)" p.FC.cp_write p.FC.cp_step in
      check_bool (ctx ^ ": residue-free") true p.FC.cp_residue_free;
      check_bool (ctx ^ ": audit verifiable") true p.FC.cp_audit_ok;
      check_bool (ctx ^ ": fsck clean after repair") true p.FC.cp_fsck_clean)
    r.FC.fc_points;
  Alcotest.(check (float 0.001)) "pass rate" 100.0 (FC.pass_rate_pct r);
  List.iter
    (fun s ->
      check_bool ("scenario " ^ s.FC.sc_name ^ ": " ^ s.FC.sc_detail) true
        s.FC.sc_pass)
    r.FC.fc_scenarios;
  check_bool "all_pass agrees" true (FC.all_pass r)

let test_campaign_deterministic () =
  let r1 = Lazy.force campaign in
  let r2 = FC.run ~seed:5 ~subjects:4 () in
  check_string "same seed => byte-identical report"
    (Json.to_string (FC.to_json r1))
    (Json.to_string (FC.to_json r2))

let test_campaign_sampling_caps_points () =
  let r = FC.run ~seed:5 ~subjects:4 ~max_points:5 () in
  check_bool "sampled flag set" true r.FC.fc_sampled;
  check_bool "at most the cap" true (List.length r.FC.fc_points <= 5);
  check_bool "last write always covered" true
    (List.exists
       (fun p -> p.FC.cp_write = r.FC.fc_total_writes)
       r.FC.fc_points)

let fault_entry = Bench.find "fault"

let valid r =
  Result.is_ok (Bench.validate fault_entry (FC.to_json ~wall_ms:1.0 r))

let test_validate_rejects_failures () =
  let r = Lazy.force campaign in
  check_bool "fresh report validates" true (valid r);
  (* flip one scenario to failing: validation must reject *)
  let broken =
    {
      r with
      FC.fc_scenarios =
        { FC.sc_name = "forced"; sc_pass = false; sc_detail = "x" }
        :: r.FC.fc_scenarios;
    }
  in
  check_bool "failed scenario rejected" false (valid broken);
  (* a sampled run claiming exhaustiveness must also be rejected *)
  let holey =
    { r with FC.fc_points = List.tl r.FC.fc_points; fc_sampled = false }
  in
  check_bool "missing crash point rejected" false (valid holey);
  (* the pass-rate bar is absolute: a fresh sub-100% campaign fails the
     compare against a clean committed one *)
  let failing =
    {
      r with
      FC.fc_points =
        (match r.FC.fc_points with
        | p :: rest -> { p with FC.cp_audit_ok = false } :: rest
        | [] -> []);
    }
  in
  let json r = FC.to_json ~wall_ms:1.0 r in
  check_bool "sub-100% pass rate fails the compare" true
    (Result.is_error (Bench.compare fault_entry ~committed:(json r) (json failing)))

let () =
  Alcotest.run "fault-injection"
    [
      ( "block-device",
        [
          Alcotest.test_case "write_vec dedups before charging" `Quick
            test_write_vec_dedup;
          Alcotest.test_case "write_vec atomic on Out_of_range" `Quick
            test_write_vec_out_of_range_atomic;
          Alcotest.test_case "write_vec atomic on oversize payload" `Quick
            test_write_vec_oversize_atomic;
          Alcotest.test_case "read_vec atomic on Faulted" `Quick
            test_read_vec_faulted_atomic;
          Alcotest.test_case "write_vec atomic on Faulted" `Quick
            test_write_vec_faulted_atomic;
          Alcotest.test_case "crash_after_writes snapshots nth" `Quick
            test_crash_after_writes_snapshots_nth;
          Alcotest.test_case "torn write keeps prefix runs" `Quick
            test_torn_write_keeps_prefix_runs;
          Alcotest.test_case "bit-flip action" `Quick test_bit_flip_action;
          Alcotest.test_case "random plan deterministic" `Quick
            test_random_plan_deterministic;
        ] );
      ( "self-heal",
        [
          Alcotest.test_case "record bit rot detected + healed" `Quick
            test_record_bit_rot_detected_and_healed;
          Alcotest.test_case "index damage detected + rebuilt" `Quick
            test_index_damage_detected_and_rebuilt;
          Alcotest.test_case "fsck reports each problem once" `Quick
            test_fsck_reports_each_problem_once;
          Alcotest.test_case "dump law sees a lost posting when paged" `Quick
            test_dump_law_sees_lost_posting_when_paged;
          Alcotest.test_case "fsck reads each page at most twice" `Quick
            test_fsck_reads_each_page_at_most_twice;
          Alcotest.test_case "clean repair writes do not grow" `Quick
            test_clean_repair_writes_do_not_grow;
          Alcotest.test_case "a faulted page costs only its extents" `Quick
            test_faulted_page_costs_only_its_extents;
          Alcotest.test_case "transient fault ridden out" `Quick
            test_transient_fault_ridden_out;
          Alcotest.test_case "faulted prefetch sibling skipped" `Quick
            test_faulted_prefetch_sibling_skipped;
          Alcotest.test_case "degraded mode is read-only" `Quick
            test_degraded_mode_read_only;
          Alcotest.test_case "remount fails on dead superblock" `Quick
            test_remount_error_on_corrupt_superblock;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "exhaustive, all invariants hold" `Slow
            test_campaign_exhaustive_all_invariants;
          Alcotest.test_case "deterministic report" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "sampling caps points" `Quick
            test_campaign_sampling_caps_points;
          Alcotest.test_case "validation rejects failures" `Quick
            test_validate_rejects_failures;
        ] );
    ]
