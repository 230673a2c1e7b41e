(* Deterministic fault-injection campaign: crash the scripted GDPR
   workload after every single device write, remount, self-heal, and
   check the compliance invariants at each point. *)

module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Json = Rgpdos_util.Json
module Stats = Rgpdos_util.Stats
module Block_device = Rgpdos_block.Block_device
module Fault_plan = Block_device.Fault_plan
module Journal_ring = Rgpdos_block.Journal_ring
module Dbfs = Rgpdos_dbfs.Dbfs
module Membrane = Rgpdos_membrane.Membrane
module Audit_log = Rgpdos_audit.Audit_log
module Machine = Rgpdos.Machine

type crash_verdict = {
  cp_write : int;
  cp_step : string;
  cp_plan : string;
  cp_replay_stop : string;
  cp_quarantined : int;
  cp_residue_free : bool;
  cp_audit_ok : bool;
  cp_fsck_clean : bool;
}

type scenario_verdict = { sc_name : string; sc_pass : bool; sc_detail : string }

type result = {
  fc_seed : int;
  fc_subjects : int;
  fc_steps : (string * int) list;
  fc_total_writes : int;
  fc_sampled : bool;
  fc_points : crash_verdict list;
  fc_scenarios : scenario_verdict list;
}

(* Small devices keep the per-point forensic scan cheap without changing
   any cost-model semantics: the campaign measures verdicts, not time. *)
let pd_config =
  { Block_device.default_config with block_size = 512; block_count = 4_096 }

let npd_config =
  { Block_device.default_config with block_size = 512; block_count = 2_048 }

let actor = "ded"

let fail_step name e = failwith (Printf.sprintf "Fault_campaign %s: %s" name e)

let boot ~seed =
  let m =
    Machine.boot ~seed:(Int64.of_int seed) ~pd_device:pd_config
      ~npd_device:npd_config ()
  in
  match Machine.load_declarations m Population.type_declaration with
  | Ok _ -> m
  | Error e -> fail_step "load_declarations" e

let people_of ~seed ~subjects =
  Population.generate (Prng.create ~seed:(Int64.of_int seed) ()) ~n:subjects

(* ------------------------------------------------------------------ *)
(* The scripted workload, as named steps                               *)

type step = { s_name : string; s_run : Machine.t -> unit }

let collect_person m (p : Population.person) =
  match
    Machine.collect m ~type_name:Population.type_name
      ~subject:p.Population.subject_id ~interface:"web_form"
      ~record:(Population.record_of p) ~consents:p.Population.consent_profile
      ()
  with
  | Ok _ -> ()
  | Error e -> fail_step "collect" e

(* All but the last two subjects are collected before a 2-year clock jump
   (the person type's TTL), so the sweep meets both expired and live
   entries; one aged subject flips a consent, another is erased. *)
let script people =
  let n = List.length people in
  let aged = List.filteri (fun i _ -> i < n - 2) people in
  let fresh = List.filteri (fun i _ -> i >= n - 2) people in
  let subj (p : Population.person) = p.Population.subject_id in
  [
    { s_name = "collect"; s_run = (fun m -> List.iter (collect_person m) aged) };
    {
      s_name = "consent-flip";
      s_run =
        (fun m ->
          match
            Machine.set_consent m ~subject:(subj (List.hd aged))
              ~purpose:"marketing" Membrane.Denied
          with
          | Ok _ -> ()
          | Error e -> fail_step "consent-flip" e);
    };
    {
      s_name = "erase";
      s_run =
        (fun m ->
          match Machine.right_to_erasure m ~subject:(subj (List.nth aged 1)) with
          | Ok _ -> ()
          | Error e -> fail_step "erase" e);
    };
    {
      s_name = "age";
      s_run =
        (fun m -> Clock.advance (Machine.clock m) ((2 * Clock.year) + Clock.day));
    };
    {
      s_name = "collect-fresh";
      s_run = (fun m -> List.iter (collect_person m) fresh);
    };
    { s_name = "ttl-sweep"; s_run = (fun m -> ignore (Machine.sweep_ttl m ())) };
    {
      s_name = "access";
      s_run =
        (fun m ->
          match Machine.right_of_access m ~subject:(subj (List.hd fresh)) with
          | Ok _ -> ()
          | Error e -> fail_step "access" e);
    };
    {
      s_name = "persist-audit";
      s_run =
        (fun m ->
          match Machine.persist_audit m with
          | Ok () -> ()
          | Error e -> fail_step "persist-audit" e);
    };
  ]

(* Fault-free run with an empty plan installed after boot + declarations:
   counts the write ops of each step, defining the crash-point space. *)
let reference_run ~seed people =
  let m = boot ~seed in
  let dev = Machine.pd_device m in
  let plan = Fault_plan.create () in
  Block_device.set_fault_plan dev (Some plan);
  let spans =
    List.map
      (fun s ->
        s.s_run m;
        (s.s_name, Fault_plan.writes_seen plan))
      (script people)
  in
  Block_device.set_fault_plan dev None;
  spans

let step_of spans k =
  match List.find_opt (fun (_, upto) -> k <= upto) spans with
  | Some (name, _) -> name
  | None -> "?"

(* ------------------------------------------------------------------ *)
(* One crash point: run to the snapshot, remount it, repair, check     *)

let live_subject store (p : Population.person) =
  match Dbfs.pds_of_subject store ~actor p.Population.subject_id with
  | Error _ -> false
  | Ok ids ->
      List.exists
        (fun id ->
          match Dbfs.entry_info store ~actor id with
          | Ok (_, _, erased) -> not erased
          | Error _ -> false)
        ids

let run_point ~seed ~spans people k =
  let m = boot ~seed in
  let dev = Machine.pd_device m in
  let plan = Fault_plan.create () in
  Fault_plan.crash_after_writes plan k;
  (* capture at install time: fired entries are removed from the plan *)
  let plan_str = Fault_plan.to_string plan in
  Block_device.set_fault_plan dev (Some plan);
  let audit_bytes = ref "" in
  let captured = ref false in
  List.iter
    (fun s ->
      if not !captured then begin
        s.s_run m;
        if Block_device.crash_image dev <> None then begin
          captured := true;
          audit_bytes := Audit_log.to_bytes (Machine.audit m)
        end
      end)
    (script people);
  let image =
    match Block_device.crash_image dev with
    | Some i -> i
    | None -> fail_step "crash" (Printf.sprintf "point %d never fired" k)
  in
  let audit_ok =
    match Audit_log.of_bytes !audit_bytes with
    | Ok log -> Audit_log.verify log = Ok ()
    | Error _ -> false
  in
  let rclock = Clock.create () in
  let rdev = Block_device.create ~config:pd_config ~clock:rclock () in
  Block_device.restore rdev image;
  match Dbfs.mount rdev with
  | Error e ->
      {
        cp_write = k;
        cp_step = step_of spans k;
        cp_plan = plan_str;
        cp_replay_stop = "mount failed: " ^ e;
        cp_quarantined = 0;
        cp_residue_free = false;
        cp_audit_ok = audit_ok;
        cp_fsck_clean = false;
      }
  | Ok store ->
      let replay_stop =
        match Dbfs.replay_report store with
        | Some s -> Journal_ring.stop_reason_to_string s.Journal_ring.stop_reason
        | None -> "none"
      in
      let rep = Dbfs.fsck_repair store in
      let residue_free =
        List.for_all
          (fun (p : Population.person) ->
            live_subject store p
            || Block_device.scan rdev p.Population.email = [])
          people
      in
      {
        cp_write = k;
        cp_step = step_of spans k;
        cp_plan = plan_str;
        cp_replay_stop = replay_stop;
        cp_quarantined = List.length rep.Dbfs.rr_quarantined;
        cp_residue_free = residue_free;
        cp_audit_ok = audit_ok;
        cp_fsck_clean = rep.Dbfs.rr_clean;
      }

(* ------------------------------------------------------------------ *)
(* Named fault scenarios                                               *)

let scenario name pass detail = { sc_name = name; sc_pass = pass; sc_detail = detail }

let first_pd store (p : Population.person) =
  match Dbfs.pds_of_subject store ~actor p.Population.subject_id with
  | Ok (pd :: _) -> pd
  | Ok [] -> fail_step "scenario" ("no pd for " ^ p.Population.subject_id)
  | Error e -> fail_step "scenario" (Dbfs.error_to_string e)

(* Bit rot in a record extent: a remounted (cold-cache) store must refuse
   the read, fsck must flag it, and repair must quarantine and come back
   clean. *)
let scenario_record_bit_rot ~seed people =
  let m = boot ~seed in
  List.iter (collect_person m) people;
  let p0 = List.hd people in
  let pd = first_pd (Machine.dbfs m) p0 in
  let rec_blocks =
    match Dbfs.entry_blocks (Machine.dbfs m) ~actor pd with
    | Ok (rb, _) -> rb
    | Error e -> fail_step "scenario" (Dbfs.error_to_string e)
  in
  match Dbfs.crash_and_remount (Machine.dbfs m) with
  | Error e -> scenario "record-bit-rot" false ("remount failed: " ^ e)
  | Ok store ->
      let dev = Dbfs.device store in
      Block_device.unsafe_flip dev ~block:(List.hd rec_blocks) ~byte:10 ~bit:3;
      let read_detects =
        match Dbfs.get_record store ~actor pd with
        | Error (Dbfs.Corrupt _) -> true
        | _ -> false
      in
      let fsck_detects = Result.is_error (Dbfs.fsck store) in
      let rep = Dbfs.fsck_repair store in
      let quarantined = List.mem_assoc pd rep.Dbfs.rr_quarantined in
      scenario "record-bit-rot"
        (read_detects && fsck_detects && quarantined && rep.Dbfs.rr_clean)
        (Printf.sprintf
           "read_detects=%b fsck_detects=%b quarantined=%b clean=%b"
           read_detects fsck_detects quarantined rep.Dbfs.rr_clean)

(* Secondary-index damage: fsck must flag the dropped posting and repair
   must rebuild the index from the surviving records. *)
let scenario_index_damage ~seed people =
  let m = boot ~seed in
  List.iter (collect_person m) people;
  let store = Machine.dbfs m in
  let pd = first_pd store (List.hd people) in
  let tampered = Dbfs.unsafe_tamper_index store pd in
  let fsck_detects = Result.is_error (Dbfs.fsck store) in
  let rep = Dbfs.fsck_repair store in
  let rebuilt = Dbfs.index_dump store = Dbfs.rebuilt_index_dump store in
  scenario "index-damage"
    (tampered && fsck_detects && rep.Dbfs.rr_clean && rebuilt)
    (Printf.sprintf "tampered=%b fsck_detects=%b clean=%b rebuilt=%b" tampered
       fsck_detects rep.Dbfs.rr_clean rebuilt)

(* Bit rot in an on-device index node page: after a checkpoint the paged
   trees are the durable index, so a cold remount must hit the flipped
   page's checksum, fsck must flag it, and repair must rebuild the trees
   from the surviving entries — leaving no residue of the damaged page
   (the stale heap half is zeroed) and the exact same index facts as
   before the damage. *)
let scenario_index_page_rot ~seed people =
  let m = boot ~seed in
  List.iter (collect_person m) people;
  let store0 = Machine.dbfs m in
  Dbfs.checkpoint store0;
  let before = Dbfs.index_dump store0 in
  (* enumerate a node page while warm: the cold store must first see the
     damage through its (empty) page cache, never a stale copy *)
  let block =
    match Dbfs.index_page_blocks store0 with
    | (b, _) :: _ -> b
    | [] -> fail_step "scenario" "no index node pages after checkpoint"
  in
  match Dbfs.crash_and_remount store0 with
  | Error e -> scenario "index-page-rot" false ("remount failed: " ^ e)
  | Ok store ->
      let dev = Dbfs.device store in
      Block_device.unsafe_flip dev ~block ~byte:8 ~bit:5;
      let fsck_detects =
        match Dbfs.fsck store with
        | Ok () -> false
        | Error problems ->
            List.exists
              (fun p ->
                (* the paged-tree checksum note, not a derived symptom *)
                String.length p >= 10 && String.sub p 0 10 = "index page")
              problems
      in
      let rep = Dbfs.fsck_repair store in
      let rebuilt =
        Dbfs.index_dump store = before
        && Dbfs.index_dump store = Dbfs.rebuilt_index_dump store
      in
      (* no residue: the damaged page's block was returned to the zeroed
         stale half by the repair checkpoint *)
      let bs = (Block_device.config dev).Block_device.block_size in
      let residue_free =
        Block_device.read_vec dev [ block ] = [ (block, String.make bs '\000') ]
      in
      scenario "index-page-rot"
        (fsck_detects && rep.Dbfs.rr_clean && rebuilt && residue_free)
        (Printf.sprintf "fsck_detects=%b clean=%b rebuilt=%b residue_free=%b"
           fsck_detects rep.Dbfs.rr_clean rebuilt residue_free)

(* A transient device error on a record block must be ridden out by the
   bounded retry loop, invisibly to the caller. *)
let scenario_transient_retry ~seed people =
  let m = boot ~seed in
  List.iter (collect_person m) people;
  let pd = first_pd (Machine.dbfs m) (List.hd people) in
  let rec_blocks =
    match Dbfs.entry_blocks (Machine.dbfs m) ~actor pd with
    | Ok (rb, _) -> rb
    | Error e -> fail_step "scenario" (Dbfs.error_to_string e)
  in
  match Dbfs.crash_and_remount (Machine.dbfs m) with
  | Error e -> scenario "transient-retry" false ("remount failed: " ^ e)
  | Ok store ->
      let dev = Dbfs.device store in
      Block_device.inject_transient_fault dev (List.hd rec_blocks) ~count:2;
      let ok = Result.is_ok (Dbfs.get_record store ~actor pd) in
      let retries = Stats.Counter.get (Dbfs.stats store) "fault_retries" in
      scenario "transient-retry"
        (ok && retries > 0)
        (Printf.sprintf "read_ok=%b retries=%d" ok retries)

(* A torn vectored write (nothing persisted, no acknowledgement) must be
   retried to success by the write path. *)
let scenario_torn_write_retry ~seed people =
  let m = boot ~seed in
  List.iter (collect_person m) people;
  let dev = Machine.pd_device m in
  let before = Stats.Counter.get (Dbfs.stats (Machine.dbfs m)) "fault_retries" in
  let plan = Fault_plan.create () in
  Fault_plan.on_write plan ~nth:1 (Fault_plan.Torn_write { keep_runs = 0 });
  Block_device.set_fault_plan dev (Some plan);
  let flip =
    Machine.set_consent m
      ~subject:(List.hd people).Population.subject_id
      ~purpose:"marketing" Membrane.Denied
  in
  Block_device.set_fault_plan dev None;
  let retries =
    Stats.Counter.get (Dbfs.stats (Machine.dbfs m)) "fault_retries" - before
  in
  scenario "torn-write-retry"
    (Result.is_ok flip && retries > 0)
    (Printf.sprintf "write_ok=%b retries=%d" (Result.is_ok flip) retries)

(* A permanent fault under a write flips the store into degraded
   read-only mode: further mutations refused, right of access still
   served; fsck ~repair clears it once the medium is replaced. *)
let scenario_degraded_mode ~seed people =
  let m = boot ~seed in
  let head, tail =
    match people with p :: q :: rest -> ([ p; q ], rest) | _ -> (people, [])
  in
  List.iter (collect_person m) head;
  let store = Machine.dbfs m in
  let dev = Machine.pd_device m in
  let lay = Dbfs.layout store in
  (* fault every free record-zone block so the next insert must hit one *)
  let faulted = ref [] in
  for b = lay.l_rec_start to lay.l_high_start - 1 do
    if not (Block_device.is_written dev b) then begin
      Block_device.inject_fault dev b;
      faulted := b :: !faulted
    end
  done;
  let victim = match tail with p :: _ -> p | [] -> List.hd people in
  let insert_failed =
    match collect_person m victim with
    | () -> false
    | exception Failure _ -> true
  in
  let degraded_now = Dbfs.degraded store <> None in
  let write_refused =
    match
      Machine.set_consent m
        ~subject:(List.hd people).Population.subject_id ~purpose:"marketing"
        Membrane.Denied
    with
    | Error _ -> true
    | Ok _ -> false
  in
  let access_served =
    Result.is_ok
      (Machine.right_of_access m
         ~subject:(List.hd people).Population.subject_id)
  in
  List.iter (Block_device.clear_fault dev) !faulted;
  let rep = Dbfs.fsck_repair store in
  let recovered = Dbfs.degraded store = None in
  let writes_back =
    match collect_person m victim with
    | () -> true
    | exception Failure _ -> false
  in
  scenario "degraded-mode"
    (insert_failed && degraded_now && write_refused && access_served
    && rep.Dbfs.rr_clean && recovered && writes_back)
    (Printf.sprintf
       "insert_failed=%b degraded=%b write_refused=%b access_served=%b \
        clean=%b recovered=%b writes_back=%b"
       insert_failed degraded_now write_refused access_served rep.Dbfs.rr_clean
       recovered writes_back)

(* ------------------------------------------------------------------ *)
(* Log-structured store scenarios: crashes inside a compaction pass and
   inside a group-commit window, on a segmented machine.               *)

let boot_seg ~seed ~window =
  let m =
    Machine.boot ~seed:(Int64.of_int seed) ~pd_device:pd_config
      ~npd_device:npd_config ~segmented:true ()
  in
  Dbfs.set_group_commit (Machine.dbfs m) window;
  match Machine.load_declarations m Population.type_declaration with
  | Ok _ -> m
  | Error e -> fail_step "load_declarations" e

(* Collect everyone, erase one subject (the destruction purge runs
   here, so nothing after it scrubs for free), then churn the survivors
   round by round until some sealed segment holds a live minority —
   a genuine compaction victim with relocation AND destruction work to
   crash inside of.  Adaptive because the campaign runs at several
   population sizes and the segment boundary moves with them. *)
let seg_setup ~seed ~window people =
  let m = boot_seg ~seed ~window in
  List.iter (collect_person m) people;
  (match
     Machine.right_to_erasure m
       ~subject:(List.hd people).Population.subject_id
   with
  | Ok _ -> ()
  | Error e -> fail_step "erase" e);
  let store = Machine.dbfs m in
  let churners = List.tl people in
  let victim_ready () =
    List.exists
      (fun (_, st, used, live, _) ->
        st = "sealed" && live > 0 && live * 100 <= used * 75)
      (Dbfs.segment_table store)
  in
  let rounds = ref 0 in
  while (not (victim_ready ())) && !rounds < 30 do
    incr rounds;
    List.iter
      (fun (p : Population.person) ->
        let pd = first_pd store p in
        match Dbfs.update_record store ~actor pd (Population.record_of p) with
        | Ok () -> ()
        | Error e -> fail_step "churn" (Dbfs.error_to_string e))
      churners
  done;
  if not (victim_ready ()) then
    fail_step "churn" "no compactable segment after 30 rounds";
  m

(* Post-crash acceptance shared by the segmented scenarios: the remounted
   image must repair clean, keep every survivor readable, and hold no
   plaintext of any non-live subject. *)
let seg_recover_checks store rdev people =
  let rep = Dbfs.fsck_repair store in
  let residue_free =
    List.for_all
      (fun (p : Population.person) ->
        live_subject store p
        || Block_device.scan rdev p.Population.email = [])
      people
  in
  let survivors_ok =
    List.for_all
      (fun (p : Population.person) ->
        match Dbfs.pds_of_subject store ~actor p.Population.subject_id with
        | Error _ -> false
        | Ok pds ->
            List.for_all
              (fun pd ->
                match Dbfs.entry_info store ~actor pd with
                | Ok (_, _, true) -> true (* erased: sealed envelope *)
                | Ok (_, _, false) ->
                    Result.is_ok (Dbfs.get_record store ~actor pd)
                | Error _ -> false)
              pds)
      people
  in
  (rep, residue_free, survivors_ok)

(* Crash at write ordinal [pick total] inside an explicit compaction
   pass.  Two instances bracket the pass: ordinal 1 lands in the
   relocation phase (payload written, journal record possibly not yet
   durable), the penultimate ordinal lands in the destruction phase
   (relocations durable, victims being zeroed). *)
let scenario_crash_mid_compaction ~seed people name pick =
  (* reference pass: how many device writes does this compaction do? *)
  let m0 = seg_setup ~seed ~window:1 people in
  let dev0 = Machine.pd_device m0 in
  let plan0 = Fault_plan.create () in
  Block_device.set_fault_plan dev0 (Some plan0);
  let victims =
    Dbfs.compact (Machine.dbfs m0) ~max_victims:16 ~liveness_pct:75.0
  in
  let total = Fault_plan.writes_seen plan0 in
  Block_device.set_fault_plan dev0 None;
  if victims = 0 || total = 0 then
    scenario name false
      (Printf.sprintf "compaction did no work (victims=%d writes=%d)" victims
         total)
  else begin
    let k = max 1 (min total (pick total)) in
    let m = seg_setup ~seed ~window:1 people in
    let dev = Machine.pd_device m in
    let plan = Fault_plan.create () in
    Fault_plan.crash_after_writes plan k;
    Block_device.set_fault_plan dev (Some plan);
    ignore (Dbfs.compact (Machine.dbfs m) ~max_victims:16 ~liveness_pct:75.0);
    match Block_device.crash_image dev with
    | None ->
        scenario name false
          (Printf.sprintf "crash at write %d/%d never fired" k total)
    | Some image -> (
        let rclock = Clock.create () in
        let rdev = Block_device.create ~config:pd_config ~clock:rclock () in
        Block_device.restore rdev image;
        match Dbfs.mount rdev with
        | Error e -> scenario name false ("mount failed: " ^ e)
        | Ok store ->
            let rep, residue_free, survivors_ok =
              seg_recover_checks store rdev people
            in
            scenario name
              (rep.Dbfs.rr_clean && residue_free && survivors_ok)
              (Printf.sprintf
                 "crash@%d/%d clean=%b residue_free=%b survivors_ok=%b \
                  quarantined=%d"
                 k total rep.Dbfs.rr_clean residue_free survivors_ok
                 (List.length rep.Dbfs.rr_quarantined)))
  end

(* Crash inside the batched ingest of a group-commit store: buffered
   journal records that never flushed are simply absent after replay —
   the store must come back clean with every durable entry intact. *)
let scenario_crash_mid_group_commit ~seed people =
  let name = "group-commit-crash" in
  let window = 4 in
  (* reference: write ordinals spanned by the batched collect phase *)
  let m0 = boot_seg ~seed ~window in
  let dev0 = Machine.pd_device m0 in
  let plan0 = Fault_plan.create () in
  Block_device.set_fault_plan dev0 (Some plan0);
  List.iter (collect_person m0) people;
  let total = Fault_plan.writes_seen plan0 in
  Block_device.set_fault_plan dev0 None;
  if total = 0 then scenario name false "collect phase performed no writes"
  else begin
    let k = max 1 (total * 2 / 3) in
    let m = boot_seg ~seed ~window in
    let dev = Machine.pd_device m in
    let plan = Fault_plan.create () in
    Fault_plan.crash_after_writes plan k;
    Block_device.set_fault_plan dev (Some plan);
    List.iter (collect_person m) people;
    let batched =
      Stats.Counter.get (Dbfs.stats (Machine.dbfs m)) "committed_batches"
    in
    match Block_device.crash_image dev with
    | None ->
        scenario name false
          (Printf.sprintf "crash at write %d/%d never fired" k total)
    | Some image -> (
        let rclock = Clock.create () in
        let rdev = Block_device.create ~config:pd_config ~clock:rclock () in
        Block_device.restore rdev image;
        match Dbfs.mount rdev with
        | Error e -> scenario name false ("mount failed: " ^ e)
        | Ok store ->
            let rep, residue_free, survivors_ok =
              seg_recover_checks store rdev people
            in
            scenario name
              (batched > 0 && rep.Dbfs.rr_clean && residue_free
             && survivors_ok)
              (Printf.sprintf
                 "crash@%d/%d batches=%d clean=%b residue_free=%b \
                  survivors_ok=%b"
                 k total batched rep.Dbfs.rr_clean residue_free survivors_ok))
  end

let scenarios ~seed people =
  [
    scenario_record_bit_rot ~seed people;
    scenario_index_damage ~seed people;
    scenario_index_page_rot ~seed people;
    scenario_transient_retry ~seed people;
    scenario_torn_write_retry ~seed people;
    scenario_degraded_mode ~seed people;
    scenario_crash_mid_compaction ~seed people "compaction-crash-relocate"
      (fun _ -> 1);
    scenario_crash_mid_compaction ~seed people "compaction-crash-destroy"
      (fun total -> total - 1);
    scenario_crash_mid_group_commit ~seed people;
  ]

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)

let run ?(seed = 7) ?(subjects = 6) ?max_points () =
  let subjects = max 4 subjects in
  let people = people_of ~seed ~subjects in
  let spans = reference_run ~seed people in
  let total = match List.rev spans with (_, w) :: _ -> w | [] -> 0 in
  if total = 0 then fail_step "reference" "workload performed no writes";
  let ordinals =
    let all = List.init total (fun i -> i + 1) in
    match max_points with
    | Some cap when cap > 0 && total > cap ->
        (* even stride over [1, total], always including the last write *)
        let stride = float_of_int total /. float_of_int cap in
        List.init cap (fun i ->
            min total (int_of_float (ceil (float_of_int (i + 1) *. stride))))
        |> List.sort_uniq compare
    | _ -> all
  in
  let points = List.map (run_point ~seed ~spans people) ordinals in
  {
    fc_seed = seed;
    fc_subjects = subjects;
    fc_steps = spans;
    fc_total_writes = total;
    fc_sampled = List.length ordinals < total;
    fc_points = points;
    fc_scenarios = scenarios ~seed people;
  }

let pass_rate_pct r =
  let checks =
    List.concat_map
      (fun p -> [ p.cp_residue_free; p.cp_audit_ok; p.cp_fsck_clean ])
      r.fc_points
  in
  if checks = [] then 0.0
  else
    100.0
    *. float_of_int (List.length (List.filter Fun.id checks))
    /. float_of_int (List.length checks)

let all_pass r =
  pass_rate_pct r = 100.0 && List.for_all (fun s -> s.sc_pass) r.fc_scenarios

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let to_json ?wall_ms r =
  let point p =
    Json.Obj
      [
        ("write", Json.Num (float_of_int p.cp_write));
        ("step", Json.Str p.cp_step);
        ("plan", Json.Str p.cp_plan);
        ("replay_stop", Json.Str p.cp_replay_stop);
        ("quarantined", Json.Num (float_of_int p.cp_quarantined));
        ("residue_free", Json.Bool p.cp_residue_free);
        ("audit_ok", Json.Bool p.cp_audit_ok);
        ("fsck_clean", Json.Bool p.cp_fsck_clean);
      ]
  in
  let scen s =
    Json.Obj
      [
        ("name", Json.Str s.sc_name);
        ("pass", Json.Bool s.sc_pass);
        ("detail", Json.Str s.sc_detail);
      ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "rgpdos-fault-campaign/1");
       ("seed", Json.Num (float_of_int r.fc_seed));
       ("subjects", Json.Num (float_of_int r.fc_subjects));
       ( "steps",
         Json.List
           (List.map
              (fun (name, upto) ->
                Json.Obj
                  [
                    ("name", Json.Str name);
                    ("writes_upto", Json.Num (float_of_int upto));
                  ])
              r.fc_steps) );
       ("total_writes", Json.Num (float_of_int r.fc_total_writes));
       ("crash_points", Json.Num (float_of_int (List.length r.fc_points)));
       ("sampled", Json.Bool r.fc_sampled);
       ("pass_rate_pct", Json.Num (pass_rate_pct r));
       ("points", Json.List (List.map point r.fc_points));
       ("scenarios", Json.List (List.map scen r.fc_scenarios));
     ]
    @ match wall_ms with None -> [] | Some w -> [ ("wall_ms", Json.Num w) ])

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "fault campaign: seed=%d subjects=%d total_writes=%d crash_points=%d%s\n"
       r.fc_seed r.fc_subjects r.fc_total_writes
       (List.length r.fc_points)
       (if r.fc_sampled then " (sampled)" else " (exhaustive)"));
  Buffer.add_string b
    (Printf.sprintf "invariant pass rate: %.1f%%\n" (pass_rate_pct r));
  let count f = List.length (List.filter f r.fc_points) in
  Buffer.add_string b
    (Printf.sprintf
       "  residue-free %d/%d   audit-chain %d/%d   fsck-clean %d/%d\n"
       (count (fun p -> p.cp_residue_free))
       (List.length r.fc_points)
       (count (fun p -> p.cp_audit_ok))
       (List.length r.fc_points)
       (count (fun p -> p.cp_fsck_clean))
       (List.length r.fc_points));
  List.iter
    (fun p ->
      if not (p.cp_residue_free && p.cp_audit_ok && p.cp_fsck_clean) then
        Buffer.add_string b
          (Printf.sprintf
             "  FAIL at write %d (%s) %s: residue_free=%b audit=%b fsck=%b \
              replay=%s\n"
             p.cp_write p.cp_step p.cp_plan p.cp_residue_free p.cp_audit_ok
             p.cp_fsck_clean p.cp_replay_stop))
    r.fc_points;
  Buffer.add_string b "scenarios:\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  %-18s %s  (%s)\n" s.sc_name
           (if s.sc_pass then "PASS" else "FAIL")
           s.sc_detail))
    r.fc_scenarios;
  Buffer.contents b
