(* Log-structured segments, group commit and backpressure.

   The load-bearing properties of the segment PR:

   - group commit is a pure batching layer: for ANY op script, flushing
     the journal in windows of 4 or 64 leaves the device byte-identical
     to per-op flushing (window 1) — same journal bytes (the audit
     chain replay reads), same payload extents, same index pages;
   - a crash with records still buffered in the group-commit window
     loses only those records: the restored image mounts, replays and
     repairs clean, on either allocator, because a mutation that
     destroys blocks commits the window first;
   - a write fault ridden out by the retry loop frames its journal
     record once, and a torn journal tail repairs clean;
   - erase → compact → remount leaves no plaintext residue of the
     erased records anywhere on the raw image, even though compaction
     relocates their (live) neighbours, and every sealed envelope,
     relocated or not, reads back exactly;
   - backpressure stalls are deterministic simulated-clock charges:
     identical runs agree on the stall count and the final clock;
   - the space invariant ([Space.check], run by [Dbfs.fsck]) holds after
     every op on both allocators, and the hinted first-fit places
     exactly where a scan from the zone start would. *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Fnv = Rgpdos_util.Fnv
module Block_device = Rgpdos_block.Block_device
module Fault_plan = Block_device.Fault_plan
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Schema = Rgpdos_dbfs.Schema
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Membrane = Rgpdos_membrane.Membrane

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let actor = "ded"

let schema () =
  match
    Schema.make ~name:"reading"
      ~fields:
        [
          { Schema.fname = "payload"; ftype = Value.TString; required = true };
          { Schema.fname = "bucket"; ftype = Value.TInt; required = true };
        ]
      ~default_consents:[ ("service", Membrane.All) ]
      ~collection:[ ("sensor", "test") ]
      ~default_ttl:(20 * Clock.year)
      ~indexed_fields:[ "bucket" ] ()
  with
  | Ok s -> s
  | Error e -> failwith e

let make_store ?(block_size = 512) ?(block_count = 4_096)
    ?(allocator = Space.segments) ?(window = 1) ?(journal_blocks = 256) () =
  let clock = Clock.create () in
  let config =
    { Block_device.default_config with block_size; block_count }
  in
  let dev = Block_device.create ~config ~clock () in
  let t = Dbfs.format ~allocator dev ~journal_blocks in
  if window > 1 then Dbfs.set_group_commit t window;
  let s = schema () in
  (match Dbfs.create_type t ~actor s with
  | Ok () -> ()
  | Error e -> failwith (Dbfs.error_to_string e));
  (dev, clock, t, s)

(* A raw image of a [make_store] device, mounted on a fresh one: the
   power cycle every crash test ends with. *)
let mount_image image =
  let config =
    { Block_device.default_config with block_size = 512; block_count = 4_096 }
  in
  let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
  Block_device.restore dev image;
  match Dbfs.mount dev with
  | Ok t -> (dev, t)
  | Error e -> Alcotest.fail ("mount failed: " ^ e)

(* Membranes are stamped with a FIXED created_at: the windows advance the
   simulated clock differently (that is the point of batching), and the
   byte-identity property must not be polluted by wall-time. *)
let insert_subject ?sensitivity t (s : Schema.t) i =
  let subject = Printf.sprintf "sub-%03d" i in
  let sensitivity =
    Option.value sensitivity ~default:s.Schema.default_sensitivity
  in
  Dbfs.insert t ~actor ~subject ~type_name:"reading"
    ~record:
      [
        ("payload", Value.VString (Printf.sprintf "KEEP-%03d-v000" i));
        ("bucket", Value.VInt (i mod 7));
      ]
    ~membrane_of:(fun ~pd_id ->
      Membrane.make ~pd_id ~type_name:"reading" ~subject_id:subject
        ~origin:s.Schema.default_origin ~consents:s.Schema.default_consents
        ~created_at:0 ?ttl:s.Schema.default_ttl ~sensitivity
        ~collection:s.Schema.collection ())

(* ------------------------------------------------------------------ *)
(* group commit: byte-identical on-disk state across windows           *)

type op = Insert of int | Update of int | Erase of int | Delete of int

(* Apply a script on a fresh store (segmented unless [allocator] says
   otherwise) with the given group-commit window, calling [after_op]
   after each op; invalid ops (update of a never-inserted subject, ...)
   are skipped by the same deterministic rule on every side.  Returns the
   raw device image after an explicit final flush + checkpoint. *)
let run_script ?allocator ?(after_op = ignore) ~window ops =
  let pool = 8 in
  let dev, _clock, t, s = make_store ?allocator ~window () in
  let pds = Array.make pool None in
  let erased = Array.make pool false in
  let version = Array.make pool 0 in
  List.iter
    (fun op ->
      (match op with
      | Insert i when pds.(i) = None -> (
          match insert_subject t s i with
          | Ok pd -> pds.(i) <- Some pd
          | Error e -> failwith (Dbfs.error_to_string e))
      | Update i -> (
          match pds.(i) with
          | Some pd when not erased.(i) ->
              version.(i) <- version.(i) + 1;
              let r =
                [
                  ( "payload",
                    Value.VString
                      (Printf.sprintf "KEEP-%03d-v%03d" i version.(i)) );
                  ("bucket", Value.VInt (i mod 7));
                ]
              in
              (match Dbfs.update_record t ~actor pd r with
              | Ok () -> ()
              | Error e -> failwith (Dbfs.error_to_string e))
          | _ -> ())
      | Erase i -> (
          match pds.(i) with
          | Some pd when not erased.(i) ->
              erased.(i) <- true;
              (match
                 Dbfs.erase_with t ~actor [ pd ] ~seal:(fun r ->
                     "SEALED:" ^ Fnv.hash64_hex (Record.encode r))
               with
              | Ok _ -> ()
              | Error e -> failwith (Dbfs.error_to_string e))
          | _ -> ())
      | Delete i -> (
          match pds.(i) with
          | Some pd ->
              pds.(i) <- None;
              erased.(i) <- false;
              (match Dbfs.delete t ~actor [ pd ] with
              | Ok () -> ()
              | Error e -> failwith (Dbfs.error_to_string e))
          | _ -> ())
      | Insert _ -> ());
      after_op t)
    ops;
  Dbfs.flush_journal t;
  Dbfs.checkpoint t;
  (Block_device.snapshot dev, Dbfs.stats t)

let op_gen =
  QCheck.Gen.(
    pair (int_range 0 3) (int_range 0 7) >|= fun (k, i) ->
    match k with
    | 0 -> Insert i
    | 1 -> Update i
    | 2 -> Erase i
    | _ -> Delete i)

let op_print = function
  | Insert i -> Printf.sprintf "Insert %d" i
  | Update i -> Printf.sprintf "Update %d" i
  | Erase i -> Printf.sprintf "Erase %d" i
  | Delete i -> Printf.sprintf "Delete %d" i

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (5 -- 40) op_gen)

let prop_group_commit_byte_identical =
  QCheck.Test.make
    ~name:"windows 1/4/64 leave byte-identical images for any script"
    ~count:25 script_arb
    (fun ops ->
      let base, _ = run_script ~window:1 ops in
      List.for_all
        (fun w ->
          let img, st = run_script ~window:w ops in
          (* batching must actually have happened when ops did *)
          let batches = Stats.Counter.get st "committed_batches" in
          let batched = Stats.Counter.get st "batched_ops" in
          img = base && batched >= batches)
        [ 4; 64 ])

(* window 1 is a batch of one: every record commits through the one
   flush path, in a batch of its own *)
let test_window_one_batch_of_one () =
  (* create_type, insert, update, erase: four records (Update 1 names a
     subject never inserted and is skipped) *)
  let _, st = run_script ~window:1 [ Insert 0; Update 0; Update 1; Erase 0 ] in
  check_int "one batch per record" 4 (Stats.Counter.get st "committed_batches");
  check_int "one record per batch" 4 (Stats.Counter.get st "batched_ops")

(* the ring counts into the store's own counter set, so a reset zeroes
   the group-commit tallies with every other counter *)
let test_reset_clears_batch_counters () =
  let _dev, _clock, t, s = make_store ~window:4 () in
  let insert i =
    match insert_subject t s i with
    | Ok _ -> ()
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  List.iter insert (List.init 8 Fun.id);
  check_int "batches before the reset" 2
    (Stats.Counter.get (Dbfs.stats t) "committed_batches");
  Stats.Counter.reset (Dbfs.stats t);
  let st = Dbfs.stats t in
  check_int "inserts after the reset" 0 (Stats.Counter.get st "inserts");
  check_int "committed_batches after the reset" 0
    (Stats.Counter.get st "committed_batches");
  check_int "batched_ops after the reset" 0 (Stats.Counter.get st "batched_ops");
  List.iter insert (List.init 4 (fun i -> 8 + i));
  let st = Dbfs.stats t in
  check_int "counting resumes from the reset" 1
    (Stats.Counter.get st "committed_batches");
  check_int "batched ops since the reset" 4 (Stats.Counter.get st "batched_ops")

(* ------------------------------------------------------------------ *)
(* the space invariant                                                 *)

let prop_fsck_clean_after_every_op =
  QCheck.Test.make
    ~name:"fsck clean after every op: segments at 1/4/64, heap at 1"
    ~count:25 script_arb
    (fun ops ->
      let after_op t =
        match Dbfs.fsck t with
        | Ok () -> ()
        | Error ps -> QCheck.Test.fail_reportf "%s" (String.concat "; " ps)
      in
      List.iter
        (fun (allocator, window) ->
          ignore (run_script ~allocator ~after_op ~window ops))
        [ (Space.segments, 1); (Space.segments, 4); (Space.segments, 64);
          (Space.Heap, 1) ];
      true)

(* ------------------------------------------------------------------ *)
(* the slot law                                                        *)

type lop =
  | L_insert of int * bool  (* subject; a short TTL *)
  | L_rectify of int
  | L_consent of int
  | L_erase of int * bool  (* subject; withdraw every consent too *)
  | L_delete of int
  | L_expire
  | L_checkpoint
  | L_remount
  | L_compact

let lop_print = function
  | L_insert (i, short) -> Printf.sprintf "insert %d%s" i (if short then " ttl" else "")
  | L_rectify i -> Printf.sprintf "rectify %d" i
  | L_consent i -> Printf.sprintf "consent %d" i
  | L_erase (i, w) -> Printf.sprintf "erase %d%s" i (if w then " withdraw" else "")
  | L_delete i -> Printf.sprintf "delete %d" i
  | L_expire -> "expire"
  | L_checkpoint -> "checkpoint"
  | L_remount -> "remount"
  | L_compact -> "compact"

let lop_gen =
  QCheck.Gen.(
    pair (int_range 0 11) (pair (int_range 0 7) bool) >|= fun (k, (i, b)) ->
    match k with
    | 0 | 1 | 2 -> L_insert (i, b)
    | 3 -> L_rectify i
    | 4 -> L_consent i
    | 5 -> L_erase (i, b)
    | 6 -> L_delete i
    | 7 -> L_expire
    | 8 -> L_checkpoint
    | 9 -> L_remount
    | _ -> L_compact)

let lops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map lop_print ops))
    QCheck.Gen.(list_size (5 -- 40) lop_gen)

let extents_of t =
  match Dbfs.list_pds t ~actor "reading" with
  | Error e -> failwith (Dbfs.error_to_string e)
  | Ok ids ->
      List.map
        (fun pd ->
          match Dbfs.entry_extents t ~actor pd with
          | Ok (r, m) -> (pd, r, m)
          | Error e -> failwith (Dbfs.error_to_string e))
        ids

(* One script on a fresh store.  After every op fsck is clean (live slots
   disjoint, in allocated pages of their zone, listed by the slot map);
   no data-page byte outside a live slot holds anything after every op on
   the heap and after every op that destroyed on segments; a remount
   rebuilds the same slots; and after [fsck_repair] nothing is left
   outside a live slot on either allocator. *)
let slot_law ~allocator ~block_size ops =
  let clock = Clock.create () in
  let config =
    { Block_device.default_config with block_size; block_count = 262_144 / block_size * 8 }
  in
  let dev = Block_device.create ~config ~clock () in
  let t = ref (Dbfs.format ~allocator dev ~journal_blocks:(16_384 / block_size)) in
  let s = schema () in
  (match Dbfs.create_type !t ~actor s with
  | Ok () -> ()
  | Error e -> failwith (Dbfs.error_to_string e));
  let pds = Array.make 8 None and erased = Array.make 8 false in
  let version = ref 0 in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let ok what = function
    | Ok v -> v
    | Error e -> fail "%s: %s" what (Dbfs.error_to_string e)
  in
  let no_stray what =
    match Rgpdos_model.Refine.stray_byte !t with
    | None -> ()
    | Some (b, off) -> fail "%s: block %d byte %d is outside every live slot" what b off
  in
  let erase i ?withdraw pd =
    ignore
      (ok "erase"
         (Dbfs.erase_with !t ~actor ?withdraw [ pd ] ~seal:(fun r ->
              "SEALED:" ^ Fnv.hash64_hex (Record.encode r))));
    erased.(i) <- true
  in
  List.iter
    (fun op ->
      let what = lop_print op in
      let destroyed = ref false in
      (match op with
      | L_insert (i, short) when pds.(i) = None ->
          let subject = Printf.sprintf "sub-%03d" i in
          pds.(i) <-
            Some
              (ok what
                 (Dbfs.insert !t ~actor ~subject ~type_name:"reading"
                    ~record:
                      [
                        ("payload", Value.VString (Printf.sprintf "SLOT-%03d-v000" i));
                        ("bucket", Value.VInt i);
                      ]
                    ~membrane_of:(fun ~pd_id ->
                      Membrane.make ~pd_id ~type_name:"reading" ~subject_id:subject
                        ~origin:s.Schema.default_origin
                        ~consents:s.Schema.default_consents
                        ~created_at:(Clock.now clock)
                        ~ttl:(if short then 1_000 else 20 * Clock.year)
                        ~collection:s.Schema.collection ())));
          erased.(i) <- false
      | L_rectify i -> (
          match pds.(i) with
          | Some pd when not erased.(i) ->
              incr version;
              ok what
                (Dbfs.update_record !t ~actor pd
                   [
                     ("payload", Value.VString (Printf.sprintf "SLOT-%03d-v%03d" i !version));
                     ("bucket", Value.VInt i);
                   ])
          | _ -> ())
      | L_consent i -> (
          match pds.(i) with
          | Some pd ->
              let m = ok what (Dbfs.get_membrane !t ~actor pd) in
              let flip =
                if List.assoc_opt "service" m.Membrane.consents = Some Membrane.Denied
                then Membrane.All
                else Membrane.Denied
              in
              ok what
                (Dbfs.update_membrane !t ~actor pd
                   (Membrane.set_consent m ~purpose:"service" flip))
          | None -> ())
      | L_erase (i, withdraw) -> (
          match pds.(i) with
          | Some pd when not erased.(i) ->
              if withdraw then erase i ~withdraw:Membrane.withdraw_all pd else erase i pd;
              destroyed := true
          | _ -> ())
      | L_delete i -> (
          match pds.(i) with
          | Some pd ->
              ok what (Dbfs.delete !t ~actor [ pd ]);
              pds.(i) <- None;
              destroyed := true
          | None -> ())
      | L_expire ->
          Clock.advance clock 2_000;
          List.iter
            (fun pd ->
              Array.iteri
                (fun i p ->
                  if p = Some pd && not erased.(i) then begin
                    erase i pd;
                    destroyed := true
                  end)
                pds)
            (ok what (Dbfs.expired_pds !t ~actor ~now:(Clock.now clock)))
      | L_checkpoint -> Dbfs.checkpoint !t
      | L_remount ->
          let before = extents_of !t in
          (t :=
             match Dbfs.crash_and_remount !t with
             | Ok t -> t
             | Error e -> fail "remount: %s" e);
          if extents_of !t <> before then fail "remount rebuilt different slots"
      | L_compact -> ignore (Dbfs.compact !t ~max_victims:64 ~liveness_pct:75.0)
      | L_insert _ -> ());
      (match Dbfs.fsck !t with
      | Ok () -> ()
      | Error ps -> fail "%s: fsck: %s" what (String.concat "; " ps));
      if allocator = Space.Heap || !destroyed then no_stray what)
    ops;
  let rep = Dbfs.fsck_repair !t in
  if not rep.Dbfs.rr_clean then
    fail "repair not clean: %s" (String.concat "; " rep.Dbfs.rr_problems);
  no_stray "after fsck_repair";
  true

let prop_slot_law =
  QCheck.Test.make
    ~name:"slot law: heap and two-block segments, 512-byte and 4 KiB pages"
    ~count:25 lops_arb
    (fun ops ->
      List.for_all
        (fun (allocator, block_size) -> slot_law ~allocator ~block_size ops)
        [ (Space.Heap, 512); (Space.Heap, 4096); (Space.Segments 2, 512);
          (Space.Segments 2, 4096) ])

(* Hint-less reference: the first run of [n] free slots in [lo, hi),
   else the first [n] free slots, else nothing. *)
let reference_fit free ~lo ~hi n =
  let span = List.init (hi - lo) (fun k -> lo + k) in
  let run s = s + n <= hi && List.for_all (fun k -> free.(s + k)) (List.init n Fun.id) in
  let free_slots = List.filter (fun i -> free.(i)) span in
  let pick =
    match List.find_opt run span with
    | Some s -> Some (List.init n (fun k -> s + k))
    | None when List.length free_slots >= n ->
        Some (List.filteri (fun k _ -> k < n) free_slots)
    | None -> None
  in
  Option.iter (List.iter (fun i -> free.(i) <- false)) pick;
  pick

(* Random allocs of [k mod 13] blocks, and frees of one slot picked by
   [k], in one of three zones; a free lowers its zone's hint, as
   [Space.mark_free] does. *)
let prop_first_fit_matches_reference =
  let zones = [| (0, 24); (24, 72); (72, 96) |] in
  QCheck.Test.make ~name:"hinted first-fit == hint-less reference scan"
    ~count:200
    QCheck.(list_of_size Gen.(5 -- 80) (triple bool (int_bound 2) (int_bound 95)))
    (fun ops ->
      let hinted = Array.make 96 true and plain = Array.make 96 true in
      let hints = Array.init 3 (fun _ -> ref 0) in
      List.for_all
        (fun (alloc, z, k) ->
          let lo, hi = zones.(z) in
          if alloc then
            Space.first_fit hinted ~hint:hints.(z) ~lo ~hi (k mod 13)
            = reference_fit plain ~lo ~hi (k mod 13)
          else begin
            let i = lo + (k mod (hi - lo)) in
            hinted.(i) <- true;
            plain.(i) <- true;
            if i < !(hints.(z)) then hints.(z) := i;
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* crash with records still buffered in the window                     *)

let test_crash_between_batches_replays_cleanly ~allocator () =
  let dev, _clock, t, s = make_store ~allocator ~window:8 () in
  (* three full subjects reach the device in committed batches *)
  let durable =
    List.map
      (fun i ->
        match insert_subject t s i with
        | Ok pd -> pd
        | Error e -> failwith (Dbfs.error_to_string e))
      [ 0; 1; 2 ]
  in
  Dbfs.flush_journal t;
  let batches = Stats.Counter.get (Dbfs.stats t) "committed_batches" in
  check_bool "flush committed at least one batch" true (batches > 0);
  (* a rectification and a delete destroy blocks the durable records
     name: their own records must be durable before the blocks go *)
  (match
     Dbfs.update_record t ~actor (List.nth durable 1)
       [ ("payload", Value.VString "KEEP-001-v001"); ("bucket", Value.VInt 1) ]
   with
  | Ok () -> ()
  | Error e -> failwith (Dbfs.error_to_string e));
  (match Dbfs.delete t ~actor [ List.nth durable 2 ] with
  | Ok () -> ()
  | Error e -> failwith (Dbfs.error_to_string e));
  (* more records enter the window but never flush: the crash image is
     taken with them buffered *)
  (match insert_subject t s 3 with Ok _ -> () | Error e -> failwith
    (Dbfs.error_to_string e));
  (match insert_subject t s 4 with Ok _ -> () | Error e -> failwith
    (Dbfs.error_to_string e));
  (* the unflushed tail is simply absent from the image *)
  let _, t' = mount_image (Block_device.snapshot dev) in
  (* hydration queued the replayed inserts' blocks as dirty (free and
     written in the format-time bitmap) before replay marked them used:
     a purge — any delete — must not zero them *)
  check_bool "fsck clean before repair" true (Dbfs.fsck t' = Ok ());
  (match Dbfs.delete t' ~actor [ List.hd durable ] with
  | Ok () -> ()
  | Error e -> failwith (Dbfs.error_to_string e));
  let rep = Dbfs.fsck_repair t' in
  check_bool "fsck clean after crash mid-window" true rep.Dbfs.rr_clean;
  check_int "no quarantine" 0 (List.length rep.Dbfs.rr_quarantined);
  check_bool "durable record survives" true
    (Result.is_ok (Dbfs.get_record t' ~actor (List.nth durable 1)));
  check_bool "the delete survives" true
    (Result.is_error (Dbfs.get_record t' ~actor (List.nth durable 2)))

(* A transient write fault at any op of a run is ridden out by the retry
   loop, and must leave exactly the run's records on the device: a
   retried append frames its record once, even when the fault hits the
   flush that commits it. *)
let test_retried_flush_frames_once ~window () =
  let run plan =
    let dev, _clock, t, s = make_store ~allocator:Space.Heap ~window () in
    Block_device.set_fault_plan dev (Some plan);
    for i = 0 to 7 do
      match insert_subject t s i with
      | Ok _ -> ()
      | Error e -> failwith (Dbfs.error_to_string e)
    done;
    Dbfs.flush_journal t;
    Block_device.snapshot dev
  in
  let reference = Fault_plan.create () in
  ignore (run reference);
  for nth = 1 to Fault_plan.writes_seen reference do
    let plan = Fault_plan.create () in
    Fault_plan.on_write plan ~nth (Fault_plan.Fail_write { transient = true });
    let _, t' = mount_image (run plan) in
    let at what = Printf.sprintf "fault at write %d: %s" nth what in
    check_int (at "pds after the remount") 8
      (match Dbfs.list_pds t' ~actor "reading" with
      | Ok pds -> List.length pds
      | Error e -> Alcotest.fail (Dbfs.error_to_string e));
    check_bool (at "fsck clean") true (Dbfs.fsck t' = Ok ())
  done

(* The torn journal tail: every write op of a run that laps a four-block
   ring, torn to its first run with the power cut right there.  A flush
   that wraps the ring is two runs, the ring's first block and its last,
   so a cut there leaves the new frame's tail on the medium without its
   head.  Every cut must repair clean, quarantine nothing and keep every
   record durable before it. *)
let test_torn_journal_tail () =
  let run plan =
    let dev, _clock, t, s = make_store ~journal_blocks:4 () in
    Block_device.set_fault_plan dev (Some plan);
    let done_at =
      List.map
        (fun i ->
          match insert_subject t s i with
          | Ok pd -> (pd, Fault_plan.writes_seen plan)
          | Error e -> failwith (Dbfs.error_to_string e))
        (List.init 48 Fun.id)
    in
    (dev, done_at)
  in
  let reference = Fault_plan.create () in
  (* an insert's last write op is the flush of its journal record *)
  let _, flushes = run reference in
  let torn = ref 0 in
  for k = 1 to Fault_plan.writes_seen reference do
    let plan = Fault_plan.create () in
    Fault_plan.on_write plan ~nth:k (Fault_plan.Torn_write { keep_runs = 1 });
    Fault_plan.crash_after_writes plan k;
    let dev, done_at = run plan in
    let image =
      match Block_device.crash_image dev with
      | Some image -> image
      | None -> Alcotest.failf "cut at write %d never fired" k
    in
    let _, t' = mount_image image in
    let at what = Printf.sprintf "cut at write %d: %s" k what in
    let rep = Dbfs.fsck_repair t' in
    check_bool (at "repair clean") true rep.Dbfs.rr_clean;
    check_int (at "nothing quarantined") 0 (List.length rep.Dbfs.rr_quarantined);
    List.iter
      (fun (pd, w) ->
        if w < k then
          check_bool (at ("durable " ^ pd ^ " survives")) true
            (Result.is_ok (Dbfs.get_record t' ~actor pd)))
      done_at;
    (* a cut on a record's own flush loses that record only when the
       flush wrapped *)
    List.iter
      (fun (pd, w) ->
        if w = k && Result.is_error (Dbfs.get_record t' ~actor pd) then
          incr torn)
      flushes
  done;
  check_bool "some cut tore a frame across the wrap" true (!torn > 0)

(* ------------------------------------------------------------------ *)
(* erase -> compact -> remount -> zero residue                         *)

(* [erase_first] erases before the churn instead of after it: the sealed
   envelopes then share segments with records the churn kills, so
   compaction relocates some of them, and each must still read back as
   its exact envelope after the remount. *)
(* Four-block segments: 120 packed records fill a few pages, and small
   segments seal them so the compactor has victims. *)
let small_segments = Space.Segments 4

let test_erase_compact_remount_no_residue ~erase_first () =
  let dev, _clock, t, s = make_store ~allocator:small_segments () in
  let pds =
    List.map
      (fun i ->
        let subject = Printf.sprintf "sub-%03d" i in
        let doomed = i mod 3 = 0 in
        let tag = if doomed then "GONE" else "KEEP" in
        match
          Dbfs.insert t ~actor ~subject ~type_name:"reading"
            ~record:
              [
                ( "payload",
                  Value.VString (Printf.sprintf "%s-%03d-PAYLOAD" tag i) );
                ("bucket", Value.VInt (i mod 7));
              ]
            ~membrane_of:(fun ~pd_id ->
              Membrane.make ~pd_id ~type_name:"reading" ~subject_id:subject
                ~origin:s.Schema.default_origin
                ~consents:s.Schema.default_consents ~created_at:0
                ?ttl:s.Schema.default_ttl
                ~sensitivity:s.Schema.default_sensitivity
                ~collection:s.Schema.collection ())
        with
        | Ok pd -> (i, pd, doomed)
        | Error e -> failwith (Dbfs.error_to_string e))
      (List.init 120 Fun.id)
  in
  (* churn the keepers so compaction has relocation work around the
     erased extents *)
  let churn () =
    List.iter
      (fun (i, pd, doomed) ->
        if not doomed then
          match
            Dbfs.update_record t ~actor pd
              [
                ("payload", Value.VString (Printf.sprintf "KEEP-%03d-v001" i));
                ("bucket", Value.VInt (i mod 7));
              ]
          with
          | Ok () -> ()
          | Error e -> failwith (Dbfs.error_to_string e))
      pds
  in
  let sealed = Hashtbl.create 64 in
  let erase () =
    List.iter
      (fun (_, pd, doomed) ->
        if doomed then
          match
            Dbfs.erase_with t ~actor [ pd ] ~seal:(fun r ->
                let envelope = "SEALED:" ^ Fnv.hash64_hex (Record.encode r) in
                Hashtbl.replace sealed pd envelope;
                envelope)
          with
          | Ok _ -> ()
          | Error e -> failwith (Dbfs.error_to_string e))
      pds
  in
  if erase_first then (erase (); churn ()) else (churn (); erase ());
  let erased = List.filter (fun (_, _, doomed) -> doomed) pds in
  let blocks_of pd =
    match Dbfs.entry_extents t ~actor pd with
    | Ok (record, _) -> record.Space.blocks
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  let before = List.map (fun (_, pd, _) -> blocks_of pd) erased in
  ignore (Dbfs.compact t ~max_victims:64 ~liveness_pct:75.0);
  if erase_first then
    check_bool "compaction relocated a sealed envelope" true
      (List.exists2 (fun (_, pd, _) b -> blocks_of pd <> b) erased before);
  Dbfs.flush_journal t;
  Dbfs.checkpoint t;
  check_int "no GONE residue on the live image" 0
    (List.length (Block_device.scan dev "GONE-"));
  (* remount the raw image and look again with fresh eyes *)
  let dev', t' = mount_image (Block_device.snapshot dev) in
  let rep = Dbfs.fsck_repair t' in
  check_bool "fsck clean after compaction" true rep.Dbfs.rr_clean;
  (* every envelope, moved or not, reads back exactly *)
  List.iter
    (fun (_, pd, _) ->
      check_bool "still erased after the remount" true
        (match Dbfs.entry_info t' ~actor pd with
        | Ok (_, _, erased) -> erased
        | Error _ -> false);
      Alcotest.(check (result string string))
        "sealed envelope after the remount"
        (Ok (Hashtbl.find sealed pd))
        (Result.map_error Dbfs.error_to_string
           (Dbfs.erased_payload t' ~actor pd)))
    erased;
  check_int "no GONE residue after remount" 0
    (List.length (Block_device.scan dev' "GONE-"));
  (* keepers were relocated, not lost *)
  check_bool "keeper survives compaction" true
    (List.for_all
       (fun (_, pd, doomed) ->
         doomed || Result.is_ok (Dbfs.get_record t ~actor pd))
       pds)

(* Compaction commits its survivors in chunks: one payload write and one
   journal record each, no larger than the ring takes, so at window 1 a
   pass raises committed_batches by its number of chunks, not its number
   of survivors.  A ring too small for one record of every move takes
   several.  After a remount and repair the image is clean, every record
   reads back, and no relocated extent's plaintext is left in a victim:
   each record's payload is found only in its own current blocks. *)
let test_compaction_commits_chunks ~journal_blocks () =
  let _, _, t, s = make_store ~allocator:small_segments ~journal_blocks () in
  let payload i v = Printf.sprintf "KEEP-%03d-v%03d" i v in
  let pds =
    List.init 120 (fun i ->
        match insert_subject t s i with
        | Ok pd -> (i, pd)
        | Error e -> failwith (Dbfs.error_to_string e))
  in
  let version i = if i mod 3 = 0 then 0 else 1 in
  List.iter
    (fun (i, pd) ->
      if version i = 1 then
        match
          Dbfs.update_record t ~actor pd
            [
              ("payload", Value.VString (payload i 1));
              ("bucket", Value.VInt (i mod 7));
            ]
        with
        | Ok () -> ()
        | Error e -> failwith (Dbfs.error_to_string e))
    pds;
  let st = Dbfs.stats t in
  let count name = Stats.Counter.get st name in
  let batches = count "committed_batches" in
  let moved = count "compact_relocations" in
  ignore (Dbfs.compact t ~max_victims:64 ~liveness_pct:75.0);
  let batches = count "committed_batches" - batches in
  let moved = count "compact_relocations" - moved in
  check_bool "the pass relocated several survivors" true (moved > 1);
  if journal_blocks >= 64 then
    check_int "one chunk: one record for every survivor" 1 batches
  else
    check_bool
      (Printf.sprintf "%d chunks for %d survivors" batches moved)
      true
      (batches > 1 && batches < moved);
  let dev', t' = mount_image (Block_device.snapshot (Dbfs.device t)) in
  let rep = Dbfs.fsck_repair t' in
  check_bool "repair clean" true rep.Dbfs.rr_clean;
  check_int "nothing quarantined" 0 (List.length rep.Dbfs.rr_quarantined);
  List.iter
    (fun (i, pd) ->
      let current = payload i (version i) in
      check_bool (current ^ " reads back") true
        (match Dbfs.get_record t' ~actor pd with
        | Ok r -> List.assoc_opt "payload" r = Some (Value.VString current)
        | Error _ -> false);
      let blocks =
        match Dbfs.entry_extents t' ~actor pd with
        | Ok (record, _) -> record.Space.blocks
        | Error e -> failwith (Dbfs.error_to_string e)
      in
      check_bool (current ^ " only in its own blocks") true
        (List.for_all
           (fun (b, _) -> List.mem b blocks)
           (Block_device.scan dev' current)))
    pds

(* Every record is rewritten once, so the new versions fill pages whose
   slots are all live; rewriting the first half again leaves a segment
   that holds both halves half dead: a victim with pages of survivors
   only and pages of survivors next to dead slots.  Returns the device,
   the store, a function listing each pd's record page (by pd index) and
   every page that held a slot now dead. *)
let half_dead_store () =
  let dev, _, t, s = make_store ~allocator:small_segments () in
  let pds =
    List.init 60 (fun i ->
        match insert_subject t s i with
        | Ok pd -> (i, pd)
        | Error e -> failwith (Dbfs.error_to_string e))
  in
  let rewrite v (i, pd) =
    match
      Dbfs.update_record t ~actor pd
        [
          ("payload", Value.VString (Printf.sprintf "KEEP-%03d-v%03d" i v));
          ("bucket", Value.VInt (i mod 7));
        ]
    with
    | Ok () -> ()
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  let pages () =
    List.map
      (fun (i, pd) ->
        match Dbfs.entry_extents t ~actor pd with
        | Ok (record, _) -> (i, List.hd record.Space.blocks)
        | Error e -> failwith (Dbfs.error_to_string e))
      pds
  in
  let v0 = pages () in
  List.iter (rewrite 1) pds;
  let v1 = pages () in
  List.iter (fun (i, pd) -> if i < 30 then rewrite 2 (i, pd)) pds;
  let dead = List.map snd (v0 @ List.filter (fun (i, _) -> i < 30) v1) in
  (dev, t, pages, dead)

(* Compaction reads its survivors with the store's one checked read of
   slots: a survivor on a page that stays unreadable is counted in
   compact_verify_failures and left in place for fsck, and every other
   survivor of the pass still moves.  A reference pass without the fault
   names the survivors; the bad page is one that never held a dead slot,
   and whose every slot moved there. *)
let test_compaction_skips_unreadable_page () =
  let run ~bad =
    let dev, t, pages, dead = half_dead_store () in
    let before = pages () in
    Option.iter (Block_device.inject_fault dev) bad;
    let count k = Stats.Counter.get (Dbfs.stats t) k in
    ignore (Dbfs.compact t ~max_victims:64 ~liveness_pct:75.0);
    let after = pages () in
    let moved =
      List.filter_map
        (fun ((i, b), (_, b')) -> if b <> b' then Some (i, b) else None)
        (List.combine before after)
    in
    (dead, before, moved, count "compact_relocations", count "compact_verify_failures")
  in
  let dead, before, moved, relocated, failures = run ~bad:None in
  check_int "reference: every survivor read" 0 failures;
  check_int "reference: relocations counted" (List.length moved) relocated;
  let on page = List.filter (fun (_, b) -> b = page) before in
  let bad =
    match
      List.find_opt
        (fun (_, b) ->
          (not (List.mem b dead)) && List.for_all (fun x -> List.mem x moved) (on b))
        moved
    with
    | Some (_, b) -> b
    | None -> Alcotest.fail "no victim page whose every slot moved"
  in
  let stuck = on bad in
  let _, _, moved', relocated', failures' = run ~bad:(Some bad) in
  check_int "every survivor on the bad page counted" (List.length stuck) failures';
  check_bool "the bad page's survivors stay put" true
    (List.for_all (fun x -> not (List.mem x moved')) stuck);
  check_bool "every other survivor still moves" true
    (List.for_all (fun x -> List.mem x stuck || List.mem x moved') moved);
  check_int "relocations counted" (List.length moved - List.length stuck) relocated'

(* A permanently bad page that holds both a survivor and a dead slot:
   the survivor stays (as above), and the scrub of its victim's dirty
   pages skips that page — left in the dirty set for fsck and counted in
   compact_scrub_failures — while every other dead byte is destroyed.
   The pass returns its victim count: its relocations have committed. *)
let test_compaction_scrub_skips_unreadable_page () =
  let dev, t, pages, dead = half_dead_store () in
  let bad =
    match List.find_opt (fun (i, b) -> i >= 30 && List.mem b dead) (pages ()) with
    | Some (_, b) -> b
    | None -> Alcotest.fail "no page holding a survivor and a dead slot"
  in
  Block_device.inject_fault dev bad;
  let count k = Stats.Counter.get (Dbfs.stats t) k in
  let victims =
    match Dbfs.compact t ~max_victims:64 ~liveness_pct:75.0 with
    | n -> n
    | exception Block_device.Faulted b -> Alcotest.failf "compact raised Faulted(%d)" b
  in
  check_bool "victims processed" true (victims > 0);
  check_bool "the bad page's survivors counted" true (count "compact_verify_failures" > 0);
  check_int "the bad page's scrub counted" 1 (count "compact_scrub_failures");
  List.iter
    (fun i ->
      List.iter
        (fun v ->
          let dead_version = Printf.sprintf "KEEP-%03d-v%03d" i v in
          check_bool (dead_version ^ " survives only on the bad page") true
            (List.for_all (fun (b, _) -> b = bad) (Block_device.scan dev dead_version)))
        (if i < 30 then [ 0; 1 ] else [ 0 ]))
    (List.init 60 Fun.id);
  match Dbfs.fsck t with
  | Ok () -> Alcotest.fail "fsck must report the unreadable page"
  | Error problems ->
      check_bool "fsck reports an unreadable extent" true
        (List.exists
           (fun p ->
             let n = String.length "unreadable" in
             List.exists
               (fun k -> String.sub p k n = "unreadable")
               (List.init (max 0 (String.length p - n + 1)) Fun.id))
           problems)

(* ------------------------------------------------------------------ *)
(* backpressure: deterministic stalls                                  *)

(* Giant segments on a small device, churn split across the ordinary
   and the high-sensitivity record zones: each zone's OPEN segment
   accumulates dead versions the compactor cannot touch (only sealed
   segments are victims), so the combined dirty backlog genuinely
   crosses the backpressure threshold and the stall path runs.  Each
   churned version is padded past half a page, so it takes a page of its
   own and dirties it. *)
let backpressure_run () =
  let dev, clock, t, s =
    make_store ~block_count:2_048 ~allocator:(Space.Segments 240) ()
  in
  let insert sens i =
    match insert_subject ~sensitivity:sens t s i with
    | Ok pd -> pd
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  let churn pd rounds =
    for v = 1 to rounds do
      match
        Dbfs.update_record t ~actor pd
          [
            ( "payload",
              Value.VString
                (Printf.sprintf "KEEP-000-v%03d%s" v (String.make 300 '.')) );
            ("bucket", Value.VInt 0);
          ]
      with
      | Ok () -> ()
      | Error e -> failwith (Dbfs.error_to_string e)
    done
  in
  let low = insert Membrane.Low 0 in
  let high = insert Membrane.High 1 in
  churn low 230;
  churn high 100;
  let st = Dbfs.stats t in
  ( Stats.Counter.get st "backpressure_stalls",
    Stats.Counter.get st "backpressure_stall_ns",
    Clock.now clock,
    Block_device.snapshot dev )

let test_backpressure_deterministic () =
  let stalls_a, ns_a, clock_a, img_a = backpressure_run () in
  let stalls_b, ns_b, clock_b, img_b = backpressure_run () in
  check_bool "churn actually crossed the backpressure threshold" true
    (stalls_a > 0);
  check_int "stall count deterministic" stalls_a stalls_b;
  check_int "stall time deterministic" ns_a ns_b;
  check_int "simulated clock deterministic" clock_a clock_b;
  check_bool "device image deterministic" true (img_a = img_b)

let () =
  Alcotest.run "segments"
    [
      ( "group-commit",
        [
          QCheck_alcotest.to_alcotest prop_group_commit_byte_identical;
          Alcotest.test_case "window 1 is a batch of one" `Quick
            test_window_one_batch_of_one;
          Alcotest.test_case "crash mid-window replays clean" `Quick
            (test_crash_between_batches_replays_cleanly
               ~allocator:Space.segments);
          Alcotest.test_case "crash mid-window replays clean (heap)" `Quick
            (test_crash_between_batches_replays_cleanly ~allocator:Space.Heap);
          Alcotest.test_case "retried flush frames once, window 1" `Quick
            (test_retried_flush_frames_once ~window:1);
          Alcotest.test_case "retried flush frames once, window 4" `Quick
            (test_retried_flush_frames_once ~window:4);
          Alcotest.test_case "torn journal tail repairs clean" `Quick
            test_torn_journal_tail;
          Alcotest.test_case "a counter reset clears the batch tallies" `Quick
            test_reset_clears_batch_counters;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "erase+compact+remount: zero residue" `Quick
            (test_erase_compact_remount_no_residue ~erase_first:false);
          Alcotest.test_case "compaction commits in one chunk" `Quick
            (test_compaction_commits_chunks ~journal_blocks:256);
          Alcotest.test_case "compaction commits in ring-sized chunks" `Quick
            (test_compaction_commits_chunks ~journal_blocks:4);
          Alcotest.test_case "an unreadable page holds back only its survivors"
            `Quick test_compaction_skips_unreadable_page;
          Alcotest.test_case "an unreadable dirty page does not fail the pass"
            `Quick test_compaction_scrub_skips_unreadable_page;
          Alcotest.test_case "erase first: sealed envelopes relocated" `Quick
            (test_erase_compact_remount_no_residue ~erase_first:true);
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "stalls are deterministic" `Quick
            test_backpressure_deterministic;
        ] );
      ( "space",
        [
          QCheck_alcotest.to_alcotest prop_fsck_clean_after_every_op;
          QCheck_alcotest.to_alcotest prop_slot_law;
          QCheck_alcotest.to_alcotest prop_first_fit_matches_reference;
        ] );
    ]
