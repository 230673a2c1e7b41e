(* Paged-index + bounded-cache equivalence: qcheck properties driving
   random op sequences (insert/delete/erase/checkpoint/remount/budget
   changes/clock advances) and asserting that the paged store's
   select / pds_of_subject / expiry-queue TTL sweep match in-memory
   reference semantics under ANY cache budget >= 1 — eviction must be
   semantically invisible — plus warm==cold clock-delta pins, the O(1)
   clean-mount read bound, and the committed BENCH_mount_scale.json
   artifact. *)

module Clock = Rgpdos_util.Clock
module Block_device = Rgpdos_block.Block_device
module Stats = Rgpdos_util.Stats
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Json = Rgpdos_util.Json
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ids = Alcotest.(check (list string))

let ded = "ded"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "dbfs error: %s" (Dbfs.error_to_string e)

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let small_config =
  {
    Block_device.block_size = 512;
    block_count = 4096;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = 1;
  }

let item_schema () =
  match
    Schema.make ~name:"item"
      ~fields:
        [
          { Schema.fname = "k_int"; ftype = Value.TInt; required = true };
          { Schema.fname = "k_str"; ftype = Value.TString; required = true };
        ]
      ~default_consents:[ ("service", M.All) ]
      ~indexed_fields:[ "k_int"; "k_str" ] ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let make_dbfs ?(config = small_config) () =
  let clock = Clock.create () in
  let dev = Block_device.create ~config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:256 in
  ok (Dbfs.create_type t ~actor:ded (item_schema ()));
  t

let store_clock t = Block_device.clock (Dbfs.device t)

let insert_item t ~subject ~k_int ~k_str ~ttl =
  let clock = store_clock t in
  ok
    (Dbfs.insert t ~actor:ded ~subject ~type_name:"item"
       ~record:
         [ ("k_int", Value.VInt k_int); ("k_str", Value.VString k_str) ]
       ~membrane_of:(fun ~pd_id ->
         M.make ~pd_id ~type_name:"item" ~subject_id:subject ~origin:M.Subject
           ~consents:[ ("service", M.All) ]
           ~created_at:(Clock.now clock) ?ttl ()))

let seal _record = "sealed-by-test"

(* ------------------------------------------------------------------ *)
(* reference semantics, derived by full scan of the entries            *)

let live_pds t =
  List.filter
    (fun pd ->
      let _, _, erased = ok (Dbfs.entry_info t ~actor:ded pd) in
      not erased)
    (ok (Dbfs.list_pds t ~actor:ded "item"))

let reference_select t pred =
  let pds = ok (Dbfs.list_pds t ~actor:ded "item") in
  let loaded = ok (Dbfs.get_records t ~actor:ded pds) in
  List.filter_map
    (fun (pd, record) ->
      match record with
      | Some r when Query.eval pred r -> Some pd
      | _ -> None)
    loaded

(* every pd of the subject, erased included, in insertion order *)
let reference_subject_pds t subject =
  List.filter
    (fun pd ->
      let _, s, _ = ok (Dbfs.entry_info t ~actor:ded pd) in
      s = subject)
    (ok (Dbfs.list_pds t ~actor:ded "item"))

(* live pds whose membrane expiry instant is <= now, in expiry order *)
let reference_expired t ~now =
  List.filter_map
    (fun pd ->
      let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
      match m.M.ttl with
      | Some ttl when m.M.created_at + ttl <= now ->
          Some (m.M.created_at + ttl, pd)
      | _ -> None)
    (live_pds t)
  |> List.sort compare |> List.map snd

let subjects_pool = [ "s0"; "s1"; "s2"; "s3" ]

let queries =
  [
    Query.Eq ("k_int", Value.VInt 1);
    Query.Eq ("k_str", Value.VString "b");
    Query.Gt ("k_int", Value.VInt 2);
    Query.True;
  ]

(* the full equivalence battery, run under one cache budget *)
let assert_equivalent t ~budget =
  Dbfs.set_cache_budget t budget;
  List.iter
    (fun pred ->
      let expected = reference_select t pred in
      let got = ok (Dbfs.select t ~actor:ded "item" pred) in
      if got <> expected then
        Alcotest.failf "select %s diverged at budget %d" (Query.to_string pred)
          budget)
    queries;
  List.iter
    (fun s ->
      let expected = reference_subject_pds t s in
      let got = ok (Dbfs.pds_of_subject t ~actor:ded s) in
      if got <> expected then
        Alcotest.failf "pds_of_subject %s diverged at budget %d" s budget)
    subjects_pool;
  let now = Clock.now (store_clock t) in
  let expected = reference_expired t ~now in
  let got = ok (Dbfs.expired_pds t ~actor:ded ~now) in
  if got <> expected then
    Alcotest.failf "expired_pds diverged at budget %d" budget;
  if Dbfs.cache_resident t > max 1 budget then
    Alcotest.failf "resident %d exceeds budget %d" (Dbfs.cache_resident t)
      budget

(* ------------------------------------------------------------------ *)
(* qcheck: random op sequences                                        *)

type op =
  | Insert of int * string * int option  (* k_int, k_str, ttl *)
  | Delete of int  (* picks live pd by index mod count *)
  | Erase of int
  | Checkpoint
  | Remount
  | Budget of int
  | Advance of int  (* simulated ns *)

let gen_op st =
  match QCheck.Gen.int_range 0 9 st with
  | 0 | 1 | 2 | 3 ->
      let ttl =
        match QCheck.Gen.int_range 0 2 st with
        | 0 -> None
        | 1 -> Some 500
        | _ -> Some 5_000
      in
      Insert
        ( QCheck.Gen.int_range 0 4 st,
          QCheck.Gen.oneofl [ "a"; "b"; "c" ] st,
          ttl )
  | 4 -> Delete (QCheck.Gen.int_range 0 30 st)
  | 5 -> Erase (QCheck.Gen.int_range 0 30 st)
  | 6 -> Checkpoint
  | 7 -> Remount
  | 8 -> Budget (QCheck.Gen.oneofl [ 1; 2; 7; 4096 ] st)
  | _ -> Advance (QCheck.Gen.int_range 100 2_000 st)

let gen_ops st =
  let n = QCheck.Gen.int_range 1 24 st in
  List.init n (fun _ -> gen_op st)

let print_op = function
  | Insert (k, s, ttl) ->
      Printf.sprintf "Insert(%d,%s,%s)" k s
        (match ttl with None -> "-" | Some t -> string_of_int t)
  | Delete i -> Printf.sprintf "Delete(%d)" i
  | Erase i -> Printf.sprintf "Erase(%d)" i
  | Checkpoint -> "Checkpoint"
  | Remount -> "Remount"
  | Budget b -> Printf.sprintf "Budget(%d)" b
  | Advance ns -> Printf.sprintf "Advance(%d)" ns

let print_ops ops = String.concat "; " (List.map print_op ops)

let apply_op t op =
  match op with
  | Insert (k_int, k_str, ttl) ->
      let subject =
        List.nth subjects_pool (k_int mod List.length subjects_pool)
      in
      ignore (insert_item t ~subject ~k_int ~k_str ~ttl);
      t
  | Delete i -> (
      match live_pds t with
      | [] -> t
      | pds ->
          ok (Dbfs.delete t ~actor:ded [ List.nth pds (i mod List.length pds) ]);
          t)
  | Erase i -> (
      match live_pds t with
      | [] -> t
      | pds ->
          ignore
            (ok
               (Dbfs.erase_with t ~actor:ded
                  [ List.nth pds (i mod List.length pds) ]
                  ~seal));
          t)
  | Checkpoint ->
      Dbfs.checkpoint t;
      t
  | Remount -> (
      match Dbfs.crash_and_remount t with
      | Ok t' -> t'
      | Error e -> Alcotest.failf "remount failed: %s" e)
  | Budget b ->
      Dbfs.set_cache_budget t b;
      t
  | Advance ns ->
      Clock.advance (store_clock t) ns;
      t

let prop_paged_equals_reference =
  QCheck.Test.make
    ~name:"paged select/pds_of_subject/TTL sweep == reference at any budget"
    ~count:60 ~long_factor:10
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let t = List.fold_left apply_op (make_dbfs ()) ops in
      List.iter (fun budget -> assert_equivalent t ~budget) [ 1; 7; 65_536 ];
      (* and again on a cold store: the durable form alone must carry
         the same facts *)
      match Dbfs.crash_and_remount t with
      | Error e -> QCheck.Test.fail_reportf "final remount failed: %s" e
      | Ok cold ->
          List.iter (fun budget -> assert_equivalent cold ~budget) [ 1; 4096 ];
          check_bool "dump == rebuilt dump" true
            (Dbfs.index_dump cold = Dbfs.rebuilt_index_dump cold);
          true)

(* A base pd materialized after a newer pd of its subject sits behind it
   in the overlay, in its subject's list and its expiry bucket alike.
   Once a checkpoint leaves no untouched pd in the base, the probes
   answer from the overlay alone, reading no index page, and still
   answer in pd order. *)
let test_shadowed_base_keeps_pd_order () =
  let t = make_dbfs () in
  let created_at = Clock.now (store_clock t) in
  let membrane ~pd_id =
    M.make ~pd_id ~type_name:"item" ~subject_id:"s0" ~origin:M.Subject
      ~consents:[ ("service", M.All) ]
      ~created_at ~ttl:1_000 ()
  in
  let insert t k =
    ok
      (Dbfs.insert t ~actor:ded ~subject:"s0" ~type_name:"item"
         ~record:[ ("k_int", Value.VInt k); ("k_str", Value.VString "a") ]
         ~membrane_of:membrane)
  in
  let old_pd = insert t 0 in
  Dbfs.checkpoint t;
  let t =
    match Dbfs.crash_and_remount t with
    | Ok t -> t
    | Error e -> Alcotest.failf "remount failed: %s" e
  in
  let new_pd = insert t 1 in
  ok (Dbfs.update_membrane t ~actor:ded old_pd (membrane ~pd_id:old_pd));
  Dbfs.checkpoint t;
  let reads0 = Stats.Counter.get (Dbfs.stats t) "index_page_reads" in
  check_ids "pds_of_subject in pd order" [ old_pd; new_pd ]
    (ok (Dbfs.pds_of_subject t ~actor:ded "s0"));
  check_ids "expired_pds in pd order" [ old_pd; new_pd ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now:(created_at + 1_000)));
  check_int "no index page read" reads0
    (Stats.Counter.get (Dbfs.stats t) "index_page_reads")

(* ------------------------------------------------------------------ *)
(* warm == cold charging                                              *)

(* The budget bounds RESIDENT HOST MEMORY only: a cache hit still reads
   its page and skips only the decode, so repeated queries cost the same
   sim time at budget 1 (everything evicted, all misses) as at a huge
   budget (everything resident, all hits).  At queue depth 4 the sibling
   prefetch overlaps page service with the descent, and a warm descent
   must overlap exactly as much as a cold one.  Two inputs: an indexed
   select, and a record batch over every pd — one batched entries-tree
   descent and one load of the batch's pages. *)
let warm_equals_cold_at queue_depth =
  let t = make_dbfs ~config:{ small_config with queue_depth } () in
  for i = 0 to 29 do
    ignore
      (insert_item t
         ~subject:(List.nth subjects_pool (i mod 4))
         ~k_int:(i mod 5)
         ~k_str:(String.make 1 (Char.chr (97 + (i mod 3))))
         ~ttl:None)
  done;
  Dbfs.checkpoint t;
  let cold = ok (Result.map_error (fun e -> Dbfs.Corrupt e) (Dbfs.crash_and_remount t)) in
  let clock = store_clock cold in
  let pred = Query.Eq ("k_int", Value.VInt 2) in
  let pds = ok (Dbfs.list_pds cold ~actor:ded "item") in
  let timed f () =
    let t0 = Clock.now clock in
    let ids = f () in
    (ids, Clock.now clock - t0)
  in
  let inputs =
    [
      ("select", timed (fun () -> ok (Dbfs.select cold ~actor:ded "item" pred)));
      ( "batched descent",
        timed (fun () -> List.map fst (ok (Dbfs.get_records cold ~actor:ded pds)))
      );
    ]
  in
  let run () = List.map (fun (_, f) -> f ()) inputs in
  Dbfs.set_cache_budget cold 1;
  let cold1 = run () in
  let cold2 = run () in
  Dbfs.set_cache_budget cold 65_536;
  let fill = run () in
  let warm = run () in
  List.iteri
    (fun i (name, _) ->
      let ids_cold, d_cold = List.nth cold1 i in
      let ids_cold2, d_cold2 = List.nth cold2 i in
      let ids_fill, d_fill = List.nth fill i in
      let ids_warm, d_warm = List.nth warm i in
      let at what = Printf.sprintf "depth %d, %s: %s" queue_depth name what in
      check_ids (at "same results") ids_cold ids_cold2;
      check_ids (at "same results warm") ids_cold ids_warm;
      check_ids (at "same results fill") ids_cold ids_fill;
      check_bool (at "cold run costs something") true (d_cold > 0);
      check_int (at "budget-1 repeat == first") d_cold d_cold2;
      check_int (at "fill (misses) == cold") d_cold d_fill;
      check_int (at "warm (hits) == cold") d_cold d_warm)
    inputs;
  let at what = Printf.sprintf "depth %d: %s" queue_depth what in
  (* the pds share pages, and a batch reads and charges each page once,
     cold or warm: its device reads are its distinct data pages plus the
     entries-tree pages of its descent *)
  let reads () = Stats.Counter.get (Block_device.stats (Dbfs.device cold)) "reads" in
  let tree () = Stats.Counter.get (Dbfs.stats cold) "index_page_reads" in
  List.iter
    (fun (name, pick, load) ->
      let pages =
        List.sort_uniq compare
          (List.concat_map
             (fun pd -> (pick (ok (Dbfs.entry_extents cold ~actor:ded pd))).Space.blocks)
             pds)
      in
      check_bool (at (name ^ " share pages")) true
        (List.length pages < List.length pds);
      List.iter
        (fun budget ->
          Dbfs.set_cache_budget cold budget;
          let r0 = reads () and i0 = tree () in
          load ();
          check_int
            (at (Printf.sprintf "%s, budget %d: each page read once" name budget))
            (List.length pages)
            (reads () - r0 - (tree () - i0)))
        [ 1; 65_536; 65_536 ])
    [
      ("records", fst, fun () -> ignore (ok (Dbfs.get_records cold ~actor:ded pds)));
      ("membranes", snd, fun () -> ignore (ok (Dbfs.get_membranes cold ~actor:ded pds)));
    ];
  (* the hits really were hits *)
  check_bool (at "cache hits recorded") true
    (Stats.Counter.get (Dbfs.stats cold) "cache_hits" > 0);
  check_bool (at "evictions recorded at budget 1") true
    (Stats.Counter.get (Dbfs.stats cold) "cache_evictions" > 0)

let test_warm_equals_cold () = List.iter warm_equals_cold_at [ 1; 4 ]

(* A record batch resolves its pds in one descent of the checkpointed
   entries tree, reading each distinct node on their root-to-leaf paths
   once: one pd reads its path, a repeated pd reads it once, the first
   and last pd share only the root, and the whole population reads every
   node of the tree exactly once. *)
let test_batched_descent_reads_each_node_once () =
  let t = make_dbfs () in
  for i = 0 to 199 do
    ignore
      (insert_item t
         ~subject:(List.nth subjects_pool (i mod 4))
         ~k_int:i ~k_str:"a" ~ttl:None)
  done;
  Dbfs.checkpoint t;
  let pds = ok (Dbfs.list_pds t ~actor:ded "item") in
  let nodes = List.length (Dbfs.entry_page_blocks t) in
  let reads ids =
    let get () = Stats.Counter.get (Dbfs.stats t) "index_page_reads" in
    let r0 = get () in
    ignore (ok (Dbfs.get_records t ~actor:ded ids));
    get () - r0
  in
  let first = List.hd pds and last = List.nth pds (List.length pds - 1) in
  let height = reads [ first ] in
  check_bool "the tree has interior levels" true (height >= 2);
  check_int "one pd reads its path" height (reads [ List.nth pds 100 ]);
  check_int "a repeated pd reads its path once" height
    (reads [ last; last; last ]);
  check_int "first and last share only the root" ((2 * height) - 1)
    (reads [ last; first ]);
  check_int "every pd reads every node once" nodes (reads pds)

(* A commit materializes the index facts of its pds in one batched
   [pdinfo] lookup.  On a checkpointed, remounted store a TTL sweep of k
   due pds reads each [pdinfo] node on their paths once: the sweep's
   page reads less the expiry probe and its one entries-tree descent
   (the erasure's, which also re-checks the membranes) are the [pdinfo]
   reads, at most one path plus one page per further pd — where one
   lookup per pd read k whole paths. *)
let test_sweep_reads_each_pdinfo_node_once () =
  let t = make_dbfs () in
  for i = 0 to 199 do
    ignore
      (insert_item t
         ~subject:(List.nth subjects_pool (i mod 4))
         ~k_int:i ~k_str:"a"
         ~ttl:(Some (if i < 8 then 1_000 else 1_000_000_000)))
  done;
  Dbfs.checkpoint t;
  let image = Block_device.snapshot (Dbfs.device t) in
  let pds = ok (Dbfs.list_pds t ~actor:ded "item") in
  (* the due set at [due_at k] is the first k pds *)
  let due_at k =
    let m = ok (Dbfs.get_membrane t ~actor:ded (List.nth pds (k - 1))) in
    m.M.created_at + 1_000
  in
  let remounted () =
    let dev = Block_device.create ~config:small_config ~clock:(Clock.create ()) () in
    Block_device.restore dev image;
    match Dbfs.mount dev with
    | Error e -> Alcotest.failf "mount: %s" e
    | Ok s ->
        (* the first mutation after a mount loads the slot map by a walk
           of the entries tree: take it out of the measurement *)
        ignore (insert_item s ~subject:"s0" ~k_int:0 ~k_str:"warm" ~ttl:None);
        s
  in
  let page_reads f =
    let store = remounted () in
    let get () = Stats.Counter.get (Dbfs.stats store) "index_page_reads" in
    let r0 = get () in
    f store;
    get () - r0
  in
  let pdinfo_reads k =
    let now = due_at k in
    let due = List.filteri (fun i _ -> i < k) pds in
    let probe =
      page_reads (fun s -> check_ids "due" due (ok (Dbfs.expired_pds s ~actor:ded ~now)))
    in
    let descent =
      page_reads (fun s -> ignore (ok (Dbfs.get_membranes s ~actor:ded due)))
    in
    let sweep =
      page_reads (fun s ->
          let rep =
            Rgpdos_gdpr.Ttl_sweeper.sweep ~dbfs:s
              ~audit:(Rgpdos_audit.Audit_log.create ()) ~now
              ~seal ()
          in
          check_int "every due pd erased" k rep.Rgpdos_gdpr.Ttl_sweeper.removed)
    in
    sweep - probe - descent
  in
  let path = pdinfo_reads 1 in
  check_bool "the pdinfo tree has interior levels" true (path >= 2);
  List.iter
    (fun k ->
      let got = pdinfo_reads k in
      check_bool
        (Printf.sprintf "k=%d: %d pdinfo pages, at most %d" k got (path + k - 1))
        true
        (got <= path + k - 1 && got < k * path))
    [ 2; 4; 8 ]

(* Replay reads each data page once: a remount after un-checkpointed
   inserts reads the ring, then every data page the replayed records name
   in one request, and decodes each record's and membrane's index facts
   from those bytes — at most the ring's blocks plus the distinct data
   pages, where a request per extent read two per insert. *)
let test_replay_reads_each_page_once () =
  let t = make_dbfs () in
  for i = 0 to 299 do
    ignore
      (insert_item t
         ~subject:(List.nth subjects_pool (i mod 4))
         ~k_int:(i mod 7) ~k_str:"b" ~ttl:(Some 50_000))
  done;
  let pds = ok (Dbfs.list_pds t ~actor:ded "item") in
  let pages =
    List.sort_uniq compare
      (List.concat_map
         (fun pd ->
           let r, m = ok (Dbfs.entry_extents t ~actor:ded pd) in
           r.Space.blocks @ m.Space.blocks)
         pds)
  in
  let dev = Block_device.create ~config:small_config ~clock:(Clock.create ()) () in
  Block_device.restore dev (Block_device.snapshot (Dbfs.device t));
  Block_device.reset_stats dev;
  let store =
    match Dbfs.mount dev with Ok s -> s | Error e -> Alcotest.failf "mount: %s" e
  in
  (match Dbfs.replay_report store with
  | Some s ->
      check_int "every insert replayed" 301
        s.Rgpdos_block.Journal_ring.records_replayed
  | None -> Alcotest.fail "no replay report");
  let requests = Stats.Counter.get (Block_device.stats dev) "vec_reads" in
  check_bool
    (Printf.sprintf "%d read requests, at most %d ring blocks + %d data pages"
       requests 256 (List.length pages))
    true
    (requests <= 256 + List.length pages);
  check_bool "the replayed index is the rebuilt one" true
    (Dbfs.index_dump store = Dbfs.rebuilt_index_dump store);
  check_int "all entries present" 300 (Dbfs.pd_count store)

(* ------------------------------------------------------------------ *)
(* O(1) clean mount                                                   *)

let mount_reads ~n =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:small_config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:256 in
  ok (Dbfs.create_type t ~actor:ded (item_schema ()));
  for i = 0 to n - 1 do
    ignore
      (insert_item t
         ~subject:(List.nth subjects_pool (i mod 4))
         ~k_int:(i mod 5)
         ~k_str:"a" ~ttl:(Some 50_000))
  done;
  Dbfs.checkpoint t;
  let image = Block_device.snapshot dev in
  let clock2 = Clock.create () in
  let dev2 = Block_device.create ~config:small_config ~clock:clock2 () in
  Block_device.restore dev2 image;
  Block_device.reset_stats dev2;
  let store =
    match Dbfs.mount dev2 with
    | Ok s -> s
    | Error e -> Alcotest.failf "mount: %s" e
  in
  (Stats.Counter.get (Block_device.stats dev2) "reads", store)

let test_clean_mount_o1 () =
  let reads_small, _ = mount_reads ~n:50 in
  let reads_big, store = mount_reads ~n:400 in
  check_bool
    (Printf.sprintf "mount reads population-independent (%d vs %d)"
       reads_small reads_big)
    true
    (reads_big <= 2 * reads_small);
  (* and the mount left essentially nothing resident *)
  check_bool "cold mount resident is O(1)" true (Dbfs.cache_resident store <= 4);
  (* the trees really are populated on device *)
  check_bool "index node pages exist" true
    (Dbfs.index_page_blocks store <> [])

(* a dirty crash (journal not empty) still recovers, paying the replay *)
let test_dirty_remount_replays () =
  let t = make_dbfs () in
  for i = 0 to 9 do
    ignore (insert_item t ~subject:"s0" ~k_int:i ~k_str:"a" ~ttl:None)
  done;
  Dbfs.checkpoint t;
  (* five more inserts after the checkpoint live only in the journal *)
  for i = 10 to 14 do
    ignore (insert_item t ~subject:"s1" ~k_int:i ~k_str:"b" ~ttl:None)
  done;
  let cold =
    match Dbfs.crash_and_remount t with
    | Ok s -> s
    | Error e -> Alcotest.failf "remount: %s" e
  in
  (match Dbfs.replay_report cold with
  | Some s -> check_int "journal records replayed" 5 s.Rgpdos_block.Journal_ring.records_replayed
  | None -> Alcotest.fail "no replay report");
  check_int "all 15 entries present" 15 (Dbfs.pd_count cold);
  check_bool "dump == rebuilt dump after dirty remount" true
    (Dbfs.index_dump cold = Dbfs.rebuilt_index_dump cold)

(* ------------------------------------------------------------------ *)
(* committed artifact + compare gate                                  *)

let mount = Bench.find "mount"

let committed () =
  match
    List.find_opt Sys.file_exists
      [ mount.Bench.file; Filename.concat ".." mount.file ]
  with
  | None -> Alcotest.failf "committed %s not found" mount.file
  | Some p -> (
      match Bench.read_file p with Ok v -> v | Error msg -> Alcotest.fail msg)

let test_committed_artifact () =
  let v = committed () in
  (match Bench.validate mount v with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "committed artifact invalid: %s" (String.concat "; " e));
  (* the committed evidence must span three decades of population *)
  let pops =
    match Bench.resolve [ K "mount"; Each; K "subjects" ] v with
    | Ok l -> List.filter_map Json.to_float l
    | Error e -> Alcotest.fail e
  in
  let mx = List.fold_left max 0.0 pops and mn = List.fold_left min infinity pops in
  check_bool "population span >= 100x" true (mx /. mn >= 100.0)

(* No tree page is cached: a store that has just descended a tree reads
   it off the medium again on its next lookup, so rot in a page shows at
   once as [Corrupt], as it does on a cold store.  The entries tree is
   paged as soon as a checkpoint empties the entry overlay; the index
   trees only after a remount (until then the overlay holds every index
   fact and no probe reads a base page). *)
let test_warm_descent_checks_medium () =
  let populate () =
    let t = make_dbfs () in
    for i = 0 to 29 do
      ignore
        (insert_item t
           ~subject:(List.nth subjects_pool (i mod 4))
           ~k_int:(i mod 5) ~k_str:"a" ~ttl:None)
    done;
    Dbfs.checkpoint t;
    t
  in
  let rot t pages =
    List.iter
      (fun (block, _) -> Block_device.unsafe_flip (Dbfs.device t) ~block ~byte:8 ~bit:5)
      pages
  in
  let corrupt what = function
    | Error (Dbfs.Corrupt _) -> ()
    | Ok _ -> Alcotest.failf "%s: served a rotten page" what
    | Error e -> Alcotest.failf "%s: %s, want Corrupt" what (Dbfs.error_to_string e)
  in
  let t = populate () in
  let pd = List.hd (ok (Dbfs.list_pds t ~actor:ded "item")) in
  ignore (ok (Dbfs.get_record t ~actor:ded pd));
  rot t (Dbfs.entry_page_blocks t);
  corrupt "get_record after entries-tree rot" (Dbfs.get_record t ~actor:ded pd);
  let t =
    ok (Result.map_error (fun e -> Dbfs.Corrupt e) (Dbfs.crash_and_remount (populate ())))
  in
  let pred = Query.Eq ("k_int", Value.VInt 2) in
  check_bool "warm select matches" true (ok (Dbfs.select t ~actor:ded "item" pred) <> []);
  rot t (Dbfs.index_page_blocks t);
  corrupt "select after index-page rot" (Dbfs.select t ~actor:ded "item" pred)

let test_compare_mount_gate () =
  let v = committed () in
  check_bool "same ratio passes the gate" true
    (Result.is_ok (Bench.compare mount ~committed:v v));
  let worse =
    Bench.update [ K "read_ratio_max" ]
      (function Json.Num r -> Json.Num (r *. 1.5) | j -> j)
      v
  in
  match Bench.compare mount ~committed:v worse with
  | Ok _ -> Alcotest.fail "a 50% worse ratio must fail the gate"
  | Error lines ->
      check_bool "gate names the regression" true
        (List.exists (fun l -> contains_sub l "mount read ratio") lines)

let () =
  Alcotest.run "mount"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_paged_equals_reference;
          Alcotest.test_case "a shadowed base keeps pd order" `Quick
            test_shadowed_base_keeps_pd_order;
          Alcotest.test_case "warm == cold charging" `Quick
            test_warm_equals_cold;
          Alcotest.test_case "batched descent reads each node once" `Quick
            test_batched_descent_reads_each_node_once;
          Alcotest.test_case "a sweep reads each pdinfo node once" `Quick
            test_sweep_reads_each_pdinfo_node_once;
          Alcotest.test_case "replay reads each data page once" `Quick
            test_replay_reads_each_page_once;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean mount is O(1)" `Quick test_clean_mount_o1;
          Alcotest.test_case "dirty remount replays the journal" `Quick
            test_dirty_remount_replays;
          Alcotest.test_case "a warm descent checks the medium" `Quick
            test_warm_descent_checks_medium;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "committed artifact validates" `Quick
            test_committed_artifact;
          Alcotest.test_case "compare gate" `Quick test_compare_mount_gate;
        ] );
    ]
