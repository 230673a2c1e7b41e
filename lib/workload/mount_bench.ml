(* Mount-scale benchmark: the paged on-device indexes must keep a clean
   remount O(1) in device block reads regardless of population, and the
   bounded cache must carry a Zipf-skewed Art.15/17 + DED-select
   workload inside a fixed entry budget.

   For each population n the driver formats a device, inserts n subjects
   (one indexed record each), checkpoints, snapshots the image onto a
   fresh device (a cold restart: every cache dropped) and mounts it,
   recording the device reads, simulated latency and resident cache
   entries of the mount alone.  The largest population then runs the
   skewed workload under the fixed budget, tracking the high-water
   resident count and the hit/miss/eviction counters. *)

module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Stats = Rgpdos_util.Stats
module Block_device = Rgpdos_block.Block_device
module Dbfs = Rgpdos_dbfs.Dbfs
module Schema = Rgpdos_dbfs.Schema
module Value = Rgpdos_dbfs.Value
module Query = Rgpdos_dbfs.Query
module Membrane = Rgpdos_membrane.Membrane

type mount_row = {
  mb_subjects : int;
  mb_build_sim_ms : float;       (* populate + checkpoint, simulated *)
  mb_mount_reads : int;          (* device blocks read by the clean mount *)
  mb_mount_sim_us : float;       (* simulated mount latency *)
  mb_resident_after_mount : int; (* cache entries the mount left behind *)
  mb_index_pages : int;          (* node pages of the checkpointed trees *)
}

type zipf_row = {
  zb_subjects : int;
  zb_ops : int;
  zb_budget : int;
  zb_resident_max : int;  (* high-water resident entries over the run *)
  zb_hits : int;
  zb_misses : int;
  zb_evictions : int;
  zb_page_reads : int;    (* index node-page reads (hit or miss) *)
  zb_sim_ms : float;
  zb_ops_ok : bool;       (* every operation returned Ok *)
}

type result = { mb_rows : mount_row list; mb_zipf : zipf_row }

let actor = "ded"

let fail what e = failwith (Printf.sprintf "Mount_bench %s: %s" what e)

let bucket_mod = 997

let schema () =
  match
    Schema.make ~name:"person"
      ~fields:
        [
          { Schema.fname = "email"; ftype = Value.TString; required = true };
          { Schema.fname = "bucket"; ftype = Value.TInt; required = true };
        ]
      ~default_consents:[ ("service", Membrane.All) ]
      ~collection:[ ("web_form", "signup_form.html") ]
      ~default_ttl:(2 * Clock.year)
      ~indexed_fields:[ "email"; "bucket" ] ()
  with
  | Ok s -> s
  | Error e -> fail "schema" e

let subject_of i = Printf.sprintf "sub-%07d" i
let email_of i = Printf.sprintf "u%07d@example.test" i

(* Data region needs ~2 blocks per subject; the journal is sized so the
   whole one-pass build triggers at most a couple of ring-overflow
   checkpoints (each one rewrites the trees: O(population)). *)
let config_for n =
  let journal = max 256 (min 65_536 (n / 8)) in
  {
    Block_device.default_config with
    Block_device.block_count = max 16_384 ((n * 8) + journal + 4_096);
  }

let journal_blocks_for n = max 256 (min 65_536 (n / 8))

let build ~n =
  let clock = Clock.create () in
  let config = config_for n in
  let dev = Block_device.create ~config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:(journal_blocks_for n) in
  let schema = schema () in
  (match Dbfs.create_type t ~actor schema with
  | Ok () -> ()
  | Error e -> fail "create_type" (Dbfs.error_to_string e));
  for i = 0 to n - 1 do
    let subject = subject_of i in
    let record =
      [
        ("email", Value.VString (email_of i));
        ("bucket", Value.VInt (i mod bucket_mod));
      ]
    in
    match
      Dbfs.insert t ~actor ~subject ~type_name:"person" ~record
        ~membrane_of:(fun ~pd_id ->
          Membrane.make ~pd_id ~type_name:"person" ~subject_id:subject
            ~origin:schema.Schema.default_origin
            ~consents:schema.Schema.default_consents
            ~created_at:(Clock.now clock) ?ttl:schema.Schema.default_ttl
            ~sensitivity:schema.Schema.default_sensitivity
            ~collection:schema.Schema.collection ())
    with
    | Ok _ -> ()
    | Error e -> fail "insert" (Dbfs.error_to_string e)
  done;
  Dbfs.checkpoint t;
  (dev, config, clock)

(* Cold restart: copy the image onto a fresh device (fresh clock, fresh
   stats) and mount it.  Returns the store plus the mount's read count
   and simulated latency. *)
let cold_mount ~config image =
  let clock = Clock.create () in
  let dev = Block_device.create ~config ~clock () in
  Block_device.restore dev image;
  Block_device.reset_stats dev;
  let t0 = Clock.now clock in
  match Dbfs.mount dev with
  | Error e -> fail "mount" e
  | Ok store ->
      let reads = Stats.Counter.get (Block_device.stats dev) "reads" in
      let sim_ns = Clock.now clock - t0 in
      (store, reads, sim_ns)

let measure_mount ~n =
  let dev, config, clock = build ~n in
  let build_ns = Clock.now clock in
  let image = Block_device.snapshot dev in
  let store, reads, mount_ns = cold_mount ~config image in
  let resident = Dbfs.cache_resident store in
  let row =
    {
      mb_subjects = n;
      mb_build_sim_ms = float_of_int build_ns /. 1e6;
      mb_mount_reads = reads;
      mb_mount_sim_us = float_of_int mount_ns /. 1e3;
      mb_resident_after_mount = resident;
      (* enumerating the node pages walks the trees — only after the
         mount numbers above are recorded *)
      mb_index_pages = List.length (Dbfs.index_page_blocks store);
    }
  in
  (row, store)

(* The skewed compliance workload: 50% right-of-access exports (Art.15),
   10% erasures (Art.17, tolerating an already-erased subject — Zipf
   revisits the head of the distribution), 38% DED point selects on the
   unique indexed email, 2% wide selects on the shared bucket field. *)
let zipf_workload store ~n ~ops ~budget =
  Dbfs.set_cache_budget store budget;
  Stats.Counter.reset (Dbfs.stats store);
  let clock = Block_device.clock (Dbfs.device store) in
  let t0 = Clock.now clock in
  let zipf = Prng.Zipf.create ~n ~theta:0.99 in
  let prng = Prng.create ~seed:11L () in
  let resident_max = ref 0 in
  let ok = ref true in
  let note = function
    | Ok _ -> ()
    | Error e ->
        ok := false;
        prerr_endline ("Mount_bench zipf op: " ^ Dbfs.error_to_string e)
  in
  for _ = 1 to ops do
    let i = Prng.Zipf.sample zipf prng in
    let subject = subject_of i in
    let r = Prng.int prng 100 in
    (if r < 50 then note (Dbfs.export_subject store ~actor subject)
     else if r < 60 then
       match Dbfs.pds_of_subject store ~actor subject with
       | Error e -> note (Error e)
       | Ok pds ->
           List.iter
             (fun pd ->
               match
                 Dbfs.erase_with store ~actor pd ~seal:(fun _ -> "sealed")
               with
               | Ok () | Error (Dbfs.Erased _) -> ()
               | Error e -> note (Error e))
             pds
     else if r < 98 then
       note
         (Dbfs.select store ~actor "person"
            (Query.Eq ("email", Value.VString (email_of i))))
     else
       note
         (Dbfs.select store ~actor "person"
            (Query.Eq ("bucket", Value.VInt (i mod bucket_mod)))));
    resident_max := max !resident_max (Dbfs.cache_resident store)
  done;
  let get k = Stats.Counter.get (Dbfs.stats store) k in
  {
    zb_subjects = n;
    zb_ops = ops;
    zb_budget = budget;
    zb_resident_max = !resident_max;
    zb_hits = get "page_hits";
    zb_misses = get "page_misses";
    zb_evictions = get "cache_evictions";
    zb_page_reads = get "index_page_reads";
    zb_sim_ms = float_of_int (Clock.now clock - t0) /. 1e6;
    zb_ops_ok = !ok;
  }

let run ?(sizes = [ 1_000; 10_000; 100_000; 1_000_000 ]) ?(ops = 20_000)
    ?(budget = 4_096) () =
  if sizes = [] then fail "run" "empty size list";
  let sizes = List.sort_uniq compare sizes in
  let rows_rev, last_store =
    List.fold_left
      (fun (acc, _) n ->
        let row, store = measure_mount ~n in
        (row :: acc, Some store))
      ([], None) sizes
  in
  let store =
    match last_store with Some s -> s | None -> fail "run" "no store"
  in
  let zipf =
    zipf_workload store ~n:(List.hd (List.rev sizes)) ~ops ~budget
  in
  { mb_rows = List.rev rows_rev; mb_zipf = zipf }

let read_ratio r =
  match List.map (fun row -> row.mb_mount_reads) r.mb_rows with
  | [] -> nan
  | reads ->
      let mn = List.fold_left min max_int reads in
      let mx = List.fold_left max 0 reads in
      if mn <= 0 then infinity else float_of_int mx /. float_of_int mn

let render r =
  let module Table = Rgpdos_util.Table in
  let rows =
    Table.render
      ~align:Table.[ Right; Right; Right; Right; Right; Right ]
      ~header:
        [
          "subjects"; "build sim ms"; "mount reads"; "mount sim us";
          "resident"; "index pages";
        ]
      (List.map
         (fun row ->
           [
             string_of_int row.mb_subjects;
             Printf.sprintf "%.1f" row.mb_build_sim_ms;
             string_of_int row.mb_mount_reads;
             Printf.sprintf "%.1f" row.mb_mount_sim_us;
             string_of_int row.mb_resident_after_mount;
             string_of_int row.mb_index_pages;
           ])
         r.mb_rows)
  in
  let z = r.mb_zipf in
  rows ^ "\n"
  ^ Printf.sprintf "clean-mount read ratio (max/min): %.2fx\n" (read_ratio r)
  ^ Printf.sprintf
      "zipf workload: %d ops over %d subjects, budget %d entries\n\
      \  resident high-water %d  hits %d  misses %d  evictions %d  node-page \
       reads %d  sim %.1f ms  ops_ok %b"
      z.zb_ops z.zb_subjects z.zb_budget z.zb_resident_max z.zb_hits
      z.zb_misses z.zb_evictions z.zb_page_reads z.zb_sim_ms z.zb_ops_ok

(* ---------- artifact encoder ---------- *)

module Json = Rgpdos_util.Json

let schema_id = "rgpdos-bench-mount-scale/1"

let to_json ~wall_ms (result : result) =
  let z = result.mb_zipf in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ( "mount",
        Json.List
          (List.map
             (fun (row : mount_row) ->
               Json.Obj
                 [
                   ("subjects", Json.int row.mb_subjects);
                   ("build_sim_ms", Json.Num row.mb_build_sim_ms);
                   ("mount_reads", Json.int row.mb_mount_reads);
                   ("mount_sim_us", Json.Num row.mb_mount_sim_us);
                   ("resident_after_mount", Json.int row.mb_resident_after_mount);
                   ("index_pages", Json.int row.mb_index_pages);
                 ])
             result.mb_rows) );
      ("read_ratio_max", Json.Num (read_ratio result));
      ( "zipf",
        Json.Obj
          [
            ("subjects", Json.int z.zb_subjects);
            ("ops", Json.int z.zb_ops);
            ("budget", Json.int z.zb_budget);
            ("resident_max", Json.int z.zb_resident_max);
            ("hits", Json.int z.zb_hits);
            ("misses", Json.int z.zb_misses);
            ("evictions", Json.int z.zb_evictions);
            ("page_reads", Json.int z.zb_page_reads);
            ("sim_ms", Json.Num z.zb_sim_ms);
            ("ops_ok", Json.Bool z.zb_ops_ok);
          ] );
      ("wall_ms", Json.Num wall_ms);
    ]
