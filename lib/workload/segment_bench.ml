(* Segment-IO benchmark: the log-structured PR's A/B evidence.

   One build, two stores on identical devices and identical workloads:

     A. update-in-place (the seed allocator): every journal append is its
        own device write, every update/delete zeroes the superseded
        extent synchronously;
     B. segmented: journal appends group-commit in one vectored write per
        window, extents bump-allocate into append-only segments,
        superseded extents die wholesale — by segment-granular trim when
        the compactor (or a purge) finds the segment fully dead.

   The workload is ingest-then-churn at >= 10^4 subjects: bulk insert,
   several rounds of record updates (the churn that manufactures dead
   blocks), then a GDPR slice of erasures and deletions.  Reported per
   side: write amplification (device bytes written per logical payload
   byte ingested), sustained ingest (logical MB per simulated second),
   and the group-commit / compaction counters.  Both sides must finish
   residue-clean: no erased or deleted record marker anywhere on the raw
   device image. *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Fnv = Rgpdos_util.Fnv
module Block_device = Rgpdos_block.Block_device
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Schema = Rgpdos_dbfs.Schema
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Membrane = Rgpdos_membrane.Membrane

type side = {
  sg_label : string;
  sg_subjects : int;
  sg_updates : int;
  sg_erasures : int;
  sg_deletes : int;
  sg_window : int;
  sg_logical_bytes : int; (* payload bytes handed to the store *)
  sg_blocks_written : int; (* device blocks written, all causes *)
  sg_bytes_written : int;
  sg_trims : int; (* device trim commands (zero bytes charged) *)
  sg_write_amp : float; (* bytes_written / logical_bytes *)
  sg_ingest_mb_s : float; (* logical MB per simulated second *)
  sg_sim_ms : float;
  sg_batches : int; (* group-commit flushes *)
  sg_batched_ops : int; (* journal records committed through them *)
  sg_compactions : int;
  sg_relocations : int;
  sg_segments_reclaimed : int;
  sg_backpressure_stalls : int;
  sg_residue_clean : bool; (* no erased/deleted marker on the image *)
}

type result = {
  sr_baseline : side;
  sr_segmented : side;
  sr_amp_ratio : float; (* baseline amp / segmented amp: > 1 is a win *)
  sr_ingest_ratio : float; (* segmented ingest / baseline ingest *)
}

let actor = "ded"

let fail what e = failwith (Printf.sprintf "Segment_bench %s: %s" what e)

let schema () =
  match
    Schema.make ~name:"reading"
      ~fields:
        [
          { Schema.fname = "payload"; ftype = Value.TString; required = true };
          { Schema.fname = "bucket"; ftype = Value.TInt; required = true };
        ]
      ~default_consents:[ ("service", Membrane.All) ]
      ~collection:[ ("sensor", "ingest_pipe") ]
      ~default_ttl:(2 * Clock.year)
        (* only the int bucket is indexed: marker strings must never
           reach an index page, or the residue scan would read stale
           tree halves instead of payload extents *)
      ~indexed_fields:[ "bucket" ] ()
  with
  | Ok s -> s
  | Error e -> fail "schema" e

let subject_of i = Printf.sprintf "sub-%07d" i

(* The erasure / deletion targets are fixed up front so their records can
   carry a distinctive marker prefix from the first write: the forensic
   sweep is then ONE whole-image scan for the prefix instead of one scan
   per doomed version. *)
let gdpr_targets ~subjects =
  let n20 = subjects / 20 in
  let erased = List.init n20 (fun i -> i * 19 mod subjects) in
  let deleted =
    List.filter
      (fun idx -> not (List.mem idx erased))
      (List.init n20 (fun i -> ((i * 19) + 7) mod subjects))
  in
  (erased, deleted)

let doomed_prefix = "GONE-"

(* Distinctive, greppable payload markers.  [marker ~doomed i v] is
   version [v] of subject [i]'s record body; doomed subjects (the ones
   later erased or deleted) are the ones whose bytes must not survive. *)
let marker ~doomed i v =
  Printf.sprintf "%s%07d-v%03d-PAYLOAD"
    (if doomed then doomed_prefix else "KEEP-")
    i v

let record_of ~doomed i v =
  [
    ("payload", Value.VString (marker ~doomed i v));
    ("bucket", Value.VInt (i mod 97));
  ]

let config_for n =
  let journal = max 256 (n / 8) in
  {
    Block_device.default_config with
    Block_device.block_count = max 16_384 ((n * 8) + journal + 4_096);
  }

let journal_blocks_for n = max 256 (n / 8)

let counter c name = Stats.Counter.get c name

(* One full workload on one store configuration. *)
let run_side ~label ~allocator ~window ~subjects ~update_rounds =
  let clock = Clock.create () in
  let config = config_for subjects in
  let dev = Block_device.create ~config ~clock () in
  let t =
    Dbfs.format ~allocator dev ~journal_blocks:(journal_blocks_for subjects)
  in
  if window > 1 then Dbfs.set_group_commit t window;
  let schema = schema () in
  (match Dbfs.create_type t ~actor schema with
  | Ok () -> ()
  | Error e -> fail "create_type" (Dbfs.error_to_string e));
  let logical = ref 0 in
  let note_record r = logical := !logical + String.length (Record.encode r) in
  let pds = Array.make subjects "" in
  let erased, deleted = gdpr_targets ~subjects in
  let doomed = Array.make subjects false in
  List.iter (fun idx -> doomed.(idx) <- true) (erased @ deleted);
  (* ingest *)
  for i = 0 to subjects - 1 do
    let subject = subject_of i in
    let record = record_of ~doomed:doomed.(i) i 0 in
    match
      Dbfs.insert t ~actor ~subject ~type_name:"reading" ~record
        ~membrane_of:(fun ~pd_id ->
          let m =
            Membrane.make ~pd_id ~type_name:"reading" ~subject_id:subject
              ~origin:schema.Schema.default_origin
              ~consents:schema.Schema.default_consents
              ~created_at:(Clock.now clock) ?ttl:schema.Schema.default_ttl
              ~sensitivity:schema.Schema.default_sensitivity
              ~collection:schema.Schema.collection ()
          in
          logical := !logical + String.length (Membrane.encode m);
          m)
    with
    | Ok pd_id ->
        pds.(i) <- pd_id;
        note_record record
    | Error e -> fail "insert" (Dbfs.error_to_string e)
  done;
  (* churn: every subject's record rewritten [update_rounds] times *)
  for v = 1 to update_rounds do
    for i = 0 to subjects - 1 do
      let record = record_of ~doomed:doomed.(i) i v in
      match Dbfs.update_record t ~actor pds.(i) record with
      | Ok () -> note_record record
      | Error e -> fail "update" (Dbfs.error_to_string e)
    done
  done;
  (* GDPR slice: erase 1/20, delete a disjoint 1/20 *)
  List.iter
    (fun idx ->
      match
        Dbfs.erase_with t ~actor [ pds.(idx) ] ~seal:(fun r ->
            "SEALED:" ^ Fnv.hash64_hex (Record.encode r))
      with
      | Ok _ -> ()
      | Error e -> fail "erase" (Dbfs.error_to_string e))
    erased;
  List.iter
    (fun idx ->
      match Dbfs.delete t ~actor [ pds.(idx) ] with
      | Ok () -> ()
      | Error e -> fail "delete" (Dbfs.error_to_string e))
    deleted;
  Dbfs.flush_journal t;
  Dbfs.checkpoint t;
  let dstats = Block_device.stats dev in
  let fstats = Dbfs.stats t in
  let sim_ns = Clock.now clock in
  (* forensic sweep: no version of any erased or deleted subject's record
     may survive anywhere on the raw image.  Doomed subjects alone carry
     the [doomed_prefix], so one whole-image scan settles it (live KEEP-
     records are expected to be found and are not residue). *)
  let residue_clean = Block_device.scan dev doomed_prefix = [] in
  let bytes_written = counter dstats "bytes_written" in
  let amp = float_of_int bytes_written /. float_of_int (max 1 !logical) in
  let sim_s = float_of_int sim_ns /. 1e9 in
  {
    sg_label = label;
    sg_subjects = subjects;
    sg_updates = subjects * update_rounds;
    sg_erasures = List.length erased;
    sg_deletes = List.length deleted;
    sg_window = window;
    sg_logical_bytes = !logical;
    sg_blocks_written = counter dstats "writes";
    sg_bytes_written = bytes_written;
    sg_trims = counter dstats "trims";
    sg_write_amp = amp;
    sg_ingest_mb_s =
      float_of_int !logical /. 1e6 /. (if sim_s > 0.0 then sim_s else 1.0);
    sg_sim_ms = float_of_int sim_ns /. 1e6;
    sg_batches = counter fstats "committed_batches";
    sg_batched_ops = counter fstats "batched_ops";
    sg_compactions = counter fstats "compactions";
    sg_relocations = counter fstats "compact_relocations";
    sg_segments_reclaimed = counter fstats "segments_reclaimed";
    sg_backpressure_stalls = counter fstats "backpressure_stalls";
    sg_residue_clean = residue_clean;
  }

let run ?(subjects = 10_000) ?(update_rounds = 3) ?(window = 16) () =
  let baseline =
    run_side ~label:"update_in_place" ~allocator:Space.Heap ~window:1 ~subjects
      ~update_rounds
  in
  let segmented =
    run_side ~label:"segmented" ~allocator:Space.segments ~window ~subjects
      ~update_rounds
  in
  {
    sr_baseline = baseline;
    sr_segmented = segmented;
    sr_amp_ratio = baseline.sg_write_amp /. segmented.sg_write_amp;
    sr_ingest_ratio = segmented.sg_ingest_mb_s /. baseline.sg_ingest_mb_s;
  }

let render (r : result) =
  let module Table = Rgpdos_util.Table in
  let row (s : side) =
    [
      s.sg_label;
      string_of_int s.sg_window;
      Printf.sprintf "%.2f" (float_of_int s.sg_logical_bytes /. 1e6);
      Printf.sprintf "%.2f" (float_of_int s.sg_bytes_written /. 1e6);
      Printf.sprintf "%.2f" s.sg_write_amp;
      Printf.sprintf "%.2f" s.sg_ingest_mb_s;
      string_of_int s.sg_batches;
      string_of_int s.sg_compactions;
      string_of_int s.sg_segments_reclaimed;
      string_of_int s.sg_trims;
      (if s.sg_residue_clean then "clean" else "RESIDUE");
    ]
  in
  Table.render
    ~align:
      Table.[ Left; Right; Right; Right; Right; Right; Right; Right; Right;
              Right; Right ]
    ~header:
      [
        "side"; "win"; "logical MB"; "written MB"; "write amp"; "MB/sim-s";
        "batches"; "compactions"; "segs freed"; "trims"; "forensic";
      ]
    [ row r.sr_baseline; row r.sr_segmented ]
  ^ Printf.sprintf
      "\nwrite-amp improvement %.2fx (bar %.1fx is enforced by the report \
       validator); sustained-ingest ratio %.2fx; %d subjects, %d updates, %d \
       erasures + %d deletes per side"
      r.sr_amp_ratio 2.0 r.sr_ingest_ratio r.sr_baseline.sg_subjects
      r.sr_baseline.sg_updates r.sr_baseline.sg_erasures
      r.sr_baseline.sg_deletes

(* ---------- artifact encoder ---------- *)

module Json = Rgpdos_util.Json

let schema_id = "rgpdos-bench-segment-io/1"

let side_json (s : side) =
  Json.Obj
    [
      ("label", Json.Str s.sg_label);
      ("subjects", Json.int s.sg_subjects);
      ("updates", Json.int s.sg_updates);
      ("erasures", Json.int s.sg_erasures);
      ("deletes", Json.int s.sg_deletes);
      ("window", Json.int s.sg_window);
      ("logical_bytes", Json.int s.sg_logical_bytes);
      ("blocks_written", Json.int s.sg_blocks_written);
      ("bytes_written", Json.int s.sg_bytes_written);
      ("trims", Json.int s.sg_trims);
      ("write_amp", Json.Num s.sg_write_amp);
      ("ingest_mb_s", Json.Num s.sg_ingest_mb_s);
      ("sim_ms", Json.Num s.sg_sim_ms);
      ("batches", Json.int s.sg_batches);
      ("batched_ops", Json.int s.sg_batched_ops);
      ("compactions", Json.int s.sg_compactions);
      ("relocations", Json.int s.sg_relocations);
      ("segments_reclaimed", Json.int s.sg_segments_reclaimed);
      ("backpressure_stalls", Json.int s.sg_backpressure_stalls);
      ("residue_clean", Json.Bool s.sg_residue_clean);
    ]

let to_json ~wall_ms (result : result) =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("baseline", side_json result.sr_baseline);
      ("segmented", side_json result.sr_segmented);
      ("amp_ratio", Json.Num result.sr_amp_ratio);
      ("ingest_ratio", Json.Num result.sr_ingest_ratio);
      ("wall_ms", Json.Num wall_ms);
    ]
