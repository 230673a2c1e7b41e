(* Vectored block IO, the extent allocator, the batched DBFS loads, and
   the BENCH_vectored_io.json artifact machinery (regression gate
   included). *)

module Clock = Rgpdos_util.Clock
module Stats = Rgpdos_util.Stats
module Json = Rgpdos_util.Json
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Dbfs = Rgpdos_dbfs.Dbfs
module E = Rgpdos_workload.Experiments
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ded = "ded"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "dbfs error: %s" (Dbfs.error_to_string e)

let counter dev name = Stats.Counter.get (Block_device.stats dev) name

(* ------------------------------------------------------------------ *)
(* block device: vectored requests                                    *)

let vec_config vectored =
  {
    Block_device.block_size = 16;
    block_count = 64;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 1;
    vectored;
    queue_depth = 1;
  }

let make_dev vectored =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:(vec_config vectored) ~clock () in
  (dev, clock)

let test_read_vec_merges_runs () =
  let dev, clock = make_dev true in
  Block_device.write_vec dev
    (List.map (fun i -> (i, Printf.sprintf "b%d" i)) [ 3; 4; 5; 9 ]);
  Block_device.reset_stats dev;
  let t0 = Clock.now clock in
  let got = Block_device.read_vec dev [ 5; 3; 4; 9; 3 ] in
  (* two runs ([3..5] and [9]), four distinct blocks of 16 bytes *)
  check_int "cost = 2 seeks + 64 bytes" ((2 * 10) + 64) (Clock.now clock - t0);
  check_int "vec_reads" 1 (counter dev "vec_reads");
  check_int "merged_runs" 2 (counter dev "merged_runs");
  check_int "reads stay per-block" 4 (counter dev "reads");
  check_int "bytes_read" 64 (counter dev "bytes_read");
  Alcotest.(check (list int)) "ascending distinct indices" [ 3; 4; 5; 9 ]
    (List.map fst got);
  List.iter
    (fun (i, data) ->
      check_bool
        (Printf.sprintf "block %d contents" i)
        true
        (String.length data = 16
        && String.sub data 0 2 = Printf.sprintf "b%d" i))
    got

let test_scalar_config_charges_per_block () =
  let dev, clock = make_dev false in
  let t0 = Clock.now clock in
  ignore (Block_device.read_vec dev [ 3; 4; 5; 9 ]);
  (* vectored=false: one seek per block even for contiguous indices *)
  check_int "cost = 4 seeks + 64 bytes" ((4 * 10) + 64) (Clock.now clock - t0);
  check_int "merged_runs = one per block" 4 (counter dev "merged_runs")

let test_charge_read_vec_matches_read_vec () =
  let dev, clock = make_dev true in
  let indices = [ 7; 8; 9; 20; 22 ] in
  let t0 = Clock.now clock in
  ignore (Block_device.read_vec dev indices);
  let read_cost = Clock.now clock - t0 in
  let stats_after_read = Stats.Counter.to_list (Block_device.stats dev) in
  Block_device.reset_stats dev;
  let t1 = Clock.now clock in
  Block_device.charge_read_vec dev indices;
  check_int "charge-only cost identical" read_cost (Clock.now clock - t1);
  (* cache hits must be indistinguishable in the device accounting too *)
  check_bool "charge-only statistics identical" true
    (Stats.Counter.to_list (Block_device.stats dev) = stats_after_read)

let test_write_vec_last_wins_and_merges () =
  let dev, clock = make_dev true in
  let t0 = Clock.now clock in
  Block_device.write_vec dev [ (7, "first"); (8, "bee"); (7, "second") ];
  (* distinct {7,8}: one run, two blocks *)
  check_int "cost = 1 seek + 32 bytes" (20 + 32) (Clock.now clock - t0);
  check_int "vec_writes" 1 (counter dev "vec_writes");
  check_int "writes stay per-block" 2 (counter dev "writes");
  check_bool "later duplicate wins" true
    (match Block_device.read_vec dev [ 7 ] with
    | [ (_, data) ] -> String.sub data 0 6 = "second"
    | _ -> false);
  let t1 = Clock.now clock in
  Block_device.write_vec dev [];
  ignore (Block_device.read_vec dev []);
  check_int "empty requests are free" 0 (Clock.now clock - t1)

(* ------------------------------------------------------------------ *)
(* DBFS: extent allocator, zones, zeroing                             *)

(* journal 16 + meta 128: data [145, 512), membranes [145, 236),
   ordinary records [236, 443), High records [443, 512) — a 69-block
   High zone, small enough to fill in a handful of inserts *)
let small_config =
  {
    Block_device.block_size = 512;
    block_count = 512;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = 1;
  }

let high_schema () =
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

let low_schema () =
  match
    Schema.make ~name:"note"
      ~fields:[ { Schema.fname = "text"; ftype = Value.TString; required = true } ]
      ~default_consents:[ ("service", M.All) ]
      ~default_ttl:Clock.year ~default_sensitivity:M.Low ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let default_membrane schema ~subject ~pd_id =
  M.make ~pd_id ~type_name:schema.Schema.name ~subject_id:subject
    ~origin:schema.Schema.default_origin
    ~consents:schema.Schema.default_consents ~created_at:0
    ?ttl:schema.Schema.default_ttl
    ~sensitivity:schema.Schema.default_sensitivity
    ~collection:schema.Schema.collection ()

let setup () =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:small_config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:16 in
  ok (Dbfs.create_type t ~actor:ded (high_schema ()));
  ok (Dbfs.create_type t ~actor:ded (low_schema ()));
  (t, dev, clock)

let insert t ~type_name ~subject record =
  let schema = ok (Dbfs.schema t ~actor:ded type_name) in
  ok
    (Dbfs.insert t ~actor:ded ~subject ~type_name ~record
       ~membrane_of:(fun ~pd_id -> default_membrane schema ~subject ~pd_id))

let insert_user t ~subject ~pwd = insert t ~type_name:"user" ~subject
    [ ("name", Value.VString subject); ("pwd", Value.VString pwd) ]

let test_zone_placement () =
  let t, _, _ = setup () in
  let l = Dbfs.layout t in
  check_bool "zones ordered" true
    (l.l_data_start < l.l_rec_start
    && l.l_rec_start < l.l_high_start
    && l.l_high_start < l.l_block_count);
  let high_pd = insert_user t ~subject:"alice" ~pwd:"pw" in
  let low_pd =
    insert t ~type_name:"note" ~subject:"alice"
      [ ("text", Value.VString "memo") ]
  in
  let hrec, hmem = ok (Dbfs.entry_blocks t ~actor:ded high_pd) in
  let lrec, lmem = ok (Dbfs.entry_blocks t ~actor:ded low_pd) in
  check_bool "High record blocks in the High zone" true
    (hrec <> [] && List.for_all (fun b -> b >= l.l_high_start) hrec);
  check_bool "ordinary record blocks below the High zone" true
    (lrec <> []
    && List.for_all
         (fun b -> b >= l.l_rec_start && b < l.l_high_start)
         lrec);
  List.iter
    (fun mem ->
      check_bool "membrane blocks in the membrane zone" true
        (mem <> []
        && List.for_all
             (fun b -> b >= l.l_data_start && b < l.l_rec_start)
             mem))
    [ hmem; lmem ]

let contiguous = function
  | [] -> true
  | b0 :: rest ->
      fst
        (List.fold_left (fun (okc, prev) b -> (okc && b = prev + 1, b)) (true, b0)
           rest)

let test_extent_is_contiguous () =
  let t, _, _ = setup () in
  (* ~1200-byte payload: three 512-byte blocks *)
  let pd = insert_user t ~subject:"bob" ~pwd:(String.make 1200 'x') in
  let rec_blocks, _ = ok (Dbfs.entry_blocks t ~actor:ded pd) in
  check_bool "multi-block record" true (List.length rec_blocks >= 3);
  check_bool "extent-allocated (contiguous ascending)" true
    (contiguous (List.sort compare rec_blocks))

let test_device_full_rolls_back () =
  let t, dev, _ = setup () in
  ignore (insert_user t ~subject:"carol" ~pwd:"pw");
  let used_before = Block_device.used_blocks dev in
  (* the High zone is 69 blocks (~35 KiB): this cannot fit *)
  (match
     Dbfs.insert t ~actor:ded ~subject:"dave" ~type_name:"user"
       ~record:
         [ ("name", Value.VString "dave");
           ("pwd", Value.VString (String.make 40_000 'z')) ]
       ~membrane_of:(fun ~pd_id ->
         default_membrane (high_schema ()) ~subject:"dave" ~pd_id)
   with
  | Error Dbfs.No_space -> ()
  | Error e -> Alcotest.failf "expected No_space, got %s" (Dbfs.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized insert should fail");
  check_int "no blocks leaked by the failed insert" used_before
    (Block_device.used_blocks dev);
  (match Dbfs.fsck t with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fsck after rollback: %s" (String.concat "; " es));
  (* the freed extent is reusable *)
  ignore (insert_user t ~subject:"erin" ~pwd:"pw")

let test_fragmentation_fallback_roundtrips () =
  let t, _, _ = setup () in
  (* fill the 69-block High zone with 23 three-block records ... *)
  let pds =
    List.init 23 (fun i ->
        insert_user t
          ~subject:(Printf.sprintf "s%02d" i)
          ~pwd:(String.make 1200 (Char.chr (Char.code 'a' + (i mod 26)))))
  in
  (* ... then free every other one: only 3-block holes remain *)
  List.iteri
    (fun i pd -> if i mod 2 = 0 then ok (Dbfs.delete t ~actor:ded pd))
    pds;
  (* a 6-block record cannot get an extent; the scattered fallback must
     still store and round-trip it *)
  let payload = String.make 2700 'q' in
  let pd = insert_user t ~subject:"frag" ~pwd:payload in
  let rec_blocks, _ = ok (Dbfs.entry_blocks t ~actor:ded pd) in
  check_bool "allocation fell back to scattered blocks" true
    (List.length rec_blocks >= 6
    && not (contiguous (List.sort compare rec_blocks)));
  (match List.assoc_opt "pwd" (ok (Dbfs.get_record t ~actor:ded pd)) with
  | Some (Value.VString s) -> check_bool "payload round-trips" true (s = payload)
  | _ -> Alcotest.fail "pwd field missing after scattered store");
  match Dbfs.fsck t with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fsck: %s" (String.concat "; " es)

let test_delete_and_erase_zero_old_blocks () =
  let t, dev, _ = setup () in
  let secret_a = "FORENSIC-MARKER-AAAA" in
  let secret_b = "FORENSIC-MARKER-BBBB" in
  let pd_a = insert_user t ~subject:"ann" ~pwd:secret_a in
  let pd_b = insert_user t ~subject:"ben" ~pwd:secret_b in
  check_bool "secrets reach the medium" true
    (Block_device.scan dev secret_a <> []
    && Block_device.scan dev secret_b <> []);
  ok (Dbfs.delete t ~actor:ded pd_a);
  ok (Dbfs.erase_with t ~actor:ded pd_b ~seal:(fun _ -> "sealed-envelope"));
  check_bool "deleted PD zeroed on the device" true
    (Block_device.scan dev secret_a = []);
  check_bool "erased PD plaintext zeroed on the device" true
    (Block_device.scan dev secret_b = [])

(* ------------------------------------------------------------------ *)
(* batched loads                                                      *)

let test_batch_matches_scalar_api () =
  let t, _, _ = setup () in
  let pds =
    List.init 6 (fun i -> insert_user t ~subject:(Printf.sprintf "u%d" i) ~pwd:"pw")
  in
  let ms = ok (Dbfs.get_membranes t ~actor:ded pds) in
  Alcotest.(check (list string)) "membranes in input order" pds (List.map fst ms);
  List.iter
    (fun (pd, m) ->
      check_bool "batch membrane = scalar membrane" true
        (m = ok (Dbfs.get_membrane t ~actor:ded pd)))
    ms;
  let rs = ok (Dbfs.get_records t ~actor:ded pds) in
  Alcotest.(check (list string)) "records in input order" pds (List.map fst rs);
  List.iter
    (fun (pd, r) ->
      check_bool "batch record = scalar record" true
        (r = Some (ok (Dbfs.get_record t ~actor:ded pd))))
    rs;
  check_bool "unknown pd fails the whole batch" true
    (Result.is_error (Dbfs.get_membranes t ~actor:ded (pds @ [ "pd-bogus" ])));
  ok (Dbfs.erase_with t ~actor:ded (List.hd pds) ~seal:(fun _ -> "sealed"));
  match ok (Dbfs.get_records t ~actor:ded pds) with
  | (_, None) :: rest ->
      check_bool "live entries still load" true
        (List.for_all (fun (_, r) -> r <> None) rest)
  | _ -> Alcotest.fail "erased pd must yield None"

let test_batch_cache_cost_transparency () =
  let t, _, clock = setup () in
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
  check_bool "batch charges device time" true (cold > 0);
  check_int "warm batch costs exactly the cold cost" cold warm;
  let cold_r = cost (fun () -> Dbfs.get_records t ~actor:ded pds) in
  let warm_r = cost (fun () -> Dbfs.get_records t ~actor:ded pds) in
  check_int "records: warm = cold" cold_r warm_r

(* ------------------------------------------------------------------ *)
(* determinism                                                        *)

let test_e1_deterministic () =
  let r1 = E.e1_ded_stages ~subjects:60 () in
  let r2 = E.e1_ded_stages ~subjects:60 () in
  check_bool "stage_ns byte-identical" true (r1.E.e1_stage_ns = r2.E.e1_stage_ns);
  check_int "total identical" r1.E.e1_total_ns r2.E.e1_total_ns;
  check_bool "device counters identical" true (r1.E.e1_device = r2.E.e1_device)

(* ------------------------------------------------------------------ *)
(* vectored artifact + regression gate                                *)

let fake_result ~subjects ~load_ns : E.e1_result =
  {
    e1_subjects = subjects;
    e1_stage_ns =
      [
        ("ded_type2req", 1000);
        ("ded_load_membrane", load_ns);
        ("ded_load_data", load_ns);
        ("ded_execute", 100_000);
      ];
    e1_total_ns = 101_000 + (2 * load_ns);
    e1_device = [ ("merged_runs", 2); ("reads", 200); ("vec_reads", 2) ];
  }

let vecio = Bench.find "vecio"

let test_make_vectored_validates () =
  let scalar = fake_result ~subjects:100 ~load_ns:1_000_000 in
  let vectored = fake_result ~subjects:100 ~load_ns:400_000 in
  let report = Bench.vectored_json ~scalar:(scalar, 1.0) ~vectored:(vectored, 1.0) in
  let valid v = Result.is_ok (Bench.validate vecio v) in
  check_bool "60%-reduction report valid" true (valid report);
  (match Json.of_string (Json.to_string report) with
  (* float rendering may round, so compare by re-validating *)
  | Ok parsed -> check_bool "parsed report valid" true (valid parsed)
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  (* a 20% reduction is below the 30% acceptance bar *)
  let shallow = fake_result ~subjects:100 ~load_ns:800_000 in
  check_bool "below-bar reduction rejected" false
    (valid (Bench.vectored_json ~scalar:(scalar, 1.0) ~vectored:(shallow, 1.0)))

(* the hotpath entry's per-stage E1 drift rule *)
let test_compare_gate () =
  let drift =
    match
      List.find_opt
        (fun g -> Bench.gate_name g = "E1 drift")
        (Bench.find "hotpath").Bench.gates
    with
    | Some (Bench.Drift_rule { check; _ }) -> check
    | _ -> Alcotest.fail "hotpath has no E1 drift rule"
  in
  let report e1 =
    Bench.hotpath_json ~quick:true ~micro:[] ~e1:(e1, 1.0) ~e4:([], 1.0)
  in
  let old = fake_result ~subjects:100 ~load_ns:1_000_000 in
  let committed = report old in
  (* unchanged / improved: passes *)
  (match drift ~committed (report old) with
  | Ok _ -> ()
  | Error l -> Alcotest.failf "clean run flagged: %s" l);
  (* a big load-stage regression trips the gate *)
  (match drift ~committed (report (fake_result ~subjects:100 ~load_ns:2_000_000)) with
  | Ok _ -> Alcotest.fail "2x load-stage regression not caught"
  | Error line ->
      let has s sub =
        let sl = String.length sub in
        let rec go i =
          i + sl <= String.length s && (String.sub s i sl = sub || go (i + 1))
        in
        go 0
      in
      check_bool "names the stage" true (has line "ded_load_membrane"));
  (* growth on a sub-epsilon fixed-cost stage does not trip it *)
  let tiny_growth =
    {
      old with
      E.e1_stage_ns =
        List.map
          (fun (s, ns) -> if s = "ded_type2req" then (s, ns + 2_000) else (s, ns))
          old.E.e1_stage_ns;
    }
  in
  match drift ~committed (report tiny_growth) with
  | Ok _ -> ()
  | Error l ->
      Alcotest.failf "epsilon should absorb +20 ns/subject on a 10 ns stage: %s" l

let () =
  Alcotest.run "vectored-io"
    [
      ( "block-vec",
        [
          Alcotest.test_case "read_vec merges runs" `Quick
            test_read_vec_merges_runs;
          Alcotest.test_case "scalar config charges per block" `Quick
            test_scalar_config_charges_per_block;
          Alcotest.test_case "charge_read_vec parity" `Quick
            test_charge_read_vec_matches_read_vec;
          Alcotest.test_case "write_vec dedup + merge" `Quick
            test_write_vec_last_wins_and_merges;
        ] );
      ( "extent",
        [
          Alcotest.test_case "zone placement" `Quick test_zone_placement;
          Alcotest.test_case "extent is contiguous" `Quick
            test_extent_is_contiguous;
          Alcotest.test_case "device full rolls back" `Quick
            test_device_full_rolls_back;
          Alcotest.test_case "fragmentation fallback round-trips" `Quick
            test_fragmentation_fallback_roundtrips;
          Alcotest.test_case "delete/erase zero old blocks" `Quick
            test_delete_and_erase_zero_old_blocks;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch matches scalar API" `Quick
            test_batch_matches_scalar_api;
          Alcotest.test_case "cache cost transparency" `Quick
            test_batch_cache_cost_transparency;
        ] );
      ( "determinism",
        [ Alcotest.test_case "E1 runs byte-identical" `Quick test_e1_deterministic ] );
      ( "report",
        [
          Alcotest.test_case "make_vectored validates" `Quick
            test_make_vectored_validates;
          Alcotest.test_case "compare gate" `Quick test_compare_gate;
        ] );
    ]
