module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Block_device = Rgpdos_block.Block_device
module Jfs = Rgpdos_journalfs.Journalfs

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let small_config =
  {
    Block_device.block_size = 512;
    block_count = 1024;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = 1;
  }

(* single-block access through the vectored calls *)
let read_block dev i = snd (List.hd (Block_device.read_vec dev [ i ]))
let write_block dev i data = Block_device.write_vec dev [ (i, data) ]

let make_dev ?(config = small_config) () =
  let clock = Clock.create () in
  (Block_device.create ~config ~clock (), clock)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected fs error: %s" (Jfs.error_to_string e)

let mount_or_fail dev =
  match Jfs.mount dev with Ok fs -> fs | Error e -> Alcotest.failf "mount: %s" e

(* ------------------------------------------------------------------ *)
(* Block device                                                       *)

let test_dev_read_unwritten_zeros () =
  let dev, _ = make_dev () in
  check_string "zeros" (String.make 512 '\000') (read_block dev 5)

let test_dev_write_read_roundtrip () =
  let dev, _ = make_dev () in
  write_block dev 3 "hello";
  let b = read_block dev 3 in
  check_string "padded roundtrip" ("hello" ^ String.make 507 '\000') b

let test_dev_out_of_range () =
  let dev, _ = make_dev () in
  Alcotest.check_raises "read oob" (Block_device.Out_of_range 5000) (fun () ->
      ignore (read_block dev 5000));
  Alcotest.check_raises "negative" (Block_device.Out_of_range (-1)) (fun () ->
      write_block dev (-1) "x")

let test_dev_oversized_write () =
  let dev, _ = make_dev () in
  Alcotest.check_raises "too big"
    (Invalid_argument "Block_device.write_vec: data larger than block") (fun () ->
      write_block dev 0 (String.make 513 'x'))

let test_dev_charges_time () =
  let dev, clock = make_dev () in
  let t0 = Clock.now clock in
  write_block dev 0 "data";
  check_bool "time advanced" true (Clock.now clock > t0);
  let t1 = Clock.now clock in
  ignore (read_block dev 0);
  check_bool "read cheaper than write" true (Clock.now clock - t1 < t1 - t0)

let test_dev_stats () =
  let dev, _ = make_dev () in
  write_block dev 0 "a";
  write_block dev 1 "b";
  ignore (read_block dev 0);
  let s = Block_device.stats dev in
  check_int "writes" 2 (Rgpdos_util.Stats.Counter.get s "writes");
  check_int "reads" 1 (Rgpdos_util.Stats.Counter.get s "reads");
  Block_device.reset_stats dev;
  check_int "reset" 0 (Rgpdos_util.Stats.Counter.get s "writes")

let test_dev_trim_and_used () =
  let dev, _ = make_dev () in
  check_int "initially empty" 0 (Block_device.used_blocks dev);
  write_block dev 0 "a";
  write_block dev 1 "b";
  check_int "two used" 2 (Block_device.used_blocks dev);
  Block_device.trim dev 0;
  check_int "one after trim" 1 (Block_device.used_blocks dev);
  check_string "trimmed reads zero" (String.make 512 '\000') (read_block dev 0)

let test_dev_fault_injection () =
  let dev, _ = make_dev () in
  write_block dev 7 "x";
  Block_device.inject_fault dev 7;
  Alcotest.check_raises "faulted" (Block_device.Faulted 7) (fun () ->
      ignore (read_block dev 7));
  Block_device.clear_fault dev 7;
  check_bool "readable again" true (String.length (read_block dev 7) = 512)

let test_dev_snapshot_restore () =
  let dev, _ = make_dev () in
  write_block dev 2 "before";
  let snap = Block_device.snapshot dev in
  write_block dev 2 "after!";
  Block_device.restore dev snap;
  check_string "restored" ("before" ^ String.make 506 '\000') (read_block dev 2)

let test_dev_scan_within_block () =
  let dev, _ = make_dev () in
  write_block dev 4 "xxNEEDLExx";
  (match Block_device.scan dev "NEEDLE" with
  | [ (4, 2) ] -> ()
  | hits -> Alcotest.failf "unexpected hits: %d" (List.length hits));
  check_int "no match" 0 (List.length (Block_device.scan dev "ABSENT"))

let test_dev_scan_across_boundary () =
  let dev, _ = make_dev () in
  (* place "SPLIT" straddling blocks 0 and 1 *)
  write_block dev 0 (String.make 509 'a' ^ "SPL");
  write_block dev 1 ("IT" ^ String.make 100 'b');
  match Block_device.scan dev "SPLIT" with
  | [ (0, 509) ] -> ()
  | hits ->
      Alcotest.failf "expected boundary hit, got %s"
        (String.concat ","
           (List.map (fun (b, o) -> Printf.sprintf "(%d,%d)" b o) hits))

(* ------------------------------------------------------------------ *)
(* Journalfs: basic namespace                                         *)

let make_fs () =
  let dev, clock = make_dev () in
  (Jfs.format dev ~journal_blocks:32, dev, clock)

let test_fs_create_write_read () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/hello.txt" "hello world");
  check_string "read back" "hello world" (ok_or_fail (Jfs.read_file fs "/hello.txt"))

let test_fs_multiblock_file () =
  let fs, _, _ = make_fs () in
  let data = String.init 2000 (fun i -> Char.chr (i mod 256)) in
  ok_or_fail (Jfs.write_file fs "/big" data);
  check_string "multiblock roundtrip" data (ok_or_fail (Jfs.read_file fs "/big"))

let test_fs_empty_file () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.create fs "/empty");
  check_string "empty" "" (ok_or_fail (Jfs.read_file fs "/empty"))

let test_fs_overwrite () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/f" "first version, quite long");
  ok_or_fail (Jfs.write_file fs "/f" "second");
  check_string "overwritten" "second" (ok_or_fail (Jfs.read_file fs "/f"))

let test_fs_append () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.append_file fs "/log" "line1\n");
  ok_or_fail (Jfs.append_file fs "/log" "line2\n");
  check_string "appended" "line1\nline2\n" (ok_or_fail (Jfs.read_file fs "/log"))

let test_fs_directories () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/a");
  ok_or_fail (Jfs.mkdir fs "/a/b");
  ok_or_fail (Jfs.write_file fs "/a/b/deep.txt" "nested");
  check_string "nested read" "nested" (ok_or_fail (Jfs.read_file fs "/a/b/deep.txt"));
  Alcotest.(check (list string)) "listing" [ "b" ] (ok_or_fail (Jfs.list_dir fs "/a"))

let test_fs_errors () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/d");
  ok_or_fail (Jfs.write_file fs "/f" "x");
  check_bool "read missing" true (Result.is_error (Jfs.read_file fs "/missing"));
  check_bool "mkdir exists" true (Result.is_error (Jfs.mkdir fs "/d"));
  check_bool "create over file" true (Result.is_error (Jfs.create fs "/f"));
  check_bool "read dir" true (Result.is_error (Jfs.read_file fs "/d"));
  check_bool "write dir" true (Result.is_error (Jfs.write_file fs "/d" "x"));
  check_bool "listdir on file" true (Result.is_error (Jfs.list_dir fs "/f"));
  check_bool "relative path" true (Result.is_error (Jfs.create fs "no-slash"));
  check_bool "dotdot rejected" true (Result.is_error (Jfs.read_file fs "/../etc"))

let test_fs_delete () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/f" "data");
  ok_or_fail (Jfs.delete fs "/f");
  check_bool "gone" false (Jfs.exists fs "/f");
  check_bool "delete again fails" true (Result.is_error (Jfs.delete fs "/f"))

let test_fs_delete_nonempty_dir () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/d");
  ok_or_fail (Jfs.write_file fs "/d/f" "x");
  check_bool "refuses" true (Result.is_error (Jfs.delete fs "/d"));
  ok_or_fail (Jfs.delete fs "/d/f");
  ok_or_fail (Jfs.delete fs "/d");
  check_bool "dir gone" false (Jfs.exists fs "/d")

let test_fs_rename () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/dir");
  ok_or_fail (Jfs.write_file fs "/old" "content");
  ok_or_fail (Jfs.rename fs "/old" "/dir/new");
  check_bool "old gone" false (Jfs.exists fs "/old");
  check_string "moved" "content" (ok_or_fail (Jfs.read_file fs "/dir/new"))

let test_fs_rename_into_own_subtree_refused () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/a");
  ok_or_fail (Jfs.mkdir fs "/a/b");
  check_bool "dir into itself" true (Result.is_error (Jfs.rename fs "/a" "/a/c"));
  check_bool "dir into grandchild" true
    (Result.is_error (Jfs.rename fs "/a" "/a/b/c"));
  (* legitimate renames still work *)
  ok_or_fail (Jfs.mkdir fs "/other");
  ok_or_fail (Jfs.rename fs "/a/b" "/other/b");
  check_bool "moved out" true (Jfs.exists fs "/other/b");
  (match Jfs.fsck fs with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "fsck: %s" (String.concat "; " ps))

let test_fs_stat () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/f" "12345");
  let st = ok_or_fail (Jfs.stat fs "/f") in
  check_int "size" 5 st.Jfs.size;
  check_bool "not dir" false st.Jfs.is_dir;
  ok_or_fail (Jfs.mkdir fs "/d");
  check_bool "dir" true (ok_or_fail (Jfs.stat fs "/d")).Jfs.is_dir

let test_fs_no_space () =
  let dev, _ = make_dev () in
  let fs = Jfs.format dev ~journal_blocks:900 in
  (* tiny data region left: 1024 - 1 - 900 - 64 = 59 blocks *)
  let big = String.make (100 * 512) 'x' in
  match Jfs.write_file fs "/big" big with
  | Error Jfs.No_space -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Jfs.error_to_string e)
  | Ok () -> Alcotest.fail "expected No_space"

(* Op_write carries the whole file, so a file larger than the ring can
   never be logged; the refusal must leave nothing behind *)
let test_fs_write_larger_than_ring () =
  (* a 24-block data region behind a 16-block ring *)
  let dev, _ =
    make_dev ~config:{ small_config with block_count = 1 + 16 + 64 + 24 } ()
  in
  let fs = Jfs.format dev ~journal_blocks:16 in
  let blocks n = String.make (n * small_config.Block_device.block_size) 'x' in
  (match Jfs.write_file fs "/big" (blocks 20) with
  | Error Jfs.No_space -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Jfs.error_to_string e)
  | Ok () -> Alcotest.fail "a write larger than the ring was accepted");
  (match Jfs.stat fs "/big" with
  | Error (Jfs.Not_found _) -> ()
  | _ -> Alcotest.fail "the refused write left its path behind");
  (* no block leaked: the whole data region is still allocatable *)
  ok_or_fail (Jfs.write_file fs "/a" (blocks 12));
  ok_or_fail (Jfs.write_file fs "/b" (blocks 12));
  check_bool "fsck clean" true (Jfs.fsck fs = Ok ())

let test_fs_fsck_clean () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.mkdir fs "/a");
  ok_or_fail (Jfs.write_file fs "/a/f" (String.make 1500 'y'));
  ok_or_fail (Jfs.delete fs "/a/f");
  ok_or_fail (Jfs.write_file fs "/g" "z");
  match Jfs.fsck fs with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "fsck: %s" (String.concat "; " ps)

(* ------------------------------------------------------------------ *)
(* Journalfs: durability                                              *)

let test_fs_mount_after_checkpoint () =
  let fs, dev, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/persist" "durable data");
  Jfs.checkpoint fs;
  let fs2 = mount_or_fail dev in
  check_string "after remount" "durable data" (ok_or_fail (Jfs.read_file fs2 "/persist"))

let test_fs_crash_recovery_replays_journal () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/a" "alpha");
  Jfs.checkpoint fs;
  (* ops after the checkpoint live only in the journal *)
  ok_or_fail (Jfs.write_file fs "/b" "beta");
  ok_or_fail (Jfs.mkdir fs "/dir");
  ok_or_fail (Jfs.write_file fs "/dir/c" "gamma");
  ok_or_fail (Jfs.delete fs "/a");
  let fs2 = match Jfs.crash_and_remount fs with Ok f -> f | Error e -> Alcotest.fail e in
  check_string "journaled write" "beta" (ok_or_fail (Jfs.read_file fs2 "/b"));
  check_string "journaled nested write" "gamma" (ok_or_fail (Jfs.read_file fs2 "/dir/c"));
  check_bool "journaled delete" false (Jfs.exists fs2 "/a");
  (match Jfs.fsck fs2 with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "fsck after recovery: %s" (String.concat "; " ps))

let test_fs_recovery_idempotent () =
  let fs, _, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/x" "one");
  ok_or_fail (Jfs.write_file fs "/x" "two");
  let fs2 = Result.get_ok (Jfs.crash_and_remount fs) in
  let fs3 = Result.get_ok (Jfs.crash_and_remount fs2) in
  check_string "double recovery" "two" (ok_or_fail (Jfs.read_file fs3 "/x"))

let test_fs_journal_auto_checkpoint_on_wrap () =
  let dev, _ = make_dev () in
  let fs = Jfs.format dev ~journal_blocks:4 in
  (* 4 * 512 = 2 KiB journal; push far more data through it *)
  for i = 0 to 19 do
    ok_or_fail (Jfs.write_file fs (Printf.sprintf "/f%d" i) (String.make 300 'd'))
  done;
  for i = 0 to 19 do
    check_string "still readable" (String.make 300 'd')
      (ok_or_fail (Jfs.read_file fs (Printf.sprintf "/f%d" i)))
  done;
  let fs2 = Result.get_ok (Jfs.crash_and_remount fs) in
  check_string "recovered after wraps" (String.make 300 'd')
    (ok_or_fail (Jfs.read_file fs2 "/f19"))

(* ------------------------------------------------------------------ *)
(* Journalfs: the GDPR-relevant leak behaviour (experiment E3's core)  *)

let secret = "SSN:123-45-6789-SECRET"

let test_fs_delete_leaks_in_free_blocks () =
  let fs, dev, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/pd" secret);
  ok_or_fail (Jfs.delete fs "/pd");
  (* plain delete: data still on the medium *)
  check_bool "forensic scan finds deleted PD" true
    (List.length (Block_device.scan dev secret) > 0)

let test_fs_secure_delete_still_leaks_via_journal () =
  let fs, dev, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/pd" secret);
  ok_or_fail (Jfs.delete ~secure:true fs "/pd");
  (* secure delete zeroes the data blocks, but the journaled copy of the
     original write remains: this is the paper's §1 violation channel. *)
  let hits = Block_device.scan dev secret in
  check_bool "journal still holds PD after secure delete" true
    (List.length hits > 0)

let test_fs_scrub_journal_removes_leak () =
  let fs, dev, _ = make_fs () in
  ok_or_fail (Jfs.write_file fs "/pd" secret);
  ok_or_fail (Jfs.delete ~secure:true fs "/pd");
  Jfs.checkpoint fs;
  Jfs.scrub_journal fs;
  check_int "no PD left anywhere" 0 (List.length (Block_device.scan dev secret))

let test_fs_journal_stats () =
  let fs, _, _ = make_fs () in
  let live0, _ = Jfs.journal_stats fs in
  check_int "fresh journal empty" 0 live0;
  ok_or_fail (Jfs.write_file fs "/f" "x");
  let live1, blocks1 = Jfs.journal_stats fs in
  check_bool "records accumulate" true (live1 > 0 && blocks1 > 0);
  Jfs.checkpoint fs;
  let live2, _ = Jfs.journal_stats fs in
  check_int "checkpoint drains" 0 live2

(* ------------------------------------------------------------------ *)
(* property tests                                                     *)

let arb_fs_script =
  (* scripts of (name, content) writes followed by random deletes *)
  QCheck.(
    list_of_size Gen.(1 -- 15)
      (pair (string_gen_of_size Gen.(1 -- 8) Gen.(char_range 'a' 'z'))
         (string_of_size Gen.(0 -- 600))))

let prop_write_read_consistency =
  QCheck.Test.make ~name:"last write wins after arbitrary script" ~count:60
    arb_fs_script (fun script ->
      let dev, _ = make_dev () in
      let fs = Jfs.format dev ~journal_blocks:64 in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (name, content) ->
          match Jfs.write_file fs ("/" ^ name) content with
          | Ok () -> Hashtbl.replace model name content
          | Error Jfs.No_space -> ()
          | Error e -> failwith (Jfs.error_to_string e))
        script;
      Hashtbl.fold
        (fun name content acc ->
          acc && Jfs.read_file fs ("/" ^ name) = Ok content)
        model true)

let prop_recovery_preserves_files =
  QCheck.Test.make ~name:"crash+remount preserves all files" ~count:40
    arb_fs_script (fun script ->
      let dev, _ = make_dev () in
      let fs = Jfs.format dev ~journal_blocks:64 in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (name, content) ->
          match Jfs.write_file fs ("/" ^ name) content with
          | Ok () -> Hashtbl.replace model name content
          | Error _ -> ())
        script;
      match Jfs.crash_and_remount fs with
      | Error _ -> false
      | Ok fs2 ->
          Hashtbl.fold
            (fun name content acc ->
              acc && Jfs.read_file fs2 ("/" ^ name) = Ok content)
            model true)

let () =
  Alcotest.run "fs"
    [
      ( "block-device",
        [
          Alcotest.test_case "unwritten reads zeros" `Quick test_dev_read_unwritten_zeros;
          Alcotest.test_case "write/read roundtrip" `Quick test_dev_write_read_roundtrip;
          Alcotest.test_case "out of range" `Quick test_dev_out_of_range;
          Alcotest.test_case "oversized write" `Quick test_dev_oversized_write;
          Alcotest.test_case "charges simulated time" `Quick test_dev_charges_time;
          Alcotest.test_case "stats counters" `Quick test_dev_stats;
          Alcotest.test_case "trim and used_blocks" `Quick test_dev_trim_and_used;
          Alcotest.test_case "fault injection" `Quick test_dev_fault_injection;
          Alcotest.test_case "snapshot/restore" `Quick test_dev_snapshot_restore;
          Alcotest.test_case "scan within block" `Quick test_dev_scan_within_block;
          Alcotest.test_case "scan across boundary" `Quick test_dev_scan_across_boundary;
        ] );
      ( "journalfs-namespace",
        [
          Alcotest.test_case "create/write/read" `Quick test_fs_create_write_read;
          Alcotest.test_case "multiblock file" `Quick test_fs_multiblock_file;
          Alcotest.test_case "empty file" `Quick test_fs_empty_file;
          Alcotest.test_case "overwrite" `Quick test_fs_overwrite;
          Alcotest.test_case "append" `Quick test_fs_append;
          Alcotest.test_case "directories" `Quick test_fs_directories;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "delete" `Quick test_fs_delete;
          Alcotest.test_case "delete nonempty dir" `Quick test_fs_delete_nonempty_dir;
          Alcotest.test_case "rename" `Quick test_fs_rename;
          Alcotest.test_case "rename cycle refused" `Quick
            test_fs_rename_into_own_subtree_refused;
          Alcotest.test_case "stat" `Quick test_fs_stat;
          Alcotest.test_case "no space" `Quick test_fs_no_space;
          Alcotest.test_case "write larger than the ring" `Quick
            test_fs_write_larger_than_ring;
          Alcotest.test_case "fsck clean" `Quick test_fs_fsck_clean;
        ] );
      ( "journalfs-durability",
        [
          Alcotest.test_case "mount after checkpoint" `Quick test_fs_mount_after_checkpoint;
          Alcotest.test_case "crash recovery replays journal" `Quick
            test_fs_crash_recovery_replays_journal;
          Alcotest.test_case "recovery idempotent" `Quick test_fs_recovery_idempotent;
          Alcotest.test_case "journal wrap auto-checkpoints" `Quick
            test_fs_journal_auto_checkpoint_on_wrap;
          QCheck_alcotest.to_alcotest prop_write_read_consistency;
          QCheck_alcotest.to_alcotest prop_recovery_preserves_files;
        ] );
      ( "journalfs-gdpr-leak",
        [
          Alcotest.test_case "plain delete leaks in free blocks" `Quick
            test_fs_delete_leaks_in_free_blocks;
          Alcotest.test_case "secure delete still leaks via journal" `Quick
            test_fs_secure_delete_still_leaks_via_journal;
          Alcotest.test_case "scrub removes the leak" `Quick
            test_fs_scrub_journal_removes_leak;
          Alcotest.test_case "journal stats" `Quick test_fs_journal_stats;
        ] );
    ]
