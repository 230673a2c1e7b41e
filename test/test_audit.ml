module A = Rgpdos_audit.Audit_log

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_log () =
  let log = A.create () in
  ignore
    (A.append log ~now:100 ~actor:"ded"
       (A.Collected { pd_id = "pd-1"; interface = "web_form" }));
  ignore
    (A.append log ~now:200 ~actor:"ded"
       (A.Processed { purpose = "p1"; inputs = [ "pd-1" ]; produced = [ "pd-2" ] }));
  ignore
    (A.append log ~now:300 ~actor:"ded"
       (A.Filtered_out { purpose = "p2"; pd_id = "pd-1"; reason = "denied" }));
  ignore
    (A.append log ~now:400 ~actor:"ded"
       (A.Erased { pd_id = "pd-1"; mode = "crypto" }));
  ignore
    (A.append log ~now:500 ~actor:"ps"
       (A.Registered { processing = "compute_age"; alert = false }));
  log

let test_append_and_length () =
  let log = sample_log () in
  check_int "length" 5 (A.length log);
  check_int "entries" 5 (List.length (A.entries log))

let test_chain_verifies () =
  let log = sample_log () in
  check_bool "verifies" true (A.verify log = Ok ())

let test_empty_chain_verifies () =
  check_bool "empty ok" true (A.verify (A.create ()) = Ok ())

let test_chain_links () =
  let log = sample_log () in
  let entries = A.entries log in
  List.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check string)
          "prev hash links"
          (List.nth entries (i - 1)).A.hash e.A.prev_hash)
    entries

let test_tamper_detected () =
  let log = sample_log () in
  A.unsafe_tamper log ~seq:2 ~actor:"attacker";
  match A.verify log with
  | Error 2 -> ()
  | Error n -> Alcotest.failf "wrong corrupt index %d" n
  | Ok () -> Alcotest.fail "tamper must be detected"

let test_tamper_first_entry () =
  let log = sample_log () in
  A.unsafe_tamper log ~seq:0 ~actor:"attacker";
  check_bool "detected" true (A.verify log = Error 0)

(* The number of entries [export_for_subject] returns for [pd_ids]: one
   ["seq"] field per exported entry. *)
let exported log pd_ids =
  List.length
    (String.split_on_char '"' (A.export_for_subject log ~pd_ids)
    |> List.filter (( = ) "seq"))

(* An export for one pd holds every entry mentioning it. *)
let test_for_pd () =
  let log = sample_log () in
  check_int "pd-1 history" 4 (exported log [ "pd-1" ]);
  check_int "pd-2 appears as produced" 1 (exported log [ "pd-2" ]);
  check_int "unknown pd" 0 (exported log [ "pd-999" ])

(* An export for a subject's pds holds the union of their entries, once. *)
let test_for_subject_pds () =
  let log = sample_log () in
  check_int "union of pds" 4 (exported log [ "pd-1"; "pd-999" ]);
  check_int "shared entry once" 4 (exported log [ "pd-1"; "pd-2" ])

let test_to_of_bytes_roundtrip () =
  let log = sample_log () in
  match A.of_bytes (A.to_bytes log) with
  | Error e -> Alcotest.fail e
  | Ok log' ->
      check_int "length preserved" (A.length log) (A.length log');
      check_bool "chain still verifies" true (A.verify log' = Ok ());
      check_bool "entries identical" true (A.entries log = A.entries log')

let test_of_bytes_rejects_garbage () =
  check_bool "garbage" true (Result.is_error (A.of_bytes "garbage"));
  check_bool "empty" true (Result.is_error (A.of_bytes ""));
  (* a truncated chain must not decode *)
  let bytes = A.to_bytes (sample_log ()) in
  check_bool "truncated" true
    (Result.is_error (A.of_bytes (String.sub bytes 0 (String.length bytes / 2))))

let test_persisted_tamper_detected () =
  let log = sample_log () in
  let bytes = A.to_bytes log in
  (* flip a byte in the middle of the serialized chain *)
  let b = Bytes.of_string bytes in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  match A.of_bytes (Bytes.to_string b) with
  | Error _ -> () (* decode failure is fine *)
  | Ok log' ->
      check_bool "verify catches it" true (A.verify log' <> Ok ())

let test_export_json () =
  let log = sample_log () in
  let json = A.export_for_subject log ~pd_ids:[ "pd-1" ] in
  check_bool "array" true (json.[0] = '[');
  check_bool "non-trivial" true (String.length json > 50)

let test_ordering_and_seq () =
  let log = A.create () in
  for i = 0 to 9 do
    ignore
      (A.append log ~now:i ~actor:"a"
         (A.Denied { actor = "x"; reason = string_of_int i }))
  done;
  List.iteri (fun i e -> check_int "seq" i e.A.seq) (A.entries log)

let prop_chain_always_verifies =
  QCheck.Test.make ~name:"chain verifies after arbitrary appends" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (pair small_string small_string))
    (fun events ->
      let log = A.create () in
      List.iteri
        (fun i (pd, reason) ->
          ignore
            (A.append log ~now:i ~actor:"ded"
               (A.Filtered_out { purpose = "p"; pd_id = pd; reason })))
        events;
      A.verify log = Ok ())

let () =
  Alcotest.run "audit"
    [
      ( "chain",
        [
          Alcotest.test_case "append/length" `Quick test_append_and_length;
          Alcotest.test_case "verifies" `Quick test_chain_verifies;
          Alcotest.test_case "empty verifies" `Quick test_empty_chain_verifies;
          Alcotest.test_case "links" `Quick test_chain_links;
          Alcotest.test_case "tamper detected" `Quick test_tamper_detected;
          Alcotest.test_case "tamper first entry" `Quick test_tamper_first_entry;
          Alcotest.test_case "seq ordering" `Quick test_ordering_and_seq;
          QCheck_alcotest.to_alcotest prop_chain_always_verifies;
        ] );
      ( "queries",
        [
          Alcotest.test_case "for_pd" `Quick test_for_pd;
          Alcotest.test_case "for_subject_pds" `Quick test_for_subject_pds;
          Alcotest.test_case "export json" `Quick test_export_json;
          Alcotest.test_case "to/of bytes roundtrip" `Quick test_to_of_bytes_roundtrip;
          Alcotest.test_case "of_bytes rejects garbage" `Quick test_of_bytes_rejects_garbage;
          Alcotest.test_case "persisted tamper detected" `Quick
            test_persisted_tamper_detected;
        ] );
    ]
