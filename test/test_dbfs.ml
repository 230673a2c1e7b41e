module Clock = Rgpdos_util.Clock
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Fault_plan = Block_device.Fault_plan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ded = "ded" (* the actor used in tests *)

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "dbfs error: %s" (Dbfs.error_to_string e)

let small_config =
  {
    Block_device.block_size = 512;
    block_count = 2048;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = 1;
  }

let make_dbfs () =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:small_config ~clock () in
  (Dbfs.format dev ~journal_blocks:64, dev, clock)

(* the paper's Listing-1 user type *)
let user_schema () =
  match
    Schema.make ~name:"user"
      ~fields:
        [
          { Schema.fname = "name"; ftype = Value.TString; required = true };
          { Schema.fname = "pwd"; ftype = Value.TString; required = true };
          { Schema.fname = "year_of_birthdate"; ftype = Value.TInt; required = true };
        ]
      ~views:
        [
          { Schema.vname = "v_name"; vfields = [ "name" ] };
          { Schema.vname = "v_ano"; vfields = [ "year_of_birthdate" ] };
        ]
      ~default_consents:
        [ ("purpose1", M.All); ("purpose2", M.Denied); ("purpose3", M.View "v_ano") ]
      ~collection:[ ("web_form", "user_form.html"); ("third_party", "fetch_data.py") ]
      ~default_ttl:Clock.year ~default_sensitivity:M.High ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let user_record name year : Record.t =
  [
    ("name", Value.VString name);
    ("pwd", Value.VString ("hash-of-" ^ name));
    ("year_of_birthdate", Value.VInt year);
  ]

let default_membrane schema ~subject ~pd_id =
  M.make ~pd_id ~type_name:schema.Schema.name ~subject_id:subject
    ~origin:schema.Schema.default_origin
    ~consents:schema.Schema.default_consents ~created_at:0
    ?ttl:schema.Schema.default_ttl
    ~sensitivity:schema.Schema.default_sensitivity
    ~collection:schema.Schema.collection ()

let insert_user t ~subject name year =
  let schema = ok (Dbfs.schema t ~actor:ded "user") in
  ok
    (Dbfs.insert t ~actor:ded ~subject ~type_name:"user"
       ~record:(user_record name year)
       ~membrane_of:(fun ~pd_id -> default_membrane schema ~subject ~pd_id))

let setup () =
  let t, dev, clock = make_dbfs () in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  (t, dev, clock)

(* ------------------------------------------------------------------ *)
(* schema module                                                      *)

let test_schema_validation_rules () =
  let field name = { Schema.fname = name; ftype = Value.TString; required = true } in
  check_bool "empty name" true
    (Result.is_error (Schema.make ~name:"" ~fields:[ field "a" ] ()));
  check_bool "no fields" true (Result.is_error (Schema.make ~name:"t" ~fields:[] ()));
  check_bool "dup fields" true
    (Result.is_error (Schema.make ~name:"t" ~fields:[ field "a"; field "a" ] ()));
  check_bool "view unknown field" true
    (Result.is_error
       (Schema.make ~name:"t" ~fields:[ field "a" ]
          ~views:[ { Schema.vname = "v"; vfields = [ "nope" ] } ]
          ()));
  check_bool "consent unknown view" true
    (Result.is_error
       (Schema.make ~name:"t" ~fields:[ field "a" ]
          ~default_consents:[ ("p", M.View "missing") ]
          ()))

let test_schema_view_fields () =
  let s = user_schema () in
  Alcotest.(check (list string))
    "all" [ "name"; "pwd"; "year_of_birthdate" ] (Schema.view_fields s M.All);
  Alcotest.(check (list string)) "denied" [] (Schema.view_fields s M.Denied);
  Alcotest.(check (list string))
    "view" [ "year_of_birthdate" ]
    (Schema.view_fields s (M.View "v_ano"));
  Alcotest.(check (list string))
    "unknown view fails closed" [] (Schema.view_fields s (M.View "bogus"))

let test_schema_validate_record () =
  let s = user_schema () in
  check_bool "valid" true (Schema.validate_record s (user_record "a" 1990) = Ok ());
  check_bool "unknown field" true
    (Result.is_error (Schema.validate_record s [ ("zzz", Value.VInt 1) ]));
  check_bool "type mismatch" true
    (Result.is_error
       (Schema.validate_record s
          [ ("name", Value.VInt 3); ("pwd", Value.VString "x");
            ("year_of_birthdate", Value.VInt 1) ]));
  check_bool "missing required" true
    (Result.is_error (Schema.validate_record s [ ("name", Value.VString "x") ]));
  check_bool "duplicate field" true
    (Result.is_error
       (Schema.validate_record s
          (user_record "a" 1 @ [ ("name", Value.VString "again") ])))

let test_schema_codec_roundtrip () =
  let s = user_schema () in
  match Schema.decode (Schema.encode s) with
  | Ok s' -> check_bool "roundtrip" true (s = s')
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* record module                                                      *)

let test_record_project_redact () =
  let r = user_record "Chiraz" 1990 in
  Alcotest.(check int) "project" 1 (List.length (Record.project r [ "name" ]));
  let red = Record.redact r ~visible:[ "name" ] in
  check_bool "pwd redacted" true
    (Record.get red "pwd" = Some (Value.VString "<redacted>"));
  check_bool "name kept" true (Record.get red "name" = Some (Value.VString "Chiraz"))

let test_record_codec_roundtrip () =
  let r =
    [ ("s", Value.VString "x\"y\\z"); ("i", Value.VInt (-42));
      ("b", Value.VBool true); ("f", Value.VFloat 3.25) ]
  in
  match Record.decode (Record.encode r) with
  | Ok r' -> check_bool "roundtrip" true (Record.equal r r')
  | Error e -> Alcotest.fail e

let test_record_export_json_shape () =
  let out = Record.to_export ~type_name:"user" ~pd_id:"pd-1" (user_record "A" 2000) in
  check_bool "has type key" true
    (String.length out > 0 && out.[0] = '{'
    && contains_sub out "\"type\": \"user\"")

(* ------------------------------------------------------------------ *)
(* query predicates                                                   *)

module Query = Rgpdos_dbfs.Query

let test_query_atoms () =
  let r = user_record "Chiraz" 1990 in
  check_bool "eq string" true (Query.eval (Query.Eq ("name", Value.VString "Chiraz")) r);
  check_bool "eq mismatch" false (Query.eval (Query.Eq ("name", Value.VString "X")) r);
  check_bool "lt int" true
    (Query.eval (Query.Lt ("year_of_birthdate", Value.VInt 2000)) r);
  check_bool "gt int" true
    (Query.eval (Query.Gt ("year_of_birthdate", Value.VInt 1980)) r);
  check_bool "contains" true (Query.eval (Query.Contains ("name", "hir")) r);
  check_bool "contains miss" false (Query.eval (Query.Contains ("name", "zzz")) r);
  check_bool "true" true (Query.eval Query.True r)

let test_query_fails_closed () =
  let r = user_record "A" 1990 in
  (* missing field *)
  check_bool "missing field" false (Query.eval (Query.Eq ("ghost", Value.VInt 1)) r);
  (* type mismatch: comparing a string field numerically *)
  check_bool "type mismatch lt" false (Query.eval (Query.Lt ("name", Value.VInt 0)) r);
  check_bool "contains on int" false
    (Query.eval (Query.Contains ("year_of_birthdate", "19")) r)

let test_query_connectives () =
  let r = user_record "Chiraz" 1990 in
  let young = Query.Gt ("year_of_birthdate", Value.VInt 1985) in
  let named = Query.Eq ("name", Value.VString "Chiraz") in
  check_bool "and" true (Query.eval (Query.And (young, named)) r);
  check_bool "or" true
    (Query.eval (Query.Or (Query.Eq ("name", Value.VString "X"), young)) r);
  check_bool "not" false (Query.eval (Query.Not named) r);
  check_bool "de morgan-ish" true
    (Query.eval (Query.Not (Query.And (Query.Not young, Query.Not named))) r)

let test_query_fields () =
  let p =
    Query.And
      ( Query.Or (Query.Eq ("a", Value.VInt 1), Query.Contains ("b", "x")),
        Query.Not (Query.Lt ("a", Value.VInt 5)) )
  in
  Alcotest.(check (list string)) "fields" [ "a"; "b" ] (Query.fields p)

let prop_query_not_involution =
  QCheck.Test.make ~name:"not (not p) = p on eval" ~count:100
    QCheck.(pair (int_range 1900 2050) (int_range 1900 2050))
    (fun (y, bound) ->
      let r = user_record "q" y in
      let p = Query.Lt ("year_of_birthdate", Value.VInt bound) in
      Query.eval (Query.Not (Query.Not p)) r = Query.eval p r)

(* ------------------------------------------------------------------ *)
(* dbfs core                                                          *)

let test_dbfs_create_type_and_list () =
  let t, _, _ = setup () in
  Alcotest.(check (list string)) "types" [ "user" ] (ok (Dbfs.list_types t ~actor:ded));
  check_bool "duplicate rejected" true
    (Result.is_error (Dbfs.create_type t ~actor:ded (user_schema ())))

let test_dbfs_insert_get () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"sub-1" "Chiraz" 1990 in
  let r = ok (Dbfs.get_record t ~actor:ded pd) in
  check_bool "name" true (Record.get r "name" = Some (Value.VString "Chiraz"));
  let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_string "membrane wraps pd" pd m.M.pd_id;
  check_string "membrane subject" "sub-1" m.M.subject_id;
  check_bool "default consent applied" true (M.allows m ~purpose:"purpose1" ~now:0)

let test_dbfs_insert_unknown_type () =
  let t, _, _ = setup () in
  check_bool "unknown type" true
    (Result.is_error
       (Dbfs.insert t ~actor:ded ~subject:"s" ~type_name:"ghost"
          ~record:[ ("a", Value.VInt 1) ]
          ~membrane_of:(fun ~pd_id ->
            M.make ~pd_id ~type_name:"ghost" ~subject_id:"s" ~origin:M.Subject
              ~consents:[] ~created_at:0 ())))

let test_dbfs_insert_invalid_record () =
  let t, _, _ = setup () in
  check_bool "invalid record" true
    (Result.is_error
       (Dbfs.insert t ~actor:ded ~subject:"s" ~type_name:"user"
          ~record:[ ("name", Value.VInt 5) ]
          ~membrane_of:(fun ~pd_id ->
            M.make ~pd_id ~type_name:"user" ~subject_id:"s" ~origin:M.Subject
              ~consents:[] ~created_at:0 ())))

let test_dbfs_membrane_invariant_enforced () =
  let t, _, _ = setup () in
  (* membrane wrapping the wrong pd_id is rejected *)
  let bad =
    Dbfs.insert t ~actor:ded ~subject:"s" ~type_name:"user"
      ~record:(user_record "x" 1980)
      ~membrane_of:(fun ~pd_id:_ ->
        M.make ~pd_id:"pd-99999999" ~type_name:"user" ~subject_id:"s"
          ~origin:M.Subject ~consents:[] ~created_at:0 ())
  in
  check_bool "wrong pd_id rejected" true (Result.is_error bad);
  (* wrong subject *)
  let bad2 =
    Dbfs.insert t ~actor:ded ~subject:"s" ~type_name:"user"
      ~record:(user_record "x" 1980)
      ~membrane_of:(fun ~pd_id ->
        M.make ~pd_id ~type_name:"user" ~subject_id:"someone-else"
          ~origin:M.Subject ~consents:[] ~created_at:0 ())
  in
  check_bool "wrong subject rejected" true (Result.is_error bad2)

let test_dbfs_update_record () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"sub-1" "Old" 1970 in
  ok (Dbfs.update_record t ~actor:ded pd (user_record "New" 1971));
  let r = ok (Dbfs.get_record t ~actor:ded pd) in
  check_bool "updated" true (Record.get r "name" = Some (Value.VString "New"))

let test_dbfs_update_zeroes_old_blocks () =
  let t, dev, _ = setup () in
  let unique = "UNIQUE-OLD-VALUE-XYZZY" in
  let pd = insert_user t ~subject:"sub-1" unique 1970 in
  check_bool "initially on device" true (Block_device.scan dev unique <> []);
  ok (Dbfs.update_record t ~actor:ded pd (user_record "replacement" 1971));
  check_int "no stale copy anywhere (incl. journal)" 0
    (List.length (Block_device.scan dev unique))

let test_dbfs_update_membrane_and_mismatch () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"sub-1" "A" 1990 in
  let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
  ok (Dbfs.update_membrane t ~actor:ded pd (M.withdraw m ~purpose:"purpose1"));
  let m' = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_bool "consent withdrawn persists" false (M.allows m' ~purpose:"purpose1" ~now:0);
  check_bool "mismatched membrane rejected" true
    (Result.is_error
       (Dbfs.update_membrane t ~actor:ded pd { m with M.pd_id = "pd-0other" }))

(* Lineage propagation is the machine's: a consent change rewrites the
   subject's own membranes, which include every copy of their PD. *)
let test_dbfs_copy_consistency () =
  let machine = Rgpdos.Machine.boot () in
  let t = Rgpdos.Machine.dbfs machine in
  ok (Dbfs.create_type t ~actor:"sysadmin" (user_schema ()));
  let pd = insert_user t ~subject:"sub-1" "Orig" 1990 in
  let copy = ok (Dbfs.copy_pd t ~actor:ded pd) in
  check_bool "distinct ids" true (pd <> copy);
  let mc = ok (Dbfs.get_membrane t ~actor:ded copy) in
  check_string "lineage" pd (M.lineage_root mc);
  (* consent change propagated to all copies via lineage *)
  let n =
    match
      Rgpdos.Machine.withdraw_consent machine ~subject:"sub-1"
        ~purpose:"purpose1"
    with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  check_int "both updated" 2 n;
  let m1 = ok (Dbfs.get_membrane t ~actor:ded pd) in
  let m2 = ok (Dbfs.get_membrane t ~actor:ded copy) in
  check_bool "original updated" false (M.allows m1 ~purpose:"purpose1" ~now:0);
  check_bool "copy updated" false (M.allows m2 ~purpose:"purpose1" ~now:0)

(* The invariant consent propagation rests on: a lineage never leaves
   its subject. *)
let test_dbfs_copy_keeps_subject () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"sub-1" "Orig" 1990 in
  let copy = ok (Dbfs.copy_pd t ~actor:ded pd) in
  let _, subject, _ = ok (Dbfs.entry_info t ~actor:ded copy) in
  check_string "copy filed under the source's subject" "sub-1" subject;
  let m = ok (Dbfs.get_membrane t ~actor:ded copy) in
  check_bool "membrane naming another subject refused" true
    (match
       Dbfs.update_membrane t ~actor:ded copy { m with M.subject_id = "sub-2" }
     with
    | Error (Dbfs.Membrane_mismatch _) -> true
    | _ -> false)

let test_dbfs_delete_leaves_no_trace () =
  let t, dev, _ = setup () in
  let unique = "DELETED-SUBJECT-SECRET-99" in
  let pd = insert_user t ~subject:"sub-1" unique 1990 in
  ok (Dbfs.delete t ~actor:ded [ pd ]);
  check_bool "entry gone" true (Result.is_error (Dbfs.get_record t ~actor:ded pd));
  check_int "zero forensic hits" 0 (List.length (Block_device.scan dev unique));
  Alcotest.(check (list string))
    "subject tree emptied" [] (ok (Dbfs.pds_of_subject t ~actor:ded "sub-1"))

let test_dbfs_erase_with () =
  let t, dev, _ = setup () in
  let unique = "RIGHT-TO-BE-FORGOTTEN-42" in
  let pd = insert_user t ~subject:"sub-1" unique 1990 in
  ignore
    (ok (Dbfs.erase_with t ~actor:ded [ pd ] ~seal:(fun _ -> "SEALED-ENVELOPE-BYTES")));
  (match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Erased _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dbfs.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Erased");
  check_string "sealed payload retrievable" "SEALED-ENVELOPE-BYTES"
    (ok (Dbfs.erased_payload t ~actor:ded pd));
  check_int "plaintext gone from device" 0 (List.length (Block_device.scan dev unique));
  check_bool "a second erase skips the pd, writing nothing" true
    (Dbfs.erase_with t ~actor:ded [ pd ] ~seal:(fun _ -> "x") = Ok [])

(* The batch contract: a repeated pd counts once, an erased pd is
   skipped (the result lists what this call erased, in input order), an
   unknown pd fails the batch before anything is written, and a
   membrane batch naming a pd twice rewrites it once. *)
let test_batch_contract () =
  let t, _, _ = setup () in
  let pds =
    List.init 6 (fun i -> insert_user t ~subject:(Printf.sprintf "sub-%d" i) "X" 1990)
  in
  let pd i = List.nth pds i in
  let seal _ = "SEALED" in
  let erased i =
    let _, _, e = ok (Dbfs.entry_info t ~actor:ded (pd i)) in
    e
  in
  Alcotest.(check (list string)) "a repeat counts once" [ pd 0; pd 1 ]
    (ok (Dbfs.erase_with t ~actor:ded [ pd 0; pd 1; pd 0 ] ~seal));
  Alcotest.(check (list string)) "an erased pd is skipped" [ pd 2 ]
    (ok (Dbfs.erase_with t ~actor:ded [ pd 1; pd 2 ] ~seal));
  check_bool "an unknown pd fails the batch" true
    (Dbfs.erase_with t ~actor:ded [ pd 3; "pd-99999999" ] ~seal
    = Error (Dbfs.Unknown_pd "pd-99999999"));
  check_bool "... writing nothing" false (erased 3);
  check_bool "an unknown pd fails a delete" true
    (Dbfs.delete t ~actor:ded [ pd 3; "pd-99999999" ]
    = Error (Dbfs.Unknown_pd "pd-99999999"));
  ok (Dbfs.delete t ~actor:ded [ pd 3; pd 4; pd 3 ]);
  check_int "a delete batch removes each pd once" 4 (Dbfs.pd_count t);
  let m = ok (Dbfs.get_membrane t ~actor:ded (pd 5)) in
  Alcotest.(check (list string)) "a membrane batch naming a pd twice" [ pd 5 ]
    (ok (Dbfs.update_membranes t ~actor:ded [ pd 5; pd 5 ] M.withdraw_all));
  check_string "... rewrites it once" (M.encode (M.withdraw_all m))
    (M.encode (ok (Dbfs.get_membrane t ~actor:ded (pd 5))));
  check_bool "an unknown pd fails a membrane batch" true
    (Dbfs.update_membranes t ~actor:ded [ pd 5; "pd-99999999" ] M.withdraw_all
    = Error (Dbfs.Unknown_pd "pd-99999999"));
  check_bool "fsck clean" true (Dbfs.fsck t = Ok ())

(* The DED's erasure (withdraw every consent, then seal) crashed after
   each of its write ops, at window 1: after remount and repair the pd is
   untouched or erased with every consent withdrawn — never withdrawn but
   live — fsck is clean, and once the erasure survived its plaintext is
   nowhere on the raw image.  On the heap an erasure is three write
   requests: both payloads, one journal flush, one destruction. *)
let test_erasure_crash_atomic ~allocator () =
  let secret = "ERASE-ME-ATOMICALLY-77" in
  let config = { small_config with block_count = 4096 } in
  let run plan =
    let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
    let t = Dbfs.format ~allocator dev ~journal_blocks:64 in
    ok (Dbfs.create_type t ~actor:ded (user_schema ()));
    ignore (insert_user t ~subject:"sub-0" "KEEP" 1980);
    let pd = insert_user t ~subject:"sub-1" secret 1990 in
    let before = ok (Dbfs.get_membrane t ~actor:ded pd) in
    Block_device.set_fault_plan dev (Some plan);
    ignore
      (ok
         (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pd ]
            ~seal:(fun _ -> "SEALED-ENVELOPE")));
    (dev, pd, before)
  in
  let reference = Fault_plan.create () in
  ignore (run reference);
  let writes = Fault_plan.writes_seen reference in
  if allocator = Space.Heap then check_int "write requests per erasure" 3 writes;
  for k = 1 to writes do
    let at what = Printf.sprintf "crash after write %d: %s" k what in
    let plan = Fault_plan.create () in
    Fault_plan.crash_after_writes plan k;
    let dev, pd, before = run plan in
    let dev' = Block_device.create ~config ~clock:(Clock.create ()) () in
    (match Block_device.crash_image dev with
    | Some image -> Block_device.restore dev' image
    | None -> Alcotest.fail (at "no crash image"));
    let t' =
      match Dbfs.mount dev' with Ok t -> t | Error e -> Alcotest.fail (at e)
    in
    check_bool (at "repair clean") true (Dbfs.fsck_repair t').Dbfs.rr_clean;
    check_bool (at "fsck clean") true (Dbfs.fsck t' = Ok ());
    let _, _, erased = ok (Dbfs.entry_info t' ~actor:ded pd) in
    let membrane = M.encode (ok (Dbfs.get_membrane t' ~actor:ded pd)) in
    if erased then begin
      check_string (at "erased with every consent withdrawn")
        (M.encode (M.withdraw_all before)) membrane;
      check_int (at "no plaintext on the image") 0
        (List.length (Block_device.scan dev' secret))
    end
    else begin
      check_string (at "untouched membrane") (M.encode before) membrane;
      check_bool (at "untouched record") true
        (Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name"
        = Some (Value.VString secret))
    end
  done

(* A batch erasure is one unit whatever it is: the DED's Art. 17 shape
   (withdraw, then seal) and the TTL sweep's (seal only), crashed after
   each of its write ops at window 1.  After remount and repair every
   member is untouched or every member erased (withdrawn too in the DED
   shape), with no plaintext of any of them on the image; the pds
   outside the batch read back.  On the heap the batch costs the three
   write requests of a one-pd erasure. *)
let test_batch_erasure_crash_atomic ~allocator ~withdraw () =
  let secret i = Printf.sprintf "BATCH-MEMBER-%d-SECRET" i in
  let config = { small_config with block_count = 4096 } in
  let batch = [ 1; 2; 4 ] in
  let run plan =
    let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
    let t = Dbfs.format ~allocator dev ~journal_blocks:64 in
    ok (Dbfs.create_type t ~actor:ded (user_schema ()));
    let pds =
      List.init 6 (fun i ->
          insert_user t ~subject:(Printf.sprintf "sub-%d" (i / 2)) (secret i) 1990)
    in
    let before = List.map (fun pd -> ok (Dbfs.get_membrane t ~actor:ded pd)) pds in
    Block_device.set_fault_plan dev (Some plan);
    let members = List.map (List.nth pds) batch in
    check_bool "every member erased" true
      (ok
         (Dbfs.erase_with t ~actor:ded
            ?withdraw:(if withdraw then Some M.withdraw_all else None)
            members
            ~seal:(fun _ -> "SEALED-ENVELOPE"))
      = members
      || Block_device.crash_image dev <> None);
    (dev, pds, before)
  in
  let reference = Fault_plan.create () in
  ignore (run reference);
  let writes = Fault_plan.writes_seen reference in
  if allocator = Space.Heap then check_int "write requests per batch" 3 writes;
  for k = 1 to writes do
    let at what = Printf.sprintf "crash after write %d: %s" k what in
    let plan = Fault_plan.create () in
    Fault_plan.crash_after_writes plan k;
    let dev, pds, before = run plan in
    let dev' = Block_device.create ~config ~clock:(Clock.create ()) () in
    (match Block_device.crash_image dev with
    | Some image -> Block_device.restore dev' image
    | None -> Alcotest.fail (at "no crash image"));
    let t' =
      match Dbfs.mount dev' with Ok t -> t | Error e -> Alcotest.fail (at e)
    in
    check_bool (at "repair clean") true (Dbfs.fsck_repair t').Dbfs.rr_clean;
    check_bool (at "fsck clean") true (Dbfs.fsck t' = Ok ());
    let erased i =
      let _, _, erased = ok (Dbfs.entry_info t' ~actor:ded (List.nth pds i)) in
      erased
    in
    let all_erased = erased (List.hd batch) in
    List.iteri
      (fun i pd ->
        let membrane = M.encode (ok (Dbfs.get_membrane t' ~actor:ded pd)) in
        let m0 = List.nth before i in
        if List.mem i batch && all_erased then begin
          check_bool (at (Printf.sprintf "member %d erased with the batch" i)) true
            (erased i);
          check_string (at (Printf.sprintf "member %d's membrane" i))
            (M.encode (if withdraw then M.withdraw_all m0 else m0))
            membrane;
          check_int (at (Printf.sprintf "no plaintext of member %d" i)) 0
            (List.length (Block_device.scan dev' (secret i)))
        end
        else begin
          check_bool (at (Printf.sprintf "pd %d live" i)) false (erased i);
          check_string (at (Printf.sprintf "pd %d's membrane untouched" i))
            (M.encode m0) membrane;
          check_bool (at (Printf.sprintf "pd %d reads back" i)) true
            (Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name"
            = Some (Value.VString (secret i)))
        end)
      pds
  done

(* A batch whose journal record would not fit the ring commits in chunks
   of whole pds, each atomic: on a two-block ring, an Art. 17-shaped
   erasure of 16 pds takes several records, and a crash after any of its
   writes leaves, after remount and repair, a prefix of the batch erased
   that ends on a chunk boundary — every member of a chunk erased and
   withdrawn, or none — with no plaintext of an erased member on the
   image and every other pd intact. *)
let test_batch_chunks_are_atomic () =
  let secret i = Printf.sprintf "CHUNKED-%02d-SECRET" i in
  let config = { small_config with block_count = 4096 } in
  let n = 16 in
  let run plan =
    let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
    let t = Dbfs.format dev ~journal_blocks:2 in
    ok (Dbfs.create_type t ~actor:ded (user_schema ()));
    let pds =
      List.init (n + 4) (fun i ->
          insert_user t ~subject:(Printf.sprintf "sub-%02d" i) (secret i) 1990)
    in
    let batch = List.filteri (fun i _ -> i < n) pds in
    let before = List.map (fun pd -> ok (Dbfs.get_membrane t ~actor:ded pd)) pds in
    let records () =
      Rgpdos_util.Stats.Counter.get (Dbfs.stats t) "committed_batches"
    in
    let r0 = records () in
    Block_device.set_fault_plan dev (Some plan);
    ignore
      (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all batch
         ~seal:(fun _ -> "SEALED-ENVELOPE"));
    (dev, t, pds, before, records () - r0)
  in
  let reference = Fault_plan.create () in
  let _, t, pds, _, chunks = run reference in
  check_bool "the batch took several journal records" true (chunks >= 2);
  List.iteri
    (fun i pd ->
      let _, _, erased = ok (Dbfs.entry_info t ~actor:ded pd) in
      check_bool (Printf.sprintf "pd %d erased iff in the batch" i) (i < n) erased)
    pds;
  let writes = Fault_plan.writes_seen reference in
  let prefixes = ref [] in
  for k = 1 to writes do
    let at what = Printf.sprintf "crash after write %d: %s" k what in
    let plan = Fault_plan.create () in
    Fault_plan.crash_after_writes plan k;
    let dev, _, pds, before, _ = run plan in
    let dev' = Block_device.create ~config ~clock:(Clock.create ()) () in
    (match Block_device.crash_image dev with
    | Some image -> Block_device.restore dev' image
    | None -> Alcotest.fail (at "no crash image"));
    let t' =
      match Dbfs.mount dev' with Ok t -> t | Error e -> Alcotest.fail (at e)
    in
    check_bool (at "repair clean") true (Dbfs.fsck_repair t').Dbfs.rr_clean;
    let erased =
      List.map
        (fun pd ->
          let _, _, erased = ok (Dbfs.entry_info t' ~actor:ded pd) in
          erased)
        pds
    in
    let prefix = List.length (List.filter Fun.id erased) in
    check_bool (at "the erased pds are a prefix of the batch") true
      (prefix <= n && List.for_all Fun.id (List.filteri (fun i _ -> i < prefix) erased));
    List.iteri
      (fun i pd ->
        if i < prefix then begin
          check_string (at (Printf.sprintf "pd %d withdrawn" i))
            (M.encode (M.withdraw_all (List.nth before i)))
            (M.encode (ok (Dbfs.get_membrane t' ~actor:ded pd)));
          check_int (at (Printf.sprintf "no plaintext of pd %d" i)) 0
            (List.length (Block_device.scan dev' (secret i)))
        end
        else
          check_bool (at (Printf.sprintf "pd %d reads back" i)) true
            (Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name"
            = Some (Value.VString (secret i))))
      pds;
    prefixes := prefix :: !prefixes
  done;
  (* every partial prefix ends on a chunk boundary: a multiple of the
     first chunk's size (chunks of equal pds hold equally many) *)
  let partial =
    List.sort_uniq compare (List.filter (fun p -> p > 0 && p < n) !prefixes)
  in
  check_bool "a crash left part of the batch erased" true (partial <> []);
  let first = List.hd partial in
  check_bool "every partial prefix is whole chunks" true
    (List.for_all (fun p -> p mod first = 0) partial);
  check_int "as many partial states as chunk boundaries" (chunks - 1)
    (List.length partial)

(* The pds of the [Erased] audit entries, oldest first. *)
let audited audit =
  List.filter_map
    (fun (e : Rgpdos_audit.Audit_log.entry) ->
      match e.event with
      | Rgpdos_audit.Audit_log.Erased { pd_id; _ } -> Some pd_id
      | _ -> None)
    (Rgpdos_audit.Audit_log.entries audit)

(* A batch stopped after its first chunk reports it.  On a 2-block
   ring (24 pds take two records or more), a permanent fault on the
   first write past the first chunk (its payload write; a checkpoint
   just before the batch keeps the first chunk's own record from forcing
   one) leaves that chunk's pds erased: [erase_with]'s error is
   [Stopped], naming them, and the erasure counters count them.  The
   DED's erasure and the TTL sweep, stopped at the same write, audit
   exactly those pds, in batch order. *)
let test_stopped_batch_reports_its_chunks () =
  let config = { small_config with block_count = 4096 } in
  let n = 24 in
  let seal _ = "SEALED-ENVELOPE" in
  let counter t name = Rgpdos_util.Stats.Counter.get (Dbfs.stats t) name in
  (* [erase] run on a fresh, checkpointed store of [n] pds (due at two
     years), with a permanent write fault at the [k]th write it makes
     ([k = 0]: none): its result, the pds it left erased, in store order,
     the rise of the erasure counters, and its writes *)
  let run k erase =
    let clock = Clock.create () in
    let dev = Block_device.create ~config ~clock () in
    let t = Dbfs.format dev ~journal_blocks:2 in
    ok (Dbfs.create_type t ~actor:ded (user_schema ()));
    let pds =
      List.init n (fun i ->
          insert_user t ~subject:(Printf.sprintf "sub-%02d" i)
            (Printf.sprintf "STOPPED-%02d-SECRET" i)
            1990)
    in
    Dbfs.checkpoint t;
    let plan = Fault_plan.create () in
    if k > 0 then
      Fault_plan.on_write plan ~nth:k (Fault_plan.Fail_write { transient = false });
    let e0 = counter t "erasures" and m0 = counter t "membrane_updates" in
    Block_device.set_fault_plan dev (Some plan);
    let result = erase t clock pds in
    let erased =
      List.filter
        (fun pd ->
          let _, _, erased = ok (Dbfs.entry_info t ~actor:ded pd) in
          erased)
        pds
    in
    ( result,
      erased,
      (counter t "erasures" - e0, counter t "membrane_updates" - m0),
      Fault_plan.writes_seen plan )
  in
  (* the first write at which [erase_with] stops after a chunk *)
  let stop_point ?withdraw () =
    let erase t _ pds = Dbfs.erase_with t ~actor:ded ?withdraw pds ~seal in
    let _, erased, _, writes = run 0 erase in
    check_int "without a fault the whole batch is erased" n (List.length erased);
    let rec go k =
      if k > writes then Alcotest.fail "no write stops the batch after a chunk"
      else
        match run k erase with
        | (Error (Dbfs.Stopped _), _, _, _) as r -> (k, r)
        | _ -> go (k + 1)
    in
    go 1
  in
  let k, (result, erased, (erasures, membranes), _) =
    stop_point ~withdraw:M.withdraw_all ()
  in
  check_bool "the first chunk is erased, and only it" true
    (erased <> [] && List.length erased < n);
  Alcotest.(check (list string)) "Stopped names the erased pds" erased
    (match result with Error e -> Dbfs.committed e | Ok _ -> []);
  check_int "erasures counts them" (List.length erased) erasures;
  check_int "membrane_updates counts them" (List.length erased) membranes;
  let audit = ref (Rgpdos_audit.Audit_log.create ()) in
  let result, erased', _, _ =
    run k (fun t clock pds ->
        let d = Rgpdos_ded.Ded.create ~clock ~dbfs:t ~audit:!audit () in
        Rgpdos_ded.Ded.builtin_crypto_erase d ~pd_ids:pds ~seal)
  in
  check_bool "the DED's erasure fails" true (Result.is_error result);
  Alcotest.(check (list string)) "... erasing the first chunk" erased erased';
  Alcotest.(check (list string)) "... and auditing it" erased (audited !audit);
  let k, (_, erased, _, _) = stop_point () in
  audit := Rgpdos_audit.Audit_log.create ();
  let report, erased', _, _ =
    run k (fun t _ _ ->
        Rgpdos_gdpr.Ttl_sweeper.sweep ~dbfs:t ~audit:!audit ~now:(2 * Clock.year)
          ~seal ())
  in
  Alcotest.(check (list string)) "the sweep erases the first chunk" erased erased';
  Alcotest.(check (list string)) "... audits it" erased (audited !audit);
  check_int "... counts it" (List.length erased)
    report.Rgpdos_gdpr.Ttl_sweeper.removed;
  check_int "... and reports every other pd" (n - List.length erased)
    (List.length report.Rgpdos_gdpr.Ttl_sweeper.errors)

(* One DED erasure of 16 pds on a 2-block ring (several chunks, and an
   overflow checkpoint inside the batch), with a permanent write fault at
   the [k]th write it makes ([k = 0]: none), on a store checkpointed just
   before the batch or not: the call's result (or the exception it
   raised), the pds [entry_info] reports erased, whether the store holds
   a checkpointed entries tree after the call, the pds and their
   membranes before the call, the store, and the writes the call made. *)
let erase_with_fault ~checkpoint k =
  let config = { small_config with block_count = 4096 } in
  let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
  let t = Dbfs.format dev ~journal_blocks:2 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let pds =
    List.init 16 (fun i ->
        insert_user t ~subject:(Printf.sprintf "sub-%02d" i)
          (Printf.sprintf "FAULT-%02d-SECRET" i)
          1990)
  in
  if checkpoint then Dbfs.checkpoint t;
  let before = List.map (fun pd -> ok (Dbfs.get_membrane t ~actor:ded pd)) pds in
  let plan = Fault_plan.create () in
  if k > 0 then
    Fault_plan.on_write plan ~nth:k (Fault_plan.Fail_write { transient = false });
  Block_device.set_fault_plan dev (Some plan);
  let result =
    match
      Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all pds
        ~seal:(fun _ -> "SEALED")
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let erased =
    List.filter
      (fun pd ->
        let _, _, erased = ok (Dbfs.entry_info t ~actor:ded pd) in
        erased)
      pds
  in
  ( result,
    erased,
    Dbfs.entry_page_blocks t <> [],
    List.combine pds before,
    t,
    Fault_plan.writes_seen plan )

(* A failed batch reports every pd it made durable.  At every write of
   the 16-pd erasure, a permanent fault leaves [Dbfs.committed] (or the
   result, when the call succeeds) naming exactly the pds [entry_info]
   reports erased, and raises nothing — including a fault on a chunk's
   destruction write, after its record committed and its ops applied,
   which leaves the store degraded. *)
let test_failed_batch_reports_what_it_committed () =
  List.iter
    (fun checkpoint ->
      let _, _, _, _, _, writes = erase_with_fault ~checkpoint 0 in
      for k = 1 to writes do
        let at = Printf.sprintf "checkpoint=%b, fault at write %d" checkpoint k in
        match erase_with_fault ~checkpoint k with
        | Error exn, _, _, _, _, _ -> Alcotest.failf "%s: raised %s" at exn
        | Ok result, erased, _, _, t, _ ->
            Alcotest.(check (list string))
              (at ^ ": the pds reported are the pds erased")
              erased
              (match result with Ok l -> l | Error e -> Dbfs.committed e);
            if Result.is_error result then
              check_bool (at ^ ": the store is degraded") true
                (Dbfs.degraded t <> None)
      done)
    [ true; false ]

(* A failed overflow checkpoint leaves the store as it was.  On a store
   never checkpointed, the 16-pd erasure's first record overflows the
   ring, and the checkpoint that makes room runs before that record is
   written.  A permanent fault anywhere before the first record commits
   — in the overflow checkpoint, its root write included — ends the call
   in [Degraded], raising nothing, with nothing erased, every membrane as
   it was and every pd listed. *)
let test_failed_overflow_checkpoint_leaves_store () =
  let _, _, checkpointed, _, _, writes = erase_with_fault ~checkpoint:false 0 in
  check_bool "the batch checkpoints to make room" true checkpointed;
  let untouched = ref 0 in
  for k = 1 to writes do
    let at = Printf.sprintf "fault at write %d" k in
    match erase_with_fault ~checkpoint:false k with
    | Error exn, _, _, _, _, _ -> Alcotest.failf "%s: raised %s" at exn
    | Ok _, _ :: _, _, _, _, _ -> ()
    | Ok result, [], _, before, t, _ ->
        incr untouched;
        check_bool (at ^ ": the call ends in Degraded") true
          (match result with Error (Dbfs.Degraded _) -> true | _ -> false);
        List.iter
          (fun (pd, m) ->
            check_string
              (Printf.sprintf "%s: %s keeps its membrane" at pd)
              (M.encode m)
              (M.encode (ok (Dbfs.get_membrane t ~actor:ded pd))))
          before;
        check_int (at ^ ": every pd listed") (List.length before)
          (List.length (ok (Dbfs.list_pds t ~actor:ded "user")))
  done;
  check_bool "faults before the first record are seen" true (!untouched > 1)

(* One damaged pd holds back no other.  A sweep whose due pds include
   one whose membrane and another whose record fail their checksums
   erases and audits every other due pd, in expiry order, reports the
   two with their errors, and leaves both queued. *)
let test_sweep_skips_damaged_pds () =
  let config = { small_config with block_count = 4096 } in
  let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
  let t = Dbfs.format dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  for i = 0 to 5 do
    ignore
      (insert_user t ~subject:(Printf.sprintf "sub-%d" i) (Printf.sprintf "DUE-%d" i)
         1990)
  done;
  Dbfs.checkpoint t;
  (* a remount starts with empty caches, so every load reads the medium *)
  let t =
    match Dbfs.crash_and_remount t with Ok t -> t | Error e -> Alcotest.fail e
  in
  let now = 2 * Clock.year in
  let due = ok (Dbfs.expired_pds t ~actor:ded ~now) in
  check_int "every pd is due" 6 (List.length due);
  let bad_membrane = List.nth due 1 and bad_record = List.nth due 4 in
  let flip pd pick =
    let x = pick (ok (Dbfs.entry_extents t ~actor:ded pd)) in
    Block_device.unsafe_flip dev ~block:(List.hd x.Space.blocks)
      ~byte:(x.Space.off + 3) ~bit:0
  in
  flip bad_membrane snd;
  flip bad_record fst;
  let audit = Rgpdos_audit.Audit_log.create () in
  let report =
    Rgpdos_gdpr.Ttl_sweeper.sweep ~dbfs:t ~audit ~now
      ~seal:(fun _ -> "SEALED") ()
  in
  let others = List.filter (fun pd -> pd <> bad_membrane && pd <> bad_record) due in
  check_int "every other due pd removed" 4 report.Rgpdos_gdpr.Ttl_sweeper.removed;
  Alcotest.(check (list string)) "... and audited, in expiry order" others
    (audited audit);
  List.iter
    (fun pd ->
      let _, _, erased = ok (Dbfs.entry_info t ~actor:ded pd) in
      check_bool (pd ^ " erased iff undamaged") (List.mem pd others) erased)
    due;
  Alcotest.(check (list string)) "the damaged pds are reported"
    [ bad_membrane; bad_record ]
    (List.map fst report.Rgpdos_gdpr.Ttl_sweeper.errors);
  Alcotest.(check (list string)) "... and stay queued" [ bad_membrane; bad_record ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now))

(* ------------------------------------------------------------------ *)
(* slots: extents are byte ranges of shared pages                     *)

let stray_byte = Rgpdos_model.Refine.stray_byte

(* A store of [n] users whose records and membranes pack into shared
   pages (512-byte blocks: about eight records and two membranes a
   page).  User [i]'s record names [secret i]. *)
let shared_secret i = Printf.sprintf "SHARED-%02d-SECRET" i

let shared_store ~allocator n =
  let config = { small_config with block_count = 4096 } in
  let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
  let t = Dbfs.format ~allocator dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let pds =
    List.init n (fun i ->
        insert_user t ~subject:(Printf.sprintf "sub-%d" i) (shared_secret i)
          (1980 + i))
  in
  (config, dev, t, pds)

let record_page t pd = List.hd (fst (ok (Dbfs.entry_extents t ~actor:ded pd))).Space.blocks

let shares_page t pd others =
  List.exists (fun o -> record_page t o = record_page t pd) others

(* The users other than [skip] still read back exactly. *)
let neighbours_intact ~at t pds ~skip =
  List.iteri
    (fun i pd ->
      if not (List.mem i skip) then
        check_bool
          (at (Printf.sprintf "neighbour %d reads back" i))
          true
          (Record.get (ok (Dbfs.get_record t ~actor:ded pd)) "name"
          = Some (Value.VString (shared_secret i))))
    pds

(* Erase a pd whose record shares a closed page with live neighbours,
   and one whose record is still in its zone's open page, then insert
   into that open page.  The raw image holds no byte of either erased
   record (a slot zeroed in the open page is zeroed in its image too, so
   the append does not write it back), no data-page byte outside a live
   slot, and every neighbour reads back. *)
let test_erase_shared_page ~allocator () =
  let _, dev, t, pds = shared_store ~allocator 10 in
  let closed = 2 and last = 9 in
  let others i = List.filteri (fun j _ -> j <> i) pds in
  check_bool "the record shares a closed page" true
    (shares_page t (List.nth pds closed) (others closed)
    && record_page t (List.nth pds closed) <> record_page t (List.nth pds last));
  check_bool "the last record shares the open page" true
    (shares_page t (List.nth pds last) (others last));
  List.iter
    (fun i ->
      ignore
        (ok
           (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ List.nth pds i ]
              ~seal:(fun _ -> "SEALED-ENVELOPE"))))
    [ closed; last ];
  let late = insert_user t ~subject:"sub-late" "LATE-ARRIVAL" 2000 in
  check_bool "the late record joins the open page" true
    (record_page t late = record_page t (List.nth pds last));
  let at what = what in
  List.iter
    (fun i ->
      check_int
        (Printf.sprintf "no byte of erased record %d on the image" i)
        0
        (List.length (Block_device.scan dev (shared_secret i))))
    [ closed; last ];
  check_bool "nothing outside a live slot" true (stray_byte t = None);
  neighbours_intact ~at t pds ~skip:[ closed; last ];
  check_bool "the late record reads back" true
    (Record.get (ok (Dbfs.get_record t ~actor:ded late)) "name"
    = Some (Value.VString "LATE-ARRIVAL"));
  check_bool "fsck clean" true (Dbfs.fsck t = Ok ())

(* Crash after every write of an erasure and of a rectification of a pd
   whose pages hold live neighbours.  After remount and repair: fsck
   clean, nothing quarantined, no data-page byte outside a live slot,
   every neighbour intact, and the pd holds its old or its new version. *)
let test_shared_page_crash ~allocator () =
  let victim = 2 in
  let mutations =
    [
      ( "erasure",
        fun t pd ->
          ignore
            (ok
               (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pd ]
                  ~seal:(fun _ -> "SEALED-ENVELOPE"))) );
      ( "rectification",
        fun t pd ->
          ok (Dbfs.update_record t ~actor:ded pd (user_record "NEW-VERSION" 1999))
      );
    ]
  in
  List.iter
    (fun (name, mutate) ->
      let run plan =
        let config, dev, t, pds = shared_store ~allocator 6 in
        Block_device.set_fault_plan dev (Some plan);
        mutate t (List.nth pds victim);
        (config, dev, pds)
      in
      let reference = Fault_plan.create () in
      ignore (run reference);
      for k = 1 to Fault_plan.writes_seen reference do
        let at what = Printf.sprintf "%s, crash after write %d: %s" name k what in
        let plan = Fault_plan.create () in
        Fault_plan.crash_after_writes plan k;
        let config, dev, pds = run plan in
        let dev' = Block_device.create ~config ~clock:(Clock.create ()) () in
        (match Block_device.crash_image dev with
        | Some image -> Block_device.restore dev' image
        | None -> Alcotest.fail (at "no crash image"));
        let t' =
          match Dbfs.mount dev' with Ok t -> t | Error e -> Alcotest.fail (at e)
        in
        let rep = Dbfs.fsck_repair t' in
        check_bool (at "repair clean") true rep.Dbfs.rr_clean;
        Alcotest.(check (list string)) (at "nothing quarantined") []
          (List.map fst rep.Dbfs.rr_quarantined);
        check_bool (at "fsck clean") true (Dbfs.fsck t' = Ok ());
        check_bool (at "nothing outside a live slot") true (stray_byte t' = None);
        neighbours_intact ~at t' pds ~skip:[ victim ];
        let pd = List.nth pds victim in
        let _, _, erased = ok (Dbfs.entry_info t' ~actor:ded pd) in
        let version =
          if erased then "erased"
          else
            match Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name" with
            | Some (Value.VString v) -> v
            | _ -> "?"
        in
        let old = shared_secret victim in
        let allowed =
          if name = "erasure" then [ old; "erased" ] else [ old; "NEW-VERSION" ]
        in
        check_bool (at ("old or new version, got " ^ version)) true
          (List.mem version allowed);
        if version <> old then
          check_int (at "no byte of the old version") 0
            (List.length (Block_device.scan dev' old))
      done)
    mutations

(* The image a device that reorders writes could leave: a mutation's
   journal record is durable, its payload is not.  Each mutation runs once
   per crash point until the crash image's journal region first differs
   from the snapshot taken before it (its flush); in that image every
   data block the mutation wrote is put back as the snapshot held it.
   Replay must drop the record, not apply it over missing data: after
   remount and repair the pd reads its previous version (absent, for an
   insert), fsck is clean, nothing is quarantined and the replay report
   names the dropped tail.  Mounted without repair, one more append takes
   the dropped record's place, and it never replays. *)
let test_unwritten_tail_dropped ~allocator () =
  let config = { small_config with block_count = 4096 } in
  let secret = "TAIL-NEVER-WRITTEN-93" in
  let mutations =
    [
      ( "insert",
        fun t _ -> ignore (insert_user t ~subject:"sub-2" secret 2001) );
      ( "update_record",
        fun t pd ->
          ok (Dbfs.update_record t ~actor:ded pd (user_record secret 1991)) );
      ( "update_membrane",
        fun t pd ->
          let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
          ok (Dbfs.update_membrane t ~actor:ded pd (M.withdraw_all m)) );
      ( "erase_with ~withdraw",
        fun t pd ->
          ignore
            (ok
               (Dbfs.erase_with t ~actor:ded ~withdraw:M.withdraw_all [ pd ]
                  ~seal:(fun _ -> secret))) );
    ]
  in
  List.iter
    (fun (name, mutate) ->
      let at what = Printf.sprintf "%s: %s" name what in
      let run k =
        let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
        let t = Dbfs.format ~allocator dev ~journal_blocks:64 in
        ok (Dbfs.create_type t ~actor:ded (user_schema ()));
        ignore (insert_user t ~subject:"sub-0" "KEEP" 1980);
        let pd = insert_user t ~subject:"sub-1" "BEFORE" 1990 in
        let membrane = M.encode (ok (Dbfs.get_membrane t ~actor:ded pd)) in
        let before = Block_device.snapshot dev in
        let plan = Fault_plan.create () in
        Fault_plan.crash_after_writes plan k;
        Block_device.set_fault_plan dev (Some plan);
        mutate t pd;
        (t, (pd, membrane), before, Block_device.crash_image dev)
      in
      let journal = (1, 1 + 64) in
      let differs a b (lo, hi) =
        List.exists (fun i -> a.(i) <> b.(i)) (List.init (hi - lo) (( + ) lo))
      in
      let rec flush_point k =
        if k > 8 then Alcotest.fail (at "no journal write");
        match run k with
        | t, pd, before, Some image when differs before image journal ->
            (t, pd, before, image)
        | _ -> flush_point (k + 1)
      in
      let t, (pd, membrane), before, image = flush_point 1 in
      let data = (Dbfs.layout t).Space.l_data_start in
      for i = data to config.Block_device.block_count - 1 do
        if image.(i) <> before.(i) then image.(i) <- before.(i)
      done;
      let mount () =
        let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
        Block_device.restore dev image;
        match Dbfs.mount dev with Ok t -> t | Error e -> Alcotest.fail (at e)
      in
      let repaired when_ t' =
        let rep = Dbfs.fsck_repair t' in
        Alcotest.(check (list string)) (at (when_ ^ ": nothing quarantined")) []
          (List.map fst rep.Dbfs.rr_quarantined);
        check_bool (at (when_ ^ ": repair clean")) true rep.Dbfs.rr_clean;
        check_bool (at (when_ ^ ": fsck clean")) true (Dbfs.fsck t' = Ok ())
      in
      (* the pd as it was, and no pd from the dropped record *)
      let previous when_ t' ~pds =
        let at what = at (when_ ^ ": " ^ what) in
        let _, _, erased = ok (Dbfs.entry_info t' ~actor:ded pd) in
        check_bool (at "not erased") false erased;
        check_string (at "previous membrane") membrane
          (M.encode (ok (Dbfs.get_membrane t' ~actor:ded pd)));
        check_bool (at "previous record") true
          (Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name"
          = Some (Value.VString "BEFORE"));
        check_int (at "pd count") pds (Dbfs.pd_count t')
      in
      let t' = mount () in
      repaired "remounted" t';
      (match Dbfs.replay_report t' with
      | Some r ->
          check_string (at "replay names the dropped tail") "unwritten_data"
            (Rgpdos_block.Journal_ring.stop_reason_to_string r.stop_reason)
      | None -> Alcotest.fail (at "no replay report"));
      previous "remounted" t' ~pds:2;
      (* no repair: the next append overwrites the dropped record *)
      let t' = mount () in
      let pd3 = insert_user t' ~subject:"sub-3" "AFTER" 2002 in
      let t'' =
        match Dbfs.crash_and_remount t' with
        | Ok t -> t
        | Error e -> Alcotest.fail (at e)
      in
      check_bool (at "the next append replays") true
        (Record.get (ok (Dbfs.get_record t'' ~actor:ded pd3)) "name"
        = Some (Value.VString "AFTER"));
      (* the append left nothing of the dropped record behind it *)
      (match Dbfs.replay_report t'' with
      | Some r ->
          check_string (at "the journal ends clean") "clean"
            (Rgpdos_block.Journal_ring.stop_reason_to_string r.stop_reason)
      | None -> Alcotest.fail (at "no replay report"));
      previous "after the next append" t'' ~pds:3;
      check_bool (at "repair truncates nothing") true
        ((Dbfs.fsck_repair t'').Dbfs.rr_journal_truncated = None);
      repaired "after the next append" t'')
    mutations

(* A faulted page of an earlier record does not excuse the tail.  The
   journal holds two inserts, whose membrane page is then permanently
   bad, and last a rectification whose data never reached the device:
   replay's one read of every page the records name faults, so the tail
   is checked against its own pages alone, and dropped. *)
let test_tail_checked_despite_faulted_page () =
  let config = { small_config with block_count = 4096 } in
  let dev = Block_device.create ~config ~clock:(Clock.create ()) () in
  let t = Dbfs.format dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (user_schema ()));
  let keep = insert_user t ~subject:"sub-0" "KEEP" 1980 in
  let pd = insert_user t ~subject:"sub-1" "BEFORE" 1990 in
  let bad = List.hd (snd (ok (Dbfs.entry_extents t ~actor:ded keep))).Space.blocks in
  let before = Block_device.snapshot dev in
  ok (Dbfs.update_record t ~actor:ded pd (user_record "NEVER-WRITTEN" 1991));
  let image = Block_device.snapshot dev in
  let data = (Dbfs.layout t).Space.l_data_start in
  check_bool "the rectification wrote outside the bad page" true
    (List.hd (fst (ok (Dbfs.entry_extents t ~actor:ded pd))).Space.blocks <> bad);
  for i = data to config.Block_device.block_count - 1 do
    image.(i) <- before.(i)
  done;
  let dev' = Block_device.create ~config ~clock:(Clock.create ()) () in
  Block_device.restore dev' image;
  Block_device.inject_fault dev' bad;
  let t' = match Dbfs.mount dev' with Ok t -> t | Error e -> Alcotest.fail e in
  (match Dbfs.replay_report t' with
  | Some r ->
      check_string "replay drops the unwritten tail" "unwritten_data"
        (Rgpdos_block.Journal_ring.stop_reason_to_string r.stop_reason)
  | None -> Alcotest.fail "no replay report");
  check_bool "the pd reads its previous record" true
    (Record.get (ok (Dbfs.get_record t' ~actor:ded pd)) "name"
    = Some (Value.VString "BEFORE"))

let test_dbfs_queries () =
  let t, _, _ = setup () in
  let p1 = insert_user t ~subject:"alice" "Alice" 1980 in
  let p2 = insert_user t ~subject:"bob" "Bob" 1985 in
  let p3 = insert_user t ~subject:"alice" "Alice2" 1981 in
  Alcotest.(check (list string)) "list_pds order" [ p1; p2; p3 ]
    (ok (Dbfs.list_pds t ~actor:ded "user"));
  Alcotest.(check (list string)) "alice pds" [ p1; p3 ]
    (ok (Dbfs.pds_of_subject t ~actor:ded "alice"));
  Alcotest.(check (list string)) "subjects" [ "alice"; "bob" ]
    (ok (Dbfs.subjects t ~actor:ded));
  check_int "pd_count" 3 (Dbfs.pd_count t);
  let tn, subj, erased = ok (Dbfs.entry_info t ~actor:ded p2) in
  check_string "info type" "user" tn;
  check_string "info subject" "bob" subj;
  check_bool "not erased" false erased

let test_dbfs_export_subject () =
  let t, _, _ = setup () in
  let _ = insert_user t ~subject:"alice" "Alice" 1980 in
  let _ = insert_user t ~subject:"alice" "Alice2" 1981 in
  let _, json = ok (Dbfs.export_subject t ~actor:ded "alice") in
  check_bool "array" true (json.[0] = '[');
  check_bool "contains name key" true (contains_sub json "\"name\": \"Alice\"");
  check_bool "contains second record" true (contains_sub json "Alice2")

let test_dbfs_sensitive_region_separation () =
  let t, _, _ = setup () in
  (* user schema defaults to High sensitivity: fsck verifies placement *)
  let _ = insert_user t ~subject:"s" "X" 1990 in
  match Dbfs.fsck t with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "fsck: %s" (String.concat "; " ps)

let test_dbfs_access_hook () =
  let t, _, _ = setup () in
  Dbfs.set_access_hook t (fun ~actor ~op:_ -> actor = "ded");
  check_bool "ded passes" true (Result.is_ok (Dbfs.list_types t ~actor:"ded"));
  (match Dbfs.list_types t ~actor:"rogue-app" with
  | Error (Dbfs.Access_denied _) -> ()
  | _ -> Alcotest.fail "expected denial");
  check_bool "rogue write denied" true
    (Result.is_error
       (Dbfs.insert t ~actor:"rogue-app" ~subject:"s" ~type_name:"user"
          ~record:(user_record "x" 1990)
          ~membrane_of:(fun ~pd_id ->
            M.make ~pd_id ~type_name:"user" ~subject_id:"s" ~origin:M.Subject
              ~consents:[] ~created_at:0 ())));
  check_int "denials counted" 2
    (Rgpdos_util.Stats.Counter.get (Dbfs.stats t) "denials")

let test_dbfs_journal_holds_no_pd () =
  let t, dev, _ = setup () in
  let unique = "JOURNAL-MUST-NOT-SEE-THIS" in
  let _ = insert_user t ~subject:"s" unique 1990 in
  (* metadata-only journaling: every on-device copy of the PD must live in
     the data region; the journal ring (blocks 1..64) and metadata region
     (65..192) must hold none *)
  let data_start = 1 + 64 + 128 in
  let hits = Block_device.scan dev unique in
  check_bool "PD present in data region" true (hits <> []);
  check_int "no PD outside data region" 0
    (List.length (List.filter (fun (b, _) -> b < data_start) hits))

let test_dbfs_persistence_roundtrip () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"alice" "Alice" 1980 in
  Dbfs.checkpoint t;
  let t2 = match Dbfs.crash_and_remount t with Ok x -> x | Error e -> Alcotest.fail e in
  let r = ok (Dbfs.get_record t2 ~actor:ded pd) in
  check_bool "record survives" true (Record.get r "name" = Some (Value.VString "Alice"));
  let m = ok (Dbfs.get_membrane t2 ~actor:ded pd) in
  check_string "membrane survives" pd m.M.pd_id

let test_dbfs_crash_recovery_replays () =
  let t, _, _ = setup () in
  let pd1 = insert_user t ~subject:"a" "One" 1980 in
  Dbfs.checkpoint t;
  (* post-checkpoint ops live only in the metadata journal *)
  let pd2 = insert_user t ~subject:"b" "Two" 1981 in
  ok (Dbfs.delete t ~actor:ded [ pd1 ]);
  let t2 = match Dbfs.crash_and_remount t with Ok x -> x | Error e -> Alcotest.fail e in
  check_bool "replayed insert" true (Result.is_ok (Dbfs.get_record t2 ~actor:ded pd2));
  check_bool "replayed delete" true (Result.is_error (Dbfs.get_record t2 ~actor:ded pd1));
  (match Dbfs.fsck t2 with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "fsck after recovery: %s" (String.concat "; " ps));
  (* new inserts after recovery must not collide with replayed ids *)
  let pd3 = insert_user t2 ~subject:"c" "Three" 1982 in
  check_bool "fresh id" true (pd3 <> pd2 && pd3 <> pd1)

let test_dbfs_fsck_detects_corruption () =
  let t, dev, _ = setup () in
  let pd = insert_user t ~subject:"s" "Victim" 1990 in
  (* clobber the membrane blocks behind DBFS's back *)
  let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
  ignore m;
  (* find membrane bytes by scanning for the membrane magic *)
  let hits = Block_device.scan dev "MBR1" in
  check_bool "found membrane block" true (hits <> []);
  Block_device.write_vec dev (List.map (fun (b, _) -> (b, "garbage")) hits);
  match Dbfs.fsck t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fsck should detect clobbered membrane"

let prop_insert_then_get =
  QCheck.Test.make ~name:"insert/get roundtrip for arbitrary records" ~count:40
    QCheck.(
      pair
        (string_gen_of_size Gen.(1 -- 30) Gen.printable)
        (int_range 1850 2026))
    (fun (name, year) ->
      let t, _, _ = make_dbfs () in
      (match Dbfs.create_type t ~actor:ded (user_schema ()) with
      | Ok () -> ()
      | Error e -> failwith (Dbfs.error_to_string e));
      let schema =
        match Dbfs.schema t ~actor:ded "user" with
        | Ok s -> s
        | Error e -> failwith (Dbfs.error_to_string e)
      in
      let record = user_record name year in
      match
        Dbfs.insert t ~actor:ded ~subject:"s" ~type_name:"user" ~record
          ~membrane_of:(fun ~pd_id -> default_membrane schema ~subject:"s" ~pd_id)
      with
      | Error _ -> false
      | Ok pd -> (
          match Dbfs.get_record t ~actor:ded pd with
          | Ok r -> Record.equal r record
          | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* crash-consistency property: a random op script, interrupted by
   crash+remount at an arbitrary point, must agree with a pure model and
   pass fsck. *)

type script_op =
  | S_insert of string * string * int
  | S_update of int * string * int (* victim index, new name/year *)
  | S_delete of int
  | S_erase of int
  | S_checkpoint
  | S_crash

let script_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun s n y -> S_insert (s, n, y))
             (string_size ~gen:(char_range 'a' 'f') (return 3))
             (string_size ~gen:(char_range 'A' 'Z') (return 6))
             (1900 -- 2020));
        (3, map3 (fun i n y -> S_update (i, n, y)) (0 -- 30)
             (string_size ~gen:(char_range 'a' 'z') (return 5))
             (1900 -- 2020));
        (2, map (fun i -> S_delete i) (0 -- 30));
        (2, map (fun i -> S_erase i) (0 -- 30));
        (1, return S_checkpoint);
        (1, return S_crash);
      ])

let pp_script_op = function
  | S_insert (s, n, y) -> Printf.sprintf "insert(%s,%s,%d)" s n y
  | S_update (i, n, y) -> Printf.sprintf "update(%d,%s,%d)" i n y
  | S_delete i -> Printf.sprintf "delete(%d)" i
  | S_erase i -> Printf.sprintf "erase(%d)" i
  | S_checkpoint -> "checkpoint"
  | S_crash -> "crash"

let prop_crash_consistency =
  QCheck.Test.make ~name:"random script + crashes agrees with model" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_script_op ops))
       QCheck.Gen.(list_size (1 -- 25) script_op_gen))
    (fun ops ->
      let t = ref (let t, _, _ = setup () in t) in
      (* model: pd_id -> (record, erased) for entries that must survive *)
      let model : (string, Record.t * bool) Hashtbl.t = Hashtbl.create 16 in
      let inserted = ref [] in
      let nth_pd i =
        match !inserted with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let schema = ok (Dbfs.schema !t ~actor:ded "user") in
      List.iter
        (fun op ->
          match op with
          | S_insert (subject, name, year) -> (
              let record = user_record name year in
              match
                Dbfs.insert !t ~actor:ded ~subject ~type_name:"user" ~record
                  ~membrane_of:(fun ~pd_id -> default_membrane schema ~subject ~pd_id)
              with
              | Ok pd_id ->
                  inserted := !inserted @ [ pd_id ];
                  Hashtbl.replace model pd_id (record, false)
              | Error Dbfs.No_space -> ()
              | Error e -> failwith (Dbfs.error_to_string e))
          | S_update (i, name, year) -> (
              match nth_pd i with
              | None -> ()
              | Some pd_id -> (
                  let record = user_record name year in
                  match Dbfs.update_record !t ~actor:ded pd_id record with
                  | Ok () -> Hashtbl.replace model pd_id (record, false)
                  | Error (Dbfs.Erased _ | Dbfs.Unknown_pd _ | Dbfs.No_space) -> ()
                  | Error e -> failwith (Dbfs.error_to_string e)))
          | S_delete i -> (
              match nth_pd i with
              | None -> ()
              | Some pd_id -> (
                  match Dbfs.delete !t ~actor:ded [ pd_id ] with
                  | Ok () -> Hashtbl.remove model pd_id
                  | Error (Dbfs.Unknown_pd _) -> ()
                  | Error e -> failwith (Dbfs.error_to_string e)))
          | S_erase i -> (
              match nth_pd i with
              | None -> ()
              | Some pd_id -> (
                  match
                    Dbfs.erase_with !t ~actor:ded [ pd_id ] ~seal:(fun _ -> "SEALED")
                  with
                  | Ok [] -> () (* already erased *)
                  | Ok _ ->
                      let record, _ = Hashtbl.find model pd_id in
                      Hashtbl.replace model pd_id (record, true)
                  | Error (Dbfs.Unknown_pd _ | Dbfs.No_space) -> ()
                  | Error e -> failwith (Dbfs.error_to_string e)))
          | S_checkpoint -> Dbfs.checkpoint !t
          | S_crash -> t := Result.get_ok (Dbfs.crash_and_remount !t))
        ops;
      (* final crash: everything must be recoverable from the device *)
      let recovered = Result.get_ok (Dbfs.crash_and_remount !t) in
      let agrees =
        Hashtbl.fold
          (fun pd_id (record, erased) acc ->
            acc
            &&
            match Dbfs.get_record recovered ~actor:ded pd_id with
            | Ok r -> (not erased) && Record.equal r record
            | Error (Dbfs.Erased _) -> erased
            | Error _ -> false)
          model true
      in
      agrees
      && Dbfs.fsck recovered = Ok ()
      && Dbfs.pd_count recovered = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* decoded membrane/record read cache                                 *)

let counter t name = Rgpdos_util.Stats.Counter.get (Dbfs.stats t) name

let test_cache_hits_on_repeated_access () =
  let t, dev, _ = setup () in
  let pd = insert_user t ~subject:"alice" "Alice" 1990 in
  (* insert populates write-through, so reads hit immediately *)
  check_int "no hits yet" 0 (counter t "cache_hits");
  let m1 = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_int "membrane read hits" 1 (counter t "cache_hits");
  let r1 = ok (Dbfs.get_record t ~actor:ded pd) in
  check_int "record read hits" 2 (counter t "cache_hits");
  check_int "no misses" 0 (counter t "cache_misses");
  check_string "cached record agrees" "Alice"
    (match List.assoc "name" r1 with Value.VString s -> s | _ -> "?");
  (* a fresh mount starts cold: first read misses, second hits, and the
     hit charges the identical simulated device cost as the miss *)
  let clock = Block_device.clock dev in
  let t2 = Result.get_ok (Dbfs.crash_and_remount t) in
  let before_miss = Clock.now clock in
  let m_miss = ok (Dbfs.get_membrane t2 ~actor:ded pd) in
  let miss_cost = Clock.now clock - before_miss in
  check_int "cold after remount" 1 (counter t2 "cache_misses");
  let before_hit = Clock.now clock in
  let m_hit = ok (Dbfs.get_membrane t2 ~actor:ded pd) in
  let hit_cost = Clock.now clock - before_hit in
  check_int "warm on repeat" 1 (counter t2 "cache_hits");
  check_int "hit charges the miss's simulated cost" miss_cost hit_cost;
  check_bool "all three reads agree" true (m1 = m_miss && m_miss = m_hit)

let test_cache_invalidated_by_consent_flip () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"bob" "Bob" 1985 in
  let m = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_bool "purpose1 granted initially" true
    (List.assoc "purpose1" m.M.consents = M.All);
  let hits_before = counter t "cache_hits" in
  let flipped = M.set_consent m ~purpose:"purpose1" M.Denied in
  ok (Dbfs.update_membrane t ~actor:ded pd flipped);
  (* the update invalidated the cached copy: the next read misses and
     must observe the new consent, never the stale cached membrane *)
  let m' = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_int "read after update is a miss" 1 (counter t "cache_misses");
  check_int "no stale hit served" hits_before (counter t "cache_hits");
  check_bool "flip visible" true (List.assoc "purpose1" m'.M.consents = M.Denied);
  (* and the repopulated cache serves the new value *)
  let m'' = ok (Dbfs.get_membrane t ~actor:ded pd) in
  check_int "subsequent read hits" (hits_before + 1) (counter t "cache_hits");
  check_bool "cached value is the new one" true
    (List.assoc "purpose1" m''.M.consents = M.Denied)

let test_cache_invalidated_by_update_record () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"carol" "Carol" 1970 in
  ignore (ok (Dbfs.get_record t ~actor:ded pd));
  ok (Dbfs.update_record t ~actor:ded pd (user_record "Caroline" 1970));
  let r = ok (Dbfs.get_record t ~actor:ded pd) in
  check_string "update visible, not the cached record" "Caroline"
    (match List.assoc "name" r with Value.VString s -> s | _ -> "?")

let test_cache_invalidated_by_erasure () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"dave" "Dave" 1965 in
  (* warm both caches *)
  ignore (ok (Dbfs.get_record t ~actor:ded pd));
  ignore (ok (Dbfs.get_membrane t ~actor:ded pd));
  ignore (ok (Dbfs.erase_with t ~actor:ded [ pd ] ~seal:(fun _ -> "SEALED")));
  (* the cached plaintext record must be gone, not served *)
  (match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Erased _) -> ()
  | Ok _ -> Alcotest.fail "erased record served from cache"
  | Error e -> Alcotest.failf "unexpected: %s" (Dbfs.error_to_string e));
  (* the membrane survives erasure but was invalidated: re-read misses *)
  let misses_before = counter t "cache_misses" in
  ignore (ok (Dbfs.get_membrane t ~actor:ded pd));
  check_int "membrane re-read is a miss" (misses_before + 1)
    (counter t "cache_misses")

let test_cache_invalidated_by_delete () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"erin" "Erin" 2000 in
  ignore (ok (Dbfs.get_record t ~actor:ded pd));
  ok (Dbfs.delete t ~actor:ded [ pd ]);
  match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Unknown_pd _) -> ()
  | Ok _ -> Alcotest.fail "deleted record served from cache"
  | Error e -> Alcotest.failf "unexpected: %s" (Dbfs.error_to_string e)

let test_cache_invalidated_by_ttl_sweep () =
  let t, _, _ = setup () in
  let pd = insert_user t ~subject:"frank" "Frank" 1955 in
  ignore (ok (Dbfs.get_record t ~actor:ded pd));
  ignore (ok (Dbfs.get_membrane t ~actor:ded pd));
  (* default user ttl is one year; sweep well past expiry *)
  let audit = Rgpdos_audit.Audit_log.create () in
  let report =
    Rgpdos_gdpr.Ttl_sweeper.sweep ~dbfs:t ~audit ~now:(2 * Clock.year)
      ~seal:(fun _ -> "SEALED") ()
  in
  check_int "swept" 1 report.Rgpdos_gdpr.Ttl_sweeper.removed;
  match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Erased _) -> ()
  | Ok _ -> Alcotest.fail "expired record served from cache"
  | Error e -> Alcotest.failf "unexpected: %s" (Dbfs.error_to_string e)

let () =
  Alcotest.run "dbfs"
    [
      ( "schema",
        [
          Alcotest.test_case "validation rules" `Quick test_schema_validation_rules;
          Alcotest.test_case "view fields" `Quick test_schema_view_fields;
          Alcotest.test_case "validate record" `Quick test_schema_validate_record;
          Alcotest.test_case "codec roundtrip" `Quick test_schema_codec_roundtrip;
        ] );
      ( "record",
        [
          Alcotest.test_case "project/redact" `Quick test_record_project_redact;
          Alcotest.test_case "codec roundtrip" `Quick test_record_codec_roundtrip;
          Alcotest.test_case "export json shape" `Quick test_record_export_json_shape;
        ] );
      ( "query",
        [
          Alcotest.test_case "atoms" `Quick test_query_atoms;
          Alcotest.test_case "fails closed" `Quick test_query_fails_closed;
          Alcotest.test_case "connectives" `Quick test_query_connectives;
          Alcotest.test_case "fields" `Quick test_query_fields;
          QCheck_alcotest.to_alcotest prop_query_not_involution;
        ] );
      ( "dbfs",
        [
          Alcotest.test_case "create type, list" `Quick test_dbfs_create_type_and_list;
          Alcotest.test_case "insert/get" `Quick test_dbfs_insert_get;
          Alcotest.test_case "insert unknown type" `Quick test_dbfs_insert_unknown_type;
          Alcotest.test_case "insert invalid record" `Quick test_dbfs_insert_invalid_record;
          Alcotest.test_case "membrane invariant" `Quick test_dbfs_membrane_invariant_enforced;
          Alcotest.test_case "update record" `Quick test_dbfs_update_record;
          Alcotest.test_case "update zeroes old blocks" `Quick test_dbfs_update_zeroes_old_blocks;
          Alcotest.test_case "update membrane + mismatch" `Quick test_dbfs_update_membrane_and_mismatch;
          Alcotest.test_case "copy consistency via lineage" `Quick test_dbfs_copy_consistency;
          Alcotest.test_case "copy keeps its subject" `Quick test_dbfs_copy_keeps_subject;
          Alcotest.test_case "delete leaves no trace" `Quick test_dbfs_delete_leaves_no_trace;
          Alcotest.test_case "crypto-erase workflow" `Quick test_dbfs_erase_with;
          Alcotest.test_case "the batch contract" `Quick test_batch_contract;
          Alcotest.test_case "erasure is crash-atomic (heap)" `Quick
            (test_erasure_crash_atomic ~allocator:Space.Heap);
          Alcotest.test_case "erasure is crash-atomic (segments)" `Quick
            (test_erasure_crash_atomic ~allocator:Space.segments);
          Alcotest.test_case "a batch erasure is crash-atomic (heap)" `Quick
            (test_batch_erasure_crash_atomic ~allocator:Space.Heap ~withdraw:true);
          Alcotest.test_case "a batch erasure is crash-atomic (segments)" `Quick
            (test_batch_erasure_crash_atomic ~allocator:Space.segments
               ~withdraw:true);
          Alcotest.test_case "a sweep's batch is crash-atomic (heap)" `Quick
            (test_batch_erasure_crash_atomic ~allocator:Space.Heap ~withdraw:false);
          Alcotest.test_case "a batch past the ring commits in atomic chunks" `Quick
            test_batch_chunks_are_atomic;
          Alcotest.test_case "a stopped batch reports its chunks" `Quick
            test_stopped_batch_reports_its_chunks;
          Alcotest.test_case "a failed batch reports what it committed" `Quick
            test_failed_batch_reports_what_it_committed;
          Alcotest.test_case "a failed overflow checkpoint leaves the store" `Quick
            test_failed_overflow_checkpoint_leaves_store;
          Alcotest.test_case "a damaged due pd holds back no other" `Quick
            test_sweep_skips_damaged_pds;
          Alcotest.test_case "erasing a shared-page pd (heap)" `Quick
            (test_erase_shared_page ~allocator:Space.Heap);
          Alcotest.test_case "erasing a shared-page pd (segments)" `Quick
            (test_erase_shared_page ~allocator:Space.segments);
          Alcotest.test_case "a shared-page pd survives any crash (heap)" `Quick
            (test_shared_page_crash ~allocator:Space.Heap);
          Alcotest.test_case "a shared-page pd survives any crash (segments)"
            `Quick
            (test_shared_page_crash ~allocator:Space.segments);
          Alcotest.test_case "unwritten tail is dropped (heap)" `Quick
            (test_unwritten_tail_dropped ~allocator:Space.Heap);
          Alcotest.test_case "unwritten tail is dropped (segments)" `Quick
            (test_unwritten_tail_dropped ~allocator:Space.segments);
          Alcotest.test_case "a faulted page does not excuse the tail" `Quick
            test_tail_checked_despite_faulted_page;
          Alcotest.test_case "queries" `Quick test_dbfs_queries;
          Alcotest.test_case "export subject" `Quick test_dbfs_export_subject;
          Alcotest.test_case "sensitive region separation" `Quick test_dbfs_sensitive_region_separation;
          Alcotest.test_case "access hook" `Quick test_dbfs_access_hook;
          Alcotest.test_case "journal holds no PD" `Quick test_dbfs_journal_holds_no_pd;
          Alcotest.test_case "persistence roundtrip" `Quick test_dbfs_persistence_roundtrip;
          Alcotest.test_case "crash recovery replays" `Quick test_dbfs_crash_recovery_replays;
          Alcotest.test_case "fsck detects corruption" `Quick test_dbfs_fsck_detects_corruption;
          QCheck_alcotest.to_alcotest prop_insert_then_get;
          QCheck_alcotest.to_alcotest prop_crash_consistency;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits on repeated access" `Quick
            test_cache_hits_on_repeated_access;
          Alcotest.test_case "consent flip invalidates" `Quick
            test_cache_invalidated_by_consent_flip;
          Alcotest.test_case "update record invalidates" `Quick
            test_cache_invalidated_by_update_record;
          Alcotest.test_case "erasure invalidates" `Quick
            test_cache_invalidated_by_erasure;
          Alcotest.test_case "delete invalidates" `Quick
            test_cache_invalidated_by_delete;
          Alcotest.test_case "ttl sweep invalidates" `Quick
            test_cache_invalidated_by_ttl_sweep;
        ] );
    ]
