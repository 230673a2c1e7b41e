module Clock = Rgpdos_util.Clock
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Dbfs = Rgpdos_dbfs.Dbfs

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
  ok (Dbfs.delete t ~actor:ded pd);
  check_bool "entry gone" true (Result.is_error (Dbfs.get_record t ~actor:ded pd));
  check_int "zero forensic hits" 0 (List.length (Block_device.scan dev unique));
  Alcotest.(check (list string))
    "subject tree emptied" [] (ok (Dbfs.pds_of_subject t ~actor:ded "sub-1"))

let test_dbfs_erase_with () =
  let t, dev, _ = setup () in
  let unique = "RIGHT-TO-BE-FORGOTTEN-42" in
  let pd = insert_user t ~subject:"sub-1" unique 1990 in
  ok (Dbfs.erase_with t ~actor:ded pd ~seal:(fun _ -> "SEALED-ENVELOPE-BYTES"));
  (match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Erased _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dbfs.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Erased");
  check_string "sealed payload retrievable" "SEALED-ENVELOPE-BYTES"
    (ok (Dbfs.erased_payload t ~actor:ded pd));
  check_int "plaintext gone from device" 0 (List.length (Block_device.scan dev unique));
  check_bool "double erase fails" true
    (Result.is_error (Dbfs.erase_with t ~actor:ded pd ~seal:(fun _ -> "x")))

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
  ok (Dbfs.delete t ~actor:ded pd1);
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
                  match Dbfs.delete !t ~actor:ded pd_id with
                  | Ok () -> Hashtbl.remove model pd_id
                  | Error (Dbfs.Unknown_pd _) -> ()
                  | Error e -> failwith (Dbfs.error_to_string e)))
          | S_erase i -> (
              match nth_pd i with
              | None -> ()
              | Some pd_id -> (
                  match Dbfs.erase_with !t ~actor:ded pd_id ~seal:(fun _ -> "SEALED") with
                  | Ok () ->
                      let record, _ = Hashtbl.find model pd_id in
                      Hashtbl.replace model pd_id (record, true)
                  | Error (Dbfs.Erased _ | Dbfs.Unknown_pd _ | Dbfs.No_space) -> ()
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
  ok (Dbfs.erase_with t ~actor:ded pd ~seal:(fun _ -> "SEALED"));
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
  ok (Dbfs.delete t ~actor:ded pd);
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
      ~mode:Rgpdos_gdpr.Ttl_sweeper.Physical_delete ()
  in
  check_int "swept" 1 report.Rgpdos_gdpr.Ttl_sweeper.removed;
  match Dbfs.get_record t ~actor:ded pd with
  | Error (Dbfs.Unknown_pd _) -> ()
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
