(* Secondary indexes + predicate pushdown: planner equivalence (qcheck),
   plan shapes, crash consistency of the persisted indexes, fsck's
   index ↔ entry cross-checks, subject-index ordering, warm==cold probe
   charging, Query pretty-printer pins, and the drift gate on the
   committed BENCH_index_select.json. *)

module Clock = Rgpdos_util.Clock
module Block_device = Rgpdos_block.Block_device
module M = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module Plan = Rgpdos_dbfs.Plan
module Dbfs = Rgpdos_dbfs.Dbfs
module Pagestore = Rgpdos_dbfs.Pagestore
module Json = Rgpdos_util.Json
module Bench = Rgpdos_workload.Bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
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

(* two indexed fields (one int — exercising the ordered index — and one
   string), two unindexed ones so residual filtering stays in play *)
let indexed_schema () =
  match
    Schema.make ~name:"item"
      ~fields:
        [
          { Schema.fname = "k_int"; ftype = Value.TInt; required = true };
          { Schema.fname = "k_str"; ftype = Value.TString; required = true };
          { Schema.fname = "extra"; ftype = Value.TInt; required = true };
          { Schema.fname = "text"; ftype = Value.TString; required = true };
        ]
      ~default_consents:[ ("service", M.All) ]
      ~default_ttl:Clock.year
      ~indexed_fields:[ "k_int"; "k_str" ] ()
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let make_dbfs () =
  let clock = Clock.create () in
  let dev = Block_device.create ~config:small_config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:64 in
  ok (Dbfs.create_type t ~actor:ded (indexed_schema ()));
  (t, clock)

let item_record ~k_int ~k_str ~extra : Record.t =
  [
    ("k_int", Value.VInt k_int);
    ("k_str", Value.VString k_str);
    ("extra", Value.VInt extra);
    ("text", Value.VString (Printf.sprintf "row %d %s" k_int k_str));
  ]

let insert_item t clock ~subject record =
  let schema = ok (Dbfs.schema t ~actor:ded "item") in
  ok
    (Dbfs.insert t ~actor:ded ~subject ~type_name:"item" ~record
       ~membrane_of:(fun ~pd_id ->
         M.make ~pd_id ~type_name:"item" ~subject_id:subject
           ~origin:schema.Schema.default_origin
           ~consents:schema.Schema.default_consents
           ~created_at:(Clock.now clock)
           ?ttl:schema.Schema.default_ttl
           ~sensitivity:schema.Schema.default_sensitivity ()))

let seal _record = "sealed-by-test"

(* the reference semantics: full scan + Query.eval over loaded records
   (erased entries yield None and are excluded, like select's live set) *)
let reference_select t pred =
  let pds = ok (Dbfs.list_pds t ~actor:ded "item") in
  let loaded = ok (Dbfs.get_records t ~actor:ded pds) in
  List.filter_map
    (fun (pd, record) ->
      match record with
      | Some r when Query.eval pred r -> Some pd
      | _ -> None)
    loaded

(* ------------------------------------------------------------------ *)
(* qcheck: planner equivalence                                        *)

type case = {
  rows : (int * string * int) list;  (* k_int, k_str, extra *)
  erase_mask : bool list;
  query : Query.t;
}

let gen_field_value st =
  if QCheck.Gen.bool st then ("k_int", Value.VInt (QCheck.Gen.int_range 0 4 st))
  else if QCheck.Gen.bool st then
    ("k_str", Value.VString (QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ] st))
  else ("extra", Value.VInt (QCheck.Gen.int_range 0 4 st))

let gen_atom st =
  match QCheck.Gen.int_range 0 4 st with
  | 0 -> Query.True
  | 1 ->
      let f, v = gen_field_value st in
      Query.Eq (f, v)
  | 2 ->
      let f, v = gen_field_value st in
      Query.Lt (f, v)
  | 3 ->
      let f, v = gen_field_value st in
      Query.Gt (f, v)
  | _ ->
      let f = QCheck.Gen.oneofl [ "k_str"; "text" ] st in
      Query.Contains (f, QCheck.Gen.oneofl [ "a"; "b"; "row"; "zz" ] st)

let rec gen_query depth st =
  if depth <= 0 then gen_atom st
  else
    match QCheck.Gen.int_range 0 4 st with
    | 0 | 1 -> gen_atom st
    | 2 -> Query.And (gen_query (depth - 1) st, gen_query (depth - 1) st)
    | 3 -> Query.Or (gen_query (depth - 1) st, gen_query (depth - 1) st)
    | _ -> Query.Not (gen_query (depth - 1) st)

let gen_case st =
  let n = QCheck.Gen.int_range 0 20 st in
  let rows =
    List.init n (fun _ ->
        ( QCheck.Gen.int_range 0 4 st,
          QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ] st,
          QCheck.Gen.int_range 0 4 st ))
  in
  let erase_mask =
    List.map (fun _ -> QCheck.Gen.int_range 0 4 st = 0) rows
  in
  { rows; erase_mask; query = gen_query 3 st }

let print_case c =
  Printf.sprintf "%d rows, erased [%s], query %s" (List.length c.rows)
    (String.concat ";"
       (List.map (fun b -> if b then "x" else ".") c.erase_mask))
    (Query.to_string c.query)

let populate c =
  let t, clock = make_dbfs () in
  let pds =
    List.mapi
      (fun i (k_int, k_str, extra) ->
        insert_item t clock
          ~subject:(Printf.sprintf "s%d" (i mod 4))
          (item_record ~k_int ~k_str ~extra))
      c.rows
  in
  List.iteri
    (fun i pd ->
      if List.nth c.erase_mask i then
        ignore (ok (Dbfs.erase_with t ~actor:ded [ pd ] ~seal)))
    pds;
  (t, clock)

let prop_select_equals_eval =
  QCheck.Test.make ~name:"select == full-scan Query.eval filter" ~count:120
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let t, _clock = populate c in
      let expected = reference_select t c.query in
      let via_index = ok (Dbfs.select t ~actor:ded "item" c.query) in
      let via_scan =
        ok (Dbfs.select t ~actor:ded ~use_indexes:false "item" c.query)
      in
      via_index = expected && via_scan = expected)

let prop_select_survives_remount =
  QCheck.Test.make ~name:"select equivalence holds after crash_and_remount"
    ~count:40
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let t, _clock = populate c in
      let expected = reference_select t c.query in
      match Dbfs.crash_and_remount t with
      | Error e -> QCheck.Test.fail_reportf "remount failed: %s" e
      | Ok t' ->
          ok (Dbfs.select t' ~actor:ded "item" c.query) = expected
          && Dbfs.index_dump t' = Dbfs.rebuilt_index_dump t')

(* ------------------------------------------------------------------ *)
(* plan shapes                                                        *)

let plan t pred = ok (Dbfs.plan_for t ~actor:ded "item" pred)

let test_plan_shapes () =
  let t, _ = make_dbfs () in
  (match plan t Query.True with
  | Plan.Full_scan { trivial = true } -> ()
  | p -> Alcotest.failf "True: expected trivial full scan, got %s" (Plan.to_string p));
  (match plan t (Query.Eq ("k_int", Value.VInt 1)) with
  | Plan.Indexed { exact = true; _ } -> ()
  | p -> Alcotest.failf "Eq indexed: expected exact probe, got %s" (Plan.to_string p));
  (match plan t (Query.Lt ("k_int", Value.VInt 3)) with
  | Plan.Indexed { exact = true; _ } -> ()
  | p -> Alcotest.failf "Lt indexed: expected exact probe, got %s" (Plan.to_string p));
  (match plan t (Query.Eq ("extra", Value.VInt 1)) with
  | Plan.Full_scan { trivial = false } -> ()
  | p -> Alcotest.failf "Eq unindexed: expected full scan, got %s" (Plan.to_string p));
  (match plan t (Query.Not (Query.Eq ("k_int", Value.VInt 1))) with
  | Plan.Full_scan { trivial = false } -> ()
  | p -> Alcotest.failf "Not: expected full scan, got %s" (Plan.to_string p));
  (match
     plan t
       (Query.And
          (Query.Eq ("k_int", Value.VInt 1), Query.Contains ("text", "row")))
   with
  | Plan.Indexed { exact = false; _ } -> ()
  | p ->
      Alcotest.failf "And with residual: expected inexact probe, got %s"
        (Plan.to_string p));
  (match
     plan t
       (Query.And
          ( Query.Eq ("k_int", Value.VInt 1),
            Query.Gt ("k_int", Value.VInt 0) ))
   with
  | Plan.Indexed { probe = Plan.Inter _; exact = true } -> ()
  | p -> Alcotest.failf "And: expected exact intersection, got %s" (Plan.to_string p));
  (match
     plan t
       (Query.Or
          ( Query.Eq ("k_int", Value.VInt 1),
            Query.Eq ("k_str", Value.VString "a") ))
   with
  | Plan.Indexed { probe = Plan.Union _; exact = true } -> ()
  | p -> Alcotest.failf "Or: expected exact union, got %s" (Plan.to_string p));
  match
    plan t
      (Query.Or
         (Query.Eq ("k_int", Value.VInt 1), Query.Contains ("text", "row")))
  with
  | Plan.Full_scan { trivial = false } -> ()
  | p ->
      Alcotest.failf "Or with unindexed arm: expected full scan, got %s"
        (Plan.to_string p)

(* an exact plan needs no record loads at all *)
let test_exact_plan_skips_record_loads () =
  let t, clock = make_dbfs () in
  for i = 0 to 19 do
    ignore
      (insert_item t clock ~subject:"s0"
         (item_record ~k_int:(i mod 5) ~k_str:"a" ~extra:i))
  done;
  let reads_before = Rgpdos_util.Stats.Counter.get (Dbfs.stats t) "record_reads" in
  let ids = ok (Dbfs.select t ~actor:ded "item" (Query.Eq ("k_int", Value.VInt 2))) in
  check_int "matches" 4 (List.length ids);
  check_int "no record loads on an exact plan" reads_before
    (Rgpdos_util.Stats.Counter.get (Dbfs.stats t) "record_reads")

(* warm == cold: probing twice costs the same simulated time *)
let test_probe_charging_warm_equals_cold () =
  let t, clock = make_dbfs () in
  for i = 0 to 19 do
    ignore
      (insert_item t clock ~subject:"s0"
         (item_record ~k_int:(i mod 5) ~k_str:"b" ~extra:i))
  done;
  let time_one pred =
    let t0 = Clock.now clock in
    ignore (ok (Dbfs.select t ~actor:ded "item" pred));
    Clock.now clock - t0
  in
  let pred = Query.Eq ("k_int", Value.VInt 3) in
  let cold = time_one pred in
  let warm = time_one pred in
  check_bool "probe charges simulated time" true (cold > 0);
  check_int "warm == cold" cold warm

(* ------------------------------------------------------------------ *)
(* crash consistency                                                  *)

let ok' = function
  | Ok v -> v
  | Error e -> Alcotest.failf "remount: %s" e

let test_index_survives_crash_interleaved () =
  let t, clock = make_dbfs () in
  let pds = ref [] in
  let insert i =
    let pd =
      insert_item t clock
        ~subject:(Printf.sprintf "s%d" (i mod 3))
        (item_record ~k_int:(i mod 5) ~k_str:"a" ~extra:i)
    in
    pds := !pds @ [ pd ];
    pd
  in
  for i = 0 to 7 do
    ignore (insert i)
  done;
  (* update flips an indexed field: postings must re-key *)
  ok
    (Dbfs.update_record t ~actor:ded (List.nth !pds 2)
       (item_record ~k_int:4 ~k_str:"e" ~extra:99));
  ignore (ok (Dbfs.erase_with t ~actor:ded [ List.nth !pds 3 ] ~seal));
  ok (Dbfs.delete t ~actor:ded [ List.nth !pds 4 ]);
  let t = ok' (Dbfs.crash_and_remount t) in
  check_string "remount restores exactly the rebuilt index"
    (Dbfs.rebuilt_index_dump t) (Dbfs.index_dump t);
  (* keep going after the crash: more inserts and a consent re-membrane *)
  let t_ref = t in
  let pd9 =
    insert_item t_ref clock ~subject:"s1" (item_record ~k_int:1 ~k_str:"c" ~extra:9)
  in
  let membrane = ok (Dbfs.get_membrane t_ref ~actor:ded pd9) in
  let rekeyed =
    M.make ~pd_id:pd9 ~type_name:"item" ~subject_id:"s1"
      ~origin:membrane.M.origin ~consents:membrane.M.consents
      ~created_at:membrane.M.created_at ~ttl:(2 * Clock.year)
      ~sensitivity:membrane.M.sensitivity ()
  in
  ok (Dbfs.update_membrane t_ref ~actor:ded pd9 rekeyed);
  let t2 = ok' (Dbfs.crash_and_remount t_ref) in
  check_string "second remount still matches the rebuild"
    (Dbfs.rebuilt_index_dump t2) (Dbfs.index_dump t2);
  match Dbfs.fsck t2 with
  | Ok () -> ()
  | Error lines -> Alcotest.failf "fsck after crashes: %s" (String.concat "; " lines)

let test_expiry_queue_tracks_membranes () =
  let t, clock = make_dbfs () in
  let p0 = insert_item t clock ~subject:"s0" (item_record ~k_int:0 ~k_str:"a" ~extra:0) in
  Clock.advance clock Clock.day;
  let p1 = insert_item t clock ~subject:"s1" (item_record ~k_int:1 ~k_str:"b" ~extra:1) in
  Clock.advance clock Clock.day;
  let p2 = insert_item t clock ~subject:"s2" (item_record ~k_int:2 ~k_str:"c" ~extra:2) in
  check_int "queue population" 3 (Dbfs.expiry_queue_size t);
  (* nothing expired yet *)
  check_ids "peek before expiry" []
    (ok (Dbfs.expired_pds t ~actor:ded ~now:(Clock.now clock)));
  (* past the first TTL only *)
  let now = Clock.year + (Clock.day / 2) in
  check_ids "only the first entry is due" [ p0 ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now));
  (* all due, in expiry order *)
  let later = Clock.year + (3 * Clock.day) in
  check_ids "expiry order" [ p0; p1; p2 ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now:later));
  (* erase/delete pull entries out of the queue *)
  ignore (ok (Dbfs.erase_with t ~actor:ded [ p1 ] ~seal));
  ok (Dbfs.delete t ~actor:ded [ p0 ]);
  check_int "queue shrank" 1 (Dbfs.expiry_queue_size t);
  check_ids "erased and deleted entries left the queue" [ p2 ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now:later));
  (* and the queue survives a crash *)
  let t = match Dbfs.crash_and_remount t with
    | Ok t -> t
    | Error e -> Alcotest.failf "remount: %s" e
  in
  check_int "queue size after remount" 1 (Dbfs.expiry_queue_size t);
  check_ids "queue content after remount" [ p2 ]
    (ok (Dbfs.expired_pds t ~actor:ded ~now:later))

let test_fsck_flags_tampered_index () =
  let t, clock = make_dbfs () in
  let pd = insert_item t clock ~subject:"s0" (item_record ~k_int:3 ~k_str:"d" ~extra:0) in
  ignore (insert_item t clock ~subject:"s1" (item_record ~k_int:1 ~k_str:"a" ~extra:1));
  (match Dbfs.fsck t with
  | Ok () -> ()
  | Error lines -> Alcotest.failf "clean fsck: %s" (String.concat "; " lines));
  check_bool "tamper hook found a posting to corrupt" true
    (Dbfs.unsafe_tamper_index t pd);
  match Dbfs.fsck t with
  | Ok () -> Alcotest.fail "fsck missed a corrupted posting list"
  | Error lines ->
      check_bool "complaint names the index" true
        (List.exists (fun l -> contains_sub l "index") lines)

(* ------------------------------------------------------------------ *)
(* paged trees                                                        *)

(* The bounds walk lists every page a bulk load laid out, each once, and
   reads only the interior pages and the leftmost leaf: trees of one,
   two and three levels.  A page's payload opens with its tag ("PI" for
   an interior node, after the frame's and the tag's u32 lengths). *)
let test_node_blocks_reads_interior_levels () =
  List.iter
    (fun (n, height) ->
      let items =
        List.init n (fun i -> (Printf.sprintf "k%06d" i, String.make 40 'v'))
      in
      let root, blocks = Pagestore.layout ~page_size:512 ~first:100 items in
      let image = Hashtbl.of_seq (List.to_seq blocks) in
      let bytes (b, nb) =
        String.concat "" (List.init nb (fun i -> Hashtbl.find image (b + i)))
      in
      let read = ref [] in
      let io =
        {
          Pagestore.read_pages =
            (fun pages ->
              read := pages @ !read;
              List.map bytes pages);
          prefetch_page = (fun _ _ -> ());
        }
      in
      let at = Printf.sprintf "%d keys" n in
      ignore (Pagestore.lookup io root [ fst (List.hd items) ]);
      check_int (at ^ ": levels") height (List.length !read);
      read := [];
      let pages = Pagestore.node_blocks io root in
      check_bool (at ^ ": every laid-out block, each once") true
        (List.sort compare
           (List.concat_map (fun (b, nb) -> List.init nb (fun i -> b + i)) pages)
        = List.map fst blocks);
      let interior = List.filter (fun p -> String.sub (bytes p) 8 2 = "PI") pages in
      check_int (at ^ ": the interior pages and one leaf read")
        (List.length interior + 1)
        (List.length (List.sort_uniq compare !read));
      check_int (at ^ ": no page read twice")
        (List.length (List.sort_uniq compare !read))
        (List.length !read))
    [ (5, 1); (100, 2); (2_000, 3) ]

(* ------------------------------------------------------------------ *)
(* subject index ordering                                             *)

let test_pds_of_subject_insertion_order () =
  let t, clock = make_dbfs () in
  let mine = ref [] in
  for i = 0 to 9 do
    let subject = if i mod 2 = 0 then "alice" else "bob" in
    let pd =
      insert_item t clock ~subject (item_record ~k_int:i ~k_str:"a" ~extra:i)
    in
    if subject = "alice" then mine := !mine @ [ pd ]
  done;
  check_ids "insertion order at the API" !mine
    (ok (Dbfs.pds_of_subject t ~actor:ded "alice"));
  let t = match Dbfs.crash_and_remount t with
    | Ok t -> t
    | Error e -> Alcotest.failf "remount: %s" e
  in
  check_ids "same order after remount" !mine
    (ok (Dbfs.pds_of_subject t ~actor:ded "alice"))

(* ------------------------------------------------------------------ *)
(* Query pretty-printer pins                                          *)

let test_query_to_string_golden () =
  let open Query in
  check_string "true" "true" (to_string True);
  check_string "eq int" "k_int = 3" (to_string (Eq ("k_int", Value.VInt 3)));
  check_string "eq string" "k_str = \"a\""
    (to_string (Eq ("k_str", Value.VString "a")));
  check_string "lt float" "price < 2.5"
    (to_string (Lt ("price", Value.VFloat 2.5)));
  check_string "contains" "text contains \"row\""
    (to_string (Contains ("text", "row")));
  check_string "not" "not (k_int > 1)"
    (to_string (Not (Gt ("k_int", Value.VInt 1))));
  check_string "nested and/or/not"
    "((k_int = 1 and k_str = \"b\") or not ((extra < 4 and text contains \
     \"x\")))"
    (to_string
       (Or
          ( And (Eq ("k_int", Value.VInt 1), Eq ("k_str", Value.VString "b")),
            Not (And (Lt ("extra", Value.VInt 4), Contains ("text", "x"))) )));
  (* pp and to_string agree *)
  let q = And (True, Not (Or (True, Eq ("f", Value.VBool true)))) in
  check_string "pp == to_string" (to_string q) (Format.asprintf "%a" Query.pp q);
  check_string "bool golden" "(true and not ((true or f = true)))" (to_string q)

let test_monotone () =
  let open Query in
  check_bool "atoms are monotone" true
    (monotone (And (Eq ("a", Value.VInt 1), Or (Lt ("b", Value.VInt 2), Contains ("c", "x")))));
  check_bool "Not is not" false (monotone (Not True));
  check_bool "Not below And" false
    (monotone (And (True, Not (Eq ("a", Value.VInt 1)))))

(* ------------------------------------------------------------------ *)
(* compare gate                                                       *)

(* the drift gate on the 1% pushdown speedup, against the committed
   artifact *)
let test_compare_index_gate () =
  let e = Bench.find "index" in
  let committed =
    match
      Bench.read_file
        (if Sys.file_exists e.Bench.file then e.file else Filename.concat ".." e.file)
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  check_bool "the committed number gates itself" true
    (Result.is_ok (Bench.compare e ~committed committed));
  let halved =
    Bench.update
      [
        K "select";
        Where [ ("selectivity_pct", Json.Num 1.0); ("population", Json.Num 2000.0) ];
        K "speedup";
      ]
      (function Json.Num x -> Json.Num (x *. 0.5) | j -> j)
      committed
  in
  match Bench.compare e ~committed halved with
  | Ok _ -> Alcotest.fail "a halved speedup must trip the gate"
  | Error lines ->
      check_bool "gate names the regression" true
        (List.exists (fun l -> contains_sub l "1% pushdown speedup") lines)

let () =
  Alcotest.run "index"
    [
      ( "planner",
        [
          QCheck_alcotest.to_alcotest prop_select_equals_eval;
          QCheck_alcotest.to_alcotest prop_select_survives_remount;
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "exact plan skips record loads" `Quick
            test_exact_plan_skips_record_loads;
          Alcotest.test_case "probe warm == cold" `Quick
            test_probe_charging_warm_equals_cold;
        ] );
      ( "durability",
        [
          Alcotest.test_case "index survives interleaved crashes" `Quick
            test_index_survives_crash_interleaved;
          Alcotest.test_case "expiry queue tracks membranes" `Quick
            test_expiry_queue_tracks_membranes;
          Alcotest.test_case "fsck flags a tampered index" `Quick
            test_fsck_flags_tampered_index;
          Alcotest.test_case "pds_of_subject insertion order" `Quick
            test_pds_of_subject_insertion_order;
          Alcotest.test_case "node_blocks reads interior levels" `Quick
            test_node_blocks_reads_interior_levels;
        ] );
      ( "query",
        [
          Alcotest.test_case "to_string golden" `Quick test_query_to_string_golden;
          Alcotest.test_case "monotone" `Quick test_monotone;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "compare gate" `Quick test_compare_index_gate;
        ] );
    ]
