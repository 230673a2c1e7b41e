(* Paged secondary indexes.

   Three index families, all maintained write-through by DBFS:

   - per (type, indexed field): equality and range probes over a posting
     tree keyed "<ty>\x00<field>\x00<esc canonical>\x00<pd>";
   - a subject -> pd_ids index (right-of-access / erasure paths);
   - a TTL expiry min-queue keyed on membrane expiry instant
     (created_at + ttl), driving the incremental storage-limitation
     sweeper.

   Since PR 6 the durable form is a set of bulk-loaded B+-trees in the
   DBFS metadata heap ([Pagestore]), read on demand page by page — a
   mount no longer decodes the whole index.  Mutations never touch the
   trees: they land in the in-memory overlay (the same hash/ordered-map
   structures the index has always used), and each checkpoint rewrites
   the trees from the merged view.  The overlay is *authoritative per
   pd*: the first mutation touching a pd copies that pd's base facts
   into the overlay ("materialize"), marks the pd touched, and from then
   on base keys for that pd are skipped by every merged read.  A pd
   materializes through one [pdinfo] point lookup: pd -> (subject,
   indexed field values, expiry), the removal source of truth — never
   re-decoded payload bytes — so index maintenance stays correct during
   journal replay even when the device blocks behind an old operation
   have since been zeroed or reused (the final op for a pd always wins). *)

module Codec = Rgpdos_util.Codec

open Rgpdos_util.Codec

(* Total order over values, compatible with [Query.numeric_cmp] on the
   numeric fragment: whenever [numeric_cmp a b = Some c] with [c <> 0],
   [VKey.compare a b] has the same sign.  Cross-type numeric ties
   (VInt 5 vs VFloat 5.0) break by constructor so the map keeps them as
   distinct keys: range probes re-filter with [numeric_cmp], and equality
   probes get exactly the type-strict [Value.equal] classes, which
   [canonical] below also identifies. *)
module VKey = struct
  type t = Value.t

  let rank = function
    | Value.VString _ -> 0
    | Value.VBool _ -> 1
    | Value.VInt _ -> 2
    | Value.VFloat _ -> 3

  let compare a b =
    match (a, b) with
    | Value.VInt x, Value.VInt y -> compare x y
    | Value.VFloat x, Value.VFloat y -> compare x y
    | Value.VInt x, Value.VFloat y ->
        let c = compare (float_of_int x) y in
        if c <> 0 then c else -1
    | Value.VFloat x, Value.VInt y ->
        let c = compare x (float_of_int y) in
        if c <> 0 then c else 1
    | Value.VString x, Value.VString y -> String.compare x y
    | Value.VBool x, Value.VBool y -> compare x y
    | a, b -> compare (rank a) (rank b)
end

module VMap = Map.Make (VKey)
module IMap = Map.Make (Int)

type roots = {
  rt_postings : Pagestore.root;
  rt_pdinfo : Pagestore.root;
  rt_subjects : Pagestore.root;
  rt_expiry : Pagestore.root;
  rt_expiry_count : int;
  rt_max_pd : string;
}

let empty_roots =
  {
    rt_postings = Pagestore.empty_root;
    rt_pdinfo = Pagestore.empty_root;
    rt_subjects = Pagestore.empty_root;
    rt_expiry = Pagestore.empty_root;
    rt_expiry_count = 0;
    rt_max_pd = "";
  }

type base = { io : Pagestore.io; roots : roots }

type t = {
  ord : (string, string list ref VMap.t ref) Hashtbl.t;
      (* "<ty>\x00<field>" -> value -> pd_ids, newest first.  Serves
         equality probes too: [VKey.compare] groups values exactly as
         [Value.equal] does (floats by [Float.equal], ints and floats
         kept apart). *)
  pd_keys : (string, string * (string * Value.t) list) Hashtbl.t;
      (* pd_id -> (type, indexed field values) — removal source of truth *)
  subjects : (string, string list ref) Hashtbl.t;
      (* subject -> pd_ids, newest first; keeps erased pds like the old
         subject_tree did (erasure seals, it does not unlink) *)
  mutable expiry : string list ref IMap.t; (* expiry ns -> pds, newest first *)
  expiry_of : (string, int) Hashtbl.t;
  touched : (string, unit) Hashtbl.t;
      (* pds whose overlay state overrides the base trees *)
  mutable base : base option;
  mutable expiry_count : int; (* merged queue size (base + overlay) *)
}

let create () =
  {
    ord = Hashtbl.create 16;
    pd_keys = Hashtbl.create 64;
    subjects = Hashtbl.create 64;
    expiry = IMap.empty;
    expiry_of = Hashtbl.create 64;
    touched = Hashtbl.create 64;
    base = None;
    expiry_count = 0;
  }

let attach ~io roots =
  let t = create () in
  t.base <- Some { io; roots };
  t.expiry_count <- roots.rt_expiry_count;
  t

(* ------------------------------------------------------------------ *)
(* canonical value keys                                               *)

(* Must identify exactly the [Value.equal] equivalence classes: floats
   compare with [Float.equal] (nan = nan, -0. = 0.), everything else is
   structural and type-strict. *)
let canonical = function
  | Value.VString s -> "s:" ^ s
  | Value.VInt i -> "i:" ^ string_of_int i
  | Value.VBool b -> "b:" ^ string_of_bool b
  | Value.VFloat f ->
      if Float.is_nan f then "f:nan"
      else if f = 0.0 then "f:0" (* -0. = 0. under Float.equal *)
      else Printf.sprintf "f:%h" f

(* Inverse of [canonical]; "%h" hex floats round-trip exactly. *)
let of_canonical s =
  if String.length s < 2 || s.[1] <> ':' then None
  else
    let body = String.sub s 2 (String.length s - 2) in
    match s.[0] with
    | 's' -> Some (Value.VString body)
    | 'i' -> Option.map (fun i -> Value.VInt i) (int_of_string_opt body)
    | 'b' -> Option.map (fun b -> Value.VBool b) (bool_of_string_opt body)
    | 'f' ->
        if body = "nan" then Some (Value.VFloat Float.nan)
        else if body = "0" then Some (Value.VFloat 0.0)
        else Option.map (fun f -> Value.VFloat f) (float_of_string_opt body)
    | _ -> None

let ord_key ~type_name ~field = type_name ^ "\x00" ^ field

(* ------------------------------------------------------------------ *)
(* on-device key encoding                                             *)

(* Tree keys embed NUL separators, so free-form components (canonical
   values, subject names) are escaped with an order-preserving map:
   0x00 -> 0x01 0x01 and 0x01 -> 0x01 0x02.  Type and field names come
   from schema declarations and contain neither byte. *)
let esc s =
  if String.exists (fun c -> c = '\x00' || c = '\x01') s then (
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\x00' -> Buffer.add_string b "\x01\x01"
        | '\x01' -> Buffer.add_string b "\x01\x02"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b)
  else s

let unesc s =
  if not (String.contains s '\x01') then s
  else begin
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      (if s.[!i] = '\x01' && !i + 1 < n then begin
         Buffer.add_char b (if s.[!i + 1] = '\x01' then '\x00' else '\x01');
         incr i
       end
       else Buffer.add_char b s.[!i]);
      incr i
    done;
    Buffer.contents b
  end

let posting_key ~type_name ~field canon pd =
  String.concat "\x00" [ type_name; field; esc canon; pd ]

let subject_key subject pd = esc subject ^ "\x00" ^ pd
let expiry_ns_key ns = Printf.sprintf "%020d" ns
let expiry_key ns pd = expiry_ns_key ns ^ "\x00" ^ pd

let split2 k =
  match String.index_opt k '\x00' with
  | None -> None
  | Some i ->
      Some (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 1))

let split4 k =
  match String.split_on_char '\x00' k with
  | [ a; b; c; d ] -> Some (a, b, c, d)
  | _ -> None

let is_touched t pd = Hashtbl.mem t.touched pd

(* pdinfo value: (subject, indexed field values if live, expiry ns) *)
let encode_pdinfo ~subject ~keyed ~exp =
  let w = Writer.create () in
  Writer.string w subject;
  (match keyed with
  | None -> Writer.bool w false
  | Some (type_name, kvs) ->
      Writer.bool w true;
      Writer.string w type_name;
      Writer.list w
        (fun (f, v) ->
          Writer.string w f;
          Value.encode w v)
        kvs);
  (match exp with
  | None -> Writer.bool w false
  | Some ns ->
      Writer.bool w true;
      Writer.int w ns);
  Writer.contents w

let decode_pdinfo raw =
  let r = Reader.create raw in
  let* subject = Reader.string r in
  let* has_keys = Reader.bool r in
  let* keyed =
    if not has_keys then Ok None
    else
      let* type_name = Reader.string r in
      let* kvs =
        Reader.list r (fun r ->
            let* f = Reader.string r in
            let* v = Value.decode r in
            Ok (f, v))
      in
      Ok (Some (type_name, kvs))
  in
  let* has_exp = Reader.bool r in
  let* exp = if not has_exp then Ok None else Result.map Option.some (Reader.int r) in
  Ok (subject, keyed, exp)

(* ------------------------------------------------------------------ *)
(* posting-list helpers                                               *)

let table_add tbl key pd =
  match Hashtbl.find_opt tbl key with
  | Some ids -> ids := pd :: !ids
  | None -> Hashtbl.replace tbl key (ref [ pd ])

let table_remove tbl key pd =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some ids -> (
      ids := List.filter (fun p -> p <> pd) !ids;
      match !ids with [] -> Hashtbl.remove tbl key | _ -> ())

let ord_add t ~type_name ~field v pd =
  let okey = ord_key ~type_name ~field in
  let m =
    match Hashtbl.find_opt t.ord okey with
    | Some m -> m
    | None ->
        let m = ref VMap.empty in
        Hashtbl.replace t.ord okey m;
        m
  in
  match VMap.find_opt v !m with
  | Some ids -> ids := pd :: !ids
  | None -> m := VMap.add v (ref [ pd ]) !m

let ord_remove t ~type_name ~field v pd =
  let okey = ord_key ~type_name ~field in
  match Hashtbl.find_opt t.ord okey with
  | None -> ()
  | Some m -> (
      match VMap.find_opt v !m with
      | None -> ()
      | Some ids -> (
          ids := List.filter (fun p -> p <> pd) !ids;
          match !ids with [] -> m := VMap.remove v !m | _ -> ()))

(* ------------------------------------------------------------------ *)
(* materialization: overlay takes ownership of a pd                   *)

(* Copy a pd's base facts into the overlay before its first mutation.
   One pdinfo point lookup (O(height) cached page reads); pds beyond the
   base's largest key (fresh inserts) skip even that. *)
let materialize t pd_id =
  match t.base with
  | None -> ()
  | Some b ->
      if not (Hashtbl.mem t.touched pd_id) then begin
        Hashtbl.replace t.touched pd_id ();
        if String.compare pd_id b.roots.rt_max_pd <= 0 then
          match Pagestore.lookup b.io b.roots.rt_pdinfo [ pd_id ] with
          | [ Some raw ] -> (
              match decode_pdinfo raw with
              | Error e -> failwith ("Index: bad pdinfo for " ^ pd_id ^ ": " ^ e)
              | Ok (subject, keyed, exp) ->
                  table_add t.subjects subject pd_id;
                  (match keyed with
                  | None -> ()
                  | Some (type_name, kvs) ->
                      Hashtbl.replace t.pd_keys pd_id (type_name, kvs);
                      List.iter
                        (fun (field, v) -> ord_add t ~type_name ~field v pd_id)
                        kvs);
                  (match exp with
                  | None -> ()
                  | Some ns -> (
                      Hashtbl.replace t.expiry_of pd_id ns;
                      match IMap.find_opt ns t.expiry with
                      | Some ids -> ids := pd_id :: !ids
                      | None -> t.expiry <- IMap.add ns (ref [ pd_id ]) t.expiry)))
          | _ -> ()
      end

(* ------------------------------------------------------------------ *)
(* field-index maintenance                                            *)

let remove_entry t ~pd_id =
  materialize t pd_id;
  match Hashtbl.find_opt t.pd_keys pd_id with
  | None -> ()
  | Some (type_name, kvs) ->
      List.iter (fun (field, v) -> ord_remove t ~type_name ~field v pd_id) kvs;
      Hashtbl.remove t.pd_keys pd_id

let add_entry t ~pd_id ~type_name ~indexed record =
  remove_entry t ~pd_id;
  let kvs = List.filter (fun (f, _) -> List.mem f indexed) record in
  Hashtbl.replace t.pd_keys pd_id (type_name, kvs);
  List.iter (fun (field, v) -> ord_add t ~type_name ~field v pd_id) kvs

(* ------------------------------------------------------------------ *)
(* subject index                                                      *)

let add_subject t ~subject ~pd_id =
  materialize t pd_id;
  table_add t.subjects subject pd_id

let remove_subject t ~subject ~pd_id =
  materialize t pd_id;
  table_remove t.subjects subject pd_id

let subject_pds t subject =
  let mem =
    match Hashtbl.find_opt t.subjects subject with
    | None -> []
    | Some ids -> List.rev !ids (* stored newest-first -> insertion order *)
  in
  match t.base with
  | None -> mem
  | Some b ->
      let acc = ref [] in
      let prefix = esc subject ^ "\x00" in
      Pagestore.iter_prefix b.io b.roots.rt_subjects ~prefix (fun k _ ->
          let pd = String.sub k (String.length prefix) (String.length k - String.length prefix) in
          if not (is_touched t pd) then acc := pd :: !acc);
      (* pd ids are zero-padded and assigned monotonically, so sorting by
         pd restores insertion order across the base/overlay split *)
      List.sort String.compare (List.rev_append !acc mem)

let subject_list t =
  let mem =
    Hashtbl.fold (fun s ids acc -> if !ids = [] then acc else s :: acc) t.subjects []
  in
  match t.base with
  | None -> List.sort String.compare mem
  | Some b ->
      let acc = ref mem in
      Pagestore.iter_from b.io b.roots.rt_subjects ~lo:"" (fun k _ ->
          (match split2 k with
          | Some (esc_s, pd) when not (is_touched t pd) -> acc := unesc esc_s :: !acc
          | _ -> ());
          true);
      List.sort_uniq String.compare !acc

(* ------------------------------------------------------------------ *)
(* expiry queue                                                       *)

let clear_expiry t ~pd_id =
  materialize t pd_id;
  match Hashtbl.find_opt t.expiry_of pd_id with
  | None -> ()
  | Some ns ->
      t.expiry_count <- t.expiry_count - 1;
      Hashtbl.remove t.expiry_of pd_id;
      (match IMap.find_opt ns t.expiry with
      | None -> ()
      | Some ids -> (
          ids := List.filter (fun p -> p <> pd_id) !ids;
          match !ids with
          | [] -> t.expiry <- IMap.remove ns t.expiry
          | _ -> ()))

let set_expiry t ~pd_id = function
  | None -> clear_expiry t ~pd_id
  | Some ns -> (
      clear_expiry t ~pd_id;
      t.expiry_count <- t.expiry_count + 1;
      Hashtbl.replace t.expiry_of pd_id ns;
      match IMap.find_opt ns t.expiry with
      | Some ids -> ids := pd_id :: !ids
      | None -> t.expiry <- IMap.add ns (ref [ pd_id ]) t.expiry)

(* Overlay-resident part of the due set, as (ns, pd) pairs in the
   historical order: ns ascending, insertion order within a bucket. *)
let expired_pairs_mem t ~now =
  (* non-destructive: entries leave the queue when their pd is deleted,
     erased or re-membraned, never as a side effect of looking *)
  let le, at, _ = IMap.split now t.expiry in
  let buckets =
    IMap.fold (fun ns ids acc -> (ns, List.rev !ids) :: acc) le [] |> List.rev
  in
  let buckets =
    match at with None -> buckets | Some ids -> buckets @ [ (now, List.rev !ids) ]
  in
  List.concat_map (fun (ns, pds) -> List.map (fun p -> (ns, p)) pds) buckets

let expired t ~now =
  let mem = expired_pairs_mem t ~now in
  match t.base with
  | None -> List.map snd mem
  | Some b ->
      let acc = ref [] in
      let stop = expiry_ns_key now in
      Pagestore.iter_from b.io b.roots.rt_expiry ~lo:"" (fun k _ ->
          match split2 k with
          | None -> true
          | Some (nss, pd) ->
              if String.compare nss stop > 0 then false
              else begin
                if not (is_touched t pd) then
                  acc := (int_of_string nss, pd) :: !acc;
                true
              end);
      (* merged order: (ns, pd) ascending — identical to what a full
         rebuild (which re-queues in pd order) would produce *)
      List.sort compare (List.rev_append !acc mem) |> List.map snd

let expiry_size t =
  match t.base with
  | None -> Hashtbl.length t.expiry_of
  | Some _ -> t.expiry_count

(* ------------------------------------------------------------------ *)
(* probes                                                             *)

(* Simulated on-device footprint of the overlay side of a probe: a bucket
   header plus one fixed-size slot per posting (pd ids are <= 16 bytes).
   DBFS turns bytes into device blocks and charges them read — warm ==
   cold.  Base-tree postings are charged as node-page reads instead (also
   warm == cold), inside the [Pagestore.io] DBFS provides. *)
let header_bytes = 32
let slot_bytes = 16

let base_eq_postings t ~type_name ~field v =
  match t.base with
  | None -> []
  | Some b ->
      let acc = ref [] in
      let prefix =
        String.concat "\x00" [ type_name; field; esc (canonical v) ] ^ "\x00"
      in
      Pagestore.iter_prefix b.io b.roots.rt_postings ~prefix (fun k _ ->
          let pd = String.sub k (String.length prefix) (String.length k - String.length prefix) in
          if not (is_touched t pd) then acc := pd :: !acc);
      List.rev !acc

(* Overlay postings of one value, newest first. *)
let mem_eq_postings t ~type_name ~field v =
  match Hashtbl.find_opt t.ord (ord_key ~type_name ~field) with
  | None -> []
  | Some m -> ( match VMap.find_opt v !m with None -> [] | Some ids -> !ids)

let probe_eq t ~type_name ~field v =
  let ids = mem_eq_postings t ~type_name ~field v in
  let bytes = header_bytes + (slot_bytes * List.length ids) in
  (base_eq_postings t ~type_name ~field v @ ids, bytes)

let probe_range t ~type_name ~field ~op v =
  let ids, bytes =
    match Hashtbl.find_opt t.ord (ord_key ~type_name ~field) with
    | None -> ([], header_bytes)
    | Some m ->
        let side, at, other = VMap.split v !m in
        let part = match op with `Lt -> side | `Gt -> other in
        ignore at;
        (* The ordered scan walks the half-open range; [numeric_cmp] is the
           final word so the probe matches [Query.eval] exactly (non-numeric
           keys and cross-type ties fall out here). *)
        let keys = ref 0 and ids = ref [] in
        VMap.iter
          (fun v' pds ->
            incr keys;
            let keep =
              match Query.numeric_cmp v' v with
              | Some c -> ( match op with `Lt -> c < 0 | `Gt -> c > 0)
              | None -> false
            in
            if keep then ids := List.rev_append !pds !ids)
          part;
        let bytes =
          header_bytes + (slot_bytes * !keys) + (slot_bytes * List.length !ids)
        in
        (!ids, bytes)
  in
  match t.base with
  | None -> (ids, bytes)
  | Some b ->
      let extra = ref [] in
      let prefix = ord_key ~type_name ~field ^ "\x00" in
      Pagestore.iter_prefix b.io b.roots.rt_postings ~prefix (fun k _ ->
          match split4 k with
          | Some (_, _, escanon, pd) when not (is_touched t pd) -> (
              match of_canonical (unesc escanon) with
              | None -> ()
              | Some v' -> (
                  match Query.numeric_cmp v' v with
                  | Some c when (match op with `Lt -> c < 0 | `Gt -> c > 0) ->
                      extra := pd :: !extra
                  | _ -> ()))
          | _ -> ());
      (List.rev_append !extra ids, bytes)

(* ------------------------------------------------------------------ *)
(* checkpoint: rewrite the base trees from the merged view            *)

let key_cmp (a, _) (b, _) = String.compare a b

(* Stream a base tree, dropping every key owned by a touched pd. *)
let base_items t root extract_pd =
  match t.base with
  | None -> []
  | Some b ->
      let acc = ref [] in
      Pagestore.iter_from b.io (root b.roots) ~lo:"" (fun k v ->
          (match extract_pd k with
          | Some pd when is_touched t pd -> ()
          | _ -> acc := (k, v) :: !acc);
          true);
      List.rev !acc

let checkpoint t ~io =
  let expiry_count = expiry_size t in
  (* overlay pd -> subject (covers every live-or-erased touched pd) *)
  let subj_of = Hashtbl.create 64 in
  Hashtbl.iter
    (fun s ids -> List.iter (fun pd -> Hashtbl.replace subj_of pd s) !ids)
    t.subjects;
  let postings =
    let mem =
      Hashtbl.fold
        (fun pd (type_name, kvs) acc ->
          List.fold_left
            (fun acc (field, v) ->
              (posting_key ~type_name ~field (canonical v) pd, "") :: acc)
            acc kvs)
        t.pd_keys []
      |> List.sort key_cmp
    in
    List.merge key_cmp
      (base_items t
         (fun r -> r.rt_postings)
         (fun k -> Option.map (fun (_, _, _, pd) -> pd) (split4 k)))
      mem
  in
  let pdinfo =
    let mem =
      Hashtbl.fold
        (fun pd subject acc ->
          let keyed = Hashtbl.find_opt t.pd_keys pd in
          let exp = Hashtbl.find_opt t.expiry_of pd in
          (pd, encode_pdinfo ~subject ~keyed ~exp) :: acc)
        subj_of []
      |> List.sort key_cmp
    in
    List.merge key_cmp (base_items t (fun r -> r.rt_pdinfo) Option.some) mem
  in
  let subjects =
    let mem =
      Hashtbl.fold
        (fun pd subject acc -> (subject_key subject pd, "") :: acc)
        subj_of []
      |> List.sort key_cmp
    in
    List.merge key_cmp
      (base_items t
         (fun r -> r.rt_subjects)
         (fun k -> Option.map snd (split2 k)))
      mem
  in
  let expiry =
    let mem =
      Hashtbl.fold (fun pd ns acc -> (expiry_key ns pd, "") :: acc) t.expiry_of []
      |> List.sort key_cmp
    in
    List.merge key_cmp
      (base_items t (fun r -> r.rt_expiry) (fun k -> Option.map snd (split2 k)))
      mem
  in
  let max_pd =
    match List.rev pdinfo with (pd, _) :: _ -> pd | [] -> ""
  in
  let roots =
    {
      rt_postings = Pagestore.write_tree io postings;
      rt_pdinfo = Pagestore.write_tree io pdinfo;
      rt_subjects = Pagestore.write_tree io subjects;
      rt_expiry = Pagestore.write_tree io expiry;
      rt_expiry_count = expiry_count;
      rt_max_pd = max_pd;
    }
  in
  (* the overlay stays: it remains authoritative for touched pds, and the
     new base holds exactly the same facts for them.  Every pd with
     overlay facts must now be marked touched — the new base duplicates
     its facts, and an unmarked pd would be counted from both sides (this
     matters for pds added while there was no base yet: [materialize] is a
     no-op then). *)
  t.base <- Some { io; roots };
  t.expiry_count <- expiry_count;
  Hashtbl.iter (fun pd _ -> Hashtbl.replace t.touched pd ()) subj_of;
  Hashtbl.iter (fun pd _ -> Hashtbl.replace t.touched pd ()) t.pd_keys;
  Hashtbl.iter (fun pd _ -> Hashtbl.replace t.touched pd ()) t.expiry_of;
  roots

let encode_roots w r =
  Pagestore.encode_root w r.rt_postings;
  Pagestore.encode_root w r.rt_pdinfo;
  Pagestore.encode_root w r.rt_subjects;
  Pagestore.encode_root w r.rt_expiry;
  Writer.int w r.rt_expiry_count;
  Writer.string w r.rt_max_pd

let decode_roots rd =
  let* rt_postings = Pagestore.decode_root rd in
  let* rt_pdinfo = Pagestore.decode_root rd in
  let* rt_subjects = Pagestore.decode_root rd in
  let* rt_expiry = Pagestore.decode_root rd in
  let* rt_expiry_count = Reader.int rd in
  let* rt_max_pd = Reader.string rd in
  Ok { rt_postings; rt_pdinfo; rt_subjects; rt_expiry; rt_expiry_count; rt_max_pd }

let node_pages t =
  match t.base with
  | None -> []
  | Some b ->
      List.concat_map
        (fun root -> Pagestore.node_blocks b.io root)
        [
          b.roots.rt_postings;
          b.roots.rt_pdinfo;
          b.roots.rt_subjects;
          b.roots.rt_expiry;
        ]

(* ------------------------------------------------------------------ *)
(* introspection (tests, fsck)                                        *)

(* fsck support: every indexed fact both ways *)
let fold_pd_keys t f acc =
  let acc = Hashtbl.fold (fun pd v acc -> f pd v acc) t.pd_keys acc in
  match t.base with
  | None -> acc
  | Some b ->
      let r = ref acc in
      Pagestore.iter_from b.io b.roots.rt_pdinfo ~lo:"" (fun pd raw ->
          (if not (is_touched t pd) then
             match decode_pdinfo raw with
             | Ok (_, Some keyed, _) -> r := f pd keyed !r
             | _ -> ());
          true);
      !r

let base_pdinfo t pd_id =
  match t.base with
  | Some b when not (is_touched t pd_id) -> (
      match Pagestore.lookup b.io b.roots.rt_pdinfo [ pd_id ] with
      | [ Some raw ] -> (
          match decode_pdinfo raw with Ok info -> Some info | Error _ -> None)
      | _ -> None)
  | _ -> None

let pd_key t pd_id =
  match t.base with
  | Some _ when not (is_touched t pd_id) ->
      Option.bind (base_pdinfo t pd_id) (fun (_, keyed, _) -> keyed)
  | _ -> Hashtbl.find_opt t.pd_keys pd_id

let expiry_of t pd_id =
  match t.base with
  | Some _ when not (is_touched t pd_id) ->
      Option.bind (base_pdinfo t pd_id) (fun (_, _, exp) -> exp)
  | _ -> Hashtbl.find_opt t.expiry_of pd_id

let eq_postings t ~type_name ~field v =
  base_eq_postings t ~type_name ~field v @ mem_eq_postings t ~type_name ~field v

(* Canonical rendering, independent of hashtable iteration order and of
   posting-list internal order — two indexes holding the same facts dump
   to the same string. *)
let dump_mem t =
  let b = Buffer.create 256 in
  let eq =
    Hashtbl.fold
      (fun okey m acc ->
        VMap.fold
          (fun v ids acc ->
            (okey ^ "\x00" ^ canonical v, List.sort String.compare !ids) :: acc)
          !m acc)
      t.ord []
    |> List.sort compare
  in
  Buffer.add_string b "eq:\n";
  List.iter
    (fun (k, ids) ->
      Buffer.add_string b
        (Printf.sprintf "  %s -> %s\n"
           (String.concat "/" (String.split_on_char '\x00' k))
           (String.concat "," ids)))
    eq;
  Buffer.add_string b "subjects:\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  %s -> %s\n" s
           (String.concat ","
              (List.sort String.compare
                 (match Hashtbl.find_opt t.subjects s with
                 | None -> []
                 | Some ids -> !ids)))))
    (Hashtbl.fold
       (fun s ids acc -> if !ids = [] then acc else s :: acc)
       t.subjects []
    |> List.sort String.compare);
  Buffer.add_string b "expiry:\n";
  IMap.iter
    (fun ns ids ->
      Buffer.add_string b
        (Printf.sprintf "  %d -> %s\n" ns
           (String.concat "," (List.sort String.compare !ids))))
    t.expiry;
  Buffer.contents b

let dump t =
  match t.base with
  | None -> dump_mem t
  | Some b ->
      (* materialize a merged snapshot and render it like a plain index *)
      let s = create () in
      fold_pd_keys t
        (fun pd (type_name, kvs) () ->
          Hashtbl.replace s.pd_keys pd (type_name, kvs);
          List.iter (fun (field, v) -> ord_add s ~type_name ~field v pd) kvs)
        ();
      List.iter
        (fun subj ->
          Hashtbl.replace s.subjects subj (ref (List.rev (subject_pds t subj))))
        (subject_list t);
      Hashtbl.iter
        (fun pd ns ->
          Hashtbl.replace s.expiry_of pd ns;
          match IMap.find_opt ns s.expiry with
          | Some ids -> ids := pd :: !ids
          | None -> s.expiry <- IMap.add ns (ref [ pd ]) s.expiry)
        t.expiry_of;
      Pagestore.iter_from b.io b.roots.rt_expiry ~lo:"" (fun k _ ->
          (match split2 k with
          | Some (nss, pd) when not (is_touched t pd) -> (
              let ns = int_of_string nss in
              Hashtbl.replace s.expiry_of pd ns;
              match IMap.find_opt ns s.expiry with
              | Some ids -> ids := pd :: !ids
              | None -> s.expiry <- IMap.add ns (ref [ pd ]) s.expiry)
          | _ -> ());
          true);
      dump_mem s

(* test hook: damage one posting list in place (see Dbfs.unsafe_tamper_index) *)
let unsafe_drop_posting t ~pd_id =
  materialize t pd_id;
  match Hashtbl.find_opt t.pd_keys pd_id with
  | None -> false
  | Some (type_name, kvs) -> (
      match kvs with
      | [] -> false
      | (field, v) :: _ ->
          ord_remove t ~type_name ~field v pd_id;
          true)
