module Block_device = Rgpdos_block.Block_device
module Journal_ring = Rgpdos_block.Journal_ring
module Clock = Rgpdos_util.Clock
module Codec = Rgpdos_util.Codec
module Fnv = Rgpdos_util.Fnv
module Stats = Rgpdos_util.Stats
module Membrane = Rgpdos_membrane.Membrane

open Rgpdos_util.Codec

type error =
  | Unknown_type of string
  | Type_exists of string
  | Unknown_pd of string
  | Membrane_mismatch of string
  | Invalid_record of string
  | Erased of string
  | No_space
  | Access_denied of string
  | Corrupt of string
  | Device_fault of string
  | Degraded of string
  | Stopped of { committed : string list; cause : error }

let rec pp_error fmt = function
  | Unknown_type n -> Format.fprintf fmt "unknown PD type: %s" n
  | Type_exists n -> Format.fprintf fmt "PD type already exists: %s" n
  | Unknown_pd id -> Format.fprintf fmt "unknown PD: %s" id
  | Membrane_mismatch m -> Format.fprintf fmt "membrane mismatch: %s" m
  | Invalid_record m -> Format.fprintf fmt "invalid record: %s" m
  | Erased id -> Format.fprintf fmt "PD %s has been erased" id
  | No_space -> Format.fprintf fmt "no space left in DBFS"
  | Access_denied m -> Format.fprintf fmt "access denied: %s" m
  | Corrupt m -> Format.fprintf fmt "DBFS corruption: %s" m
  | Device_fault m -> Format.fprintf fmt "device fault: %s" m
  | Degraded m -> Format.fprintf fmt "DBFS degraded (read-only): %s" m
  | Stopped { committed; cause } ->
      Format.fprintf fmt "batch stopped after %d committed pds: %a"
        (List.length committed) pp_error cause

let error_to_string e = Format.asprintf "%a" pp_error e

let committed = function Stopped { committed; _ } -> committed | _ -> []

(* One extent: where its bytes live (a slot at [off] of its one page, or
   whole blocks from offset 0), its payload size and the FNV-64 checksum
   of the payload bytes, verified whenever the extent is read off the
   device. *)
type loc = { blocks : int list; off : int; size : int; sum : string }

(* A PD entry: the pair of inodes (record + membrane) in the subject tree.
   An erased entry's [record] holds the sealed envelope. *)
type entry = {
  pd_id : string;
  type_name : string;
  subject : string;
  high : bool; (* allocated in the sensitive region *)
  mutable record : loc;
  mutable membrane : loc;
  mutable erased : bool;
}

type table = { schema : Schema.t }

(* One bounded LRU holds the decoded objects: membranes ("m:<pd>") and
   records ("r:<pd>").  A single entry budget bounds resident memory
   across both, and they compete under one eviction policy.  The cache
   bounds host memory only — a hit still reads its page and skips only
   the decode (warm == cold), so eviction is invisible to every stage_ns
   figure and shows up only in the hit/miss/eviction counters.  Tree
   node pages are not cached: every descent reads the medium. *)
type cached =
  | C_membrane of Membrane.t
  | C_record of Record.t

type t = {
  dev : Block_device.t;
  ring : Journal_ring.t;
  journal_blocks : int;
  meta_start : int;
  meta_blocks : int;
  bitmap_blocks : int; (* capacity of the bitmap region *)
  heap_cap : int; (* blocks per metadata heap half *)
  space : Space.t; (* the data region: zones, free map, placement *)
  tables : (string, table) Hashtbl.t;
  entries : (string, entry) Hashtbl.t;
      (* dirty overlay over the checkpointed entries tree: every entry
         mutated (or inserted) since the last checkpoint.  Shadows the
         base; [deleted] tombstones suppress base entries. *)
  deleted : (string, unit) Hashtbl.t;
  mutable entries_base : Pagestore.root;
  mutable entry_count : int;
  mutable index : Index.t;
      (* secondary indexes: per-field postings, subject -> pd_ids, TTL
         expiry queue; paged on the device since PR 6, with an in-memory
         overlay.  Mutable so [fsck ~repair] can swap in a rebuild. *)
  mutable index_roots : Index.roots;
  mutable active_half : int; (* heap half holding the live trees *)
  mutable heap_used : int; (* blocks consumed in the active half *)
  mutable root_seq : int;
  mutable next_pd : int;
  mutable hook : (actor:string -> op:string -> bool) option;
  mutable degraded : string option;
  mutable replay : Journal_ring.replay_summary option;
  mutable replay_warning : string option;
  counters : Stats.Counter.t;
  cache : cached Cache.t;
  page_prefetch : (int, Block_device.ticket) Hashtbl.t;
      (* speculative index-page reads submitted ahead of the descent,
         keyed by first block.  [read_pages] consumes a pending ticket
         instead of re-reading; checkpoint settles and drops leftovers. *)
}

let superblock_magic = "RGPDBFS1"
let root_magic = "RGPDROOT"
let meta_blocks_default = 128
let root_slot_blocks = 8
let default_cache_budget = 65536

(* ------------------------------------------------------------------ *)
(* guard                                                              *)

let guard t ~actor ~op =
  match t.hook with
  | None -> Ok ()
  | Some check ->
      if check ~actor ~op then Ok ()
      else begin
        Stats.Counter.incr t.counters "denials";
        Error
          (Access_denied
             (Printf.sprintf "actor %s may not perform %s on DBFS" actor op))
      end

let ( let** ) r f = match r with Error e -> Error e | Ok v -> f v

(* ------------------------------------------------------------------ *)
(* fault handling                                                     *)

let retrying t f = Space.retrying t.space f

let check_degraded t =
  match t.degraded with Some reason -> Error (Degraded reason) | None -> Ok ()

let enter_degraded t reason =
  if t.degraded = None then begin
    t.degraded <- Some reason;
    Stats.Counter.incr t.counters "degraded_entries"
  end;
  Error (Degraded reason)

let degrade_on_fault t b =
  enter_degraded t (Printf.sprintf "unrecoverable device fault on block %d" b)

let protect_write t thunk =
  try thunk () with Block_device.Faulted b -> degrade_on_fault t b

let protect_read thunk =
  try thunk ()
  with Block_device.Faulted b ->
    Error (Device_fault (Printf.sprintf "block %d failed after retries" b))

(* Read paths that may also descend on-device metadata trees: a page that
   fails its checksum surfaces as [Corrupt] rather than an exception. *)
let protect_pages thunk =
  try thunk () with
  | Block_device.Faulted b ->
      Error (Device_fault (Printf.sprintf "block %d failed after retries" b))
  | Pagestore.Corrupt_page b ->
      Error
        (Corrupt (Printf.sprintf "metadata page at block %d fails its checksum" b))

let charge_checksum t size =
  Clock.advance (Block_device.clock t.dev) (max 1 (size / 64))

(* ------------------------------------------------------------------ *)
(* geometry                                                           *)

let block_size t = (Block_device.config t.dev).Block_device.block_size

(* Metadata region layout.  The region holds, in order: two root slots
   (A/B, written alternately so a torn root write can never lose both),
   the allocation bitmap, and two tree heap halves.  Each checkpoint
   bulk-writes the entries + index trees into the half the previous
   checkpoint did NOT use, then commits by writing the next root slot;
   the old half is zeroed only after the commit. *)
let bitmap_blocks_for ~block_count ~block_size =
  ((block_count + 7) / 8 + block_size - 1) / block_size

let heap_cap_for ~meta_blocks ~bitmap_blocks =
  (meta_blocks - (2 * root_slot_blocks) - bitmap_blocks) / 2

let root_slot_start t slot = t.meta_start + (slot * root_slot_blocks)
let bitmap_start ~meta_start = meta_start + (2 * root_slot_blocks)

let heap_start t half =
  t.meta_start + (2 * root_slot_blocks) + t.bitmap_blocks + (half * t.heap_cap)

let ext l = { Space.blocks = l.blocks; off = l.off; size = l.size }

let loc_of payload (x : Space.extent) =
  { blocks = x.blocks; off = x.off; size = x.size; sum = Fnv.hash64_hex payload }

(* An extent's payload cut out of the [block -> bytes] table of a read:
   a slot's bytes of its page, neighbours' bytes left behind. *)
let extent_bytes h l =
  match l.blocks with
  | [ b ] -> String.sub (Hashtbl.find h b) l.off l.size
  | blocks ->
      let buf = Buffer.create l.size in
      List.iter (fun b -> Buffer.add_string buf (Hashtbl.find h b)) blocks;
      Buffer.sub buf 0 l.size

let block_table got =
  let h = Hashtbl.create (max 16 (2 * List.length got)) in
  List.iter (fun (b, data) -> Hashtbl.replace h b data) got;
  h

(* Why an extent cannot be trusted. *)
type damage = Unreadable | Mismatch | Undecodable of string

(* Every extent of [locs] cut out of ONE vectored read of their pages and
   checked against its checksum, keyed by the extent: its payload or its
   damage.  A page that still faults after its retries is left out and
   the rest read again, so only the extents on it are unreadable. *)
let check_slots t locs =
  let rec read = function
    | [] -> []
    | blocks -> (
        match retrying t (fun () -> Block_device.read_vec t.dev blocks) with
        | got -> got
        | exception Block_device.Faulted b -> read (List.filter (( <> ) b) blocks))
  in
  let h =
    block_table (read (List.sort_uniq compare (List.concat_map (fun l -> l.blocks) locs)))
  in
  let slots = Hashtbl.create (max 16 (List.length locs)) in
  List.iter
    (fun l ->
      if not (Hashtbl.mem slots l) then
        Hashtbl.replace slots l
          (if not (List.for_all (Hashtbl.mem h) l.blocks) then Error Unreadable
           else begin
             charge_checksum t l.size;
             let raw = extent_bytes h l in
             if Fnv.hash64_hex raw = l.sum then Ok raw else Error Mismatch
           end))
    locs;
  slots

(* The channel DBFS's index prefetch queues on: negative so it can never
   collide with consumer-facing channels (DED shards use 0..n); [Space]
   owns the commit's channels. *)
let prefetch_channel = -3

(* ------------------------------------------------------------------ *)
(* shared LRU cache plumbing                                          *)

let cache_put t key v =
  let evicted = Cache.put t.cache key v in
  if evicted > 0 then Stats.Counter.incr t.counters ~by:evicted "cache_evictions"

let cache_put_membrane t pd_id m = cache_put t ("m:" ^ pd_id) (C_membrane m)
let cache_put_record t pd_id r = cache_put t ("r:" ^ pd_id) (C_record r)

(* Every path that changes an entry funnels through [apply_op], so this is
   the single invalidation point of the cache coherence rule. *)
let invalidate_caches t pd_id =
  Cache.remove t.cache ("m:" ^ pd_id);
  Cache.remove t.cache ("r:" ^ pd_id)

(* ------------------------------------------------------------------ *)
(* paged metadata I/O                                                 *)

(* The [Pagestore.io] DBFS hands to its trees.  [read_pages] serves one
   tree level of a descent as one request: every page is counted once, a
   page with a still-pending prefetch settles that ticket (its service is
   already charged), and the rest go in one vectored read. *)
let read_pages t pages =
  Stats.Counter.incr t.counters ~by:(List.length pages) "index_page_reads";
  let got = Hashtbl.create 16 in
  let keep = List.iter (fun (b, data) -> Hashtbl.replace got b data) in
  let blocks =
    List.concat_map
      (fun (first, n) ->
        match Hashtbl.find_opt t.page_prefetch first with
        | Some tk ->
            (* the device service has been running since submission, so
               awaiting here only charges what the descent and decode did
               not already hide *)
            Hashtbl.remove t.page_prefetch first;
            keep (Block_device.await t.dev tk);
            []
        | None -> List.init n (fun i -> first + i))
      pages
  in
  if blocks <> [] then
    keep (retrying t (fun () -> Block_device.read_vec t.dev blocks));
  List.map
    (fun (first, n) ->
      String.concat "" (List.init n (fun i -> Hashtbl.find got (first + i))))
    pages

let page_io t =
  {
    Pagestore.read_pages = read_pages t;
    prefetch_page =
      (fun first n ->
        (* speculative, so a fault is neither retried nor raised: only a
           [read_pages] that really needs the page meets it *)
        if not (Hashtbl.mem t.page_prefetch first) then
          match
            Block_device.submit_read_vec t.dev ~channel:prefetch_channel
              (List.init n (fun i -> first + i))
          with
          | tk -> Hashtbl.replace t.page_prefetch first tk
          | exception Block_device.Faulted _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* entry codec (the entries tree's, and a journaled insert's)         *)

(* The slot offset rides in the high half of the size word (a size and
   an offset both fit in 32 bits), so a loc encodes to as many bytes as a
   block-granular one did. *)
let encode_loc w l =
  Codec.Writer.list w (Codec.Writer.int w) l.blocks;
  Codec.Writer.int w ((l.off lsl 32) lor l.size);
  Codec.Writer.string w l.sum

let decode_loc r =
  let* blocks = Codec.Reader.list r Codec.Reader.int in
  let* word = Codec.Reader.int r in
  let* sum = Codec.Reader.string r in
  Ok { blocks; off = word lsr 32; size = word land 0xFFFF_FFFF; sum }

(* Every field but [erased]: a journaled insert carries these, since a new
   entry is never erased. *)
let encode_fields w e =
  Codec.Writer.string w e.pd_id;
  Codec.Writer.string w e.type_name;
  Codec.Writer.string w e.subject;
  Codec.Writer.bool w e.high;
  encode_loc w e.record;
  encode_loc w e.membrane

let decode_fields r =
  let* pd_id = Codec.Reader.string r in
  let* type_name = Codec.Reader.string r in
  let* subject = Codec.Reader.string r in
  let* high = Codec.Reader.bool r in
  let* record = decode_loc r in
  let* membrane = decode_loc r in
  Ok { pd_id; type_name; subject; high; record; membrane; erased = false }

let encode_entry w e =
  encode_fields w e;
  Codec.Writer.bool w e.erased

let decode_entry_raw raw =
  let r = Codec.Reader.create raw in
  let* e = decode_fields r in
  let* erased = Codec.Reader.bool r in
  Ok { e with erased }

(* ------------------------------------------------------------------ *)
(* journal ops (metadata only: no PD bytes ever enter the ring)       *)

(* Which extent of an entry a [J_replace] swaps: the record, the membrane,
   or the record for its sealed envelope (erasure). *)
type kind = Record | Membrane | Sealed

type op =
  | J_create_type of string (* encoded schema: structure, not PD *)
  | J_insert of entry
  | J_replace of { kind : kind; pd_id : string; loc : loc }
  | J_delete of string

let kind_tags = [ (Record, "urec"); (Membrane, "umbr"); (Sealed, "ers") ]

let encode_op w = function
  | J_create_type schema_bytes ->
      Codec.Writer.string w "ctype";
      Codec.Writer.string w schema_bytes
  | J_insert e ->
      Codec.Writer.string w "ins";
      encode_fields w e
  | J_replace { kind; pd_id; loc } ->
      Codec.Writer.string w (List.assoc kind kind_tags);
      Codec.Writer.string w pd_id;
      encode_loc w loc
  | J_delete pd_id ->
      Codec.Writer.string w "del";
      Codec.Writer.string w pd_id

let decode_op r =
  let* tag = Codec.Reader.string r in
  match tag with
  | "ctype" ->
      let* schema_bytes = Codec.Reader.string r in
      Ok (J_create_type schema_bytes)
  | "ins" ->
      let* e = decode_fields r in
      Ok (J_insert e)
  | "del" ->
      let* pd_id = Codec.Reader.string r in
      Ok (J_delete pd_id)
  | other -> (
      match List.find_opt (fun (_, tag) -> tag = other) kind_tags with
      | None -> Error ("unknown DBFS journal op " ^ other)
      | Some (kind, _) ->
          let* pd_id = Codec.Reader.string r in
          let* loc = decode_loc r in
          Ok (J_replace { kind; pd_id; loc }))

(* A mutation's journal record: its ops' encodings back to back, so a
   one-op record is the bytes of that op, and the frame checksum commits
   the ops all or nothing. *)
let encode_record ops =
  let w = Codec.Writer.create () in
  List.iter (encode_op w) ops;
  Codec.Writer.contents w

let decode_record payload =
  let r = Codec.Reader.create payload in
  let rec go acc =
    if Codec.Reader.at_end r then Ok (List.rev acc)
    else
      let* op = decode_op r in
      go (op :: acc)
  in
  go []

(* The extents a record's ops point the store at: the data its mutation
   wrote outside the ring. *)
let written_extents ops =
  List.concat_map
    (function
      | J_insert e -> [ e.record; e.membrane ]
      | J_replace { loc; _ } -> [ loc ]
      | J_create_type _ | J_delete _ -> [])
    ops

let extent e = function Membrane -> e.membrane | Record | Sealed -> e.record

let zone e = function
  | Membrane -> Space.Z_membrane
  | Record | Sealed -> Space.Z_record e.high

(* ------------------------------------------------------------------ *)
(* paged entry access                                                 *)

(* Entry lookup for a batch of pds: overlay first, then tombstones, then
   ONE batched descent of the checkpointed entries tree for every pd
   left, so each distinct node page is read and charged once per batch.
   Per pd, in input order: its entry, [Unknown_pd], or [Corrupt] for an
   undecodable one; tree page faults raise. *)
let lookup_entries t pd_ids =
  let base = Hashtbl.create 16 in
  (match
     List.filter
       (fun pd -> not (Hashtbl.mem t.entries pd || Hashtbl.mem t.deleted pd))
       pd_ids
   with
  | [] -> ()
  | _ when Pagestore.is_empty t.entries_base -> ()
  | paged ->
      List.iter2
        (fun pd raw -> Option.iter (Hashtbl.replace base pd) raw)
        paged
        (Pagestore.lookup (page_io t) t.entries_base paged));
  List.map
    (fun pd ->
      match Hashtbl.find_opt t.entries pd with
      | Some e -> Ok e
      | None -> (
          match Option.map decode_entry_raw (Hashtbl.find_opt base pd) with
          | None -> Error (Unknown_pd pd)
          | Some (Ok e) -> Ok e
          | Some (Error m) -> Error (Corrupt ("entry " ^ pd ^ ": " ^ m))))
    pd_ids

(* Read-side resolution: the returned entries are NOT installed in the
   overlay — reads never dirty it.  A descent that faults fails every pd
   of the batch. *)
let resolve t pd_ids =
  let fail e = List.map (fun _ -> Error e) pd_ids in
  match lookup_entries t pd_ids with
  | found -> found
  | exception Block_device.Faulted b ->
      fail (Device_fault (Printf.sprintf "block %d failed after retries" b))
  | exception Pagestore.Corrupt_page b ->
      fail (Corrupt (Printf.sprintf "entries tree page %d fails its checksum" b))

let find_entry t pd_id = List.hd (resolve t [ pd_id ])

(* Replay's lookup: a journal op names its pd by id, so replay resolves it
   and pulls it into the overlay, where the op's in-place field updates
   are remembered until the next checkpoint.  Raises [Not_found] for an
   unknown pd — replay turns that into a replay warning.  Live mutators
   never come here: their hint hands [apply_op] the entry they resolved. *)
let touch_entry t pd_id =
  match lookup_entries t [ pd_id ] with
  | [ Ok e ] ->
      Hashtbl.replace t.entries pd_id e;
      e
  | _ -> raise Not_found

(* Merged iteration in pd order (pd ids are zero-padded and monotone, so
   pd order IS insertion order): streams the base tree, shadowing by the
   overlay and suppressing tombstones.  With [on_corrupt], unreadable
   base pages are reported and skipped instead of raising. *)
let iter_entries ?on_corrupt t f =
  let mem =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> String.compare a.pd_id b.pd_id)
  in
  let rem = ref mem in
  let emit_below k =
    let continue_ = ref true in
    while !continue_ do
      match !rem with
      | e :: rest
        when match k with
             | None -> true
             | Some k -> String.compare e.pd_id k < 0 ->
          rem := rest;
          f e
      | _ -> continue_ := false
    done
  in
  if not (Pagestore.is_empty t.entries_base) then
    Pagestore.iter_from ?on_corrupt (page_io t) t.entries_base ~lo:""
      (fun k raw ->
        emit_below (Some k);
        (match !rem with
        | e :: rest when e.pd_id = k ->
            rem := rest;
            f e
        | _ ->
            if not (Hashtbl.mem t.deleted k) then (
              match decode_entry_raw raw with
              | Ok e -> f e
              | Error _ -> (
                  match on_corrupt with
                  | Some g -> g (-1)
                  | None ->
                      failwith ("Dbfs: undecodable entry " ^ k ^ " in tree"))));
        true);
  emit_below None

let collect_entries ?on_corrupt t =
  let acc = ref [] in
  iter_entries ?on_corrupt t (fun e -> acc := e :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* index write-through                                                *)

(* What a live mutator already holds for an op: the record and membrane
   it just encoded, and the entry it resolved for the op's pd, so applying
   the op neither reads them back nor looks the entry up again.  Replay
   holds none of them. *)
type hint = {
  h_record : Record.t option;
  h_membrane : Membrane.t option;
  h_entry : entry option;
}

let no_hint = { h_record = None; h_membrane = None; h_entry = None }

let indexed_fields_of t type_name =
  match Hashtbl.find_opt t.tables type_name with
  | Some tbl -> tbl.schema.Schema.indexed_fields
  | None -> []

(* One extent of an entry, its membrane or its record, as the load and
   integrity paths see it.  An extent that is not [x_live] (an erased
   record's sealed payload) is not PD and is never decoded. *)
type 'a extent = {
  x_name : string;
  x_reads : string; (* read counter *)
  x_key : string; (* cache key prefix *)
  x_live : entry -> bool;
  x_loc : entry -> loc;
  x_decode : string -> ('a, string) result;
  x_cached : cached -> 'a option;
  x_cache : 'a -> cached;
}

let membrane_x =
  {
    x_name = "membrane";
    x_reads = "membrane_reads";
    x_key = "m:";
    x_live = (fun _ -> true);
    x_loc = (fun e -> e.membrane);
    x_decode = Membrane.decode;
    x_cached = (function C_membrane m -> Some m | _ -> None);
    x_cache = (fun m -> C_membrane m);
  }

let record_x =
  {
    x_name = "record";
    x_reads = "record_reads";
    x_key = "r:";
    x_live = (fun e -> not e.erased);
    x_loc = (fun e -> e.record);
    x_decode = Record.decode;
    x_cached = (function C_record r -> Some r | _ -> None);
    x_cache = (fun r -> C_record r);
  }

(* Replay's decode: [slots] are [check_slots]'s over the replayed
   records.  An extent with no sound payload there yields [None], like
   one that does not decode, and is left unindexed. *)
let decode_at ?slots x e =
  match Option.bind slots (fun h -> Hashtbl.find_opt h (x.x_loc e)) with
  | Some (Ok raw) -> Result.to_option (x.x_decode raw)
  | _ -> None

let expiry_instant m =
  match m.Membrane.ttl with
  | None -> None
  | Some ttl -> Some (m.Membrane.created_at + ttl)

(* The index facts of [e]'s record and membrane, from the hint when the
   caller has the decoded value, else from replay's [slots]. *)
let index_record ?slots t idx ~hint e =
  let indexed = indexed_fields_of t e.type_name in
  if indexed <> [] then
    let record =
      match hint.h_record with
      | Some r -> Some r
      | None -> decode_at ?slots record_x e
    in
    match record with
    | Some record ->
        Index.add_entry idx ~pd_id:e.pd_id ~type_name:e.type_name ~indexed record
    | None -> ()

let index_membrane ?slots idx ~hint e =
  let membrane =
    match hint.h_membrane with
    | Some m -> Some m
    | None -> decode_at ?slots membrane_x e
  in
  match membrane with
  | Some m -> Index.set_expiry idx ~pd_id:e.pd_id (expiry_instant m)
  | None -> ()

(* Every index fact of one entry: what an insert adds, and what a rebuild
   re-derives.  An erased entry keeps only its subject link. *)
let index_entry ?slots t idx ~hint e =
  Index.add_subject idx ~subject:e.subject ~pd_id:e.pd_id;
  if not e.erased then begin
    index_record ?slots t idx ~hint e;
    index_membrane ?slots idx ~hint e
  end

(* [freed_acc], passed by mount-time replay, collects every block an op
   frees.  Live mutators zero old blocks AFTER the journal record commits,
   so a crash in that window leaves plaintext on blocks the replayed
   metadata considers free; replay zeroes whichever of them are still free
   once the whole journal is applied.

   The hint's entry goes into the overlay as is, with no second lookup.
   Replay has none and resolves the pd with [touch_entry]. *)
let apply_op ?(hint = no_hint) ?slots ?freed_acc t op =
  let target pd_id =
    match hint.h_entry with
    | Some e ->
        Hashtbl.replace t.entries pd_id e;
        e
    | None -> touch_entry t pd_id
  in
  let free l =
    Option.iter (fun acc -> acc := ext l :: !acc) freed_acc;
    Space.mark_free t.space (ext l)
  in
  let use l = Space.mark_used t.space (ext l) in
  (match op with
  | J_create_type _ -> ()
  | J_insert { pd_id; _ } | J_replace { pd_id; _ } | J_delete pd_id ->
      invalidate_caches t pd_id);
  match op with
  | J_create_type schema_bytes -> (
      match Schema.decode schema_bytes with
      | Error e -> failwith ("DBFS: corrupt schema in journal: " ^ e)
      | Ok schema -> Hashtbl.replace t.tables schema.Schema.name { schema })
  | J_insert e ->
      if not (Hashtbl.mem t.tables e.type_name) then
        failwith "DBFS: insert into unknown table during apply";
      Hashtbl.replace t.entries e.pd_id e;
      Hashtbl.remove t.deleted e.pd_id;
      t.entry_count <- t.entry_count + 1;
      use e.record;
      use e.membrane;
      index_entry ?slots t t.index ~hint e;
      (* keep pd counter ahead of any replayed id *)
      (match
         int_of_string_opt (String.sub e.pd_id 3 (String.length e.pd_id - 3))
       with
      | Some n when n >= t.next_pd -> t.next_pd <- n + 1
      | _ -> ())
  | J_replace { kind; pd_id; loc } -> (
      let entry = target pd_id in
      free (extent entry kind);
      use loc;
      match kind with
      | Record ->
          entry.record <- loc;
          index_record ?slots t t.index ~hint entry
      | Membrane ->
          entry.membrane <- loc;
          (* consent flips and TTL changes land here: re-key the expiry
             queue.  An erased pd keeps its membrane (the subject link) but
             must never re-enter the expiry queue — its record is already
             gone. *)
          if entry.erased then Index.clear_expiry t.index ~pd_id
          else index_membrane ?slots t.index ~hint entry
      | Sealed ->
          entry.record <- loc;
          entry.erased <- true;
          (* sealed payload is not PD: no field keys, no expiry; the
             subject link stays (erasure seals the pd, it does not unlink
             it) *)
          Index.remove_entry t.index ~pd_id;
          Index.clear_expiry t.index ~pd_id)
  | J_delete pd_id ->
      let entry = target pd_id in
      free entry.record;
      free entry.membrane;
      Hashtbl.remove t.entries pd_id;
      Hashtbl.replace t.deleted pd_id ();
      t.entry_count <- t.entry_count - 1;
      Index.remove_entry t.index ~pd_id;
      Index.remove_subject t.index ~subject:entry.subject ~pd_id;
      Index.clear_expiry t.index ~pd_id

(* The pd whose index facts an op changes: every op's but a schema's, and
   a record replacement's only for a type with indexed fields. *)
let index_pd t (hint, op) =
  match op with
  | J_create_type _ -> None
  | J_replace { kind = Record; pd_id; _ } ->
      let e =
        match hint.h_entry with Some e -> e | None -> touch_entry t pd_id
      in
      if indexed_fields_of t e.type_name = [] then None else Some pd_id
  | J_insert { pd_id; _ } | J_replace { pd_id; _ } | J_delete pd_id -> Some pd_id

(* A record's ops, applied in order, each with its hint, after ONE
   batched materialization of the index facts of every pd they change:
   each [pdinfo] page on their paths is read once per commit. *)
let apply_ops ?slots ?freed_acc t ops =
  Index.materialize t.index (List.filter_map (index_pd t) ops);
  List.iter (fun (hint, op) -> apply_op ~hint ?slots ?freed_acc t op) ops

(* ------------------------------------------------------------------ *)
(* root slots                                                         *)

(* The root slot is the whole of the mount-time state: tree roots, journal
   position, schemas and a few counters.  Everything population-sized
   (entries, index facts, the bitmap) lives behind the roots and is read
   on demand — which is what makes a clean mount O(1) device reads. *)

let encode_root_payload t ~seq ~half ~used ~entries ~iroots =
  let w = Codec.Writer.create () in
  Codec.Writer.string w root_magic;
  Codec.Writer.int w seq;
  Codec.Writer.int w t.next_pd;
  Codec.Writer.int w (Journal_ring.head t.ring);
  Codec.Writer.int w (Journal_ring.seq t.ring);
  let schemas =
    Hashtbl.fold (fun name tbl acc -> (name, Schema.encode tbl.schema) :: acc)
      t.tables []
    |> List.sort compare
  in
  Codec.Writer.list w (fun (_, enc) -> Codec.Writer.string w enc) schemas;
  Codec.Writer.int w half;
  Codec.Writer.int w used;
  Codec.Writer.int w t.entry_count;
  Pagestore.encode_root w entries;
  Index.encode_roots w iroots;
  Space.encode_root w t.space;
  Codec.Writer.contents w

type root_state = {
  rs_seq : int;
  rs_next_pd : int;
  rs_jhead : int;
  rs_jseq : int;
  rs_schemas : Schema.t list;
  rs_active_half : int;
  rs_heap_used : int;
  rs_entry_count : int;
  rs_entries_base : Pagestore.root;
  rs_index_roots : Index.roots;
  rs_bitmap : Space.root;
}

let decode_root_payload payload =
  let r = Codec.Reader.create payload in
  let* magic = Codec.Reader.string r in
  if magic <> root_magic then Error "bad DBFS root magic"
  else
    let* rs_seq = Codec.Reader.int r in
    let* rs_next_pd = Codec.Reader.int r in
    let* rs_jhead = Codec.Reader.int r in
    let* rs_jseq = Codec.Reader.int r in
    let* rs_schemas =
      Codec.Reader.list r (fun r ->
          let* enc = Codec.Reader.string r in
          Schema.decode enc)
    in
    let* rs_active_half = Codec.Reader.int r in
    let* rs_heap_used = Codec.Reader.int r in
    let* rs_entry_count = Codec.Reader.int r in
    let* rs_entries_base = Pagestore.decode_root r in
    let* rs_index_roots = Index.decode_roots r in
    let* rs_bitmap = Space.decode_root r in
    Ok
      {
        rs_seq;
        rs_next_pd;
        rs_jhead;
        rs_jseq;
        rs_schemas;
        rs_active_half;
        rs_heap_used;
        rs_entry_count;
        rs_entries_base;
        rs_index_roots;
        rs_bitmap;
      }

(* A torn or unwritten slot reads as garbage/zeros and simply fails to
   parse or checksum; mount falls back to the other slot. *)
let read_root_slot dev ~start ~block_size:bs =
  match
    Block_device.read_vec dev (List.init root_slot_blocks (fun i -> start + i))
  with
  | exception Block_device.Faulted _ -> None
  | got -> (
      let buf = Buffer.create (root_slot_blocks * bs) in
      List.iter
        (fun i -> Buffer.add_string buf (List.assoc i got))
        (List.init root_slot_blocks (fun i -> start + i));
      let raw = Buffer.contents buf in
      let parse =
        let r = Codec.Reader.create raw in
        let* payload = Codec.Reader.string r in
        if String.length raw < 4 + String.length payload + 16 then
          Error "truncated DBFS root slot"
        else if
          String.sub raw (4 + String.length payload) 16
          <> Fnv.hash64_hex payload
        then Error "DBFS root checksum mismatch"
        else decode_root_payload payload
      in
      match parse with Ok rs -> Some rs | Error _ -> None)

(* Write the next root, naming the trees in [half]: slot alternates with
   the sequence number, so the previous root survives a torn write of
   this one.  This is the single commit point of a checkpoint. *)
let commit_root t ~half ~used ~entries ~iroots =
  let bs = block_size t in
  let seq = t.root_seq + 1 in
  let payload = encode_root_payload t ~seq ~half ~used ~entries ~iroots in
  let framed =
    let w = Codec.Writer.create () in
    Codec.Writer.string w payload;
    Codec.Writer.contents w ^ Fnv.hash64_hex payload
  in
  if String.length framed > root_slot_blocks * bs then
    failwith "Dbfs: root slot overflow";
  let nblocks = ((String.length framed - 1) / bs) + 1 in
  let start = root_slot_start t (seq land 1) in
  retrying t (fun () ->
      Block_device.write_vec t.dev
        (List.init nblocks (fun i ->
             ( start + i,
               String.sub framed (i * bs)
                 (min bs (String.length framed - (i * bs))) ))));
  t.root_seq <- seq

(* ------------------------------------------------------------------ *)
(* checkpoint                                                         *)

(* Checkpoint ordering rule (see DESIGN.md):

     1-2. write every tree, laid out in the inactive heap half, and the
          allocation bitmap (when hydrated) in ONE request;
     3. write the next root slot   <- the commit point;
     4. take up the new trees;
     5. retire the journal prefix;
     6. zero the old heap half;
     7. settle any prefetch of the retired trees still in flight.

   The root is journalled (written) only after every node it references
   persists, so a crash at any step leaves either the old root (with the
   old half intact and the journal still replayable) or the new root
   (with the new half complete) — never a root pointing at missing
   pages.  The store reads the old trees until the root write returns,
   so a root write that fails leaves it as it was, and a retry writes
   the same half again. *)
let checkpoint t =
  let target = 1 - t.active_half in
  let first = heap_start t target in
  let page_size = block_size t in
  let items = ref [] in
  iter_entries t (fun e ->
      let w = Codec.Writer.create () in
      encode_entry w e;
      items := (e.pd_id, Codec.Writer.contents w) :: !items);
  let entries_root, entry_pages = Pagestore.layout ~page_size ~first (List.rev !items) in
  let iroots, index_pages =
    Index.checkpoint t.index ~page_size ~first:(first + List.length entry_pages)
  in
  let used = List.length entry_pages + List.length index_pages in
  if used > t.heap_cap then failwith "Dbfs: metadata heap overflow";
  retrying t (fun () ->
      Block_device.write_vec t.dev (entry_pages @ index_pages @ Space.checkpoint t.space));
  let old_half = t.active_half in
  let old_used = t.heap_used in
  commit_root t ~half:target ~used ~entries:entries_root ~iroots;
  Index.rebase t.index ~io:(page_io t) iroots;
  t.entries_base <- entries_root;
  t.index_roots <- iroots;
  t.active_half <- target;
  t.heap_used <- used;
  (* durability barrier: settle flush submissions (their bytes are
     already on the medium) before retiring the journal prefix *)
  Journal_ring.barrier t.ring;
  Journal_ring.mark_checkpointed t.ring;
  (* deallocation hygiene: the retired half held index facts (subjects,
     field values) — zero whatever was actually written there.  The
     checkpoint stands: a fault here degrades the store, and the rest of
     the generation switch still runs *)
  (try
     Space.zero t.space
       (List.init old_used (fun i -> heap_start t old_half + i)
       |> List.filter (Block_device.is_written t.dev))
   with Block_device.Faulted b -> ignore (degrade_on_fault t b));
  (* a speculative prefetch still in flight targets the dying
     generation: settle its charge and forget the ticket *)
  Hashtbl.iter
    (fun _ tk -> ignore (Block_device.await t.dev tk))
    t.page_prefetch;
  Hashtbl.reset t.page_prefetch;
  Hashtbl.reset t.entries;
  Hashtbl.reset t.deleted

(* [items] cut into runs, in order, whose journal records fit the ring:
   [bytes item] is what an item adds to its run's record.  An item larger
   than the ring still gets a run of its own. *)
let chunks t bytes items =
  let limit = Journal_ring.max_payload t.ring in
  let close cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go acc cur n = function
    | [] -> List.rev (close cur acc)
    | x :: rest ->
        let b = bytes x in
        if cur <> [] && n + b > limit then go (close cur acc) [ x ] b rest
        else go acc (x :: cur) (n + b) rest
  in
  go [] [] 0 items

(* The journal bytes of a [J_replace] of a [size]-byte payload, known
   before placement: a loc's fields are fixed-width. *)
let replace_bytes t kind pd_id size =
  let blocks = if size = 0 then 0 else ((size - 1) / block_size t) + 1 in
  String.length
    (encode_record
       [
         J_replace
           {
             kind;
             pd_id;
             loc =
               {
                 blocks = List.init blocks Fun.id;
                 off = 0;
                 size;
                 sum = Fnv.hash64_hex "";
               };
           };
       ])

(* The commit of every mutation.  The payload write of [placed] (one
   vectored request, each page rebuilt from its image with the new slots
   laid in) is submitted, then the read of the pages destroying
   [retiring] must rewrite, each on a channel of its own; [ops] are
   journaled as ONE record, and both requests are awaited (the flush, at
   window 1, inside [append]) before the ops apply in order, each with its
   hint, and [retiring] is destroyed or deferred ([Space.finish]).  The
   record's flush runs on the ring's channel while the payload write is
   in flight, so at window 1 a commit costs max(payload write, flush,
   page read) rather than their sum.  Only the journal's last record can
   therefore be durable without its data; mount checks that record
   against its data before applying it ([tail_written]).  Both tickets
   are settled on every path, an append that raises included.  A fault
   before the ops apply raises, the commit not done; once they have
   applied the commit stands, so a fault destroying [retiring] (or in
   the maintenance after it) degrades the store instead of raising. *)
let rec commit ?destroy ?(retiring = []) t placed ops =
  let p =
    Space.submit ?destroy t.space placed ~retiring:(List.map ext retiring)
  in
  Fun.protect
    ~finally:(fun () -> Space.settle t.space p)
    (fun () ->
      retrying t (fun () ->
          Journal_ring.append t.ring
            ~on_overflow:(fun () -> checkpoint t)
            (encode_record (List.map snd ops))));
  apply_ops t ops;
  try Space.finish t.space p ~relocate:(relocate t)
  with Block_device.Faulted b -> ignore (degrade_on_fault t b)

(* ------------------------------------------------------------------ *)
(* space: compaction survivors, placement                             *)

(* Compaction's survivor move (victim choice and destruction are
   [Space.compact]'s): relocate every surviving extent through the
   ordinary commit, a [J_replace] with identical size and checksum — so
   replay, secondary indexes, caches and the slot map stay coherent with
   no compaction-specific recovery code.  The survivors are read and
   verified by one [check_slots].  Survivors commit in [chunks]: one
   payload write and one record of at most [Journal_ring.max_payload]
   bytes each, settled before the next chunk is placed, so only the last
   record can have its data in flight.  An extent failing its checksum,
   or on a page that stays unreadable, is left in place for fsck rather
   than propagated. *)
and relocate t ~in_victim =
  (* one merged entry pass discovers every surviving extent; the moves
     below change no other entry, and moving one extent leaves its
     entry's other extent and erased flag as iterated *)
  let moves = ref [] in
  iter_entries t (fun e ->
      List.iter
        (fun kind ->
          match (extent e kind).blocks with
          | b :: _ when in_victim b ->
              let kind = if kind = Record && e.erased then Sealed else kind in
              moves := (e, kind) :: !moves
          | _ -> ())
        [ Record; Membrane ]);
  let moves = List.rev !moves in
  let slots = check_slots t (List.map (fun (e, kind) -> extent e kind) moves) in
  let survivors =
    List.filter_map
      (fun (e, kind) ->
        let l = extent e kind in
        match Hashtbl.find slots l with
        | Ok raw -> Some (e, kind, raw, l.sum)
        | Error _ ->
            Stats.Counter.incr t.counters "compact_verify_failures";
            None)
      moves
  in
  let move (e, kind, raw, sum) =
    match
      Space.place t.space [ (zone e kind, String.length raw) ]
        ~relocate:(relocate t)
    with
    | Some [ x ] ->
        let hint =
          match kind with
          | Membrane -> (
              match Membrane.decode raw with
              | Ok m -> { no_hint with h_membrane = Some m }
              | Error _ -> no_hint)
          | Record -> (
              match Record.decode raw with
              | Ok r -> { no_hint with h_record = Some r }
              | Error _ -> no_hint)
          | Sealed -> no_hint
        in
        let loc = { (loc_of raw x) with sum } in
        Some
          ( (raw, x),
            ({ hint with h_entry = Some e }, J_replace { kind; pd_id = e.pd_id; loc })
          )
    | _ -> None (* no room: survivor stays put *)
  in
  let relocated =
    List.fold_left
      (fun n chunk ->
        match List.filter_map move chunk with
        | [] -> n
        | moved ->
            commit t (List.map fst moved) (List.map snd moved);
            n + List.length moved)
      0
      (chunks t
         (fun (e, kind, raw, _) -> replace_bytes t kind e.pd_id (String.length raw))
         survivors)
  in
  Stats.Counter.incr t.counters ~by:relocated "compact_relocations"

let place t items = Space.place t.space items ~relocate:(relocate t)

(* ------------------------------------------------------------------ *)
(* construction                                                       *)

(* The in-memory store over a device whose superblock says
   [journal_blocks], [meta_blocks] and [allocator]; [root] is the root
   slot a mount read, [None] on format.  [counters] is the set its
   journal [ring] already counts into. *)
let assemble dev ~ring ~counters ~journal_blocks ~meta_blocks ~allocator root =
  let cfg = Block_device.config dev in
  let bitmap_blocks =
    bitmap_blocks_for ~block_count:cfg.Block_device.block_count
      ~block_size:cfg.Block_device.block_size
  in
  let meta_start = 1 + journal_blocks in
  let field f default = match root with Some rs -> f rs | None -> default in
  (* the slot map loads from the entries, which the store below holds *)
  let store = ref None in
  let live () =
    match !store with
    | None -> []
    | Some t ->
        List.concat_map
          (fun e -> [ ext e.record; ext e.membrane ])
          (collect_entries ~on_corrupt:ignore t)
  in
  let t =
    {
      dev;
      ring;
      journal_blocks;
      meta_start;
      meta_blocks;
      bitmap_blocks;
      heap_cap = heap_cap_for ~meta_blocks ~bitmap_blocks;
      space =
        Space.create allocator dev ~ring ~counters
          ~data_start:(meta_start + meta_blocks)
          ~bitmap_start:(bitmap_start ~meta_start)
          ~live
          (Option.map (fun rs -> rs.rs_bitmap) root);
      tables = Hashtbl.create 8;
      entries = Hashtbl.create 256;
      deleted = Hashtbl.create 64;
      entries_base = field (fun rs -> rs.rs_entries_base) Pagestore.empty_root;
      entry_count = field (fun rs -> rs.rs_entry_count) 0;
      index = Index.create ();
      index_roots = field (fun rs -> rs.rs_index_roots) Index.empty_roots;
      active_half = field (fun rs -> rs.rs_active_half) 0;
      heap_used = field (fun rs -> rs.rs_heap_used) 0;
      root_seq = field (fun rs -> rs.rs_seq) 0;
      next_pd = field (fun rs -> rs.rs_next_pd) 0;
      hook = None;
      degraded = None;
      replay = None;
      replay_warning = None;
      counters;
      cache = Cache.create ~budget:default_cache_budget;
      page_prefetch = Hashtbl.create 16;
    }
  in
  store := Some t;
  t

let format ?(allocator = Space.Heap) dev ~journal_blocks =
  let cfg = Block_device.config dev in
  let block_count = cfg.Block_device.block_count in
  let bs = cfg.Block_device.block_size in
  (* The metadata region holds the root slots, the allocation bitmap and
     two tree-heap halves; a checkpoint rewrites one whole half, so the
     region scales with the device (1/4) rather than the old flat 1/16.
     [mount] reads the figure from the superblock, so the layout stays
     self-describing. *)
  let meta_blocks = max meta_blocks_default (block_count / 4) in
  let data_start = 1 + journal_blocks + meta_blocks in
  if data_start >= block_count then invalid_arg "Dbfs.format: device too small";
  let bitmap_blocks = bitmap_blocks_for ~block_count ~block_size:bs in
  let heap_cap = heap_cap_for ~meta_blocks ~bitmap_blocks in
  if heap_cap < 1 then invalid_arg "Dbfs.format: device too small";
  let w = Codec.Writer.create () in
  Codec.Writer.string w superblock_magic;
  Codec.Writer.int w journal_blocks;
  Codec.Writer.int w meta_blocks;
  Space.encode_allocator w allocator;
  Block_device.write_vec dev [ (0, Codec.Writer.contents w) ];
  let counters = Stats.Counter.create () in
  let ring =
    Journal_ring.create dev ~counters ~start_block:1 ~num_blocks:journal_blocks
  in
  let t =
    assemble dev ~ring ~counters ~journal_blocks ~meta_blocks ~allocator None
  in
  commit_root t ~half:0 ~used:0 ~entries:Pagestore.empty_root
    ~iroots:Index.empty_roots;
  t

(* Replay's tail check.  A commit's record goes out while its payload
   write is in flight, so the journal's last record may be durable
   without its data.  It applies only if no extent it names fails its
   checksum ([slots] are [check_slots]'s); otherwise the mutation never
   completed and the record is dropped like a torn final frame.  A
   record that does not decode passes (applying it reports that), and so
   does an extent that could not be read: that is medium damage, which
   fsck reports and repair quarantines. *)
let tail_written slots = function
  | Error _ -> true
  | Ok ops ->
      List.for_all (fun l -> Hashtbl.find slots l <> Error Mismatch) (written_extents ops)

let mount dev =
  let r = Codec.Reader.create (snd (List.hd (Block_device.read_vec dev [ 0 ]))) in
  let parse_super =
    let* magic = Codec.Reader.string r in
    if magic <> superblock_magic then Error "bad DBFS superblock magic"
    else
      let* journal_blocks = Codec.Reader.int r in
      let* meta_blocks = Codec.Reader.int r in
      let* allocator = Space.decode_allocator r in
      Ok (journal_blocks, meta_blocks, allocator)
  in
  match parse_super with
  | Error e -> Error e
  | Ok (journal_blocks, meta_blocks, allocator) -> (
      let bs = (Block_device.config dev).Block_device.block_size in
      let meta_start = 1 + journal_blocks in
      let slot_a = read_root_slot dev ~start:meta_start ~block_size:bs in
      let slot_b =
        read_root_slot dev ~start:(meta_start + root_slot_blocks) ~block_size:bs
      in
      let best =
        match (slot_a, slot_b) with
        | None, None -> None
        | Some a, None -> Some a
        | None, Some b -> Some b
        | Some a, Some b -> Some (if a.rs_seq >= b.rs_seq then a else b)
      in
      match best with
      | None -> Error "no valid DBFS root"
      | Some rs ->
          let counters = Stats.Counter.create () in
          let ring =
            Journal_ring.attach dev ~counters ~start_block:1
              ~num_blocks:journal_blocks ~head:rs.rs_jhead ~seq:rs.rs_jseq
          in
          let t =
            assemble dev ~ring ~counters ~journal_blocks ~meta_blocks
              ~allocator (Some rs)
          in
          (* attaching reads no pages — a clean mount touches only the
             superblock, the two root slots and the journal probe *)
          t.index <- Index.attach ~io:(page_io t) rs.rs_index_roots;
          List.iter
            (fun schema ->
              Hashtbl.replace t.tables schema.Schema.name { schema })
            rs.rs_schemas;
          (* exn-free replay: a record that frames correctly but fails to
             decode or apply stops further application and flips the store
             into degraded read-only mode instead of failing the mount.
             Records are held until the ring reaches its last one; the
             tail check then reads the pages of every held record and of
             the last in one request, checking each extent once, and the
             held records apply in order, decoding their index facts from
             those slots. *)
          let freed = ref [] in
          let slots = ref None in
          let apply = function
            | _ when t.replay_warning <> None -> ()
            | Error e -> t.replay_warning <- Some ("corrupt journal op: " ^ e)
            | Ok ops -> (
                try
                  apply_ops t ?slots:!slots ~freed_acc:freed
                    (List.map (fun op -> (no_hint, op)) ops)
                with
                | Failure m -> t.replay_warning <- Some m
                | Not_found ->
                    t.replay_warning <- Some "journal op references an unknown pd")
          in
          let held = ref (Some []) in
          let summary =
            Journal_ring.replay t.ring
              ~tail_ok:(fun payload ->
                let tail = decode_record payload in
                let records = List.rev (Option.value ~default:[] !held) in
                let checked =
                  check_slots t
                    (List.concat_map
                       (function Ok ops -> written_extents ops | Error _ -> [])
                       (tail :: records))
                in
                slots := Some checked;
                held := None;
                List.iter apply records;
                t.replay_warning <> None || tail_written checked tail)
              (fun payload ->
                let record = decode_record payload in
                match !held with
                | Some records -> held := Some (record :: records)
                | None -> apply record)
          in
          t.replay <- Some summary;
          (match t.replay_warning with
          | Some m ->
              t.degraded <- Some ("journal replay: " ^ m);
              Stats.Counter.incr t.counters "degraded_entries"
          | None -> ());
          (* close the commit->zero crash window: any block a replayed op
             freed and nothing later reused must not keep its old
             plaintext.  A clean mount has no replayed ops and skips this
             (and the bitmap hydration it would force) entirely. *)
          Space.scrub_freed t.space !freed;
          Ok t)

let device t = t.dev

let layout t = Space.layout t.space

let set_access_hook t hook = t.hook <- Some hook

(* ------------------------------------------------------------------ *)
(* schema tree                                                        *)

let create_type t ~actor schema =
  let** () = guard t ~actor ~op:"create_type" in
  let** () = check_degraded t in
  let name = schema.Schema.name in
  if Hashtbl.mem t.tables name then Error (Type_exists name)
  else
    protect_write t (fun () ->
        Stats.Counter.incr t.counters "create_type";
        commit t [] [ (no_hint, J_create_type (Schema.encode schema)) ];
        Ok ())

let schema t ~actor name =
  let** () = guard t ~actor ~op:"read" in
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> Ok tbl.schema
  | None -> Error (Unknown_type name)

let list_types t ~actor =
  let** () = guard t ~actor ~op:"read" in
  Ok (Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* PD entries                                                         *)

let entry_extents t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  Ok (ext e.record, ext e.membrane)

(* Enforcement rule 3: a membrane must wrap its own pd, declare its type
   and name its subject — on insert and on every replacement. *)
let check_membrane ~pd_id ~type_name ~subject m =
  if m.Membrane.pd_id <> pd_id then
    Error (Membrane_mismatch "membrane wraps a different pd_id")
  else if m.Membrane.type_name <> type_name then
    Error (Membrane_mismatch "membrane declares a different type")
  else if m.Membrane.subject_id <> subject then
    Error (Membrane_mismatch "membrane names a different subject")
  else Ok ()

let insert t ~actor ~subject ~type_name ~record ~membrane_of =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  match Hashtbl.find_opt t.tables type_name with
  | None -> Error (Unknown_type type_name)
  | Some tbl -> (
      match Schema.validate_record tbl.schema record with
      | Error e -> Error (Invalid_record e)
      | Ok () -> (
          let pd_id = Printf.sprintf "pd-%08d" t.next_pd in
          let membrane = membrane_of ~pd_id in
          let** () = check_membrane ~pd_id ~type_name ~subject membrane in
          let high = membrane.Membrane.sensitivity = Membrane.High in
          let record_bytes = Record.encode record in
          let membrane_bytes = Membrane.encode membrane in
          match
            place t
              [
                (Space.Z_record high, String.length record_bytes);
                (Space.Z_membrane, String.length membrane_bytes);
              ]
          with
          | Some [ record_x; membrane_x ] ->
              protect_write t (fun () ->
                  (* the record and the membrane in one payload write *)
                  t.next_pd <- t.next_pd + 1;
                  commit t
                    [ (record_bytes, record_x); (membrane_bytes, membrane_x) ]
                    [
                      ( {
                          no_hint with
                          h_record = Some record;
                          h_membrane = Some membrane;
                        },
                        J_insert
                          {
                            pd_id;
                            type_name;
                            subject;
                            high;
                            record = loc_of record_bytes record_x;
                            membrane = loc_of membrane_bytes membrane_x;
                            erased = false;
                          } );
                    ];
                  Stats.Counter.incr t.counters "inserts";
                  (* write-through: the values just validated and
                     encoded are exactly what a read would decode *)
                  cache_put_membrane t pd_id membrane;
                  cache_put_record t pd_id record;
                  Ok pd_id)
          | _ -> Error No_space))

(* Verify an extent's checksum against the raw bytes just read. *)
let verify_sum ~what ~pd_id ~stored raw =
  if Fnv.hash64_hex raw <> stored then
    Error (Corrupt (what ^ " of " ^ pd_id ^ ": extent checksum mismatch"))
  else Ok raw

(* ---------- extent loads (one path for batches and point reads) ----------

   A batch of [queue_depth] vectored device requests covers every pd in
   the selection, so the fixed seek latency is paid once per contiguous
   run of each request rather than once per pd; a point read is a batch
   of one.  Each slot is cut out of its page, so only the bytes asked
   for are verified, decoded and returned.  Cost transparency is
   preserved: cached entries' pages stay in the request (only the
   host-side decode is skipped), so a warm cache changes no stage_ns
   figure.  A load opens (one descent, every request submitted) and is
   then consumed a subset at a time, so a caller may work on the first
   entries while the pages of the rest are still landing. *)

(* Every result's value, or the first error. *)
let all_ok results =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok v :: rest -> go (v :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results

(* A whole batch resolved in one descent; any failing pd (the first, in
   input order) fails the batch. *)
let resolve_entries t pd_ids = all_ok (resolve t pd_ids)

(* [ids] without repeats, each at its first occurrence. *)
let distinct ids =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun id ->
      (not (Hashtbl.mem seen id))
      && (Hashtbl.replace seen id ();
          true))
    ids

(* Split [entries] into at most [n] contiguous chunks, preserving order. *)
let chunk_entries entries n =
  let len = List.length entries in
  if len = 0 then []
  else begin
    let n = max 1 (min n len) in
    let per = ((len + n - 1) / n) in
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | e :: rest ->
          if k = per then go (List.rev cur :: acc) [ e ] 1 rest
          else go acc (e :: cur) (k + 1) rest
    in
    go [] [] 0 entries
  end

(* [l]'s first [n] elements, and the rest. *)
let rec split_at n = function
  | x :: rest when n > 0 ->
      let here, later = split_at (n - 1) rest in
      (x :: here, later)
  | l -> ([], l)

(* An opened load.  Its entries split into [queue_depth] chunks, one
   request each, all submitted on [channel] when the load opens.  A page
   shared by several entries is read by the first chunk that needs it and
   by no later one, so each page is read and charged once per batch
   ([l_owner] names its request), and every consumed page lands in one
   block table ([l_pages]). *)
type 'a load = {
  l_t : t;
  l_x : 'a extent;
  l_channel : int;
  l_entries : entry list; (* the batch, resolved, in input order *)
  mutable l_rest : entry list; (* not yet consumed *)
  l_chunks : int list; (* entries per request *)
  l_reqs : Block_device.ticket array;
  l_owner : (int, int) Hashtbl.t; (* block -> index of its request *)
  l_pages : (int, string) Hashtbl.t;
}

let blocks_of x e = if x.x_live e then (x.x_loc e).blocks else []

let open_load t x ~channel entries =
  let depth = (Block_device.config t.dev).Block_device.queue_depth in
  let chunks = chunk_entries entries depth in
  let owner = Hashtbl.create 64 in
  let reqs = ref [] in
  let submit k chunk =
    let blocks =
      List.sort_uniq compare (List.concat_map (blocks_of x) chunk)
      |> List.filter (fun b -> not (Hashtbl.mem owner b))
    in
    List.iter (fun b -> Hashtbl.replace owner b k) blocks;
    let tk = retrying t (fun () -> Block_device.submit_read_vec t.dev ~channel blocks) in
    reqs := tk :: !reqs
  in
  protect_read (fun () ->
      match List.iteri submit chunks with
      | () ->
          Ok
            {
              l_t = t;
              l_x = x;
              l_channel = channel;
              l_entries = entries;
              l_rest = entries;
              l_chunks = List.map List.length chunks;
              l_reqs = Array.of_list (List.rev !reqs);
              l_owner = owner;
              l_pages = Hashtbl.create 64;
            }
      | exception (Block_device.Faulted _ as fault) ->
          (* the chunks submitted before the fault settle with it *)
          List.iter (fun tk -> ignore (Block_device.await t.dev tk)) !reqs;
          raise fault)

(* Settle every request of the load: once its last entry is consumed,
   or when a consumed entry fails. *)
let close ld = Array.iter (fun tk -> ignore (Block_device.await ld.l_t.dev tk)) ld.l_reqs

(* The shared decode of one extent kind: counter, checksum charge, cache
   probe, then on a miss assemble, verify and decode, and cache the
   result.  Entries whose extent is not live yield [None] and are
   neither read nor charged. *)
let decode_slots t x h entries =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest when not (x.x_live e) -> go ((e.pd_id, None) :: acc) rest
    | e :: rest -> (
        Stats.Counter.incr t.counters x.x_reads;
        charge_checksum t (x.x_loc e).size;
        match Option.bind (Cache.find t.cache (x.x_key ^ e.pd_id)) x.x_cached with
        | Some v ->
            Stats.Counter.incr t.counters "cache_hits";
            go ((e.pd_id, Some v) :: acc) rest
        | None -> (
            Stats.Counter.incr t.counters "cache_misses";
            let l = x.x_loc e in
            let** raw =
              verify_sum ~what:x.x_name ~pd_id:e.pd_id ~stored:l.sum (extent_bytes h l)
            in
            match x.x_decode raw with
            | Ok v ->
                cache_put t (x.x_key ^ e.pd_id) (x.x_cache v);
                go ((e.pd_id, Some v) :: acc) rest
            | Error msg -> Error (Corrupt (x.x_name ^ " of " ^ e.pd_id ^ ": " ^ msg))))
  in
  go [] entries

(* Take the next [n] entries: wait only for the pages of theirs that
   have not landed yet ([Block_device.await_blocks], each request for
   its own), then verify and decode just their slots. *)
let consume ld n =
  let t = ld.l_t in
  let piece, rest = split_at n ld.l_rest in
  let wanted = Array.make (Array.length ld.l_reqs) [] in
  List.iter
    (fun b ->
      if not (Hashtbl.mem ld.l_pages b) then
        let k = Hashtbl.find ld.l_owner b in
        wanted.(k) <- b :: wanted.(k))
    (List.sort_uniq compare (List.concat_map (blocks_of ld.l_x) piece));
  Array.iteri
    (fun k blocks ->
      if blocks <> [] then
        List.iter
          (fun (b, data) -> Hashtbl.replace ld.l_pages b data)
          (Block_device.await_blocks t.dev ld.l_reqs.(k) blocks))
    wanted;
  let got = decode_slots t ld.l_x ld.l_pages piece in
  ld.l_rest <- (if Result.is_ok got then rest else []);
  if ld.l_rest = [] then close ld;
  got

(* Consume a load chunk by chunk: the checksum and decode of chunk k
   overlap the in-flight service of chunks k+1..  At depth 1 this is one
   request settled before any decode: exactly a blocking [read_vec]. *)
let consume_all ld =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | n :: rest ->
        let** got = consume ld n in
        go (got :: acc) rest
  in
  go [] ld.l_chunks

let load_extents t x ~channel entries =
  let** ld = open_load t x ~channel entries in
  consume_all ld

let open_batch t x ~actor ~channel pd_ids =
  let** () = guard t ~actor ~op:"read" in
  let** entries = resolve_entries t pd_ids in
  open_load t x ~channel entries

let open_membranes t ~actor ?(channel = 0) pd_ids =
  open_batch t membrane_x ~actor ~channel pd_ids

(* The record batch of pds [ld] resolved already: no second descent. *)
let open_records_of ld pd_ids =
  let by_id = Hashtbl.create (max 16 (2 * List.length ld.l_entries)) in
  List.iter (fun e -> Hashtbl.replace by_id e.pd_id e) ld.l_entries;
  let entry pd_id =
    match Hashtbl.find_opt by_id pd_id with
    | Some e -> e
    | None -> invalid_arg ("Dbfs.open_records_of: " ^ pd_id ^ " is not in the batch")
  in
  open_load ld.l_t record_x ~channel:ld.l_channel (List.map entry pd_ids)

let get_membranes t ~actor ?(channel = 0) pd_ids =
  let** ld = open_membranes t ~actor ~channel pd_ids in
  let** got = consume_all ld in
  Ok (List.map (fun (pd_id, m) -> (pd_id, Option.get m)) got)

(* Erased pds yield [None] (their sealed payload is not PD and is not
   read), matching the DED's skip-erased semantics without forcing every
   caller to pre-filter the selection. *)
let get_records t ~actor ?(channel = 0) pd_ids =
  let** ld = open_batch t record_x ~actor ~channel pd_ids in
  consume_all ld

(* One extent of an entry already resolved: a load batch of one. *)
let load_one t x e =
  let** got = load_extents t x ~channel:0 [ e ] in
  match got with [ (_, Some v) ] -> Ok v | _ -> Error (Erased e.pd_id)

let get_membrane t ~actor pd_id =
  let** got = get_membranes t ~actor [ pd_id ] in
  Ok (snd (List.hd got))

let get_record t ~actor pd_id =
  let** got = get_records t ~actor [ pd_id ] in
  match got with
  | [ (_, Some r) ] -> Ok r
  | _ -> Error (Erased pd_id)

(* Commit [items] in [chunks] (by [bytes]), in order, through
   [commit_chunk]; a failing chunk stops the batch, and so does a chunk
   whose commit stands but degraded the store (a fault destroying its
   superseded slots, see [commit]).  When chunks committed before the
   stop, the error is [Stopped], naming the pds ([pds_of]) of their
   items. *)
let commit_chunks t ~bytes ~pds_of commit_chunk items =
  let rec go committed chunks =
    let stop cause =
      if committed = [] then Error cause
      else Error (Stopped { committed = List.rev committed; cause })
    in
    match (t.degraded, chunks) with
    | Some reason, _ -> stop (Degraded reason)
    | None, [] -> Ok ()
    | None, chunk :: rest -> (
        match commit_chunk chunk with
        | Ok () -> go (List.rev_append (List.concat_map pds_of chunk) committed) rest
        | Error cause -> stop cause)
  in
  go [] (chunks t bytes items)

(* The pds of [pds] that the batch [result] did — all of them, or the
   chunks committed before it stopped — counted under each of [names]. *)
let done_pds t result pds names =
  let pds = match result with Ok () -> pds | Error e -> committed e in
  if pds <> [] then
    List.iter (Stats.Counter.incr t.counters ~by:(List.length pds)) names;
  pds

(* The one extent write behind record updates, membrane updates and
   erasure.  [units] is the batch: each unit is [(e, item)] pairs, each
   item [(kind, hint, payload)] replacing an extent of entry [e], and a
   unit is never split.  The batch commits in chunks of whole units whose
   journal records fit the ring, as [relocate]'s do, and a batch of
   ordinary size is one chunk: every payload of a chunk is placed at
   once and written in one request, its [J_replace]s journaled as one
   record, and its superseded slots destroyed once.  So a crash leaves
   each chunk all applied or not at all.  With a [Sealed] item the
   destruction is erasure's duty: no plaintext of the old record may
   remain anywhere.  A chunk that cannot be placed or written stops the
   batch ([commit_chunks]), the chunks before it committed. *)
let replace_extents t units =
  (* the entries enter the overlay before placement: a compaction that
     placement triggers then relocates these very entry objects, so each
     is current when its own ops apply *)
  List.iter (List.iter (fun (e, _) -> Hashtbl.replace t.entries e.pd_id e)) units;
  let commit_chunk chunk =
    let items = List.concat chunk in
    match
      place t
        (List.map
           (fun (e, (kind, _, payload)) -> (zone e kind, String.length payload))
           items)
    with
    | None -> Error No_space
    | Some xs ->
        (* the superseded extents, read only now: a compaction placement
           triggered may have relocated them *)
        let old = List.map (fun (e, (kind, _, _)) -> extent e kind) items in
        protect_write t (fun () ->
            commit t
              ~destroy:(List.exists (fun (_, (kind, _, _)) -> kind = Sealed) items)
              ~retiring:old
              (List.map2 (fun (_, (_, _, payload)) x -> (payload, x)) items xs)
              (List.map2
                 (fun (e, (kind, hint, payload)) x ->
                   ( { hint with h_entry = Some e },
                     J_replace { kind; pd_id = e.pd_id; loc = loc_of payload x } ))
                 items xs);
            Ok ())
  in
  commit_chunks t
    ~bytes:
      (List.fold_left
         (fun n (e, (kind, _, payload)) ->
           n + replace_bytes t kind e.pd_id (String.length payload))
         0)
    ~pds_of:(fun unit -> distinct (List.map (fun (e, _) -> e.pd_id) unit))
    commit_chunk units

let update_record t ~actor pd_id record =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if e.erased then Error (Erased pd_id)
  else
    match Hashtbl.find_opt t.tables e.type_name with
    | None -> Error (Unknown_type e.type_name)
    | Some tbl -> (
        match Schema.validate_record tbl.schema record with
        | Error msg -> Error (Invalid_record msg)
        | Ok () ->
            let item =
              (Record, { no_hint with h_record = Some record }, Record.encode record)
            in
            let result = replace_extents t [ [ (e, item) ] ] in
            ignore (done_pds t result [ pd_id ] [ "record_updates" ]);
            result)

(* A membrane replacement for [e], checked before anything is written:
   it must keep the entry's identity. *)
let membrane_item e m =
  let** () =
    check_membrane ~pd_id:e.pd_id ~type_name:e.type_name ~subject:e.subject m
  in
  Ok (Membrane, { no_hint with h_membrane = Some m }, Membrane.encode m)

(* Commit the membrane [units] ([replace_extents]'s); the pds rewritten. *)
let rewrite_membranes t units =
  let result = replace_extents t units in
  let pds = List.concat_map (List.map (fun (e, _) -> e.pd_id)) units in
  let rewritten = done_pds t result pds [ "membrane_updates" ] in
  Result.map (fun () -> rewritten) result

(* The [x]s of [(m, x)] pairs grouped by the lineage of membrane [m],
   each group in input order, the groups in the order of their first
   member. *)
let by_lineage pairs =
  let root (m, _) = Membrane.lineage_root m in
  List.map
    (fun r -> List.filter_map (fun p -> if root p = r then Some (snd p) else None) pairs)
    (distinct (List.map root pairs))

(* One descent resolves the batch, one load reads its membranes, and one
   [replace_extents] rewrites them, a lineage per unit; every new
   membrane is checked before anything is written. *)
let update_membranes t ~actor pd_ids f =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** entries = resolve_entries t (distinct pd_ids) in
  let** got = load_extents t membrane_x ~channel:0 entries in
  let** checked =
    all_ok
      (List.map2
         (fun e (_, m) ->
           let m = Option.get m in
           Result.map (fun item -> (m, (e, item))) (membrane_item e (f m)))
         entries got)
  in
  rewrite_membranes t (by_lineage checked)

(* A blind write: the given membrane, with no load of the current one. *)
let update_membrane t ~actor pd_id membrane =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  let** item = membrane_item e membrane in
  Result.map ignore (rewrite_membranes t [ [ (e, item) ] ])

let copy_pd t ~actor pd_id =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if e.erased then Error (Erased pd_id)
  else
    let** record = load_one t record_x e in
    let** membrane = load_one t membrane_x e in
    insert t ~actor ~subject:e.subject ~type_name:e.type_name ~record
      ~membrane_of:(fun ~pd_id -> Membrane.copy_for membrane ~new_pd_id:pd_id)

(* One descent resolves the batch; each chunk of [J_delete]s commits as
   one record, and its pds' slots are destroyed after it commits. *)
let delete t ~actor pd_ids =
  let** () = guard t ~actor ~op:"delete" in
  let** () = check_degraded t in
  let** entries = resolve_entries t (distinct pd_ids) in
  commit_chunks t
    ~bytes:(fun e -> String.length (encode_record [ J_delete e.pd_id ]))
    ~pds_of:(fun e -> [ e.pd_id ])
    (fun chunk ->
      protect_write t (fun () ->
          (* physical destruction after the metadata commit *)
          commit t ~destroy:true
            ~retiring:(List.concat_map (fun e -> [ e.record; e.membrane ]) chunk)
            []
            (List.map
               (fun e -> ({ no_hint with h_entry = Some e }, J_delete e.pd_id))
               chunk);
          Stats.Counter.incr t.counters ~by:(List.length chunk) "deletes";
          Ok ()))
    entries

(* One descent resolves the batch, one load each fetches the live pds'
   membranes (with [withdraw] or [only]) and the kept pds' records, and
   one [replace_extents] commits them: per pd the rewritten membrane,
   then the sealed record, in one unit, so a crash never leaves a pd
   withdrawn but live. *)
let erase_with t ~actor ?withdraw ?only pd_ids ~seal =
  let** () = guard t ~actor ~op:"erase" in
  let** () = check_degraded t in
  let** entries = resolve_entries t (distinct pd_ids) in
  let live = List.filter (fun e -> not e.erased) entries in
  let** kept =
    if withdraw = None && only = None then Ok (List.map (fun e -> (e, [])) live)
    else
      let** got = load_extents t membrane_x ~channel:0 live in
      List.combine live (List.map (fun (_, m) -> Option.get m) got)
      |> List.filter (fun (_, m) -> Option.fold only ~none:true ~some:(fun f -> f m))
      |> List.map (fun (e, m) ->
             match withdraw with
             | None -> Ok (e, [])
             | Some f ->
                 Result.map (fun item -> (e, [ (e, item) ])) (membrane_item e (f m)))
      |> all_ok
  in
  let** records = load_extents t record_x ~channel:0 (List.map fst kept) in
  let result =
    replace_extents t
      (List.map2
         (fun (e, withdrawn) (_, r) ->
           withdrawn @ [ (e, (Sealed, no_hint, seal (Option.get r))) ])
         kept records)
  in
  let counters =
    if withdraw = None then [ "erasures" ] else [ "membrane_updates"; "erasures" ]
  in
  let erased = done_pds t result (List.map (fun (e, _) -> e.pd_id) kept) counters in
  Result.map (fun () -> erased) result

let erased_payload t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  if not e.erased then Error (Invalid_record (pd_id ^ " is not erased"))
  else
    match Hashtbl.find (check_slots t [ e.record ]) e.record with
    | Ok raw -> Ok raw
    | Error Unreadable ->
        Error (Device_fault ("sealed payload of " ^ pd_id ^ " unreadable after retries"))
    | Error _ ->
        Error (Corrupt ("sealed payload of " ^ pd_id ^ ": extent checksum mismatch"))

let compact ?max_victims ?liveness_pct t =
  Space.compact ?max_victims ?liveness_pct t.space ~relocate:(relocate t)

(* ------------------------------------------------------------------ *)
(* queries                                                            *)

let list_pds t ~actor type_name =
  let** () = guard t ~actor ~op:"read" in
  match Hashtbl.find_opt t.tables type_name with
  | None -> Error (Unknown_type type_name)
  | Some _ ->
      protect_pages (fun () ->
          let acc = ref [] in
          iter_entries t (fun e ->
              if e.type_name = type_name then acc := e.pd_id :: !acc);
          Ok (List.rev !acc))

let pds_of_subject t ~actor subject =
  let** () = guard t ~actor ~op:"read" in
  protect_pages (fun () -> Ok (Index.subject_pds t.index subject))

let subjects t ~actor =
  let** () = guard t ~actor ~op:"read" in
  protect_pages (fun () -> Ok (Index.subject_list t.index))

(* ---------- predicate pushdown (Dbfs.select) ----------

   Plan the predicate against the type's secondary indexes, probe for a
   candidate set, batch-load only the candidates and run the original
   predicate as a residual filter.  Exact plans skip the record loads
   entirely.  Probe charging follows the warm==cold rule: base index
   pages are read (never cached) through [page_io], and overlay facts
   charge a synthetic metadata read of their byte footprint — the
   in-memory acceleration is host-side only and never changes a
   simulated figure. *)

module SS = Set.Make (String)

let charge_index_read t bytes =
  let bs = block_size t in
  let nblocks = min t.meta_blocks (max 1 (((bytes - 1) / bs) + 1)) in
  Block_device.charge_read_vec t.dev
    (List.init nblocks (fun i -> t.meta_start + i))

let run_probe t ~type_name probe =
  let rec go = function
    | Plan.Atom (Plan.Aeq (field, v)) ->
        let ids, bytes = Index.probe_eq t.index ~type_name ~field v in
        (SS.of_list ids, bytes)
    | Plan.Atom (Plan.Alt (field, v)) ->
        let ids, bytes = Index.probe_range t.index ~type_name ~field ~op:`Lt v in
        (SS.of_list ids, bytes)
    | Plan.Atom (Plan.Agt (field, v)) ->
        let ids, bytes = Index.probe_range t.index ~type_name ~field ~op:`Gt v in
        (SS.of_list ids, bytes)
    | Plan.Inter (x, y) ->
        let sx, bx = go x in
        let sy, by = go y in
        (SS.inter sx sy, bx + by)
    | Plan.Union (x, y) ->
        let sx, bx = go x in
        let sy, by = go y in
        (SS.union sx sy, bx + by)
  in
  go probe

let select t ~actor ?(use_indexes = true) ?(channel = 0) type_name pred =
  let** () = guard t ~actor ~op:"read" in
  match Hashtbl.find_opt t.tables type_name with
  | None -> Error (Unknown_type type_name)
  | Some tbl ->
      Stats.Counter.incr t.counters "selects";
      protect_pages (fun () ->
          (* full scans stream the merged entry sequence; indexed probes
             never touch it — candidate sets are filtered with one batched
             entry lookup, keeping an indexed select sublinear in the
             population.  A candidate whose lookup fails is not live. *)
          let live e = e.type_name = type_name && not e.erased in
          let all_live () =
            let acc = ref [] in
            iter_entries t (fun e -> if live e then acc := e :: !acc);
            List.rev !acc
          in
          let ids = List.map (fun e -> e.pd_id) in
          let residual entries =
            (* one batched load from the entries already resolved, then
               the full predicate: the records are submitted as pipelined
               reads ahead of residual evaluation, so chunk k's decode and
               predicate work overlaps the in-flight service of chunks
               k+1.. *)
            let** records = load_extents t record_x ~channel entries in
            Ok
              (List.filter_map
                 (fun (pd, r) ->
                   match r with
                   | Some r when Query.eval pred r -> Some pd
                   | _ -> None)
                 records)
          in
          let plan =
            if use_indexes then
              Plan.compile pred
                ~indexed:(fun f -> List.mem f tbl.schema.Schema.indexed_fields)
            else
              Plan.Full_scan
                { trivial = (match pred with Query.True -> true | _ -> false) }
          in
          match plan with
          | Plan.Full_scan { trivial = true } -> Ok (ids (all_live ()))
          | Plan.Full_scan { trivial = false } -> residual (all_live ())
          | Plan.Indexed { probe; exact } ->
              Stats.Counter.incr t.counters "index_probes";
              let cand, bytes = run_probe t ~type_name probe in
              charge_index_read t bytes;
              (* probe sets are unordered; sorted pd ids ARE insertion
                 order (ids are zero-padded and monotone) *)
              let cand =
                List.filter_map
                  (function Ok e when live e -> Some e | _ -> None)
                  (resolve t (SS.elements cand))
              in
              if exact then Ok (ids cand) else residual cand)

let plan_for t ~actor type_name pred =
  let** () = guard t ~actor ~op:"read" in
  match Hashtbl.find_opt t.tables type_name with
  | None -> Error (Unknown_type type_name)
  | Some tbl ->
      Ok
        (Plan.compile pred
           ~indexed:(fun f -> List.mem f tbl.schema.Schema.indexed_fields))

let expired_pds t ~actor ~now =
  let** () = guard t ~actor ~op:"read" in
  Stats.Counter.incr t.counters "index_probes";
  protect_pages (fun () ->
      let ids = Index.expired t.index ~now in
      charge_index_read t (32 + (16 * List.length ids));
      Ok ids)

let expiry_queue_size t = Index.expiry_size t.index

let pd_count t = t.entry_count

let entry_info t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  Ok (e.type_name, e.subject, e.erased)

let export_subject t ~actor subject =
  let** () = guard t ~actor ~op:"export" in
  let** ids = pds_of_subject t ~actor subject in
  (* one descent and one vectored request for the whole subject subtree *)
  let** entries = resolve_entries t ids in
  let** records = load_extents t record_x ~channel:0 entries in
  let items =
    List.filter_map
      (fun (e, (_, r)) ->
        (* an erased pd has no record *)
        Option.map (Record.to_export ~type_name:e.type_name ~pd_id:e.pd_id) r)
      (List.combine entries records)
  in
  Stats.Counter.incr t.counters "exports";
  Ok (ids, "[" ^ String.concat ", " items ^ "]")

let describe_trees t ~actor =
  let** () = guard t ~actor ~op:"read" in
  protect_pages (fun () ->
      let all = collect_entries t in
      let by_id = Hashtbl.create (max 16 (2 * List.length all)) in
      List.iter (fun e -> Hashtbl.replace by_id e.pd_id e) all;
      let buf = Buffer.create 1024 in
      let blocks_str blocks =
        String.concat "," (List.map string_of_int blocks)
      in
      Buffer.add_string buf
        "subject tree (one inode subtree per data subject)\n";
      let subjects =
        List.map
          (fun s -> (s, Index.subject_pds t.index s))
          (Index.subject_list t.index)
      in
      List.iter
        (fun (subject, ids) ->
          if ids <> [] then begin
            Buffer.add_string buf (Printf.sprintf "  %s\n" subject);
            List.iter
              (fun pd_id ->
                match Hashtbl.find_opt by_id pd_id with
                | None -> ()
                | Some e ->
                    Buffer.add_string buf
                      (Printf.sprintf
                         "    %s [%s]%s  record@{%s}  membrane@{%s}\n" pd_id
                         e.type_name
                         (if e.erased then " (erased)" else "")
                         (blocks_str e.record.blocks)
                         (blocks_str e.membrane.blocks)))
              ids
          end)
        subjects;
      Buffer.add_string buf "schema tree (database structure + row lists)\n";
      let tables =
        Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) t.tables []
        |> List.sort compare
      in
      List.iter
        (fun (name, tbl) ->
          let rows = List.filter (fun e -> e.type_name = name) all in
          Buffer.add_string buf
            (Printf.sprintf "  table %s: %d row(s)\n" name (List.length rows));
          List.iter
            (fun f ->
              Buffer.add_string buf
                (Printf.sprintf "    field %s: %s%s\n" f.Schema.fname
                   (Value.ftype_to_string f.Schema.ftype)
                   (if f.Schema.required then "" else " (optional)")))
            tbl.schema.Schema.fields;
          let row_subjects =
            List.map (fun e -> e.subject) rows |> List.sort_uniq compare
          in
          Buffer.add_string buf
            (Printf.sprintf "    subject inodes: %s\n"
               (String.concat ", " row_subjects)))
        tables;
      Buffer.add_string buf
        "format descriptors (record layout used when returning data to the DED)\n";
      List.iter
        (fun (name, tbl) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s: REC1 <%s>\n" name
               (String.concat "|"
                  (List.map (fun f -> f.Schema.fname) tbl.schema.Schema.fields))))
        tables;
      Ok (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* durability & integrity                                             *)

let crash_and_remount t = mount t.dev

(* Merged entry collection that survives damaged metadata: unreadable tree
   pages and device faults become notes instead of exceptions, and the
   entries gathered before the failure are kept. *)
let collect_entries_noted t note =
  let acc = ref [] in
  (try
     iter_entries
       ~on_corrupt:(fun b ->
         if b >= 0 then note (Printf.sprintf "entries tree page %d unreadable or corrupt" b)
         else note "entries tree holds an undecodable entry")
       t
       (fun e -> acc := e :: !acc)
   with Block_device.Faulted b ->
     note (Printf.sprintf "device fault on metadata block %d while scanning entries" b));
  List.rev !acc

(* One entry as the scan found it: each extent's decoded value ([None]
   for an erased record's sealed payload, which is not PD) or its
   damage. *)
type scanned = {
  s_entry : entry;
  s_membrane : (Membrane.t option, damage) result;
  s_record : (Record.t option, damage) result;
}

let damage_reason what = function
  | Unreadable -> what ^ " extent unreadable (device fault)"
  | Mismatch -> what ^ " extent checksum mismatch"
  | Undecodable msg -> what ^ " undecodable (" ^ msg ^ ")"

(* Why an entry cannot be trusted, its membrane first; [None] when both
   extents are sound. *)
let damage s =
  match (s.s_membrane, s.s_record) with
  | Error d, _ -> Some (damage_reason "membrane" d)
  | _, Error d -> Some (damage_reason "record" d)
  | _ -> None

(* The one pass fsck, repair and the reference rebuild share: the
   entries (tree damage reported to [note]), every data page they name
   read once ([check_slots]), each slot checked and decoded once, and an
   index rebuilt from the sound entries' values alone. *)
let scan ?(note = ignore) t =
  let all = collect_entries_noted t note in
  let slots = check_slots t (List.concat_map (fun e -> [ e.membrane; e.record ]) all) in
  let verdict x e =
    match Hashtbl.find slots (x.x_loc e) with
    | Error d -> Error d
    | Ok _ when not (x.x_live e) -> Ok None
    | Ok raw -> (
        match x.x_decode raw with
        | Ok v -> Ok (Some v)
        | Error msg -> Error (Undecodable msg))
  in
  let rebuilt = Index.create () in
  let scanned =
    List.map
      (fun e ->
        let s = { s_entry = e; s_membrane = verdict membrane_x e; s_record = verdict record_x e } in
        (match (s.s_membrane, s.s_record) with
        | Ok m, Ok r ->
            index_entry t rebuilt ~hint:{ no_hint with h_membrane = m; h_record = r } e
        | _ -> ());
        s)
      all
  in
  (scanned, rebuilt)

(* The check: every invariant violation as one message, no mutation,
   with the scan it made, which [fsck_repair] repairs from. *)
let check t =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  let note fmt = Format.kasprintf add fmt in
  let scanned, rebuilt = scan ~note:add t in
  let all = List.map (fun s -> s.s_entry) scanned in
  (* extent integrity + membrane invariant: every entry's extents are
     readable, their checksums match, and the membrane wraps this pd *)
  let damaged = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let e = s.s_entry in
      let pd_id = e.pd_id in
      let extent what = function
        | Error d ->
            Hashtbl.replace damaged pd_id ();
            note "entry %s: %s" pd_id (damage_reason what d)
        | Ok _ -> ()
      in
      extent "membrane" s.s_membrane;
      (match s.s_membrane with
      | Ok (Some m) ->
          if m.Membrane.pd_id <> pd_id then
            note "entry %s: membrane wraps %s" pd_id m.Membrane.pd_id;
          if m.Membrane.type_name <> e.type_name then
            note "entry %s: membrane type %s <> %s" pd_id m.Membrane.type_name
              e.type_name;
          if m.Membrane.subject_id <> e.subject then
            note "entry %s: membrane subject %s <> %s" pd_id
              m.Membrane.subject_id e.subject
      | _ -> ());
      extent "record" s.s_record)
    scanned;
  (* block ownership, zones, leaks and the segment table *)
  List.iter add
    (Space.check t.space
       (List.map
          (fun e ->
            {
              Space.o_pd = e.pd_id;
              o_high = e.high;
              o_record = ext e.record;
              o_membrane = ext e.membrane;
            })
          all));
  (* schema membership + recorded entry count *)
  List.iter
    (fun e ->
      if not (Hashtbl.mem t.tables e.type_name) then
        note "entry %s has type %s with no schema" e.pd_id e.type_name)
    all;
  if List.length all <> t.entry_count then
    note "entry count mismatch: %d entries on device, root records %d"
      (List.length all) t.entry_count;
  (* metadata tree pages must live inside the metadata heap *)
  let heap_lo = heap_start t 0 in
  let heap_hi = heap_start t 0 + (2 * t.heap_cap) in
  (try
     let pages =
       Index.node_pages t.index
       @
       if Pagestore.is_empty t.entries_base then []
       else
         Pagestore.node_blocks
           ~on_corrupt:(fun b ->
             note "entries tree page %d unreadable or corrupt" b)
           (page_io t) t.entries_base
     in
     List.iter
       (fun (b, n) ->
         if b < heap_lo || b + n > heap_hi then
           note "metadata page %d outside the metadata heap" b)
       pages
   with
  | Pagestore.Corrupt_page b -> note "index page %d fails its checksum" b
  | Block_device.Faulted b -> note "device fault on metadata block %d" b);
  (* the secondary indexes, item by item against their rebuild *)
  (try List.iter add (Index.differences t.index ~rebuilt ~skip:(Hashtbl.mem damaged)) with
  | Pagestore.Corrupt_page b -> note "index page %d fails its checksum" b
  | Block_device.Faulted b -> note "device fault on index block %d" b);
  (distinct (List.rev !problems), (scanned, rebuilt))

type repair_report = {
  rr_problems : string list;
  rr_actions : string list;
  rr_quarantined : (string * string) list;
  rr_scrubbed_blocks : int;
  rr_journal_truncated : string option;
  rr_clean : bool;
}

let fsck_repair t =
  let problems, (scanned, rebuilt) = check t in
  let actions = ref [] in
  let act fmt = Format.kasprintf (fun s -> actions := s :: !actions) fmt in
  let device_faults = ref false in
  let zero_block b =
    try
      Space.zero t.space [ b ];
      true
    with Block_device.Faulted _ ->
      device_faults := true;
      false
  in
  let on_fault () = device_faults := true in
  (* 1. quarantine the entries whose payloads the scan could not trust:
     remove them from the trees and report them — repair never invents
     data.  From here on the repair works against the in-memory overlay
     and rebuilds the on-device trees wholesale at the end *)
  let damaged, healthy =
    List.partition_map
      (fun s ->
        match damage s with
        | Some reason -> Left (s.s_entry, reason)
        | None -> Right s.s_entry)
      scanned
  in
  let quarantined =
    List.map
      (fun (e, reason) ->
        (* the extents may hold damaged PD plaintext: they leave the slot
           map below, and the scrub zeroes them *)
        invalidate_caches t e.pd_id;
        act "quarantined %s (%s)" e.pd_id reason;
        (e.pd_id, reason))
      damaged
  in
  (* re-base on the surviving entries alone; the checkpoint below writes
     them back as a fresh tree *)
  Hashtbl.reset t.entries;
  Hashtbl.reset t.deleted;
  List.iter (fun e -> Hashtbl.replace t.entries e.pd_id e) healthy;
  t.entries_base <- Pagestore.empty_root;
  t.entry_count <- List.length healthy;
  (* 2. every secondary index, as the scan rebuilt it from the surviving
     entries *)
  t.index <- rebuilt;
  t.index_roots <- Index.empty_roots;
  act "rebuilt secondary indexes from %d surviving entries"
    (List.length healthy);
  (* 3-4. release allocated pages no surviving entry owns; leave no
     data-page byte outside a surviving slot *)
  let scrubbed =
    Space.repair t.space
      ~owned:(List.concat_map (fun e -> [ ext e.record; ext e.membrane ]) healthy)
      ~on_fault ~act:(act "%s")
  in
  (* 5. truncate the journal at the damage point: checkpoint the repaired
     metadata (making every journal record dead) and scrub the ring *)
  let journal_truncated =
    let damage =
      match (t.replay, t.replay_warning) with
      | _, Some w -> Some ("undecodable record (" ^ w ^ ")")
      | Some { stop_reason; _ }, None when stop_reason <> Journal_ring.Clean ->
          Some (Journal_ring.stop_reason_to_string stop_reason)
      | _ -> None
    in
    (try
       checkpoint t;
       Journal_ring.scrub t.ring
     with Block_device.Faulted _ -> device_faults := true);
    match damage with
    | Some reason ->
        act "journal truncated at its first unusable record (%s)" reason;
        Some reason
    | None -> None
  in
  (* 6. the old trees may still hold index facts on damaged or orphaned
     heap pages the checkpoint did not overwrite: zero every written heap
     block outside the newly written live range, in one request, or block
     by block when that faults, so the count is exact *)
  let stale =
    List.concat_map
      (fun half ->
        List.filter_map
          (fun i ->
            let b = heap_start t half + i in
            let live = half = t.active_half && i < t.heap_used in
            if (not live) && Block_device.is_written t.dev b then Some b else None)
          (List.init t.heap_cap Fun.id))
      [ 0; 1 ]
  in
  let stale_meta =
    try
      Space.zero t.space stale;
      List.length stale
    with Block_device.Faulted _ -> List.length (List.filter zero_block stale)
  in
  if stale_meta > 0 then
    act "scrubbed %d stale metadata heap block(s)" stale_meta;
  t.replay_warning <- None;
  Cache.clear t.cache;
  (* 7. verify; leave degraded mode only on a clean bill of health *)
  let recheck, _ = check t in
  let clean = recheck = [] && not !device_faults in
  if clean then begin
    if t.degraded <> None then act "left degraded read-only mode";
    t.degraded <- None
  end
  else if t.degraded = None then
    t.degraded <-
      Some
        (if !device_faults then "device faults during repair"
         else "fsck still reports problems after repair");
  {
    rr_problems = problems;
    rr_actions = List.rev !actions;
    rr_quarantined = quarantined;
    rr_scrubbed_blocks = scrubbed;
    rr_journal_truncated = journal_truncated;
    rr_clean = clean;
  }

let fsck ?(repair = false) t =
  if not repair then
    match check t with [], _ -> Ok () | ps, _ -> Error ps
  else
    let r = fsck_repair t in
    if r.rr_clean then Ok () else Error (r.rr_problems @ r.rr_actions)

let replay_report t = t.replay

let degraded t = t.degraded

(* ------------------------------------------------------------------ *)
(* cache controls & index introspection (tools, tests)                *)

let set_cache_budget t n =
  let evicted = Cache.set_budget t.cache n in
  if evicted > 0 then
    Stats.Counter.incr t.counters ~by:evicted "cache_evictions"

let cache_resident t = Cache.resident t.cache

let cache_budget t = Cache.budget t.cache

let index_page_blocks t = Index.node_pages t.index

let entry_page_blocks t = Pagestore.node_blocks (page_io t) t.entries_base

let index_dump t = Index.dump t.index

(* The scan's from-scratch rebuild, dumped canonically: the reference
   the crash-consistency tests compare [index_dump] against. *)
let rebuilt_index_dump t = Index.dump (snd (scan t))

let unsafe_tamper_index t pd_id = Index.unsafe_drop_posting t.index ~pd_id

(* ------------------------------------------------------------------ *)
(* group commit & segment controls                                    *)

(* The explicit durability call: flush AND settle. *)
let flush_journal t = Space.flush_journal t.space

let set_group_commit t n =
  (* never reorder across a window change: drain the buffer first *)
  flush_journal t;
  Journal_ring.set_window t.ring n

let segment_table t = Space.segment_table t.space

let stats t = t.counters
