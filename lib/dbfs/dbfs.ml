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

let pp_error fmt = function
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

let error_to_string e = Format.asprintf "%a" pp_error e

(* One extent: its blocks, its payload size and the FNV-64 checksum of the
   payload bytes, verified whenever the extent is read off the device. *)
type loc = { blocks : int list; size : int; sum : string }

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

(* One bounded LRU holds every decoded-object class: raw index/entry node
   pages ("p:<block>"), membranes ("m:<pd>") and records ("r:<pd>").  A
   single entry budget therefore bounds resident memory across all three,
   and they compete under one eviction policy.  The cache bounds host
   memory only — hits charge the identical simulated device cost as
   misses (warm == cold), so eviction is invisible to every stage_ns
   figure and shows up only in the hit/miss/eviction counters. *)
type cached =
  | C_page of string
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
         instead of re-reading; checkpoint settles and drops leftovers
         alongside the page-cache invalidation. *)
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

let protect_write t thunk =
  try thunk ()
  with Block_device.Faulted b ->
    enter_degraded t (Printf.sprintf "unrecoverable device fault on block %d" b)

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

let blocks_needed t len = if len = 0 then 0 else ((len - 1) / block_size t) + 1

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

(* [payload] cut into one block-sized slice per block of its extent *)
let payload_blocks t payload blocks =
  let bs = block_size t in
  List.mapi
    (fun i b ->
      (b, String.sub payload (i * bs) (min bs (String.length payload - (i * bs)))))
    blocks

let write_payload t payload blocks =
  retrying t (fun () ->
      Block_device.write_vec t.dev (payload_blocks t payload blocks))

let read_payload t l =
  let got = retrying t (fun () -> Block_device.read_vec t.dev l.blocks) in
  let buf = Buffer.create l.size in
  List.iter (fun b -> Buffer.add_string buf (List.assoc b got)) l.blocks;
  Buffer.sub buf 0 l.size

let loc_of payload blocks =
  { blocks; size = String.length payload; sum = Fnv.hash64_hex payload }

(* Channels the store's own background traffic queues on: negative so
   they can never collide with consumer-facing channels (DED shards use
   0..n).  [-1] is the journal ring's flush channel. *)
let compact_channel = -2
let prefetch_channel = -3

(* Queued submission of [write_payload]'s vectored op: the bytes persist
   (and any write fault fires) at submit, the clock charge settles when
   the caller awaits the ticket at its durability barrier. *)
let submit_payload_write t payload blocks ~channel =
  retrying t (fun () ->
      Block_device.submit_write_vec t.dev ~channel
        (payload_blocks t payload blocks))

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

(* The [Pagestore.io] DBFS hands to its trees.  Node pages are cached in
   the shared LRU under "p:<first block>".  [read_pages] serves one tree
   level of a descent as one request: every page is counted once, a page
   with a still-pending prefetch settles that ticket (its service is
   already charged), and the rest go in one vectored read.  Cache hits
   stay in that request — it moves bytes only when some page misses, and
   charges the identical cost either way — so warm and cold probes cost
   the same simulated time. *)
let read_pages t pages =
  Stats.Counter.incr t.counters ~by:(List.length pages) "index_page_reads";
  let key first = "p:" ^ string_of_int first in
  let got = Hashtbl.create 16 in
  let keep = List.iter (fun (b, data) -> Hashtbl.replace got b data) in
  (* per page: its cached bytes, if any, and the blocks it still needs
     read — none when a pending prefetch carries them *)
  let served =
    List.map
      (fun (first, n) ->
        let hit =
          match Cache.find t.cache (key first) with
          | Some (C_page raw) ->
              Stats.Counter.incr t.counters "page_hits";
              Some raw
          | _ ->
              Stats.Counter.incr t.counters "page_misses";
              None
        in
        match Hashtbl.find_opt t.page_prefetch first with
        | Some tk ->
            (* the device service has been running since submission, so
               awaiting here only charges what the descent and decode did
               not already hide *)
            Hashtbl.remove t.page_prefetch first;
            keep (Block_device.await t.dev tk);
            (hit, [])
        | None -> (hit, List.init n (fun i -> first + i)))
      pages
  in
  let blocks = List.concat_map snd served in
  if List.exists (fun (hit, bs) -> hit = None && bs <> []) served then
    keep (retrying t (fun () -> Block_device.read_vec t.dev blocks))
  else if blocks <> [] then
    retrying t (fun () -> Block_device.charge_read_vec t.dev blocks);
  List.map2
    (fun (first, n) (hit, _) ->
      match hit with
      | Some raw -> raw
      | None ->
          let raw =
            String.concat "" (List.init n (fun i -> Hashtbl.find got (first + i)))
          in
          cache_put t (key first) (C_page raw);
          raw)
    pages served

let page_io t =
  {
    Pagestore.page_size = block_size t;
    read_pages = read_pages t;
    prefetch_page =
      (fun first n ->
        (* cached or not, so a warm descent overlaps the sibling's service
           exactly as a cold one does; the bytes move because the page may
           be evicted before [read_pages] consumes the ticket.  Speculative,
           so a fault is neither retried nor raised: only a [read_pages]
           that really needs the page meets it *)
        if not (Hashtbl.mem t.page_prefetch first) then
          match
            Block_device.submit_read_vec t.dev ~channel:prefetch_channel
              (List.init n (fun i -> first + i))
          with
          | tk -> Hashtbl.replace t.page_prefetch first tk
          | exception Block_device.Faulted _ -> ());
    write_blocks =
      (fun ws -> retrying t (fun () -> Block_device.write_vec t.dev ws));
    alloc = (fun _ -> failwith "Dbfs: metadata page allocation outside checkpoint");
  }

(* Checkpoint-time io: same read/write path plus a bump allocator over the
   target heap half. *)
let ckpt_io t ~half used =
  let io = page_io t in
  {
    io with
    Pagestore.alloc =
      (fun n ->
        if !used + n > t.heap_cap then failwith "Dbfs: metadata heap overflow";
        let b = heap_start t half + !used in
        used := !used + n;
        b);
  }

(* ------------------------------------------------------------------ *)
(* entry codec (the entries tree's, and a journaled insert's)         *)

let encode_loc w l =
  Codec.Writer.list w (Codec.Writer.int w) l.blocks;
  Codec.Writer.int w l.size;
  Codec.Writer.string w l.sum

let decode_loc r =
  let* blocks = Codec.Reader.list r Codec.Reader.int in
  let* size = Codec.Reader.int r in
  let* sum = Codec.Reader.string r in
  Ok { blocks; size; sum }

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

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
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
      Codec.Writer.string w pd_id);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.create s in
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
   never come here: they hand [apply_op] the entry they resolved. *)
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

type hint = { h_record : Record.t option; h_membrane : Membrane.t option }

let no_hint = { h_record = None; h_membrane = None }

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

(* Best-effort decode (index maintenance, fsck): an extent that cannot be
   read even after retries yields [None] rather than raising — the
   callers treat it the same as an undecodable payload. *)
let decode_at t x e =
  match read_payload t (x.x_loc e) with
  | exception Block_device.Faulted _ -> None
  | raw -> Result.to_option (x.x_decode raw)

let expiry_instant m =
  match m.Membrane.ttl with
  | None -> None
  | Some ttl -> Some (m.Membrane.created_at + ttl)

(* The index facts of [e]'s record and membrane, from the hint when the
   caller has the decoded value, else off the device. *)
let index_record t idx ~hint e =
  let indexed = indexed_fields_of t e.type_name in
  if indexed <> [] then
    let record =
      match hint.h_record with
      | Some r -> Some r
      | None -> decode_at t record_x e
    in
    match record with
    | Some record ->
        Index.add_entry idx ~pd_id:e.pd_id ~type_name:e.type_name ~indexed record
    | None -> ()

let index_membrane t idx ~hint e =
  let membrane =
    match hint.h_membrane with
    | Some m -> Some m
    | None -> decode_at t membrane_x e
  in
  match membrane with
  | Some m -> Index.set_expiry idx ~pd_id:e.pd_id (expiry_instant m)
  | None -> ()

(* Every index fact of one entry: what an insert adds, and what a rebuild
   re-derives.  An erased entry keeps only its subject link. *)
let index_entry t idx ~hint e =
  Index.add_subject idx ~subject:e.subject ~pd_id:e.pd_id;
  if not e.erased then begin
    index_record t idx ~hint e;
    index_membrane t idx ~hint e
  end

(* [freed_acc], passed by mount-time replay, collects every block an op
   frees.  Live mutators zero old blocks AFTER the journal record commits,
   so a crash in that window leaves plaintext on blocks the replayed
   metadata considers free; replay zeroes whichever of them are still free
   once the whole journal is applied.

   [entry] is the entry a live mutator resolved for the op's pd: it goes
   into the overlay as is, with no second lookup.  Replay has none and
   resolves the pd with [touch_entry]. *)
let apply_op ?(hint = no_hint) ?freed_acc ?entry t op =
  let target pd_id =
    match entry with
    | Some e ->
        Hashtbl.replace t.entries pd_id e;
        e
    | None -> touch_entry t pd_id
  in
  let free l =
    Option.iter (fun acc -> acc := List.rev_append l.blocks !acc) freed_acc;
    Space.mark_free t.space ~bytes:l.size l.blocks
  in
  let use l = Space.mark_used t.space ~bytes:l.size l.blocks in
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
      index_entry t t.index ~hint e;
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
          index_record t t.index ~hint entry
      | Membrane ->
          entry.membrane <- loc;
          (* consent flips and TTL changes land here: re-key the expiry
             queue.  An erased pd keeps its membrane (the subject link) but
             must never re-enter the expiry queue — its record is already
             gone. *)
          if entry.erased then Index.clear_expiry t.index ~pd_id
          else index_membrane t t.index ~hint entry
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

(* ------------------------------------------------------------------ *)
(* root slots                                                         *)

(* The root slot is the whole of the mount-time state: tree roots, journal
   position, schemas and a few counters.  Everything population-sized
   (entries, index facts, the bitmap) lives behind the roots and is read
   on demand — which is what makes a clean mount O(1) device reads. *)

let encode_root_payload t ~seq =
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
  Codec.Writer.int w t.active_half;
  Codec.Writer.int w t.heap_used;
  Codec.Writer.int w t.entry_count;
  Pagestore.encode_root w t.entries_base;
  Index.encode_roots w t.index_roots;
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

(* Write the next root: slot alternates with the sequence number, so the
   previous root survives a torn write of this one.  This is the single
   commit point of a checkpoint. *)
let commit_root t =
  let bs = block_size t in
  let seq = t.root_seq + 1 in
  let payload = encode_root_payload t ~seq in
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

     1. bulk-write every tree into the inactive heap half;
     2. serialize the allocation bitmap (when hydrated);
     3. write the next root slot   <- the commit point;
     4. retire the journal prefix;
     5. zero the old heap half;
     6. drop cached node pages of the retired trees.

   The root is journalled (written) only after every node it references
   persists, so a crash at any step leaves either the old root (with the
   old half intact and the journal still replayable) or the new root
   (with the new half complete) — never a root pointing at missing
   pages. *)
let checkpoint t =
  let target = 1 - t.active_half in
  let used = ref 0 in
  let io = ckpt_io t ~half:target used in
  let items = ref [] in
  iter_entries t (fun e ->
      let w = Codec.Writer.create () in
      encode_entry w e;
      items := (e.pd_id, Codec.Writer.contents w) :: !items);
  let entries_root = Pagestore.write_tree io (List.rev !items) in
  let iroots = Index.checkpoint t.index ~io in
  Space.checkpoint t.space;
  let old_half = t.active_half in
  let old_used = t.heap_used in
  t.entries_base <- entries_root;
  t.index_roots <- iroots;
  t.active_half <- target;
  t.heap_used <- !used;
  commit_root t;
  (* durability barrier: settle flush submissions (their bytes are
     already on the medium) before retiring the journal prefix *)
  Journal_ring.barrier t.ring;
  Journal_ring.mark_checkpointed t.ring;
  (* deallocation hygiene: the retired half held index facts (subjects,
     field values) — zero whatever was actually written there *)
  Space.zero t.space
    (List.init old_used (fun i -> heap_start t old_half + i)
    |> List.filter (Block_device.is_written t.dev));
  (* eviction-coherence: cached node pages name heap blocks the next
     checkpoint will reuse — drop them at the generation boundary.  Any
     speculative prefetch still in flight targets the dying generation
     too: settle its charge and forget the ticket. *)
  Hashtbl.iter
    (fun _ tk -> ignore (Block_device.await t.dev tk))
    t.page_prefetch;
  Hashtbl.reset t.page_prefetch;
  Cache.remove_where t.cache (fun k -> String.length k > 2 && k.[0] = 'p');
  Hashtbl.reset t.entries;
  Hashtbl.reset t.deleted

let log_and_apply ?hint ?entry t op =
  retrying t (fun () ->
      Journal_ring.append t.ring
        ~on_overflow:(fun () -> checkpoint t)
        (encode_op op));
  apply_op ?hint ?entry t op

(* ------------------------------------------------------------------ *)
(* space: compaction survivors, placement, retirement                 *)

(* Compaction's survivor move (victim choice and destruction are
   [Space.compact]'s): relocate every surviving extent through the
   ordinary journaled write path, a [J_replace] with identical size and
   checksum — so replay, secondary indexes, caches and the bitmap stay
   coherent with no compaction-specific recovery code.  An extent failing
   its checksum is left in place for fsck rather than propagated. *)
let rec relocate t ~in_victim =
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
  let items =
    List.rev !moves
    |> List.map (fun (e, kind) ->
           let l = extent e kind in
           let raw = read_payload t l in
           charge_checksum t l.size;
           (e, kind, raw, l.sum))
  in
  let relocated = ref 0 in
  (* relocation payload writes are submitted and settled in one batch at
     the end, overlapping their service with the decode and journaling
     compute of later survivors *)
  let wtickets = ref [] in
  List.iter
    (fun (e, kind, raw, sum) ->
      if Fnv.hash64_hex raw <> sum then
        Stats.Counter.incr t.counters "compact_verify_failures"
      else
        match
          Space.alloc t.space (zone e kind)
            (blocks_needed t (String.length raw))
            ~relocate:(relocate t)
        with
        | None -> () (* no room: survivor stays put *)
        | Some blocks ->
            wtickets :=
              submit_payload_write t raw blocks ~channel:compact_channel
              :: !wtickets;
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
            log_and_apply t ~hint ~entry:e
              (J_replace
                 {
                   kind;
                   pd_id = e.pd_id;
                   loc = { blocks; size = String.length raw; sum };
                 });
            incr relocated)
    items;
  Stats.Counter.incr t.counters ~by:!relocated "compact_relocations";
  List.iter (fun tk -> ignore (Block_device.await t.dev tk)) (List.rev !wtickets)

let alloc t zone n = Space.alloc t.space zone n ~relocate:(relocate t)

(* Every mutator's last step, once its journal record has committed:
   destroy or defer the blocks it superseded, as the allocator decides. *)
let retire ?destroy t blocks =
  Space.retire ?destroy t.space blocks ~relocate:(relocate t)

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
  commit_root t;
  t

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
             into degraded read-only mode instead of failing the mount *)
          let freed = ref [] in
          let summary =
            Journal_ring.replay t.ring (fun payload ->
                if t.replay_warning = None then
                  match decode_op payload with
                  | Ok op -> (
                      try apply_op t ~freed_acc:freed op with
                      | Failure m -> t.replay_warning <- Some m
                      | Not_found ->
                          t.replay_warning <-
                            Some "journal op references an unknown pd")
                  | Error e ->
                      t.replay_warning <- Some ("corrupt journal op: " ^ e))
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
        log_and_apply t (J_create_type (Schema.encode schema));
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

let entry_blocks t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  Ok (e.record.blocks, e.membrane.blocks)

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
          (* enforcement rule 3: the membrane must wrap THIS pd *)
          if membrane.Membrane.pd_id <> pd_id then
            Error (Membrane_mismatch "membrane wraps a different pd_id")
          else if membrane.Membrane.type_name <> type_name then
            Error (Membrane_mismatch "membrane declares a different type")
          else if membrane.Membrane.subject_id <> subject then
            Error (Membrane_mismatch "membrane names a different subject")
          else
            let high = membrane.Membrane.sensitivity = Membrane.High in
            let record_bytes = Record.encode record in
            let membrane_bytes = Membrane.encode membrane in
            let rn = blocks_needed t (String.length record_bytes) in
            let mn = blocks_needed t (String.length membrane_bytes) in
            match alloc t (Space.Z_record high) rn with
            | None -> Error No_space
            | Some record_blocks -> (
                match alloc t Space.Z_membrane mn with
                | None ->
                    Space.mark_free t.space record_blocks;
                    Error No_space
                | Some membrane_blocks ->
                    protect_write t (fun () ->
                        (* ordered mode: data in place first, then journal *)
                        write_payload t record_bytes record_blocks;
                        write_payload t membrane_bytes membrane_blocks;
                        t.next_pd <- t.next_pd + 1;
                        log_and_apply t
                          ~hint:
                            { h_record = Some record; h_membrane = Some membrane }
                          (J_insert
                             {
                               pd_id;
                               type_name;
                               subject;
                               high;
                               record = loc_of record_bytes record_blocks;
                               membrane = loc_of membrane_bytes membrane_blocks;
                               erased = false;
                             });
                        Stats.Counter.incr t.counters "inserts";
                        (* write-through: the values just validated and
                           encoded are exactly what a read would decode *)
                        cache_put_membrane t pd_id membrane;
                        cache_put_record t pd_id record;
                        retire t [];
                        Ok pd_id))))

(* Verify an extent's checksum against the raw bytes just read. *)
let verify_sum ~what ~pd_id ~stored raw =
  if Fnv.hash64_hex raw <> stored then
    Error (Corrupt (what ^ " of " ^ pd_id ^ ": extent checksum mismatch"))
  else Ok raw

(* ---------- extent loads (one path for batches and point reads) ----------

   A batch of [queue_depth] vectored device requests covers every pd in
   the selection, so the fixed seek latency is paid once per contiguous
   run of each request rather than once per pd; a point read is a batch
   of one.  Cost transparency is preserved: cached entries' blocks stay
   in the request (only the host-side decode is skipped), so a warm cache
   changes no stage_ns figure. *)

(* A whole batch resolved in one descent; any failing pd (the first, in
   input order) fails the batch. *)
let resolve_entries t pd_ids =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok e :: rest -> go (e :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] (resolve t pd_ids)

let assemble h blocks size =
  let buf = Buffer.create size in
  List.iter (fun b -> Buffer.add_string buf (Hashtbl.find h b)) blocks;
  Buffer.sub buf 0 size

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

(* Pipelined batch load: split the entry batch into [queue_depth]
   chunks, submit every chunk's vectored read up-front on [channel], then
   settle chunk k only when its entries decode — the checksum/decode
   compute of chunk k overlaps the in-flight service of chunks k+1..  At
   depth 1 this is one request settled before any decode: exactly a
   blocking [read_vec] (or [charge_read_vec] when every entry is cached).
   Chunking depends only on the entry list, and cache-hit batches submit
   through the charge-only variant with the identical chunk shape, so
   warm==cold holds at every depth.  [blocks_of] names each entry's
   extent; [decode] folds one chunk's entries against its block table. *)
let pipelined_read t ~channel ~any_miss ~blocks_of ~decode entries =
  let depth = (Block_device.config t.dev).Block_device.queue_depth in
  let submitted =
    List.map
      (fun ch ->
        let blocks = List.concat_map blocks_of ch in
        let tk =
          retrying t (fun () ->
              if any_miss then Block_device.submit_read_vec t.dev ~channel blocks
              else Block_device.submit_charge_read_vec t.dev ~channel blocks)
        in
        (ch, tk))
      (chunk_entries entries depth)
  in
  let rec settle acc = function
    | [] -> Ok (List.rev acc)
    | (ch, tk) :: rest ->
        let got = Block_device.await t.dev tk in
        let h = Hashtbl.create (max 16 (2 * List.length got)) in
        List.iter (fun (i, s) -> Hashtbl.replace h i s) got;
        let** acc = decode h acc ch in
        settle acc rest
  in
  settle [] submitted

(* The shared load of one extent kind: counter, checksum charge, cache
   probe, then on a miss assemble, verify and decode, and cache the
   result.  Entries whose extent is not live yield [None] and are
   neither read nor charged. *)
let load_extents t x ~channel entries =
  let live = List.filter x.x_live entries in
  let any_miss =
    List.exists (fun e -> not (Cache.mem t.cache (x.x_key ^ e.pd_id))) live
  in
  let decode h acc entries =
    let rec go acc = function
      | [] -> Ok acc
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
                verify_sum ~what:x.x_name ~pd_id:e.pd_id ~stored:l.sum
                  (assemble h l.blocks l.size)
              in
              match x.x_decode raw with
              | Ok v ->
                  cache_put t (x.x_key ^ e.pd_id) (x.x_cache v);
                  go ((e.pd_id, Some v) :: acc) rest
              | Error msg ->
                  Error (Corrupt (x.x_name ^ " of " ^ e.pd_id ^ ": " ^ msg))))
    in
    go acc entries
  in
  protect_read (fun () ->
      pipelined_read t ~channel ~any_miss
        ~blocks_of:(fun e -> if x.x_live e then (x.x_loc e).blocks else [])
        ~decode entries)

let get_membranes t ~actor ?(channel = 0) pd_ids =
  let** () = guard t ~actor ~op:"read" in
  let** entries = resolve_entries t pd_ids in
  let** got = load_extents t membrane_x ~channel entries in
  Ok (List.map (fun (pd_id, m) -> (pd_id, Option.get m)) got)

(* Erased pds yield [None] (their sealed payload is not PD and is not
   read), matching the DED's skip-erased semantics without forcing every
   caller to pre-filter the selection. *)
let get_records t ~actor ?(channel = 0) pd_ids =
  let** () = guard t ~actor ~op:"read" in
  let** entries = resolve_entries t pd_ids in
  load_extents t record_x ~channel entries

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

(* The one extent write behind record updates, membrane updates and
   erasure: place [payload] in [kind]'s zone, write it, log [J_replace],
   then retire the superseded blocks.  For [Sealed] the retirement is
   erasure's destruction duty: no plaintext of the old record may remain
   anywhere. *)
let replace_extent t e kind ~hint payload =
  let old = extent e kind in
  (* [e] enters the overlay before [alloc]: a compaction that allocation
     triggers then relocates this very entry object, so [e] is current
     when its own op applies *)
  Hashtbl.replace t.entries e.pd_id e;
  match alloc t (zone e kind) (blocks_needed t (String.length payload)) with
  | None -> Error No_space
  | Some blocks ->
      protect_write t (fun () ->
          write_payload t payload blocks;
          log_and_apply ~hint ~entry:e t
            (J_replace { kind; pd_id = e.pd_id; loc = loc_of payload blocks });
          retire ~destroy:(kind = Sealed) t old.blocks;
          Ok ())

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
            let** () =
              replace_extent t e Record
                ~hint:{ no_hint with h_record = Some record }
                (Record.encode record)
            in
            Stats.Counter.incr t.counters "record_updates";
            Ok ())

(* The membrane invariant on a replacement: it must keep the entry's
   identity. *)
let rewrite_membrane t e membrane =
  if membrane.Membrane.pd_id <> e.pd_id then
    Error (Membrane_mismatch "membrane wraps a different pd_id")
  else if membrane.Membrane.type_name <> e.type_name then
    Error (Membrane_mismatch "membrane declares a different type")
  else if membrane.Membrane.subject_id <> e.subject then
    Error (Membrane_mismatch "membrane names a different subject")
  else
    let** () =
      replace_extent t e Membrane
        ~hint:{ no_hint with h_membrane = Some membrane }
        (Membrane.encode membrane)
    in
    Stats.Counter.incr t.counters "membrane_updates";
    Ok ()

let update_membrane t ~actor pd_id membrane =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  rewrite_membrane t e membrane

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

let delete t ~actor pd_id =
  let** () = guard t ~actor ~op:"delete" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  let blocks = e.record.blocks @ e.membrane.blocks in
  protect_write t (fun () ->
      log_and_apply ~entry:e t (J_delete pd_id);
      (* physical destruction after the metadata commit *)
      retire ~destroy:true t blocks;
      Stats.Counter.incr t.counters "deletes";
      Ok ())

(* With [withdraw], erasure first rewrites the membrane (the DED's
   crypto-erase withdraws every consent) — on the same resolved entry, so
   the whole erasure descends the entries tree once. *)
let erase_with t ~actor ?withdraw pd_id ~seal =
  let** () = guard t ~actor ~op:"erase" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if e.erased then Error (Erased pd_id)
  else
    let** () =
      match withdraw with
      | None -> Ok ()
      | Some f ->
          let** m = load_one t membrane_x e in
          rewrite_membrane t e (f m)
    in
    let** record = load_one t record_x e in
    let** () = replace_extent t e Sealed ~hint:no_hint (seal record) in
    Stats.Counter.incr t.counters "erasures";
    Ok ()

let erased_payload t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  if not e.erased then Error (Invalid_record (pd_id ^ " is not erased"))
  else
    protect_read (fun () ->
        let raw = read_payload t e.record in
        charge_checksum t e.record.size;
        verify_sum ~what:"sealed payload" ~pd_id ~stored:e.record.sum raw)

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
   pages charge their own vectored node reads through [page_io] whether
   cached or not, and overlay facts charge a synthetic metadata read of
   their byte footprint — the in-memory acceleration is host-side only
   and never changes a simulated figure. *)

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

(* fsck's integrity verdict on one extent of [e]: readable (an
   exhausted-retries device fault must not stop the scan), checksum
   clean and, when live, decodable — [Ok (Some v)] with the decoded
   value, [Ok None] for a sound extent that is not live. *)
let check_extent t x e =
  match read_payload t (x.x_loc e) with
  | exception Block_device.Faulted _ -> Error `Unreadable
  | raw when Fnv.hash64_hex raw <> (x.x_loc e).sum -> Error `Mismatch
  | _ when not (x.x_live e) -> Ok None
  | raw -> (
      match x.x_decode raw with
      | Ok v -> Ok (Some v)
      | Error msg -> Error (`Undecodable msg))

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

(* The check pass: every invariant violation as a message, no mutation.
   [fsck ?repair] wraps this. *)
let fsck_check t =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let all = collect_entries_noted t (fun s -> problems := s :: !problems) in
  let entries_h = Hashtbl.create (max 16 (2 * List.length all)) in
  List.iter (fun e -> Hashtbl.replace entries_h e.pd_id e) all;
  (* extent integrity + membrane invariant: every entry's extents are
     readable, their checksums match, and the membrane wraps this pd *)
  let damage pd_id what = function
    | `Unreadable -> note "entry %s: %s extent unreadable (device fault)" pd_id what
    | `Mismatch -> note "entry %s: %s extent checksum mismatch" pd_id what
    | `Undecodable msg -> note "entry %s: undecodable %s (%s)" pd_id what msg
  in
  List.iter
    (fun e ->
      let pd_id = e.pd_id in
      (match check_extent t membrane_x e with
      | Error d -> damage pd_id "membrane" d
      | Ok None -> ()
      | Ok (Some m) ->
          if m.Membrane.pd_id <> pd_id then
            note "entry %s: membrane wraps %s" pd_id m.Membrane.pd_id;
          if m.Membrane.type_name <> e.type_name then
            note "entry %s: membrane type %s <> %s" pd_id m.Membrane.type_name
              e.type_name;
          if m.Membrane.subject_id <> e.subject then
            note "entry %s: membrane subject %s <> %s" pd_id
              m.Membrane.subject_id e.subject);
      match check_extent t record_x e with
      | Error d -> damage pd_id "record" d
      | Ok _ -> ())
    all;
  (* block ownership, zones, leaks and the segment table *)
  List.iter
    (fun p -> problems := p :: !problems)
    (Space.check t.space
       (List.map
          (fun e ->
            {
              Space.o_pd = e.pd_id;
              o_high = e.high;
              o_record = e.record.blocks;
              o_membrane = e.membrane.blocks;
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
  (* secondary indexes <-> entries, both directions *)
  (try
     Index.fold_pd_keys t.index
       (fun pd_id (type_name, kvs) () ->
         match Hashtbl.find_opt entries_h pd_id with
         | None -> note "index keys unknown pd %s" pd_id
         | Some e ->
             if e.erased then note "index keys erased pd %s" pd_id;
             if e.type_name <> type_name then
               note "index keys pd %s under type %s (entry says %s)" pd_id
                 type_name e.type_name;
             (* every claimed key must be posted, and must match the record *)
             let record = decode_at t record_x e in
             List.iter
               (fun (field, v) ->
                 if
                   not
                     (List.mem pd_id
                        (Index.eq_postings t.index ~type_name ~field v))
                 then
                   note "index: pd %s missing from posting list of %s.%s" pd_id
                     type_name field;
                 match record with
                 | None -> note "index: pd %s record undecodable" pd_id
                 | Some r -> (
                     match List.assoc_opt field r with
                     | Some v' when Value.equal v v' -> ()
                     | _ ->
                         note "index: stale key %s.%s for pd %s" type_name field
                           pd_id))
               kvs)
       ();
     List.iter
       (fun e ->
         let pd_id = e.pd_id in
         (* live pd of an indexed type must be keyed *)
         (if not e.erased then
            let indexed = indexed_fields_of t e.type_name in
            if indexed <> [] && Index.pd_key t.index pd_id = None then
              note "index: live pd %s of indexed type %s has no keys" pd_id
                e.type_name);
         (* subject index must link every pd (erased included) *)
         if not (List.mem pd_id (Index.subject_pds t.index e.subject)) then
           note "index: pd %s missing from subject %s" pd_id e.subject;
         (* expiry queue agrees with the membrane *)
         let expected =
           if e.erased then None
           else
             match decode_at t membrane_x e with
             | None -> None
             | Some m -> expiry_instant m
         in
         match (expected, Index.expiry_of t.index pd_id) with
         | None, Some ns ->
             note "index: pd %s spuriously queued to expire at %d" pd_id ns
         | Some ns, None ->
             note "index: pd %s missing from expiry queue (due %d)" pd_id ns
         | Some a, Some b when a <> b ->
             note "index: pd %s queued at %d, membrane says %d" pd_id b a
         | _ -> ())
       all
   with
  | Pagestore.Corrupt_page b -> note "index page %d fails its checksum" b
  | Block_device.Faulted b -> note "device fault on index block %d" b);
  List.rev !problems

(* From-scratch index rebuild over the (surviving) entries — the repair
   path swaps this in wholesale, which heals any in-memory or persisted
   index damage in one move. *)
let rebuild_index t =
  let idx = Index.create () in
  iter_entries t (index_entry t idx ~hint:no_hint);
  idx

type repair_report = {
  rr_problems : string list;
  rr_actions : string list;
  rr_quarantined : (string * string) list;
  rr_scrubbed_blocks : int;
  rr_journal_truncated : string option;
  rr_clean : bool;
}

(* An entry is unrecoverable when either extent is unreadable, fails its
   checksum, or no longer decodes.  [None] means the entry is healthy. *)
let entry_damage t e =
  let reason what = function
    | `Unreadable -> Some (what ^ " extent unreadable")
    | `Mismatch -> Some (what ^ " extent checksum mismatch")
    | `Undecodable _ -> Some (what ^ " undecodable")
  in
  match check_extent t membrane_x e with
  | Error d -> reason "membrane" d
  | Ok _ -> (
      match check_extent t record_x e with
      | Error d -> reason "record" d
      | Ok _ -> None)

let fsck_repair t =
  let problems = fsck_check t in
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
  (* 0. pull every recoverable entry out of the (possibly damaged) paged
     tree: from here on the repair works against the in-memory overlay
     and rebuilds the on-device trees wholesale at the end *)
  let survivors = collect_entries_noted t (fun s -> act "%s" s) in
  (* 1. quarantine entries whose payloads cannot be trusted: remove them
     from the trees and report them — repair never invents data *)
  let damaged, healthy =
    List.partition_map
      (fun e ->
        match entry_damage t e with
        | Some reason -> Left (e, reason)
        | None -> Right e)
      survivors
  in
  let damaged =
    List.sort (fun (a, _) (b, _) -> compare a.pd_id b.pd_id) damaged
  in
  let quarantined =
    List.map
      (fun (e, reason) ->
        invalidate_caches t e.pd_id;
        (* the extents may hold damaged PD plaintext: zero best-effort,
           then release the blocks *)
        List.iter
          (fun b -> ignore (zero_block b))
          (e.record.blocks @ e.membrane.blocks);
        Space.mark_free t.space e.record.blocks;
        Space.mark_free t.space e.membrane.blocks;
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
  (* 2. rebuild every secondary index from the surviving records *)
  t.index <- rebuild_index t;
  t.index_roots <- Index.empty_roots;
  act "rebuilt secondary indexes from %d surviving entries"
    (List.length healthy);
  (* 3-4. release allocated blocks no surviving entry owns; scrub free
     space *)
  let scrubbed =
    Space.repair t.space
      ~owned:(List.concat_map (fun e -> e.record.blocks @ e.membrane.blocks) healthy)
      ~zero_block ~act:(act "%s")
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
        act "journal truncated at first bad frame (%s)" reason;
        Some reason
    | None -> None
  in
  (* 6. the old trees may still hold index facts on damaged or orphaned
     heap pages the checkpoint did not overwrite: zero every written heap
     block outside the newly written live range *)
  let stale_meta = ref 0 in
  for half = 0 to 1 do
    for i = 0 to t.heap_cap - 1 do
      let b = heap_start t half + i in
      let live = half = t.active_half && i < t.heap_used in
      if (not live) && Block_device.is_written t.dev b then
        if zero_block b then incr stale_meta
    done
  done;
  if !stale_meta > 0 then
    act "scrubbed %d stale metadata heap block(s)" !stale_meta;
  t.replay_warning <- None;
  Cache.clear t.cache;
  (* 7. verify; leave degraded mode only on a clean bill of health *)
  let recheck = fsck_check t in
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
    match fsck_check t with [] -> Ok () | ps -> Error ps
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

(* From-scratch reference rebuild: re-derive every index fact from the
   live entries and their on-device payloads, dump canonically.  The
   crash-consistency tests compare this against [index_dump] after a
   remount. *)
let rebuilt_index_dump t = Index.dump (rebuild_index t)

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
