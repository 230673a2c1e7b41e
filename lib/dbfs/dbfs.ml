module Block_device = Rgpdos_block.Block_device
module Journal_ring = Rgpdos_block.Journal_ring
module Clock = Rgpdos_util.Clock
module Codec = Rgpdos_util.Codec
module Fnv = Rgpdos_util.Fnv
module Pool = Rgpdos_util.Pool
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

(* A PD entry: the pair of inodes (record + membrane) in the subject tree.
   [record_sum]/[membrane_sum] are FNV-64 checksums of the extent payload
   bytes (for an erased entry, of the sealed envelope), verified whenever
   the extent is read off the device. *)
type entry = {
  pd_id : string;
  type_name : string;
  subject : string;
  high : bool; (* allocated in the sensitive region *)
  mutable record_blocks : int list;
  mutable record_size : int;
  mutable record_sum : string;
  mutable membrane_blocks : int list;
  mutable membrane_size : int;
  mutable membrane_sum : string;
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

(* The data-region allocation bitmap is hydrated on demand: a clean mount
   does not read it (keeping mount O(1)); the first allocation, free or
   fsck pulls it off the device.  [bm_present = false] means the store
   has never checkpointed a bitmap — every data block is free. *)
type free_state =
  | F_unloaded
  | F_loaded of bool array

type t = {
  dev : Block_device.t;
  ring : Journal_ring.t;
  journal_blocks : int;
  meta_start : int;
  meta_blocks : int;
  bitmap_blocks : int; (* capacity of the bitmap region *)
  heap_cap : int; (* blocks per metadata heap half *)
  data_start : int;
  high_start : int; (* first block of the sensitive region *)
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
  mutable free_state : free_state;
  mutable bm_present : bool;
  mutable bm_bytes : int;
  hints : int array;
      (* per-zone allocation cursors, in free-array coordinates: every
         slot below [hints.(z)] inside zone [z] is allocated.  Keeps
         first-fit amortized O(1) over append-heavy workloads while
         returning bit-identical placements (frees move the hint back). *)
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
         keyed by first block.  [read_page] consumes a pending ticket
         instead of re-reading; checkpoint settles and drops leftovers
         alongside the page-cache invalidation. *)
  (* log-structured mode: payload extents bump-allocate inside per-zone
     segments; superseded blocks stay dirty until a purge or compaction
     destroys them (see segstore.ml).  [None] = classic update-in-place
     first-fit, kept on the same build for A/B comparison. *)
  segmented : bool;
  seg_blocks : int;
  segstore : Segstore.t option;
  mutable compacting : bool; (* reentrancy guard for the compactor *)
  mutable pool : Pool.t option; (* optional checksum-verify fan-out *)
}

let superblock_magic = "RGPDBFS1"
let root_magic = "RGPDROOT"
let meta_blocks_default = 128
let root_slot_blocks = 8
let default_cache_budget = 65536
let default_seg_blocks = 64

(* Compaction / backpressure policy (segmented mode only).  All figures
   are deterministic: the stall is simulated-clock time charged to the op
   that rode over the threshold, not host sleep. *)
let compact_liveness_pct = 35.0
let compact_batch = 8
let dirty_trigger_pct = 10 (* dirty blocks as % of data region: compact *)
let backpressure_pct = 25 (* dirty still above this after compacting: stall *)
let backpressure_stall_ns = 200_000

(* Forward references, wired once the compactor is defined below:
   [maintain] runs at the end of every mutator (space-driven compaction +
   backpressure); [space_reclaim] is the allocator's compact-and-retry
   hook.  Both are no-ops until wired and in update-in-place mode. *)
let maintain : (t -> unit) ref = ref (fun _ -> ())
let space_reclaim : (t -> unit) ref = ref (fun _ -> ())

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

let retry_limit = 3

let retry_backoff_ns = 50_000 (* 50us, doubling per attempt *)

let retrying t f =
  let rec go attempt =
    try f ()
    with Block_device.Faulted _ when attempt < retry_limit ->
      Stats.Counter.incr t.counters "fault_retries";
      Clock.advance (Block_device.clock t.dev) (retry_backoff_ns lsl attempt);
      go (attempt + 1)
  in
  go 0

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

let total_blocks t = (Block_device.config t.dev).Block_device.block_count

let blocks_needed t len = if len = 0 then 0 else ((len - 1) / block_size t) + 1

(* Data-region layout (unchanged since the zoned-allocation PR):

   [data_start, rec_start)   membrane zone (one per entry, any sensitivity)
   [rec_start,  high_start)  ordinary records
   [high_start, block_count) High-sensitivity records (stored apart, §3(1)) *)
let compute_rec_start ~data_start ~block_count =
  data_start + ((block_count - data_start) / 4)

let compute_high_start ~data_start ~block_count =
  let rec_start = compute_rec_start ~data_start ~block_count in
  rec_start + ((block_count - rec_start) * 3 / 4)

let rec_start t =
  compute_rec_start ~data_start:t.data_start ~block_count:(total_blocks t)

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
let bitmap_start t = t.meta_start + (2 * root_slot_blocks)

let heap_start t half =
  t.meta_start + (2 * root_slot_blocks) + t.bitmap_blocks + (half * t.heap_cap)

(* ------------------------------------------------------------------ *)
(* free map (lazy-hydrated allocation bitmap)                         *)

let free_map t =
  match t.free_state with
  | F_loaded a -> a
  | F_unloaded ->
      let n = total_blocks t - t.data_start in
      let a =
        if not t.bm_present then Array.make n true
        else begin
          let bs = block_size t in
          let nblocks = ((t.bm_bytes - 1) / bs) + 1 in
          let blocks = List.init nblocks (fun i -> bitmap_start t + i) in
          let got = retrying t (fun () -> Block_device.read_vec t.dev blocks) in
          let buf = Buffer.create (nblocks * bs) in
          List.iter (fun b -> Buffer.add_string buf (List.assoc b got)) blocks;
          let raw = Buffer.contents buf in
          Array.init n (fun i ->
              Char.code raw.[i lsr 3] land (1 lsl (i land 7)) <> 0)
        end
      in
      t.free_state <- F_loaded a;
      a

type zone = Z_membrane | Z_record of bool (* high? *)

let zone_idx = function
  | Z_membrane -> 0
  | Z_record false -> 1
  | Z_record true -> 2

(* Zone bounds in free-array coordinates (offset by data_start). *)
let zone_bounds t = function
  | Z_membrane -> (0, rec_start t - t.data_start)
  | Z_record false -> (rec_start t - t.data_start, t.high_start - t.data_start)
  | Z_record true -> (t.high_start - t.data_start, total_blocks t - t.data_start)

let zone_of_slot t i =
  if i < rec_start t - t.data_start then 0
  else if i < t.high_start - t.data_start then 1
  else 2

(* Rebuild the segment live table from the bitmap on first use after a
   mount (or an [Segstore.invalidate]).  Forcing [free_map] here is fine:
   callers only reach this once they are about to allocate or free. *)
let ensure_seg_hydrated t =
  match t.segstore with
  | Some ss when not (Segstore.hydrated ss) ->
      let free = free_map t in
      Segstore.hydrate ss
        ~is_free:(fun b -> free.(b - t.data_start))
        ~is_written:(fun b -> Block_device.is_written t.dev b)
  | _ -> ()

(* Bitmap transitions are idempotent (a no-op when the bit already holds
   the target value) so the segment live table can hang off them as pure
   write-through: replayed journal ops and live ops drive it through the
   exact same two functions.  [bytes], when known, is the payload size of
   the whole extent, attributed per block in extent order. *)
let extent_byte_at t ~bytes ~idx =
  match bytes with
  | None -> block_size t
  | Some total -> max 0 (min (block_size t) (total - (idx * block_size t)))

let mark_used ?bytes t blocks =
  let free = free_map t in
  ensure_seg_hydrated t;
  List.iteri
    (fun idx b ->
      let i = b - t.data_start in
      if free.(i) then begin
        free.(i) <- false;
        match t.segstore with
        | Some ss ->
            Segstore.note_alloc ss b ~bytes:(extent_byte_at t ~bytes ~idx)
        | None -> ()
      end)
    blocks

let mark_free ?bytes t blocks =
  let free = free_map t in
  ensure_seg_hydrated t;
  List.iteri
    (fun idx b ->
      let i = b - t.data_start in
      if not free.(i) then begin
        free.(i) <- true;
        let z = zone_of_slot t i in
        if i < t.hints.(z) then t.hints.(z) <- i;
        match t.segstore with
        | Some ss ->
            Segstore.note_free ss b
              ~bytes:(extent_byte_at t ~bytes ~idx)
              ~written:(Block_device.is_written t.dev b)
        | None -> ()
      end)
    blocks

(* Extent allocation: contiguous first-fit, falling back to scattered
   per-block first-fit when the zone is too fragmented to hold a single
   run.  Either way, failure rolls back every block taken.  The per-zone
   hint (every slot below it is allocated) lets the scan skip the densely
   packed prefix without changing which blocks first-fit would pick. *)
(* Segmented placement: bump-allocate at the zone's open segment.  The
   bitmap bits are NOT set here — they are set by [apply_op]'s
   [mark_used] once the op is journaled, so replay accounts identically.
   The bump pointer alone prevents double placement in the window
   between.  On exhaustion, compact once (wired below) and retry. *)
let alloc_seg t zone n =
  let ss = Option.get t.segstore in
  ensure_seg_hydrated t;
  let cls = zone_idx zone in
  match Segstore.alloc ss ~cls n with
  | Some blocks -> Some blocks
  | None ->
      !space_reclaim t;
      Segstore.alloc ss ~cls n

let alloc_zone t zone n =
  if n = 0 then Some []
  else if t.segmented then alloc_seg t zone n
  else begin
    let free = free_map t in
    let lo, hi = zone_bounds t zone in
    let z = zone_idx zone in
    let start_at = max lo t.hints.(z) in
    let result = ref None in
    let start = ref (-1) in
    let first_free = ref (-1) in
    let i = ref start_at in
    while !result = None && !i < hi do
      if free.(!i) then begin
        if !first_free < 0 then first_free := !i;
        if !start < 0 then start := !i;
        if !i - !start + 1 >= n then result := Some !start
      end
      else start := -1;
      incr i
    done;
    match !result with
    | Some s ->
        for j = s to s + n - 1 do
          free.(j) <- false
        done;
        (* the scan proved [start_at, first_free) is full; if the run began
           there too, everything below s + n is now allocated *)
        t.hints.(z) <- (if !first_free = s then s + n else !first_free);
        Some (List.init n (fun j -> t.data_start + s + j))
    | None ->
        let out = ref [] in
        let found = ref 0 in
        let j = ref start_at in
        while !found < n && !j < hi do
          if free.(!j) then begin
            free.(!j) <- false;
            out := (t.data_start + !j) :: !out;
            incr found
          end;
          incr j
        done;
        if !found < n then begin
          List.iter (fun b -> free.(b - t.data_start) <- true) !out;
          None
        end
        else begin
          (* every free slot below !j was just consumed *)
          t.hints.(z) <- !j;
          Some (List.rev !out)
        end
  end

let alloc_record_blocks t ~high n = alloc_zone t (Z_record high) n

let alloc_membrane_blocks t n = alloc_zone t Z_membrane n

(* Forensic zeroing: one vectored write of zero blocks over [blocks]
   (none for an empty list). *)
let zero_blocks t blocks =
  let zeros = String.make (block_size t) '\000' in
  retrying t (fun () ->
      Block_device.write_vec t.dev (List.map (fun b -> (b, zeros)) blocks))

let zero_and_free t blocks =
  zero_blocks t blocks;
  mark_free t blocks

(* Reclaim a sealed segment with no live block left: trim whatever is
   still written — one discard command per segment, zero bytes moved —
   forget its dirty blocks and hand it back to the allocator. *)
let reclaim_dead_segment t ss g =
  let n = ref 0 in
  for b = g.Segstore.g_first to g.Segstore.g_first + g.Segstore.g_nblocks - 1 do
    if Block_device.is_written t.dev b then begin
      incr n;
      Block_device.trim t.dev b
    end
  done;
  if !n > 0 then begin
    Clock.advance (Block_device.clock t.dev)
      (Block_device.config t.dev).Block_device.write_latency;
    Stats.Counter.incr t.counters "segment_trims"
  end;
  Segstore.clear_dirty ss (Segstore.dirty_in ss g);
  Segstore.reclaim ss g;
  Stats.Counter.incr t.counters "segments_reclaimed"

(* Destroy every dirty (freed-but-unpurged) block on the store.  A fully
   dead sealed segment is reclaimed with per-block trims — the simulated
   erase-block discard: one command latency, zero bytes written, which is
   exactly the write-amplification win update-in-place cannot have (its
   scattered extents always share erase blocks with live neighbours).
   Segments still holding live data get their dead blocks forensically
   zeroed in one vectored write.

   Ordering rule (flush-before-destroy): the ring is flushed first so no
   buffered journal record can be rolled back by a crash while the blocks
   it references are already destroyed. *)
let purge_dirty t =
  match t.segstore with
  | None -> ()
  | Some ss ->
      ensure_seg_hydrated t;
      if Segstore.dirty_blocks ss > 0 then begin
        retrying t (fun () -> Journal_ring.flush t.ring);
        (* flush-before-destroy is a durability point: settle the flush
           before any referenced block is trimmed or zeroed *)
        Journal_ring.barrier t.ring;
        Segstore.iter_segs ss (fun g ->
            match g.Segstore.g_state with
            | Segstore.S_sealed when g.Segstore.g_live = 0 ->
                reclaim_dead_segment t ss g
            | _ -> ());
        (* whatever is still pending lives in segments that keep live
           data: forensically zero exactly those blocks, once each *)
        match Segstore.take_dirty ss with
        | [] -> ()
        | dl ->
            zero_blocks t dl;
            Stats.Counter.incr t.counters ~by:(List.length dl)
              "purge_zeroed_blocks"
      end

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

let read_payload t blocks size =
  let got = retrying t (fun () -> Block_device.read_vec t.dev blocks) in
  let buf = Buffer.create size in
  List.iter (fun b -> Buffer.add_string buf (List.assoc b got)) blocks;
  Buffer.sub buf 0 size

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

let cache_find_membrane t pd_id =
  match Cache.find t.cache ("m:" ^ pd_id) with
  | Some (C_membrane m) -> Some m
  | _ -> None

let cache_find_record t pd_id =
  match Cache.find t.cache ("r:" ^ pd_id) with
  | Some (C_record r) -> Some r
  | _ -> None

let cache_mem_membrane t pd_id = Cache.mem t.cache ("m:" ^ pd_id)
let cache_mem_record t pd_id = Cache.mem t.cache ("r:" ^ pd_id)
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
   the shared LRU under "p:<first block>"; a hit skips the host-side
   device read but charges the identical vectored-read cost, so warm and
   cold probes cost the same simulated time. *)
let page_io t =
  {
    Pagestore.page_size = block_size t;
    read_page =
      (fun first n ->
        Stats.Counter.incr t.counters "index_page_reads";
        let blocks = List.init n (fun i -> first + i) in
        let key = "p:" ^ string_of_int first in
        let assemble got =
          let buf = Buffer.create (n * block_size t) in
          List.iter (fun b -> Buffer.add_string buf (List.assoc b got)) blocks;
          let raw = Buffer.contents buf in
          cache_put t key (C_page raw);
          raw
        in
        match Cache.find t.cache key with
        | Some (C_page raw) ->
            Stats.Counter.incr t.counters "page_hits";
            (* a still-pending prefetch of this page has already charged
               its service; settle it rather than double-charging *)
            (match Hashtbl.find_opt t.page_prefetch first with
            | Some tk ->
                Hashtbl.remove t.page_prefetch first;
                ignore (Block_device.await t.dev tk)
            | None ->
                retrying t (fun () -> Block_device.charge_read_vec t.dev blocks));
            raw
        | _ -> (
            Stats.Counter.incr t.counters "page_misses";
            match Hashtbl.find_opt t.page_prefetch first with
            | Some tk ->
                (* prefetched earlier: the device service has been running
                   since submission, so awaiting here only charges what the
                   descent and decode did not already hide *)
                Hashtbl.remove t.page_prefetch first;
                assemble (Block_device.await t.dev tk)
            | None ->
                assemble
                  (retrying t (fun () -> Block_device.read_vec t.dev blocks))));
    prefetch_page =
      (fun first n ->
        (* cached or not, so a warm descent overlaps the sibling's service
           exactly as a cold one does; the bytes move because the page may
           be evicted before [read_page] consumes the ticket.  Speculative,
           so a fault is neither retried nor raised: only a [read_page]
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
(* journal ops (metadata only: no PD bytes ever enter the ring)       *)

type op =
  | J_create_type of string (* encoded schema: structure, not PD *)
  | J_insert of {
      pd_id : string;
      type_name : string;
      subject : string;
      high : bool;
      record_blocks : int list;
      record_size : int;
      record_sum : string;
      membrane_blocks : int list;
      membrane_size : int;
      membrane_sum : string;
    }
  | J_update_record of {
      pd_id : string;
      blocks : int list;
      size : int;
      sum : string;
    }
  | J_update_membrane of {
      pd_id : string;
      blocks : int list;
      size : int;
      sum : string;
    }
  | J_delete of string
  | J_erase of { pd_id : string; blocks : int list; size : int; sum : string }

let encode_op op =
  let w = Codec.Writer.create () in
  (match op with
  | J_create_type schema_bytes ->
      Codec.Writer.string w "ctype";
      Codec.Writer.string w schema_bytes
  | J_insert e ->
      Codec.Writer.string w "ins";
      Codec.Writer.string w e.pd_id;
      Codec.Writer.string w e.type_name;
      Codec.Writer.string w e.subject;
      Codec.Writer.bool w e.high;
      Codec.Writer.list w (Codec.Writer.int w) e.record_blocks;
      Codec.Writer.int w e.record_size;
      Codec.Writer.string w e.record_sum;
      Codec.Writer.list w (Codec.Writer.int w) e.membrane_blocks;
      Codec.Writer.int w e.membrane_size;
      Codec.Writer.string w e.membrane_sum
  | J_update_record { pd_id; blocks; size; sum } ->
      Codec.Writer.string w "urec";
      Codec.Writer.string w pd_id;
      Codec.Writer.list w (Codec.Writer.int w) blocks;
      Codec.Writer.int w size;
      Codec.Writer.string w sum
  | J_update_membrane { pd_id; blocks; size; sum } ->
      Codec.Writer.string w "umbr";
      Codec.Writer.string w pd_id;
      Codec.Writer.list w (Codec.Writer.int w) blocks;
      Codec.Writer.int w size;
      Codec.Writer.string w sum
  | J_delete pd_id ->
      Codec.Writer.string w "del";
      Codec.Writer.string w pd_id
  | J_erase { pd_id; blocks; size; sum } ->
      Codec.Writer.string w "ers";
      Codec.Writer.string w pd_id;
      Codec.Writer.list w (Codec.Writer.int w) blocks;
      Codec.Writer.int w size;
      Codec.Writer.string w sum);
  Codec.Writer.contents w

let decode_op s =
  let r = Codec.Reader.create s in
  let* tag = Codec.Reader.string r in
  match tag with
  | "ctype" ->
      let* schema_bytes = Codec.Reader.string r in
      Ok (J_create_type schema_bytes)
  | "ins" ->
      let* pd_id = Codec.Reader.string r in
      let* type_name = Codec.Reader.string r in
      let* subject = Codec.Reader.string r in
      let* high = Codec.Reader.bool r in
      let* record_blocks = Codec.Reader.list r Codec.Reader.int in
      let* record_size = Codec.Reader.int r in
      let* record_sum = Codec.Reader.string r in
      let* membrane_blocks = Codec.Reader.list r Codec.Reader.int in
      let* membrane_size = Codec.Reader.int r in
      let* membrane_sum = Codec.Reader.string r in
      Ok
        (J_insert
           {
             pd_id;
             type_name;
             subject;
             high;
             record_blocks;
             record_size;
             record_sum;
             membrane_blocks;
             membrane_size;
             membrane_sum;
           })
  | "urec" ->
      let* pd_id = Codec.Reader.string r in
      let* blocks = Codec.Reader.list r Codec.Reader.int in
      let* size = Codec.Reader.int r in
      let* sum = Codec.Reader.string r in
      Ok (J_update_record { pd_id; blocks; size; sum })
  | "umbr" ->
      let* pd_id = Codec.Reader.string r in
      let* blocks = Codec.Reader.list r Codec.Reader.int in
      let* size = Codec.Reader.int r in
      let* sum = Codec.Reader.string r in
      Ok (J_update_membrane { pd_id; blocks; size; sum })
  | "del" ->
      let* pd_id = Codec.Reader.string r in
      Ok (J_delete pd_id)
  | "ers" ->
      let* pd_id = Codec.Reader.string r in
      let* blocks = Codec.Reader.list r Codec.Reader.int in
      let* size = Codec.Reader.int r in
      let* sum = Codec.Reader.string r in
      Ok (J_erase { pd_id; blocks; size; sum })
  | other -> Error ("unknown DBFS journal op " ^ other)

(* ------------------------------------------------------------------ *)
(* entry codec + paged entry access                                   *)

let encode_entry w e =
  Codec.Writer.string w e.pd_id;
  Codec.Writer.string w e.type_name;
  Codec.Writer.string w e.subject;
  Codec.Writer.bool w e.high;
  Codec.Writer.list w (Codec.Writer.int w) e.record_blocks;
  Codec.Writer.int w e.record_size;
  Codec.Writer.string w e.record_sum;
  Codec.Writer.list w (Codec.Writer.int w) e.membrane_blocks;
  Codec.Writer.int w e.membrane_size;
  Codec.Writer.string w e.membrane_sum;
  Codec.Writer.bool w e.erased

let decode_entry r =
  let* pd_id = Codec.Reader.string r in
  let* type_name = Codec.Reader.string r in
  let* subject = Codec.Reader.string r in
  let* high = Codec.Reader.bool r in
  let* record_blocks = Codec.Reader.list r Codec.Reader.int in
  let* record_size = Codec.Reader.int r in
  let* record_sum = Codec.Reader.string r in
  let* membrane_blocks = Codec.Reader.list r Codec.Reader.int in
  let* membrane_size = Codec.Reader.int r in
  let* membrane_sum = Codec.Reader.string r in
  let* erased = Codec.Reader.bool r in
  Ok
    {
      pd_id;
      type_name;
      subject;
      high;
      record_blocks;
      record_size;
      record_sum;
      membrane_blocks;
      membrane_size;
      membrane_sum;
      erased;
    }

let decode_entry_raw raw = decode_entry (Codec.Reader.create raw)

(* Entry lookup: overlay first, then tombstones, then the checkpointed
   entries tree (O(height) cached page reads).  The returned entry is NOT
   installed in the overlay — reads never dirty it. *)
let find_entry t pd_id =
  match Hashtbl.find_opt t.entries pd_id with
  | Some e -> Ok e
  | None -> (
      if Hashtbl.mem t.deleted pd_id || Pagestore.is_empty t.entries_base then
        Error (Unknown_pd pd_id)
      else
        match Pagestore.lookup (page_io t) t.entries_base pd_id with
        | None -> Error (Unknown_pd pd_id)
        | Some raw -> (
            match decode_entry_raw raw with
            | Ok e -> Ok e
            | Error m -> Error (Corrupt ("entry " ^ pd_id ^ ": " ^ m)))
        | exception Block_device.Faulted b ->
            Error
              (Device_fault (Printf.sprintf "block %d failed after retries" b))
        | exception Pagestore.Corrupt_page b ->
            Error
              (Corrupt
                 (Printf.sprintf "entries tree page %d fails its checksum" b)))

(* Mutation-side lookup: pull the entry into the overlay so in-place field
   updates are remembered until the next checkpoint.  Raises [Not_found]
   for an unknown pd — journal replay turns that into a replay warning,
   exactly as the pre-paging code did. *)
let touch_entry t pd_id =
  match Hashtbl.find_opt t.entries pd_id with
  | Some e -> e
  | None -> (
      if Hashtbl.mem t.deleted pd_id || Pagestore.is_empty t.entries_base then
        raise Not_found
      else
        match Pagestore.lookup (page_io t) t.entries_base pd_id with
        | None -> raise Not_found
        | Some raw -> (
            match decode_entry_raw raw with
            | Ok e ->
                Hashtbl.replace t.entries pd_id e;
                e
            | Error _ -> raise Not_found))

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

(* Best-effort decode helpers (index maintenance, fsck): an extent that
   cannot be read even after retries yields [None] rather than raising —
   the callers treat it the same as an undecodable payload. *)
let decode_record_at t blocks size =
  match
    try Record.decode (read_payload t blocks size)
    with Block_device.Faulted b -> Error (Printf.sprintf "block %d faulted" b)
  with
  | Ok r -> Some r
  | Error _ -> None

let decode_membrane_at t blocks size =
  match
    try Membrane.decode (read_payload t blocks size)
    with Block_device.Faulted b -> Error (Printf.sprintf "block %d faulted" b)
  with
  | Ok m -> Some m
  | Error _ -> None

let expiry_instant m =
  match m.Membrane.ttl with
  | None -> None
  | Some ttl -> Some (m.Membrane.created_at + ttl)

let index_put_record t ~pd_id ~type_name ~hint ~blocks ~size =
  let indexed = indexed_fields_of t type_name in
  if indexed <> [] then
    let record =
      match hint.h_record with
      | Some r -> Some r
      | None -> decode_record_at t blocks size
    in
    match record with
    | Some record -> Index.add_entry t.index ~pd_id ~type_name ~indexed record
    | None -> ()

let index_put_membrane t ~pd_id ~hint ~blocks ~size =
  let membrane =
    match hint.h_membrane with
    | Some m -> Some m
    | None -> decode_membrane_at t blocks size
  in
  match membrane with
  | Some m -> Index.set_expiry t.index ~pd_id (expiry_instant m)
  | None -> ()

(* [freed_acc], passed by mount-time replay, collects every block an op
   frees.  Live mutators zero old blocks AFTER the journal record commits,
   so a crash in that window leaves plaintext on blocks the replayed
   metadata considers free; replay zeroes whichever of them are still free
   once the whole journal is applied. *)
let apply_op ?(hint = no_hint) ?freed_acc t op =
  let note_freed blocks =
    match freed_acc with
    | Some acc -> acc := List.rev_append blocks !acc
    | None -> ()
  in
  (match op with
  | J_create_type _ -> ()
  | J_insert { pd_id; _ }
  | J_update_record { pd_id; _ }
  | J_update_membrane { pd_id; _ }
  | J_delete pd_id
  | J_erase { pd_id; _ } ->
      invalidate_caches t pd_id);
  match op with
  | J_create_type schema_bytes -> (
      match Schema.decode schema_bytes with
      | Error e -> failwith ("DBFS: corrupt schema in journal: " ^ e)
      | Ok schema -> Hashtbl.replace t.tables schema.Schema.name { schema })
  | J_insert e ->
      let entry =
        {
          pd_id = e.pd_id;
          type_name = e.type_name;
          subject = e.subject;
          high = e.high;
          record_blocks = e.record_blocks;
          record_size = e.record_size;
          record_sum = e.record_sum;
          membrane_blocks = e.membrane_blocks;
          membrane_size = e.membrane_size;
          membrane_sum = e.membrane_sum;
          erased = false;
        }
      in
      if not (Hashtbl.mem t.tables e.type_name) then
        failwith "DBFS: insert into unknown table during apply";
      Hashtbl.replace t.entries e.pd_id entry;
      Hashtbl.remove t.deleted e.pd_id;
      t.entry_count <- t.entry_count + 1;
      mark_used t ~bytes:e.record_size e.record_blocks;
      mark_used t ~bytes:e.membrane_size e.membrane_blocks;
      Index.add_subject t.index ~subject:e.subject ~pd_id:e.pd_id;
      index_put_record t ~pd_id:e.pd_id ~type_name:e.type_name ~hint
        ~blocks:e.record_blocks ~size:e.record_size;
      index_put_membrane t ~pd_id:e.pd_id ~hint ~blocks:e.membrane_blocks
        ~size:e.membrane_size;
      (* keep pd counter ahead of any replayed id *)
      (match
         int_of_string_opt (String.sub e.pd_id 3 (String.length e.pd_id - 3))
       with
      | Some n when n >= t.next_pd -> t.next_pd <- n + 1
      | _ -> ())
  | J_update_record { pd_id; blocks; size; sum } ->
      let entry = touch_entry t pd_id in
      note_freed entry.record_blocks;
      mark_free t ~bytes:entry.record_size entry.record_blocks;
      mark_used t ~bytes:size blocks;
      entry.record_blocks <- blocks;
      entry.record_size <- size;
      entry.record_sum <- sum;
      index_put_record t ~pd_id ~type_name:entry.type_name ~hint ~blocks ~size
  | J_update_membrane { pd_id; blocks; size; sum } ->
      let entry = touch_entry t pd_id in
      note_freed entry.membrane_blocks;
      mark_free t ~bytes:entry.membrane_size entry.membrane_blocks;
      mark_used t ~bytes:size blocks;
      entry.membrane_blocks <- blocks;
      entry.membrane_size <- size;
      entry.membrane_sum <- sum;
      (* consent flips and TTL changes land here: re-key the expiry queue.
         An erased pd keeps its membrane (the subject link) but must never
         re-enter the expiry queue — its record is already gone. *)
      if entry.erased then Index.clear_expiry t.index ~pd_id
      else index_put_membrane t ~pd_id ~hint ~blocks ~size
  | J_delete pd_id ->
      let entry = touch_entry t pd_id in
      note_freed entry.record_blocks;
      note_freed entry.membrane_blocks;
      mark_free t ~bytes:entry.record_size entry.record_blocks;
      mark_free t ~bytes:entry.membrane_size entry.membrane_blocks;
      Hashtbl.remove t.entries pd_id;
      Hashtbl.replace t.deleted pd_id ();
      t.entry_count <- t.entry_count - 1;
      Index.remove_entry t.index ~pd_id;
      Index.remove_subject t.index ~subject:entry.subject ~pd_id;
      Index.clear_expiry t.index ~pd_id
  | J_erase { pd_id; blocks; size; sum } ->
      let entry = touch_entry t pd_id in
      note_freed entry.record_blocks;
      mark_free t ~bytes:entry.record_size entry.record_blocks;
      mark_used t ~bytes:size blocks;
      entry.record_blocks <- blocks;
      entry.record_size <- size;
      entry.record_sum <- sum;
      entry.erased <- true;
      (* sealed payload is not PD: no field keys, no expiry; the subject
         link stays (erasure seals the pd, it does not unlink it) *)
      Index.remove_entry t.index ~pd_id;
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
  Codec.Writer.bool w t.bm_present;
  Codec.Writer.int w t.bm_bytes;
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
  rs_bm_present : bool;
  rs_bm_bytes : int;
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
    let* rs_bm_present = Codec.Reader.bool r in
    let* rs_bm_bytes = Codec.Reader.int r in
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
        rs_bm_present;
        rs_bm_bytes;
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
  (match t.free_state with
  | F_unloaded -> () (* no allocation since mount: device bitmap is current *)
  | F_loaded free ->
      let n = Array.length free in
      let bytes = Bytes.make ((n + 7) / 8) '\000' in
      Array.iteri
        (fun i is_free ->
          if is_free then
            Bytes.set bytes (i lsr 3)
              (Char.chr
                 (Char.code (Bytes.get bytes (i lsr 3)) lor (1 lsl (i land 7)))))
        free;
      let raw = Bytes.unsafe_to_string bytes in
      let bs = block_size t in
      let nblocks = ((String.length raw - 1) / bs) + 1 in
      retrying t (fun () ->
          Block_device.write_vec t.dev
            (List.init nblocks (fun i ->
                 ( bitmap_start t + i,
                   String.sub raw (i * bs)
                     (min bs (String.length raw - (i * bs))) ))));
      t.bm_present <- true;
      t.bm_bytes <- String.length raw);
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
  zero_blocks t
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

let log_and_apply ?hint t op =
  retrying t (fun () ->
      Journal_ring.append t.ring
        ~on_overflow:(fun () -> checkpoint t)
        (encode_op op));
  apply_op ?hint t op

(* ------------------------------------------------------------------ *)
(* construction                                                       *)

(* Segment store covering the three data zones, one class per zone. *)
let make_segstore ~segmented ~seg_blocks ~data_start ~block_count =
  if not segmented then None
  else begin
    let rs = compute_rec_start ~data_start ~block_count in
    let hs = compute_high_start ~data_start ~block_count in
    Some
      (Segstore.create ~seg_blocks
         ~zones:[ (data_start, rs); (rs, hs); (hs, block_count) ])
  end

let format ?(segmented = false) ?(seg_blocks = default_seg_blocks) dev
    ~journal_blocks =
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
  Codec.Writer.bool w segmented;
  Codec.Writer.int w seg_blocks;
  Block_device.write dev 0 (Codec.Writer.contents w);
  let t =
    {
      dev;
      ring = Journal_ring.create dev ~start_block:1 ~num_blocks:journal_blocks;
      journal_blocks;
      meta_start = 1 + journal_blocks;
      meta_blocks;
      bitmap_blocks;
      heap_cap;
      data_start;
      high_start = compute_high_start ~data_start ~block_count;
      tables = Hashtbl.create 8;
      entries = Hashtbl.create 256;
      deleted = Hashtbl.create 64;
      entries_base = Pagestore.empty_root;
      entry_count = 0;
      index = Index.create ();
      index_roots = Index.empty_roots;
      free_state = F_loaded (Array.make (block_count - data_start) true);
      bm_present = false;
      bm_bytes = 0;
      hints = [| 0; 0; 0 |];
      active_half = 0;
      heap_used = 0;
      root_seq = 0;
      next_pd = 0;
      hook = None;
      degraded = None;
      replay = None;
      replay_warning = None;
      counters = Stats.Counter.create ();
      cache = Cache.create ~budget:default_cache_budget;
      page_prefetch = Hashtbl.create 16;
      segmented;
      seg_blocks;
      segstore = make_segstore ~segmented ~seg_blocks ~data_start ~block_count;
      compacting = false;
      pool = None;
    }
  in
  commit_root t;
  t

let mount dev =
  let raw = Block_device.read dev 0 in
  let r = Codec.Reader.create raw in
  let parse_super =
    let* magic = Codec.Reader.string r in
    if magic <> superblock_magic then Error "bad DBFS superblock magic"
    else
      let* journal_blocks = Codec.Reader.int r in
      let* meta_blocks = Codec.Reader.int r in
      (* segmented-mode fields; absent on stores formatted before them *)
      let segmented, seg_blocks =
        match Codec.Reader.bool r with
        | Ok s -> (
            match Codec.Reader.int r with
            | Ok n when n > 0 -> (s, n)
            | _ -> (false, default_seg_blocks))
        | Error _ -> (false, default_seg_blocks)
      in
      Ok (journal_blocks, meta_blocks, segmented, seg_blocks)
  in
  match parse_super with
  | Error e -> Error e
  | Ok (journal_blocks, meta_blocks, segmented, seg_blocks) -> (
      let cfg = Block_device.config dev in
      let block_count = cfg.Block_device.block_count in
      let bs = cfg.Block_device.block_size in
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
          let data_start = 1 + journal_blocks + meta_blocks in
          let t =
            {
              dev;
              ring =
                Journal_ring.attach dev ~start_block:1
                  ~num_blocks:journal_blocks ~head:rs.rs_jhead ~seq:rs.rs_jseq;
              journal_blocks;
              meta_start;
              meta_blocks;
              bitmap_blocks = bitmap_blocks_for ~block_count ~block_size:bs;
              heap_cap =
                heap_cap_for ~meta_blocks
                  ~bitmap_blocks:(bitmap_blocks_for ~block_count ~block_size:bs);
              data_start;
              high_start = compute_high_start ~data_start ~block_count;
              tables = Hashtbl.create 8;
              entries = Hashtbl.create 256;
              deleted = Hashtbl.create 64;
              entries_base = rs.rs_entries_base;
              entry_count = rs.rs_entry_count;
              index = Index.create ();
              index_roots = rs.rs_index_roots;
              free_state = F_unloaded;
              bm_present = rs.rs_bm_present;
              bm_bytes = rs.rs_bm_bytes;
              hints = [| 0; 0; 0 |];
              active_half = rs.rs_active_half;
              heap_used = rs.rs_heap_used;
              root_seq = rs.rs_seq;
              next_pd = rs.rs_next_pd;
              hook = None;
              degraded = None;
              replay = None;
              replay_warning = None;
              counters = Stats.Counter.create ();
              cache = Cache.create ~budget:default_cache_budget;
              page_prefetch = Hashtbl.create 16;
              segmented;
              seg_blocks;
              segstore =
                make_segstore ~segmented ~seg_blocks ~data_start ~block_count;
              compacting = false;
              pool = None;
            }
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
          (match !freed with
          | [] -> ()
          | freed_blocks ->
              let free = free_map t in
              let leftover =
                List.sort_uniq compare freed_blocks
                |> List.filter (fun b ->
                       free.(b - t.data_start)
                       && Block_device.is_written t.dev b)
              in
              match leftover with
              | [] -> ()
              | _ ->
                  Stats.Counter.incr t.counters
                    ~by:(List.length leftover)
                    "replay_zeroed_blocks";
                  zero_blocks t leftover);
          Ok t)

let device t = t.dev

type layout = {
  l_data_start : int;
  l_rec_start : int;
  l_high_start : int;
  l_block_count : int;
}

let layout t =
  {
    l_data_start = t.data_start;
    l_rec_start = rec_start t;
    l_high_start = t.high_start;
    l_block_count = total_blocks t;
  }

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
  Ok (e.record_blocks, e.membrane_blocks)

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
            match alloc_record_blocks t ~high rn with
            | None -> Error No_space
            | Some record_blocks -> (
                match alloc_membrane_blocks t mn with
                | None ->
                    mark_free t record_blocks;
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
                               record_blocks;
                               record_size = String.length record_bytes;
                               record_sum = Fnv.hash64_hex record_bytes;
                               membrane_blocks;
                               membrane_size = String.length membrane_bytes;
                               membrane_sum = Fnv.hash64_hex membrane_bytes;
                             });
                        Stats.Counter.incr t.counters "inserts";
                        (* write-through: the values just validated and
                           encoded are exactly what a read would decode *)
                        cache_put_membrane t pd_id membrane;
                        cache_put_record t pd_id record;
                        !maintain t;
                        Ok pd_id))))

(* Verify an extent's checksum against the raw bytes just read.  An empty
   stored sum means "no checksum recorded" (never the case for entries
   written by this code, but kept permissive). *)
let verify_sum ~what ~pd_id ~stored raw =
  if stored <> "" && Fnv.hash64_hex raw <> stored then
    Error (Corrupt (what ^ " of " ^ pd_id ^ ": extent checksum mismatch"))
  else Ok raw

(* ---------- extent loads (one path for batches and point reads) ----------

   A batch of [queue_depth] vectored device requests covers every pd in
   the selection, so the fixed seek latency is paid once per contiguous
   run of each request rather than once per pd; a point read is a batch
   of one.  Cost transparency is preserved: cached entries' blocks stay
   in the request (only the host-side decode is skipped), so a warm cache
   changes no stage_ns figure. *)

let resolve_entries t pd_ids =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | pd_id :: rest -> (
        match find_entry t pd_id with
        | Ok e -> go (e :: acc) rest
        | Error e -> Error e)
  in
  go [] pd_ids

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

let get_membranes t ~actor ?(channel = 0) pd_ids =
  let** () = guard t ~actor ~op:"read" in
  let** entries = resolve_entries t pd_ids in
  let any_miss =
    List.exists (fun e -> not (cache_mem_membrane t e.pd_id)) entries
  in
  let decode h acc entries =
    let rec go acc = function
      | [] -> Ok acc
      | e :: rest -> (
          Stats.Counter.incr t.counters "membrane_reads";
          charge_checksum t e.membrane_size;
          match cache_find_membrane t e.pd_id with
          | Some m ->
              Stats.Counter.incr t.counters "cache_hits";
              go ((e.pd_id, m) :: acc) rest
          | None -> (
              Stats.Counter.incr t.counters "cache_misses";
              let raw = assemble h e.membrane_blocks e.membrane_size in
              let** raw =
                verify_sum ~what:"membrane" ~pd_id:e.pd_id
                  ~stored:e.membrane_sum raw
              in
              match Membrane.decode raw with
              | Ok m ->
                  cache_put_membrane t e.pd_id m;
                  go ((e.pd_id, m) :: acc) rest
              | Error msg ->
                  Error (Corrupt ("membrane of " ^ e.pd_id ^ ": " ^ msg))))
    in
    go acc entries
  in
  protect_read (fun () ->
      pipelined_read t ~channel ~any_miss
        ~blocks_of:(fun e -> e.membrane_blocks)
        ~decode entries)

(* Erased pds yield [None] (their sealed payload is not PD and is not
   read), matching the DED's skip-erased semantics without forcing every
   caller to pre-filter the selection. *)
let get_records t ~actor ?(channel = 0) pd_ids =
  let** () = guard t ~actor ~op:"read" in
  let** entries = resolve_entries t pd_ids in
  let live = List.filter (fun e -> not e.erased) entries in
  let any_miss =
    List.exists (fun e -> not (cache_mem_record t e.pd_id)) live
  in
  let live_blocks e = if e.erased then [] else e.record_blocks in
  let decode h acc entries =
    let rec go acc = function
      | [] -> Ok acc
      | e :: rest ->
          if e.erased then go ((e.pd_id, None) :: acc) rest
          else begin
            Stats.Counter.incr t.counters "record_reads";
            charge_checksum t e.record_size;
            match cache_find_record t e.pd_id with
            | Some r ->
                Stats.Counter.incr t.counters "cache_hits";
                go ((e.pd_id, Some r) :: acc) rest
            | None -> (
                Stats.Counter.incr t.counters "cache_misses";
                let raw = assemble h e.record_blocks e.record_size in
                let** raw =
                  verify_sum ~what:"record" ~pd_id:e.pd_id
                    ~stored:e.record_sum raw
                in
                match Record.decode raw with
                | Ok r ->
                    cache_put_record t e.pd_id r;
                    go ((e.pd_id, Some r) :: acc) rest
                | Error msg ->
                    Error (Corrupt ("record of " ^ e.pd_id ^ ": " ^ msg)))
          end
    in
    go acc entries
  in
  protect_read (fun () ->
      pipelined_read t ~channel ~any_miss ~blocks_of:live_blocks ~decode
        entries)

let get_membrane t ~actor pd_id =
  let** got = get_membranes t ~actor [ pd_id ] in
  Ok (snd (List.hd got))

let get_record t ~actor pd_id =
  let** got = get_records t ~actor [ pd_id ] in
  match got with
  | [ (_, Some r) ] -> Ok r
  | _ -> Error (Erased pd_id)

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
        | Ok () -> (
            let bytes = Record.encode record in
            let old_blocks = e.record_blocks in
            match
              alloc_record_blocks t ~high:e.high
                (blocks_needed t (String.length bytes))
            with
            | None -> Error No_space
            | Some blocks ->
                protect_write t (fun () ->
                    write_payload t bytes blocks;
                    log_and_apply t
                      ~hint:{ no_hint with h_record = Some record }
                      (J_update_record
                         {
                           pd_id;
                           blocks;
                           size = String.length bytes;
                           sum = Fnv.hash64_hex bytes;
                         });
                    (* zeroing deallocation: no stale PD on the medium.
                       Segmented mode defers the zeroing — the old blocks
                       sit dirty in their sealed segment until a purge or
                       the compactor destroys them wholesale. *)
                    if not t.segmented then zero_and_free t old_blocks;
                    Stats.Counter.incr t.counters "record_updates";
                    !maintain t;
                    Ok ())))

let update_membrane t ~actor pd_id membrane =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if membrane.Membrane.pd_id <> pd_id then
    Error (Membrane_mismatch "membrane wraps a different pd_id")
  else if membrane.Membrane.type_name <> e.type_name then
    Error (Membrane_mismatch "membrane declares a different type")
  else if membrane.Membrane.subject_id <> e.subject then
    Error (Membrane_mismatch "membrane names a different subject")
  else
    let bytes = Membrane.encode membrane in
    let old_blocks = e.membrane_blocks in
    match alloc_membrane_blocks t (blocks_needed t (String.length bytes)) with
    | None -> Error No_space
    | Some blocks ->
        protect_write t (fun () ->
            write_payload t bytes blocks;
            log_and_apply t
              ~hint:{ no_hint with h_membrane = Some membrane }
              (J_update_membrane
                 {
                   pd_id;
                   blocks;
                   size = String.length bytes;
                   sum = Fnv.hash64_hex bytes;
                 });
            if not t.segmented then zero_and_free t old_blocks;
            Stats.Counter.incr t.counters "membrane_updates";
            !maintain t;
            Ok ())

let update_membranes_by_lineage t ~actor ~lineage f =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** ids =
    protect_pages (fun () ->
        Ok (List.map (fun e -> e.pd_id) (collect_entries t)))
  in
  (* one batched membrane load to find the lineage, then point updates *)
  let** membranes = get_membranes t ~actor ids in
  let rec go updated = function
    | [] -> Ok updated
    | (pd_id, m) :: rest ->
        if Membrane.lineage_root m = lineage then
          match update_membrane t ~actor pd_id (f m) with
          | Error e -> Error e
          | Ok () -> go (updated + 1) rest
        else go updated rest
  in
  go 0 membranes

let copy_pd t ~actor pd_id =
  let** () = guard t ~actor ~op:"write" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if e.erased then Error (Erased pd_id)
  else
    let** record = get_record t ~actor pd_id in
    let** membrane = get_membrane t ~actor pd_id in
    insert t ~actor ~subject:e.subject ~type_name:e.type_name ~record
      ~membrane_of:(fun ~pd_id -> Membrane.copy_for membrane ~new_pd_id:pd_id)

let delete t ~actor pd_id =
  let** () = guard t ~actor ~op:"delete" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  let record_blocks = e.record_blocks in
  let membrane_blocks = e.membrane_blocks in
  protect_write t (fun () ->
      log_and_apply t (J_delete pd_id);
      (* physical destruction after the metadata commit.  Segmented mode
         purges every dirty block on the store (this pd's extents
         included), trimming fully dead segments; update-in-place zeroes
         exactly this pd's extents in one vectored write. *)
      if t.segmented then purge_dirty t
      else zero_blocks t (record_blocks @ membrane_blocks);
      Stats.Counter.incr t.counters "deletes";
      !maintain t;
      Ok ())

let erase_with t ~actor pd_id ~seal =
  let** () = guard t ~actor ~op:"erase" in
  let** () = check_degraded t in
  let** e = find_entry t pd_id in
  if e.erased then Error (Erased pd_id)
  else
    let** record = get_record t ~actor pd_id in
    let sealed = seal record in
    let old_blocks = e.record_blocks in
    match
      alloc_record_blocks t ~high:e.high
        (blocks_needed t (String.length sealed))
    with
    | None -> Error No_space
    | Some blocks ->
        protect_write t (fun () ->
            write_payload t sealed blocks;
            log_and_apply t
              (J_erase
                 {
                   pd_id;
                   blocks;
                   size = String.length sealed;
                   sum = Fnv.hash64_hex sealed;
                 });
            (* destruction obligation: erasure must leave no plaintext of
               the old record anywhere — segmented mode purges the whole
               dirty set (old extent included) synchronously *)
            if t.segmented then purge_dirty t else zero_and_free t old_blocks;
            Stats.Counter.incr t.counters "erasures";
            !maintain t;
            Ok ())

let erased_payload t ~actor pd_id =
  let** () = guard t ~actor ~op:"read" in
  let** e = find_entry t pd_id in
  if not e.erased then Error (Invalid_record (pd_id ^ " is not erased"))
  else
    protect_read (fun () ->
        let raw = read_payload t e.record_blocks e.record_size in
        charge_checksum t e.record_size;
        verify_sum ~what:"sealed payload" ~pd_id ~stored:e.record_sum raw)

(* ------------------------------------------------------------------ *)
(* compaction (segmented mode)                                        *)

(* Merge low-liveness sealed segments: relocate every surviving extent
   through the ordinary journaled write path (J_update_record /
   J_update_membrane / J_erase with identical size and checksum — so
   replay, secondary indexes, caches and the bitmap stay coherent with no
   compaction-specific recovery code), then destroy the victims: a trim
   per fully dead segment, a vectored zero over dead blocks of any
   segment whose survivors could not move.  Survivor checksums are
   verified before relocation (fanned out over [t.pool] when one is
   attached); an extent failing its checksum is left in place for fsck
   rather than propagated.

   Crash windows (both exercised by the fault campaign):
   - after a relocation is journaled, before the victim is destroyed:
     mount-time replay zeroes the superseded copy ([freed_acc]);
   - after a relocated payload is written, before its journal record is
     durable: the new blocks are free+written, which [fsck_repair]'s
     free-space scrub destroys; the old copy is still live. *)
let compact ?(max_victims = compact_batch) ?(liveness_pct = compact_liveness_pct)
    t =
  match t.segstore with
  | None -> 0
  | Some ss ->
      if t.compacting then 0
      else begin
        t.compacting <- true;
        Fun.protect
          ~finally:(fun () -> t.compacting <- false)
          (fun () ->
            ensure_seg_hydrated t;
            match Segstore.victims ss ~max_victims ~liveness_pct with
            | [] -> 0
            | victims ->
                (* flush-before-destroy: buffered records may reference
                   blocks this pass is about to destroy.  Only flushed on
                   actual work, so an idle tick cannot defeat group
                   commit. *)
                retrying t (fun () -> Journal_ring.flush t.ring);
                Stats.Counter.incr t.counters "compactions";
                let in_victim b =
                  List.exists
                    (fun g ->
                      b >= g.Segstore.g_first
                      && b < g.Segstore.g_first + g.Segstore.g_nblocks)
                    victims
                in
                (* one merged entry pass discovers every surviving extent *)
                let moves = ref [] in
                iter_entries t (fun e ->
                    (match e.record_blocks with
                    | b :: _ when in_victim b ->
                        moves := (e.pd_id, `Record) :: !moves
                    | _ -> ());
                    match e.membrane_blocks with
                    | b :: _ when in_victim b ->
                        moves := (e.pd_id, `Membrane) :: !moves
                    | _ -> ());
                let items =
                  List.rev !moves
                  |> List.filter_map (fun (pd_id, kind) ->
                         match find_entry t pd_id with
                         | Error _ -> None
                         | Ok e ->
                             let blocks, size, sum =
                               match kind with
                               | `Record ->
                                   (e.record_blocks, e.record_size, e.record_sum)
                               | `Membrane ->
                                   ( e.membrane_blocks,
                                     e.membrane_size,
                                     e.membrane_sum )
                             in
                             let raw = read_payload t blocks size in
                             charge_checksum t size;
                             Some (pd_id, kind, e, raw, sum))
                in
                let verify (_, _, _, raw, sum) =
                  sum = "" || Fnv.hash64_hex raw = sum
                in
                let checks =
                  match t.pool with
                  | Some pool -> Pool.map_list pool verify items
                  | None -> List.map verify items
                in
                let relocated = ref 0 in
                (* relocation payload writes are submitted and settled
                   in one batch at the durability barrier below,
                   overlapping their service with the decode and
                   journaling compute of later survivors *)
                let wtickets = ref [] in
                List.iter2
                  (fun (pd_id, kind, e, raw, sum) ok ->
                    if not ok then
                      Stats.Counter.incr t.counters "compact_verify_failures"
                    else begin
                      let size = String.length raw in
                      let sum = if sum = "" then Fnv.hash64_hex raw else sum in
                      let dest =
                        match kind with
                        | `Record ->
                            alloc_record_blocks t ~high:e.high
                              (blocks_needed t size)
                        | `Membrane ->
                            alloc_membrane_blocks t (blocks_needed t size)
                      in
                      match dest with
                      | None -> () (* no room: survivor stays put *)
                      | Some blocks ->
                          wtickets :=
                            submit_payload_write t raw blocks
                              ~channel:compact_channel
                            :: !wtickets;
                          let hint, op =
                            match kind with
                            | `Membrane ->
                                ( (match Membrane.decode raw with
                                  | Ok m -> { no_hint with h_membrane = Some m }
                                  | Error _ -> no_hint),
                                  J_update_membrane { pd_id; blocks; size; sum }
                                )
                            | `Record when e.erased ->
                                (no_hint, J_erase { pd_id; blocks; size; sum })
                            | `Record ->
                                ( (match Record.decode raw with
                                  | Ok r -> { no_hint with h_record = Some r }
                                  | Error _ -> no_hint),
                                  J_update_record { pd_id; blocks; size; sum } )
                          in
                          log_and_apply t ~hint op;
                          incr relocated
                    end)
                  items checks;
                Stats.Counter.incr t.counters ~by:!relocated
                  "compact_relocations";
                (* make the relocations durable, then destroy the victims:
                   settle the submitted payload writes and every
                   submitted flush before any victim block is trimmed or
                   zeroed *)
                List.iter
                  (fun tk -> ignore (Block_device.await t.dev tk))
                  (List.rev !wtickets);
                retrying t (fun () -> Journal_ring.flush t.ring);
                Journal_ring.barrier t.ring;
                List.iter
                  (fun g ->
                    if g.Segstore.g_live = 0 then reclaim_dead_segment t ss g
                    else begin
                      (* survivors could not move: zero the pending dead
                         blocks (once — the dirty set forgets them) *)
                      match Segstore.dirty_in ss g with
                      | [] -> ()
                      | dl ->
                          zero_blocks t dl;
                          Segstore.clear_dirty ss dl;
                          Stats.Counter.incr t.counters ~by:(List.length dl)
                            "purge_zeroed_blocks"
                    end)
                  victims;
                List.length victims)
      end

(* Space-driven compaction (the allocator's retry hook) is more
   aggressive than the dirty-driven pass: relocating up to 75%-live
   segments frees whole segments for reuse. *)
let () =
  space_reclaim :=
    fun t -> ignore (compact t ~max_victims:(2 * compact_batch) ~liveness_pct:75.0)

(* Per-mutator maintenance: compact when the dirty backlog crosses the
   trigger; if it is STILL above the backpressure threshold afterwards
   (the compactor cannot keep up — the survivors are too live to evict),
   charge a deterministic stall to the op that rode over the limit. *)
let tick t =
  match t.segstore with
  | None -> ()
  | Some ss ->
      if not t.compacting then begin
        ensure_seg_hydrated t;
        let data_blocks = total_blocks t - t.data_start in
        if Segstore.dirty_blocks ss * 100 >= data_blocks * dirty_trigger_pct
        then ignore (compact t);
        if Segstore.dirty_blocks ss * 100 >= data_blocks * backpressure_pct
        then begin
          Stats.Counter.incr t.counters "backpressure_stalls";
          Stats.Counter.incr t.counters ~by:backpressure_stall_ns
            "backpressure_stall_ns";
          Clock.advance (Block_device.clock t.dev) backpressure_stall_ns
        end
      end

let () = maintain := tick

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
             never touch it — candidate sets are filtered with point
             entry lookups, keeping an indexed select sublinear in the
             population *)
          let all_live () =
            let acc = ref [] in
            iter_entries t (fun e ->
                if e.type_name = type_name && not e.erased then
                  acc := e.pd_id :: !acc);
            List.rev !acc
          in
          let live_typed pd =
            match find_entry t pd with
            | Ok e -> e.type_name = type_name && not e.erased
            | Error _ -> false
          in
          let residual pd_ids =
            (* one batched load, then the full predicate: the probe's
               posting list is submitted as pipelined reads ahead of
               residual evaluation, so chunk k's decode and predicate work
               overlaps the in-flight service of chunks k+1.. *)
            let** records = get_records t ~actor ~channel pd_ids in
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
          | Plan.Full_scan { trivial = true } -> Ok (all_live ())
          | Plan.Full_scan { trivial = false } -> residual (all_live ())
          | Plan.Indexed { probe; exact } ->
              Stats.Counter.incr t.counters "index_probes";
              let cand, bytes = run_probe t ~type_name probe in
              charge_index_read t bytes;
              (* probe sets are unordered; sorted pd ids ARE insertion
                 order (ids are zero-padded and monotone) *)
              let cand_list = List.filter live_typed (SS.elements cand) in
              if exact then Ok cand_list else residual cand_list)

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
  (* one vectored request for the whole subject subtree *)
  let** records = get_records t ~actor ids in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (_, None) :: rest -> go acc rest (* erased *)
    | (pd_id, Some record) :: rest ->
        let** e = find_entry t pd_id in
        go (Record.to_export ~type_name:e.type_name ~pd_id record :: acc) rest
  in
  let** items = go [] records in
  Stats.Counter.incr t.counters "exports";
  Ok ("[" ^ String.concat ", " items ^ "]")

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
                         (blocks_str e.record_blocks)
                         (blocks_str e.membrane_blocks)))
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

(* Extent read that reports an exhausted-retries device fault as [None]
   instead of raising — fsck must keep scanning past a dead block. *)
let try_read_extent t blocks size =
  try Some (read_payload t blocks size) with Block_device.Faulted _ -> None

let sum_matches stored raw = stored = "" || Fnv.hash64_hex raw = stored

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
  List.iter
    (fun e ->
      let pd_id = e.pd_id in
      (match try_read_extent t e.membrane_blocks e.membrane_size with
      | None -> note "entry %s: membrane extent unreadable (device fault)" pd_id
      | Some raw when not (sum_matches e.membrane_sum raw) ->
          note "entry %s: membrane extent checksum mismatch" pd_id
      | Some raw -> (
          match Membrane.decode raw with
          | Error msg -> note "entry %s: undecodable membrane (%s)" pd_id msg
          | Ok m ->
              if m.Membrane.pd_id <> pd_id then
                note "entry %s: membrane wraps %s" pd_id m.Membrane.pd_id;
              if m.Membrane.type_name <> e.type_name then
                note "entry %s: membrane type %s <> %s" pd_id
                  m.Membrane.type_name e.type_name;
              if m.Membrane.subject_id <> e.subject then
                note "entry %s: membrane subject %s <> %s" pd_id
                  m.Membrane.subject_id e.subject));
      match try_read_extent t e.record_blocks e.record_size with
      | None -> note "entry %s: record extent unreadable (device fault)" pd_id
      | Some raw when not (sum_matches e.record_sum raw) ->
          note "entry %s: record extent checksum mismatch" pd_id
      | Some raw ->
          if not e.erased then (
            match Record.decode raw with
            | Error msg -> note "entry %s: undecodable record (%s)" pd_id msg
            | Ok _ -> ()))
    all;
  (* block ownership: unique, allocated, correct zone *)
  let free = free_map t in
  let owners = Hashtbl.create 64 in
  let rs = rec_start t in
  let check_block pd_id b =
    if free.(b - t.data_start) then note "entry %s owns free block %d" pd_id b;
    match Hashtbl.find_opt owners b with
    | Some other -> note "block %d owned by %s and %s" b other pd_id
    | None -> Hashtbl.replace owners b pd_id
  in
  List.iter
    (fun e ->
      let pd_id = e.pd_id in
      List.iter
        (fun b ->
          if b < t.data_start then note "entry %s owns non-data block %d" pd_id b
          else begin
            if b < rs then
              note "entry %s stores record in membrane zone (block %d)" pd_id b;
            if e.high && b < t.high_start then
              note "sensitive entry %s stored in ordinary region (block %d)" pd_id b;
            if (not e.high) && b >= t.high_start then
              note "ordinary entry %s stored in sensitive region (block %d)" pd_id b;
            check_block pd_id b
          end)
        e.record_blocks;
      List.iter
        (fun b ->
          if b < t.data_start then note "entry %s owns non-data block %d" pd_id b
          else begin
            if b >= rs then
              note "entry %s stores membrane outside membrane zone (block %d)"
                pd_id b;
            check_block pd_id b
          end)
        e.membrane_blocks)
    all;
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
             let record = decode_record_at t e.record_blocks e.record_size in
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
             match decode_membrane_at t e.membrane_blocks e.membrane_size with
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
  (* allocation leaks: a data block marked in-use must have an owner *)
  Array.iteri
    (fun i is_free ->
      if (not is_free) && not (Hashtbl.mem owners (t.data_start + i)) then
        note "allocated block %d owned by no entry" (t.data_start + i))
    free;
  List.rev !problems

(* From-scratch index rebuild over the (surviving) entries — the repair
   path swaps this in wholesale, which heals any in-memory or persisted
   index damage in one move. *)
let rebuild_index t =
  let idx = Index.create () in
  iter_entries t (fun e ->
      let pd_id = e.pd_id in
      Index.add_subject idx ~subject:e.subject ~pd_id;
      if not e.erased then begin
        let indexed = indexed_fields_of t e.type_name in
        (if indexed <> [] then
           match decode_record_at t e.record_blocks e.record_size with
           | Some record ->
               Index.add_entry idx ~pd_id ~type_name:e.type_name ~indexed record
           | None -> ());
        match decode_membrane_at t e.membrane_blocks e.membrane_size with
        | Some m -> Index.set_expiry idx ~pd_id (expiry_instant m)
        | None -> ()
      end)
    ;
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
  match try_read_extent t e.membrane_blocks e.membrane_size with
  | None -> Some "membrane extent unreadable"
  | Some raw when not (sum_matches e.membrane_sum raw) ->
      Some "membrane extent checksum mismatch"
  | Some raw -> (
      match Membrane.decode raw with
      | Error _ -> Some "membrane undecodable"
      | Ok _ -> (
          match try_read_extent t e.record_blocks e.record_size with
          | None -> Some "record extent unreadable"
          | Some raw when not (sum_matches e.record_sum raw) ->
              Some "record extent checksum mismatch"
          | Some raw ->
              if not e.erased then (
                match Record.decode raw with
                | Error _ -> Some "record undecodable"
                | Ok _ -> None)
              else None))

let fsck_repair t =
  let problems = fsck_check t in
  let actions = ref [] in
  let act fmt = Format.kasprintf (fun s -> actions := s :: !actions) fmt in
  let device_faults = ref false in
  let zero_block b =
    try
      zero_blocks t [ b ];
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
          (e.record_blocks @ e.membrane_blocks);
        mark_free t e.record_blocks;
        mark_free t e.membrane_blocks;
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
  (* 3. release allocated blocks no surviving entry owns *)
  let owned = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ e ->
      List.iter
        (fun b -> Hashtbl.replace owned b ())
        (e.record_blocks @ e.membrane_blocks))
    t.entries;
  let free = free_map t in
  let leaked = ref [] in
  Array.iteri
    (fun i is_free ->
      let b = t.data_start + i in
      if (not is_free) && not (Hashtbl.mem owned b) then leaked := b :: !leaked)
    free;
  if !leaked <> [] then begin
    mark_free t !leaked;
    act "released %d leaked block(s)" (List.length !leaked)
  end;
  (* 4. scrub free space: a free block must hold no bytes at all *)
  let scrubbed = ref 0 in
  Array.iteri
    (fun i is_free ->
      let b = t.data_start + i in
      if is_free && Block_device.is_written t.dev b then
        if zero_block b then incr scrubbed)
    free;
  if !scrubbed > 0 then act "scrubbed %d free block(s)" !scrubbed;
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
  (* the repair rewrote the bitmap and scrubbed free space wholesale: the
     derived segment table is stale — rebuild it from the bitmap on next
     use *)
  (match t.segstore with Some ss -> Segstore.invalidate ss | None -> ());
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
    rr_scrubbed_blocks = !scrubbed;
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

let replay_warning t = t.replay_warning

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

let segmented t = t.segmented

let set_group_commit t n =
  (* never reorder across a window change: drain the buffer first *)
  retrying t (fun () -> Journal_ring.flush t.ring);
  Journal_ring.barrier t.ring;
  Journal_ring.set_window t.ring n

let group_commit_window t = Journal_ring.window t.ring

(* The explicit durability call: flush AND settle. *)
let flush_journal t =
  retrying t (fun () -> Journal_ring.flush t.ring);
  Journal_ring.barrier t.ring

let pending_journal_ops t = Journal_ring.pending_ops t.ring

let set_compaction_pool t pool = t.pool <- Some pool

let segment_table t =
  match t.segstore with
  | None -> []
  | Some ss ->
      ensure_seg_hydrated t;
      Segstore.live_table ss

let segment_dirty_blocks t =
  match t.segstore with
  | None -> 0
  | Some ss ->
      ensure_seg_hydrated t;
      Segstore.dirty_blocks ss

let free_segments t =
  match t.segstore with
  | None -> 0
  | Some ss ->
      ensure_seg_hydrated t;
      Segstore.free_segs ss 0 + Segstore.free_segs ss 1 + Segstore.free_segs ss 2

let stats t =
  (* mirror the ring's group-commit tallies into the counter set so one
     [Stats.Counter.to_list] shows the whole store *)
  let sync name v =
    let cur = Stats.Counter.get t.counters name in
    if v > cur then Stats.Counter.incr t.counters ~by:(v - cur) name
  in
  sync "committed_batches" (Journal_ring.batches t.ring);
  sync "batched_ops" (Journal_ring.batched_ops t.ring);
  t.counters
