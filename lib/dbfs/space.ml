(* DBFS space management: zones, pages and slots, the free map, both
   placement policies, and the destruction of superseded bytes (see
   space.mli).

   Data-region layout:

   [data_start, rec_start)   membrane zone (one per entry, any sensitivity)
   [rec_start,  high_start)  ordinary records
   [high_start, block_count) High-sensitivity records (stored apart, §3(1))

   An extent that fits in one block is a slot: a byte range of a page (a
   data block) shared with other slots of its zone.  Each zone appends new
   slots to its open page, whose bytes are kept in memory; a full page
   gives way to a fresh one from the allocator.  An extent larger than a
   block takes whole blocks of its own, from offset 0.  A page is
   allocated in the free map while it holds a live slot (the heap also
   reserves a fresh page as soon as it opens), and freed when its last
   slot dies: dead space inside a partly live page is not reused, so a
   page never costs more than one block per live slot.

   Under [Segments] each zone is carved into fixed-size segments.  Pages
   and large extents are bump-allocated at the write pointer of their
   zone's single open segment, so the device sees sequential appends per
   zone.  A full segment (or one a remount abandons) is sealed: it only
   loses liveness until the compactor relocates its survivors and hands it
   back free.  Dead slots in a sealed segment keep their plaintext until
   purged — synchronously on every delete and erasure, and by the
   compactor.  A fully dead segment is reclaimed with trims, the simulated
   erase-block discard that the scattered pages of [Heap] can never use,
   because live neighbours share their erase block. *)

module Block_device = Rgpdos_block.Block_device
module Journal_ring = Rgpdos_block.Journal_ring
module Clock = Rgpdos_util.Clock
module Codec = Rgpdos_util.Codec
module Stats = Rgpdos_util.Stats

open Rgpdos_util.Codec

type allocator = Heap | Segments of int

let default_seg_blocks = 64
let segments = Segments default_seg_blocks

(* Superblock form: (segmented, segment size); a heap store records the
   default size. *)
let encode_allocator w a =
  let segmented, seg_blocks =
    match a with
    | Heap -> (false, default_seg_blocks)
    | Segments n -> (true, n)
  in
  Codec.Writer.bool w segmented;
  Codec.Writer.int w seg_blocks

let decode_allocator r =
  let* segmented = Codec.Reader.bool r in
  let* seg_blocks = Codec.Reader.int r in
  if not segmented then Ok Heap
  else if seg_blocks > 0 then Ok (Segments seg_blocks)
  else Error "bad DBFS segment size"

(* Compaction / backpressure policy (segments only).  All figures are
   deterministic: the stall is simulated-clock time charged to the op
   that rode over the threshold, not host sleep. *)
let compact_liveness_pct = 35.0
let compact_batch = 8
let dirty_trigger_pct = 10 (* dirty pages as % of data region: compact *)
let backpressure_pct = 25 (* dirty still above this after compacting: stall *)
let backpressure_stall_ns = 200_000

(* Channels of the store's own traffic: negative, so they never collide
   with consumer-facing channels (DED shards use 0..n).  [-1] is the
   journal ring's flush channel and [-3] DBFS's index prefetch.  A
   commit's payload write goes on [data_channel] and the page read its
   destruction needs on [destroy_channel], so both are in flight while the
   ring flushes. *)
let data_channel = -2
let destroy_channel = -4

type zone = Z_membrane | Z_record of bool

let zone_idx = function
  | Z_membrane -> 0
  | Z_record false -> 1
  | Z_record true -> 2

type extent = { blocks : int list; off : int; size : int }

type layout = {
  l_data_start : int;
  l_rec_start : int;
  l_high_start : int;
  l_block_count : int;
}

(* ------------------------------------------------------------------ *)
(* segment table                                                      *)

type seg_state = S_free | S_open | S_sealed

let state_to_string = function
  | S_free -> "free"
  | S_open -> "open"
  | S_sealed -> "sealed"

type seg = {
  g_id : int;
  g_class : int; (* zone index *)
  g_first : int; (* first device block *)
  g_nblocks : int;
  mutable g_state : seg_state;
  mutable g_used : int; (* bump pointer, in blocks *)
  mutable g_live : int; (* live (allocated) pages *)
  mutable g_live_bytes : int; (* bytes of the live slots *)
}

(* The live table is derived state over the bitmap and the slot map:
   maintained write-through by [mark_used]/[mark_free] while mounted,
   rebuilt after a remount, so it can never disagree with the persisted
   truth and clean mounts stay O(1). *)
type segs = {
  seg_blocks : int;
  zones : (int * int) array; (* per class: [lo, hi) device blocks *)
  segs : seg array;
  class_start : int array; (* first index into [segs] per class *)
  class_count : int array;
  open_seg : int option array; (* per class: index into [segs] *)
  mutable hydrated : bool;
  dirty : (int, unit) Hashtbl.t;
      (* pages that may hold bytes outside their live slots (dead slots,
         or a whole freed page), awaiting a purge.  An explicit set: the
         purge scrubs exactly these pages, once. *)
}

let make_segs ~seg_blocks zones =
  if seg_blocks <= 0 then invalid_arg "Space: seg_blocks";
  let zones = Array.of_list zones in
  let nz = Array.length zones in
  let class_start = Array.make nz 0 in
  let class_count = Array.make nz 0 in
  let segs = ref [] in
  let id = ref 0 in
  Array.iteri
    (fun c (lo, hi) ->
      class_start.(c) <- !id;
      let n = (hi - lo) / seg_blocks in
      class_count.(c) <- n;
      for i = 0 to n - 1 do
        segs :=
          {
            g_id = !id + i;
            g_class = c;
            g_first = lo + (i * seg_blocks);
            g_nblocks = seg_blocks;
            g_state = S_free;
            g_used = 0;
            g_live = 0;
            g_live_bytes = 0;
          }
          :: !segs
      done;
      id := !id + n)
    zones;
  {
    seg_blocks;
    zones;
    segs = Array.of_list (List.rev !segs);
    class_start;
    class_count;
    open_seg = Array.make nz None;
    hydrated = false;
    dirty = Hashtbl.create 256;
  }

(* Segment owning a device block; zone tails smaller than a segment are
   never allocated and belong to none. *)
let seg_of_block s b =
  let found = ref None in
  Array.iteri
    (fun c (lo, hi) ->
      if !found = None && b >= lo && b < hi then begin
        let i = (b - lo) / s.seg_blocks in
        if i < s.class_count.(c) then found := Some s.segs.(s.class_start.(c) + i)
      end)
    s.zones;
  !found

let seal s g =
  if g.g_state = S_open then begin
    g.g_state <- S_sealed;
    if s.open_seg.(g.g_class) = Some g.g_id then s.open_seg.(g.g_class) <- None
  end

let next_free_seg s cls =
  let lo = s.class_start.(cls) in
  let hi = lo + s.class_count.(cls) in
  let rec go i =
    if i >= hi then None
    else if s.segs.(i).g_state = S_free then Some s.segs.(i)
    else go (i + 1)
  in
  go lo

(* Bump-allocate [n] contiguous blocks in class [cls].  Placement only:
   liveness is accounted when the journaled op marks the slots live, so
   replayed and live ops account identically.  An extent larger than one
   segment takes a run of consecutive free segments and seals them. *)
let bump_alloc s ~cls n =
  if n <= s.seg_blocks then begin
    let take g =
      let first = g.g_first + g.g_used in
      g.g_used <- g.g_used + n;
      if g.g_used >= g.g_nblocks then seal s g;
      Some (List.init n (fun i -> first + i))
    in
    let open_ok g = g.g_state = S_open && g.g_used + n <= g.g_nblocks in
    match s.open_seg.(cls) with
    | Some i when open_ok s.segs.(i) -> take s.segs.(i)
    | cur -> (
        (match cur with Some i -> seal s s.segs.(i) | None -> ());
        match next_free_seg s cls with
        | None -> None
        | Some g ->
            g.g_state <- S_open;
            g.g_used <- 0;
            s.open_seg.(cls) <- Some g.g_id;
            take g)
  end
  else begin
    let segs_needed = ((n - 1) / s.seg_blocks) + 1 in
    let lo = s.class_start.(cls) in
    let hi = lo + s.class_count.(cls) in
    let rec find i run =
      if i >= hi then None
      else if s.segs.(i).g_state = S_free then
        if run + 1 >= segs_needed then Some (i - run) else find (i + 1) (run + 1)
      else find (i + 1) 0
    in
    match find lo 0 with
    | None -> None
    | Some first_idx ->
        let first = s.segs.(first_idx).g_first in
        let remaining = ref n in
        for k = first_idx to first_idx + segs_needed - 1 do
          let g = s.segs.(k) in
          g.g_state <- S_sealed;
          g.g_used <- min !remaining g.g_nblocks;
          remaining := !remaining - g.g_used
        done;
        Some (List.init n (fun i -> first + i))
  end

(* Whether [n] more blocks of class [cls] fit without compacting. *)
let bump_room s ~cls n =
  let open_room =
    match s.open_seg.(cls) with
    | Some i when s.segs.(i).g_state = S_open ->
        s.segs.(i).g_nblocks - s.segs.(i).g_used
    | _ -> 0
  in
  n <= open_room || (n <= s.seg_blocks && next_free_seg s cls <> None)

let note_alloc s b =
  match seg_of_block s b with
  | None -> ()
  | Some g ->
      g.g_live <- g.g_live + 1;
      let off = b - g.g_first + 1 in
      if off > g.g_used then g.g_used <- off;
      if g.g_state = S_free then g.g_state <- S_sealed

let note_free s b =
  match seg_of_block s b with
  | None -> ()
  | Some g -> g.g_live <- max 0 (g.g_live - 1)

let note_bytes s b delta =
  match seg_of_block s b with
  | None -> ()
  | Some g -> g.g_live_bytes <- max 0 (g.g_live_bytes + delta)

let dirty_in s g =
  let hi = g.g_first + g.g_nblocks in
  Hashtbl.fold
    (fun b () acc -> if b >= g.g_first && b < hi then b :: acc else acc)
    s.dirty []
  |> List.sort compare

let take_dirty s =
  let all = Hashtbl.fold (fun b () acc -> b :: acc) s.dirty [] in
  Hashtbl.reset s.dirty;
  List.sort compare all

(* The compactor has relocated (or dropped) every live byte and
   destroyed the segment's contents: hand it back for reuse. *)
let reclaim_seg s g =
  g.g_state <- S_free;
  g.g_used <- 0;
  g.g_live <- 0;
  g.g_live_bytes <- 0;
  if s.open_seg.(g.g_class) = Some g.g_id then s.open_seg.(g.g_class) <- None

(* Sealed segments with any consumed space whose liveness (live slot
   bytes / bytes of the pages up to the bump pointer) is at or below
   [liveness_pct], fully dead first (pure reclaim, no copy), then lowest
   liveness: a page with one live slot left is mostly dead space.  Open
   segments never are victims. *)
let victims s ~block_size ~max_victims ~liveness_pct =
  let cands = ref [] in
  Array.iter
    (fun g ->
      if g.g_state = S_sealed && g.g_used > 0 then begin
        let ratio =
          100.0 *. float_of_int g.g_live_bytes
          /. float_of_int (g.g_used * block_size)
        in
        if ratio <= liveness_pct then cands := (ratio, g) :: !cands
      end)
    s.segs;
  List.sort (fun (ra, a) (rb, b) -> compare (ra, a.g_id) (rb, b.g_id)) !cands
  |> List.filteri (fun i _ -> i < max_victims)
  |> List.map snd

let invalidate s =
  Array.iter
    (fun g ->
      g.g_state <- S_free;
      g.g_used <- 0;
      g.g_live <- 0;
      g.g_live_bytes <- 0)
    s.segs;
  Array.fill s.open_seg 0 (Array.length s.open_seg) None;
  Hashtbl.reset s.dirty;
  s.hydrated <- false

(* ------------------------------------------------------------------ *)
(* the data region                                                    *)

type placement =
  | First_fit of int ref array
      (* per-zone cursors, in free-map coordinates: every slot below
         [!(hints.(z))] inside zone [z] is allocated.  Keeps first-fit
         amortized O(1) over append-heavy workloads while returning the
         same placements (frees move the hint back). *)
  | Bump of segs

(* The bitmap is hydrated on demand: a clean mount does not read it
   (keeping mount O(1)); the first allocation, free or fsck pulls it off
   the device. *)
type free_state = F_unloaded | F_loaded of bool array

(* [present = false]: the store never checkpointed a bitmap, so every
   data block is free. *)
type root = { present : bool; bytes : int }

(* A zone's open page: where its next slot goes ([fill]), and the bytes
   the device holds for it, as of its last write that returned. *)
type open_page = { page : int; mutable fill : int; mutable image : string }

type t = {
  dev : Block_device.t;
  ring : Journal_ring.t;
  counters : Stats.Counter.t;
  data_start : int;
  rec_start : int;
  high_start : int;
  bitmap_start : int;
  mutable free_state : free_state;
  mutable root : root;
  placement : placement;
  mutable compacting : bool; (* reentrancy guard for the compactor *)
  live : unit -> extent list;
  mutable slots : (int, (int * int) list) Hashtbl.t option;
      (* the slot map: page -> its live slots [(off, len)], sorted.  Like
         the bitmap it is loaded on first use after a mount, from the
         entries ([live]), and then changes only through the idempotent
         transitions of [mark_used]/[mark_free]. *)
  opened : open_page option array; (* per zone *)
  mutable closed : (int * string) list;
      (* images of pages that placement closed since the last
         [page_writes]: the commit that placed their last slots writes
         them from here *)
}

let encode_root w t =
  Codec.Writer.bool w t.root.present;
  Codec.Writer.int w t.root.bytes

let decode_root r =
  let* present = Codec.Reader.bool r in
  let* bytes = Codec.Reader.int r in
  Ok { present; bytes }

let block_size t = (Block_device.config t.dev).Block_device.block_size
let block_count t = (Block_device.config t.dev).Block_device.block_count

let create allocator dev ~ring ~counters ~data_start ~bitmap_start ~live root =
  let block_count = (Block_device.config dev).Block_device.block_count in
  let rec_start = data_start + ((block_count - data_start) / 4) in
  let high_start = rec_start + ((block_count - rec_start) * 3 / 4) in
  let free_state, root, slots =
    match root with
    | Some r -> (F_unloaded, r, None)
    | None ->
        ( F_loaded (Array.make (block_count - data_start) true),
          { present = false; bytes = 0 },
          Some (Hashtbl.create 1024) )
  in
  let placement =
    match allocator with
    | Heap -> First_fit [| ref 0; ref 0; ref 0 |]
    | Segments seg_blocks ->
        Bump
          (make_segs ~seg_blocks
             [ (data_start, rec_start); (rec_start, high_start);
               (high_start, block_count) ])
  in
  {
    dev;
    ring;
    counters;
    data_start;
    rec_start;
    high_start;
    bitmap_start;
    free_state;
    root;
    placement;
    compacting = false;
    live;
    slots;
    opened = Array.make 3 None;
    closed = [];
  }

let layout t =
  {
    l_data_start = t.data_start;
    l_rec_start = t.rec_start;
    l_high_start = t.high_start;
    l_block_count = block_count t;
  }

(* Zone bounds in free-map coordinates (offset by data_start). *)
let zone_bounds t = function
  | Z_membrane -> (0, t.rec_start - t.data_start)
  | Z_record false -> (t.rec_start - t.data_start, t.high_start - t.data_start)
  | Z_record true -> (t.high_start - t.data_start, block_count t - t.data_start)

let zone_of_slot t i =
  if i < t.rec_start - t.data_start then 0
  else if i < t.high_start - t.data_start then 1
  else 2

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

(* Flush-before-destroy: commit every buffered journal record and settle
   it, so no record whose bytes are about to be destroyed can be rolled
   back by a crash.  Free at window 1, where [append] already settled. *)
let flush_journal t =
  retrying t (fun () -> Journal_ring.flush t.ring);
  Journal_ring.barrier t.ring

let zero t = function
  | [] -> ()
  | blocks ->
      let zeros = String.make (block_size t) '\000' in
      retrying t (fun () ->
          Block_device.write_vec t.dev (List.map (fun b -> (b, zeros)) blocks))

let free_map t =
  match t.free_state with
  | F_loaded a -> a
  | F_unloaded ->
      let n = block_count t - t.data_start in
      let a =
        if not t.root.present then Array.make n true
        else begin
          let bs = block_size t in
          let nblocks = ((t.root.bytes - 1) / bs) + 1 in
          let blocks = List.init nblocks (fun i -> t.bitmap_start + i) in
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

(* ------------------------------------------------------------------ *)
(* slots                                                              *)

(* [(page, off, len)] of each block of an extent: a slot is one piece; a
   larger extent owns whole blocks from offset 0. *)
let extent_pieces ~block_size x =
  match x.blocks with
  | [ b ] -> [ (b, x.off, x.size) ]
  | blocks ->
      List.mapi (fun i b -> (b, 0, min block_size (x.size - (i * block_size)))) blocks

let pieces t = extent_pieces ~block_size:(block_size t)

let has_slot l off len = List.exists (fun (o, n) -> o = off && n = len) l

let add_slot h (b, off, len) =
  let l = Option.value ~default:[] (Hashtbl.find_opt h b) in
  if has_slot l off len then false
  else begin
    Hashtbl.replace h b ((off, len) :: l);
    true
  end

let remove_slot h (b, off, len) =
  match Hashtbl.find_opt h b with
  | Some l when has_slot l off len ->
      (match List.filter (fun (o, n) -> o <> off || n <> len) l with
      | [] -> Hashtbl.remove h b
      | l -> Hashtbl.replace h b l);
      true
  | _ -> false

let slot_map t =
  match t.slots with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 1024 in
      List.iter
        (fun x -> List.iter (fun p -> ignore (add_slot h p)) (pieces t x))
        (t.live ());
      t.slots <- Some h;
      h

(* A page's live slots, in offset order. *)
let live_slots t b =
  List.sort compare (Option.value ~default:[] (Hashtbl.find_opt (slot_map t) b))

let open_image t b =
  Array.fold_left
    (fun acc o ->
      match o with Some o when o.page = b -> Some o.image | _ -> acc)
    None t.opened

let is_open t b = open_image t b <> None

(* A page whose last slot died: nothing appends to it any more. *)
let forget_open t b =
  Array.iteri
    (fun z o ->
      match o with Some o when o.page = b -> t.opened.(z) <- None | _ -> ())
    t.opened

(* [raw] with every byte outside [live] zeroed. *)
let clear_outside raw live =
  let b = Bytes.of_string raw in
  let pos =
    List.fold_left
      (fun pos (off, len) ->
        if off > pos then Bytes.fill b pos (off - pos) '\000';
        max pos (off + len))
      0 live
  in
  Bytes.fill b pos (Bytes.length b - pos) '\000';
  Bytes.unsafe_to_string b

(* The writes that leave no byte of [pages] outside a live slot: a page
   with no live slot is zeroed whole (when it holds bytes), any other is
   rewritten from [bytes_of] with its dead bytes cleared, if it has any. *)
let scrub_writes t ~bytes_of pages =
  let zeros = String.make (block_size t) '\000' in
  List.filter_map
    (fun b ->
      match live_slots t b with
      | [] -> if Block_device.is_written t.dev b then Some (b, zeros) else None
      | live ->
          let raw = bytes_of b in
          let clean = clear_outside raw live in
          if clean <> raw then Some (b, clean) else None)
    pages

(* A write returned: an open page's image becomes what it wrote. *)
let landed t writes =
  Array.iter
    (function
      | Some o -> (
          match List.assoc_opt o.page writes with
          | Some raw -> o.image <- raw
          | None -> ())
      | None -> ())
    t.opened

let write t = function
  | [] -> ()
  | writes ->
      retrying t (fun () -> Block_device.write_vec t.dev writes);
      landed t writes

(* Scrub [pages] now: read, in one request, those that keep live slots
   and whose bytes are not in hand (an open page's image, or [known]),
   and write back every page that changes.  Returns the pages written. *)
let scrub ?(known = []) t pages =
  let need =
    List.filter
      (fun b ->
        live_slots t b <> [] && (not (is_open t b)) && not (List.mem_assoc b known))
      pages
  in
  let got =
    match need with
    | [] -> known
    | _ -> known @ retrying t (fun () -> Block_device.read_vec t.dev need)
  in
  (* each block's first pair, as [List.assoc] would find it, without a
     scan per page: a repair scrubs every written page at once *)
  let first = Hashtbl.create 64 in
  List.iter (fun (b, raw) -> if not (Hashtbl.mem first b) then Hashtbl.add first b raw) got;
  let bytes_of b =
    match open_image t b with Some raw -> raw | None -> Hashtbl.find first b
  in
  let writes = scrub_writes t ~bytes_of pages in
  write t writes;
  List.length writes

(* [scrub] of [pages] in one request, or page by page when that faults,
   so exactly the pages that still fault are skipped, each handed to
   [on_fault]. *)
let scrub_readable t pages ~on_fault =
  try scrub t pages
  with Block_device.Faulted _ ->
    List.fold_left
      (fun n b ->
        try n + scrub t [ b ]
        with Block_device.Faulted _ ->
          on_fault b;
          n)
      0 pages

(* Rebuild the segment live table on first use after a mount (or a
   repair).  Every segment holding any allocated or written page is
   sealed — appends resume in fresh segments, which is what makes the
   bump pointers trustworthy without persisting them.  Free+written pages
   are dirty, and so is every live page its slots do not fill: it may
   hold a dead slot that was not purged before the mount. *)
let hydrate t s =
  if not s.hydrated then begin
    let free = free_map t in
    let bs = block_size t in
    Hashtbl.reset s.dirty;
    Array.iter
      (fun g ->
        let live = ref 0 and used = ref 0 and bytes = ref 0 in
        for b = g.g_first to g.g_first + g.g_nblocks - 1 do
          if not free.(b - t.data_start) then begin
            incr live;
            used := b - g.g_first + 1;
            let held = List.fold_left (fun n (_, len) -> n + len) 0 (live_slots t b) in
            bytes := !bytes + held;
            if held < bs then Hashtbl.replace s.dirty b ()
          end
          else if Block_device.is_written t.dev b then begin
            (* a pre-crash purge may already have zeroed this page; one
               redundant scrub per mount is the price of not persisting
               the dirty set *)
            Hashtbl.replace s.dirty b ();
            used := b - g.g_first + 1
          end
        done;
        g.g_live <- !live;
        g.g_live_bytes <- !bytes;
        g.g_used <- (if !live > 0 then g.g_nblocks else !used);
        g.g_state <- (if !live > 0 || !used > 0 then S_sealed else S_free))
      s.segs;
    Array.fill s.open_seg 0 (Array.length s.open_seg) None;
    s.hydrated <- true
  end

(* Slot transitions are idempotent (adding a live slot or removing a dead
   one changes nothing), and the bitmap follows them: a page is allocated
   while it holds a live slot.  So replayed and live ops drive the slot
   map, the bitmap and the segment table identically. *)
let mark_used t x =
  let free = free_map t in
  let h = slot_map t in
  (match t.placement with Bump s -> hydrate t s | First_fit _ -> ());
  List.iter
    (fun ((b, _, len) as p) ->
      let added = add_slot h p in
      let i = b - t.data_start in
      match t.placement with
      | Bump s ->
          if added then note_bytes s b len;
          if free.(i) then begin
            free.(i) <- false;
            note_alloc s b
          end
      | First_fit _ -> free.(i) <- false)
    (pieces t x)

let mark_free t x =
  let free = free_map t in
  let h = slot_map t in
  (match t.placement with Bump s -> hydrate t s | First_fit _ -> ());
  List.iter
    (fun ((b, _, len) as p) ->
      let removed = remove_slot h p in
      let i = b - t.data_start in
      (match t.placement with
      | Bump s when removed ->
          note_bytes s b (-len);
          if Block_device.is_written t.dev b || is_open t b then
            Hashtbl.replace s.dirty b ()
      | _ -> ());
      if (not (Hashtbl.mem h b)) && not free.(i) then begin
        free.(i) <- true;
        forget_open t b;
        match t.placement with
        | First_fit hints ->
            let hint = hints.(zone_of_slot t i) in
            if i < !hint then hint := i
        | Bump s -> note_free s b
      end)
    (pieces t x)

(* ------------------------------------------------------------------ *)
(* destruction                                                        *)

(* Reclaim a sealed segment with no live page left: trim whatever is
   still written — one discard command per segment, zero bytes moved —
   forget its dirty pages and hand it back to the allocator. *)
let reclaim_dead_segment t s g =
  let n = ref 0 in
  for b = g.g_first to g.g_first + g.g_nblocks - 1 do
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
  List.iter (Hashtbl.remove s.dirty) (dirty_in s g);
  reclaim_seg s g;
  Stats.Counter.incr t.counters "segments_reclaimed"

(* Destroy every dirty byte: trim fully dead sealed segments, then scrub
   the dirty pages of the rest in one write, after [flush_journal];
   pages not in hand ([known]) are read in one request first. *)
let purge ?known t s =
  hydrate t s;
  if Hashtbl.length s.dirty > 0 then begin
    flush_journal t;
    Array.iter
      (fun g ->
        if g.g_state = S_sealed && g.g_live = 0 then reclaim_dead_segment t s g)
      s.segs;
    match take_dirty s with
    | [] -> ()
    | dl ->
        Stats.Counter.incr t.counters ~by:(scrub ?known t dl)
          "purge_zeroed_blocks"
  end

type relocate = in_victim:(int -> bool) -> unit

(* Crash windows (both exercised by the fault campaign): after a
   relocation is journaled but before its victim is destroyed, replay
   scrubs the superseded copy ([scrub_freed]); after a relocated payload
   is written but before its record is durable, its bytes lie outside
   every live slot, which [repair]'s scrub destroys. *)
let compact ?(max_victims = compact_batch) ?(liveness_pct = compact_liveness_pct)
    t ~relocate =
  match t.placement with
  | First_fit _ -> 0
  | Bump s ->
      if t.compacting then 0
      else begin
        t.compacting <- true;
        Fun.protect
          ~finally:(fun () -> t.compacting <- false)
          (fun () ->
            hydrate t s;
            match
              victims s ~block_size:(block_size t) ~max_victims ~liveness_pct
            with
            | [] -> 0
            | victims ->
                let in_victim b =
                  List.exists
                    (fun g -> b >= g.g_first && b < g.g_first + g.g_nblocks)
                    victims
                in
                (* nothing appends to a victim: an open page in one closes
                   (no placement is pending while the compactor runs) *)
                Array.iteri
                  (fun z o ->
                    match o with
                    | Some o when in_victim o.page -> t.opened.(z) <- None
                    | _ -> ())
                  t.opened;
                (* buffered records may reference pages this pass is
                   about to destroy.  Only flushed on actual work, so an
                   idle tick cannot defeat group commit. *)
                retrying t (fun () -> Journal_ring.flush t.ring);
                Stats.Counter.incr t.counters "compactions";
                relocate ~in_victim;
                (* make the relocations durable before any victim page is
                   trimmed or scrubbed *)
                flush_journal t;
                List.iter
                  (fun g ->
                    if g.g_live = 0 then reclaim_dead_segment t s g
                    else
                      (* survivors could not move: scrub the pending dead
                         pages (once — the dirty set forgets them).  The
                         relocations have committed, so a page that stays
                         unreadable stays dirty, counted and left for fsck
                         like an unreadable survivor, and the pass returns *)
                      match dirty_in s g with
                      | [] -> ()
                      | dl ->
                          List.iter (Hashtbl.remove s.dirty) dl;
                          Stats.Counter.incr t.counters
                            ~by:
                              (scrub_readable t dl ~on_fault:(fun b ->
                                   Hashtbl.replace s.dirty b ();
                                   Stats.Counter.incr t.counters "compact_scrub_failures"))
                            "purge_zeroed_blocks")
                  victims;
                List.length victims)
      end

(* Per-mutator maintenance: compact when the dirty backlog crosses the
   trigger; if it is STILL above the backpressure threshold afterwards
   (the survivors are too live to evict), charge a deterministic stall
   to the op that rode over the limit. *)
let maintain t s ~relocate =
  if not t.compacting then begin
    hydrate t s;
    let data_blocks = block_count t - t.data_start in
    if Hashtbl.length s.dirty * 100 >= data_blocks * dirty_trigger_pct then
      ignore (compact t ~relocate);
    if Hashtbl.length s.dirty * 100 >= data_blocks * backpressure_pct then begin
      Stats.Counter.incr t.counters "backpressure_stalls";
      Stats.Counter.incr t.counters ~by:backpressure_stall_ns
        "backpressure_stall_ns";
      Clock.advance (Block_device.clock t.dev) backpressure_stall_ns
    end
  end

let scrub_freed t = function
  | [] -> ()
  | freed -> (
      let pages =
        List.sort_uniq compare (List.concat_map (fun x -> x.blocks) freed)
        |> List.filter (Block_device.is_written t.dev)
      in
      match scrub t pages with
      | 0 -> ()
      | n -> Stats.Counter.incr t.counters ~by:n "replay_zeroed_blocks")

(* ------------------------------------------------------------------ *)
(* placement                                                          *)

let first_fit free ~hint ~lo ~hi n =
  if n = 0 then Some []
  else begin
    let start_at = max lo !hint in
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
        hint := if !first_free = s then s + n else !first_free;
        Some (List.init n (fun j -> s + j))
    | None ->
        let out = ref [] in
        let found = ref 0 in
        let j = ref start_at in
        while !found < n && !j < hi do
          if free.(!j) then begin
            free.(!j) <- false;
            out := !j :: !out;
            incr found
          end;
          incr j
        done;
        if !found < n then begin
          List.iter (fun i -> free.(i) <- true) !out;
          None
        end
        else begin
          (* every free slot below !j was just consumed *)
          hint := !j;
          Some (List.rev !out)
        end
  end

(* Fresh blocks for [zone]: [Heap] reserves them in the bitmap at once;
   [Segments] only picks them — the journaled op marks them — and the
   bump pointer alone prevents double placement in between. *)
let alloc_blocks t zone n =
  match t.placement with
  | First_fit hints ->
      let lo, hi = zone_bounds t zone in
      first_fit (free_map t) ~hint:hints.(zone_idx zone) ~lo ~hi n
      |> Option.map (List.map (fun i -> t.data_start + i))
  | Bump s ->
      hydrate t s;
      bump_alloc s ~cls:(zone_idx zone) n

let blocks_for t size = if size = 0 then 0 else ((size - 1) / block_size t) + 1

(* One extent of [size] bytes in [zone] and the fresh blocks it took. *)
let place_one t zone size =
  let bs = block_size t in
  let z = zone_idx zone in
  if size = 0 then Some ({ blocks = []; off = 0; size }, [])
  else if size > bs then
    Option.map
      (fun blocks -> ({ blocks; off = 0; size }, blocks))
      (alloc_blocks t zone (blocks_for t size))
  else
    match t.opened.(z) with
    | Some o when o.fill + size <= bs ->
        let off = o.fill in
        o.fill <- off + size;
        Some ({ blocks = [ o.page ]; off; size }, [])
    | cur -> (
        match alloc_blocks t zone 1 with
        | None -> None
        | Some blocks ->
            let page = List.hd blocks in
            Option.iter (fun o -> t.closed <- (o.page, o.image) :: t.closed) cur;
            t.opened.(z) <-
              Some { page; fill = size; image = String.make bs '\000' };
            Some ({ blocks; off = 0; size }, blocks))

(* All or nothing: a failed placement gives back the heap's reserved
   blocks and restores the open pages.  Under [Segments] a zone short of
   room is compacted before anything is placed, so the compactor's own
   commits never run between two placements of one mutation. *)
let place t items ~relocate =
  (match t.placement with
  | Bump s when not t.compacting ->
      hydrate t s;
      let short =
        List.exists
          (fun (zone, size) ->
            let z = zone_idx zone in
            let fits =
              size > 0 && size <= block_size t
              && match t.opened.(z) with
                 | Some o -> o.fill + size <= block_size t
                 | None -> false
            in
            (not fits) && not (bump_room s ~cls:z (blocks_for t size)))
          items
      in
      (* space-driven compaction is more aggressive than the dirty-driven
         pass: relocating up to 75%-live segments frees whole segments
         for reuse *)
      if short then
        ignore
          (compact t ~max_victims:(2 * compact_batch) ~liveness_pct:75.0
             ~relocate)
  | _ -> ());
  let saved = Array.map (Option.map (fun o -> { o with fill = o.fill })) t.opened in
  let closed = t.closed in
  let rec go acc fresh = function
    | [] -> Some (List.rev acc)
    | (zone, size) :: rest -> (
        match place_one t zone size with
        | Some (x, taken) -> go (x :: acc) (taken @ fresh) rest
        | None ->
            (match t.placement with
            | First_fit hints ->
                let free = free_map t in
                List.iter
                  (fun b ->
                    let i = b - t.data_start in
                    free.(i) <- true;
                    let hint = hints.(zone_of_slot t i) in
                    if i < !hint then hint := i)
                  fresh
            | Bump _ -> ());
            Array.blit saved 0 t.opened 0 (Array.length saved);
            t.closed <- closed;
            None)
  in
  go [] [] items

(* The payload writes of [placed]: each page a slot lands in, rebuilt
   from its image (zeros for a fresh page) with this commit's slots laid
   in; whole blocks for a larger extent. *)
let page_writes t placed =
  let bs = block_size t in
  let pages = Hashtbl.create 4 and order = ref [] and whole = ref [] in
  List.iter
    (fun (payload, x) ->
      match x.blocks with
      | [ b ] ->
          let img =
            match Hashtbl.find_opt pages b with
            | Some img -> img
            | None ->
                let base =
                  match open_image t b with
                  | Some raw -> raw
                  | None -> (
                      match List.assoc_opt b t.closed with
                      | Some raw -> raw
                      | None -> String.make bs '\000')
                in
                let img = Bytes.of_string base in
                Hashtbl.replace pages b img;
                order := b :: !order;
                img
          in
          Bytes.blit_string payload 0 img x.off x.size
      | blocks ->
          List.iteri
            (fun i b ->
              whole :=
                (b, String.sub payload (i * bs) (min bs (x.size - (i * bs))))
                :: !whole)
            blocks)
    placed;
  (* a page closes when a slot does not fit in it, so every slot placed
     in it is written by now or by this commit: no later commit needs
     its image *)
  t.closed <- [];
  (* each image is a fresh copy, handed over: nothing mutates it again *)
  List.rev_map (fun b -> (b, Bytes.unsafe_to_string (Hashtbl.find pages b))) !order
  @ List.rev !whole

type pending = {
  p_write : Block_device.ticket;
  p_writes : (int * string) list;
  p_read : Block_device.ticket option;
  p_retiring : extent list;
  p_destroy : bool;
}

(* The pages the commit's destruction will rewrite around a live
   neighbour and does not hold (not written by this commit, not open):
   on the heap the pages of [retiring]; on segments, when it destroys,
   every dirty page too, which the purge scrubs. *)
let destruction_reads t writes ~retiring ~destroy =
  let going = List.concat_map (pieces t) retiring in
  let pages =
    List.map (fun (b, _, _) -> b) going
    @
    match t.placement with
    | First_fit _ -> []
    | Bump s when destroy ->
        hydrate t s;
        Hashtbl.fold (fun b () acc -> b :: acc) s.dirty []
    | Bump _ -> []
  in
  match (t.placement, destroy) with
  | Bump _, false -> []
  | _ ->
      List.sort_uniq compare pages
      |> List.filter (fun b ->
             (not (List.mem_assoc b writes))
             && (not (is_open t b))
             && List.exists
                  (fun (off, len) -> not (List.mem (b, off, len) going))
                  (live_slots t b))

let submit ?(destroy = false) t placed ~retiring =
  let writes = page_writes t placed in
  let tk =
    retrying t (fun () ->
        Block_device.submit_write_vec t.dev ~channel:data_channel writes)
  in
  let read =
    match destruction_reads t writes ~retiring ~destroy with
    | [] -> None
    | pages -> (
        match
          retrying t (fun () ->
              Block_device.submit_read_vec t.dev ~channel:destroy_channel pages)
        with
        | rd -> Some rd
        | exception e ->
            ignore (Block_device.await t.dev tk);
            raise e)
  in
  {
    p_write = tk;
    p_writes = writes;
    p_read = read;
    p_retiring = retiring;
    p_destroy = destroy;
  }

let settle t p =
  ignore (Block_device.await t.dev p.p_write);
  Option.iter (fun tk -> ignore (Block_device.await t.dev tk)) p.p_read

let finish t p ~relocate =
  landed t p.p_writes;
  let known () =
    p.p_writes
    @ match p.p_read with Some tk -> Block_device.await t.dev tk | None -> []
  in
  match t.placement with
  | First_fit _ -> (
      match p.p_retiring with
      | [] -> () (* every insert retires nothing: skip the empty request *)
      | retiring ->
          flush_journal t;
          ignore
            (scrub ~known:(known ()) t
               (List.sort_uniq compare (List.concat_map (fun x -> x.blocks) retiring))))
  | Bump s ->
      if p.p_destroy then purge ~known:(known ()) t s;
      maintain t s ~relocate

(* ------------------------------------------------------------------ *)
(* persistence, introspection, invariant                              *)

let checkpoint t =
  match t.free_state with
  | F_unloaded -> [] (* no allocation since mount: device bitmap is current *)
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
      t.root <- { present = true; bytes = String.length raw };
      List.init nblocks (fun i ->
          (t.bitmap_start + i, String.sub raw (i * bs) (min bs (String.length raw - (i * bs)))))

let segment_table t =
  match t.placement with
  | First_fit _ -> []
  | Bump s ->
      hydrate t s;
      Array.to_list s.segs
      |> List.filter (fun g -> g.g_state <> S_free)
      |> List.map (fun g ->
             (g.g_id, state_to_string g.g_state, g.g_used, g.g_live, g.g_live_bytes))

type owner = {
  o_pd : string;
  o_high : bool;
  o_record : extent;
  o_membrane : extent;
}

let check t owners =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let free = free_map t in
  let bs = block_size t in
  let claimed = Hashtbl.create 64 in
  let claim pd_id (b, off, len) =
    if free.(b - t.data_start) then note "entry %s owns free block %d" pd_id b;
    if off < 0 || len <= 0 || off + len > bs then
      note "entry %s has slot %d+%d outside block %d" pd_id off len b;
    let l = Option.value ~default:[] (Hashtbl.find_opt claimed b) in
    Hashtbl.replace claimed b ((off, len, pd_id) :: l)
  in
  (* [misplaced b]: why block [b] is in the wrong zone for the extent *)
  let owns pd_id ~misplaced x =
    List.iter
      (fun ((b, _, _) as p) ->
        if b < t.data_start || b >= block_count t then
          note "entry %s owns non-data block %d" pd_id b
        else begin
          Option.iter (fun why -> note "entry %s %s (block %d)" pd_id why b)
            (misplaced b);
          claim pd_id p
        end)
      (pieces t x)
  in
  List.iter
    (fun o ->
      owns o.o_pd o.o_record ~misplaced:(fun b ->
          if b < t.rec_start then Some "stores record in membrane zone"
          else if o.o_high && b < t.high_start then
            Some "is sensitive but stored in the ordinary region"
          else if (not o.o_high) && b >= t.high_start then
            Some "is ordinary but stored in the sensitive region"
          else None);
      owns o.o_pd o.o_membrane ~misplaced:(fun b ->
          if b >= t.rec_start then Some "stores membrane outside membrane zone"
          else None))
    owners;
  (* slots of one page never overlap *)
  Hashtbl.iter
    (fun b l ->
      let sorted = List.sort compare l in
      ignore
        (List.fold_left
           (fun prev (off, len, pd) ->
             (match prev with
             | Some (poff, plen, ppd) when off < poff + plen ->
                 note "block %d: slots of %s and %s overlap" b ppd pd
             | _ -> ());
             Some (off, len, pd))
           None sorted))
    claimed;
  Array.iteri
    (fun i is_free ->
      if (not is_free) && not (Hashtbl.mem claimed (t.data_start + i)) then
        note "allocated block %d owned by no entry" (t.data_start + i))
    free;
  (* the slot map, once loaded, lists exactly the entries' slots *)
  (match t.slots with
  | None -> ()
  | Some h ->
      let pages = Hashtbl.create 64 in
      Hashtbl.iter (fun b _ -> Hashtbl.replace pages b ()) h;
      Hashtbl.iter (fun b _ -> Hashtbl.replace pages b ()) claimed;
      Hashtbl.iter
        (fun b () ->
          let mapped =
            List.sort compare (Option.value ~default:[] (Hashtbl.find_opt h b))
          in
          let owned =
            Option.value ~default:[] (Hashtbl.find_opt claimed b)
            |> List.map (fun (off, len, _) -> (off, len))
            |> List.sort_uniq compare
          in
          if mapped <> owned then
            note "block %d: slot map lists %d live slot(s), the entries %d" b
              (List.length mapped) (List.length owned))
        pages);
  (match t.placement with
  | Bump s when s.hydrated ->
      Array.iter
        (fun g ->
          let live = ref 0 in
          for b = g.g_first to g.g_first + g.g_nblocks - 1 do
            if not free.(b - t.data_start) then incr live
          done;
          if !live <> g.g_live then
            note "segment %d counts %d live page(s), the bitmap %d" g.g_id
              g.g_live !live)
        s.segs
  | _ -> ());
  List.rev !problems

let repair t ~owned ~on_fault ~act =
  let h = Hashtbl.create 1024 in
  List.iter (fun x -> List.iter (fun p -> ignore (add_slot h p)) (pieces t x)) owned;
  t.slots <- Some h;
  Array.fill t.opened 0 (Array.length t.opened) None;
  t.closed <- [];
  let free = free_map t in
  let leaked = ref 0 in
  Array.iteri
    (fun i is_free ->
      let live = Hashtbl.mem h (t.data_start + i) in
      if (not is_free) && not live then begin
        free.(i) <- true;
        incr leaked
      end
      else if is_free && live then free.(i) <- false)
    free;
  (match t.placement with
  | First_fit hints -> Array.iter (fun hint -> hint := 0) hints
  | Bump s -> invalidate s);
  if !leaked > 0 then act (Printf.sprintf "released %d leaked block(s)" !leaked);
  (* every data-page byte outside a live slot must be zero: the pages
     that still fault are skipped *)
  let written =
    List.filter (Block_device.is_written t.dev)
      (List.init (block_count t - t.data_start) (fun i -> t.data_start + i))
  in
  let scrubbed = scrub_readable t written ~on_fault:(fun _ -> on_fault ()) in
  if scrubbed > 0 then act (Printf.sprintf "scrubbed %d data page(s)" scrubbed);
  scrubbed
