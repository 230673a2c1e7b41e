(* DBFS space management: zones, the free map, both placement policies,
   and the destruction of superseded bytes (see space.mli).

   Data-region layout (unchanged since the zoned-allocation PR):

   [data_start, rec_start)   membrane zone (one per entry, any sensitivity)
   [rec_start,  high_start)  ordinary records
   [high_start, block_count) High-sensitivity records (stored apart, §3(1))

   Under [Segments] each zone is carved into fixed-size segments.  Every
   extent is bump-allocated at the write pointer of its zone's single
   open segment, so the device sees sequential appends per zone.  A full
   segment (or one a remount abandons) is sealed: it only loses liveness
   until the compactor relocates its survivors and hands it back free.
   Freed blocks in a sealed segment keep their plaintext until purged —
   synchronously on every delete and erasure, and by the compactor.  A
   fully dead segment is reclaimed with trims, the simulated erase-block
   discard that the scattered extents of [Heap] can never use, because
   live neighbours share their erase block. *)

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
let dirty_trigger_pct = 10 (* dirty blocks as % of data region: compact *)
let backpressure_pct = 25 (* dirty still above this after compacting: stall *)
let backpressure_stall_ns = 200_000

type zone = Z_membrane | Z_record of bool

let zone_idx = function
  | Z_membrane -> 0
  | Z_record false -> 1
  | Z_record true -> 2

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
  mutable g_live : int; (* live (allocated) blocks *)
  mutable g_live_bytes : int; (* live payload bytes (exact for blocks
                                 allocated this session, block-rounded
                                 for blocks inherited from the bitmap) *)
}

(* The live table is derived state over the bitmap: maintained
   write-through by [mark_used]/[mark_free] while mounted, rebuilt from
   the hydrated bitmap after a remount, so it can never disagree with
   the persisted truth and clean mounts stay O(1). *)
type segs = {
  seg_blocks : int;
  zones : (int * int) array; (* per class: [lo, hi) device blocks *)
  segs : seg array;
  class_start : int array; (* first index into [segs] per class *)
  class_count : int array;
  open_seg : int option array; (* per class: index into [segs] *)
  mutable hydrated : bool;
  dirty : (int, unit) Hashtbl.t;
      (* freed-but-not-yet-purged device blocks (still holding bytes).
         An explicit set, not a counter: the purge path zeroes exactly
         these blocks, so a block is scrubbed once — a zeroed block stays
         [is_written] on the device and must never re-enter the sweep. *)
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
   liveness is accounted when the journaled op marks the blocks used, so
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

(* A block turning live leaves the dirty set: after a crash, hydration
   queues free+written blocks, and replay then re-marks those that a
   replayed op owns — their bytes are that op's payload, not residue. *)
let note_alloc s b ~bytes =
  Hashtbl.remove s.dirty b;
  match seg_of_block s b with
  | None -> ()
  | Some g ->
      g.g_live <- g.g_live + 1;
      g.g_live_bytes <- g.g_live_bytes + bytes;
      let off = b - g.g_first + 1 in
      if off > g.g_used then g.g_used <- off;
      if g.g_state = S_free then g.g_state <- S_sealed

let note_free s b ~bytes ~written =
  match seg_of_block s b with
  | None -> ()
  | Some g ->
      g.g_live <- max 0 (g.g_live - 1);
      g.g_live_bytes <- max 0 (g.g_live_bytes - bytes);
      if written then Hashtbl.replace s.dirty b ()

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

(* Sealed segments with any consumed space whose liveness (live blocks /
   bump pointer) is at or below [liveness_pct], fully dead first (pure
   reclaim, no copy), then lowest liveness.  Open segments never are. *)
let victims s ~max_victims ~liveness_pct =
  let cands = ref [] in
  Array.iter
    (fun g ->
      if g.g_state = S_sealed && g.g_used > 0 then begin
        let ratio = 100.0 *. float_of_int g.g_live /. float_of_int g.g_used in
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

let create allocator dev ~ring ~counters ~data_start ~bitmap_start root =
  let block_count = (Block_device.config dev).Block_device.block_count in
  let rec_start = data_start + ((block_count - data_start) / 4) in
  let high_start = rec_start + ((block_count - rec_start) * 3 / 4) in
  let free_state, root =
    match root with
    | Some r -> (F_unloaded, r)
    | None ->
        ( F_loaded (Array.make (block_count - data_start) true),
          { present = false; bytes = 0 } )
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
   it, so no record whose blocks are about to be destroyed can be rolled
   back by a crash.  Free at window 1, where [append] already settled. *)
let flush_journal t =
  retrying t (fun () -> Journal_ring.flush t.ring);
  Journal_ring.barrier t.ring

let zero t = function
  | [] -> () (* every insert retires nothing: skip the empty request *)
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

(* Rebuild the segment live table from the bitmap on first use after a
   mount (or a repair).  Every segment holding any allocated or written
   block is sealed — appends resume in fresh segments, which is what
   makes the bump pointers trustworthy without persisting them — and
   free+written blocks are dirty. *)
let hydrate t s =
  if not s.hydrated then begin
    let free = free_map t in
    Hashtbl.reset s.dirty;
    Array.iter
      (fun g ->
        let live = ref 0 and used = ref 0 in
        for b = g.g_first to g.g_first + g.g_nblocks - 1 do
          if not free.(b - t.data_start) then begin
            incr live;
            used := b - g.g_first + 1
          end
          else if Block_device.is_written t.dev b then begin
            (* a pre-crash purge may already have zeroed this block; one
               redundant scrub per mount is the price of not persisting
               the dirty set *)
            Hashtbl.replace s.dirty b ();
            used := b - g.g_first + 1
          end
        done;
        g.g_live <- !live;
        g.g_live_bytes <- 0;
        g.g_used <- (if !live > 0 then g.g_nblocks else !used);
        g.g_state <- (if !live > 0 || !used > 0 then S_sealed else S_free))
      s.segs;
    Array.fill s.open_seg 0 (Array.length s.open_seg) None;
    s.hydrated <- true
  end

(* [bytes], when known, is the payload size of the whole extent,
   attributed per block in extent order. *)
let extent_byte_at t ~bytes ~idx =
  match bytes with
  | None -> block_size t
  | Some total -> max 0 (min (block_size t) (total - (idx * block_size t)))

(* Bitmap transitions are idempotent (a no-op when the bit already holds
   the target value), so the segment table hangs off them as pure
   write-through. *)
let mark_used ?bytes t blocks =
  let free = free_map t in
  (match t.placement with Bump s -> hydrate t s | First_fit _ -> ());
  List.iteri
    (fun idx b ->
      let i = b - t.data_start in
      if free.(i) then begin
        free.(i) <- false;
        match t.placement with
        | Bump s -> note_alloc s b ~bytes:(extent_byte_at t ~bytes ~idx)
        | First_fit _ -> ()
      end)
    blocks

let mark_free ?bytes t blocks =
  let free = free_map t in
  (match t.placement with Bump s -> hydrate t s | First_fit _ -> ());
  List.iteri
    (fun idx b ->
      let i = b - t.data_start in
      if not free.(i) then begin
        free.(i) <- true;
        match t.placement with
        | First_fit hints ->
            let h = hints.(zone_of_slot t i) in
            if i < !h then h := i
        | Bump s ->
            note_free s b
              ~bytes:(extent_byte_at t ~bytes ~idx)
              ~written:(Block_device.is_written t.dev b)
      end)
    blocks

(* ------------------------------------------------------------------ *)
(* destruction                                                        *)

(* Reclaim a sealed segment with no live block left: trim whatever is
   still written — one discard command per segment, zero bytes moved —
   forget its dirty blocks and hand it back to the allocator. *)
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

(* Destroy every dirty block: trim fully dead sealed segments, zero the
   dead blocks of segments that still hold live data in one vectored
   write, after [flush_journal]. *)
let purge t s =
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
        zero t dl;
        Stats.Counter.incr t.counters ~by:(List.length dl) "purge_zeroed_blocks"
  end

type relocate = in_victim:(int -> bool) -> unit

(* Crash windows (both exercised by the fault campaign): after a
   relocation is journaled but before its victim is destroyed, replay
   zeroes the superseded copy ([scrub_freed]); after a relocated payload
   is written but before its record is durable, the new blocks are
   free+written, which [repair]'s free-space scrub destroys. *)
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
            match victims s ~max_victims ~liveness_pct with
            | [] -> 0
            | victims ->
                (* buffered records may reference blocks this pass is
                   about to destroy.  Only flushed on actual work, so an
                   idle tick cannot defeat group commit. *)
                retrying t (fun () -> Journal_ring.flush t.ring);
                Stats.Counter.incr t.counters "compactions";
                relocate ~in_victim:(fun b ->
                    List.exists
                      (fun g -> b >= g.g_first && b < g.g_first + g.g_nblocks)
                      victims);
                (* make the relocations durable before any victim block is
                   trimmed or zeroed *)
                flush_journal t;
                List.iter
                  (fun g ->
                    if g.g_live = 0 then reclaim_dead_segment t s g
                    else
                      (* survivors could not move: zero the pending dead
                         blocks (once — the dirty set forgets them) *)
                      match dirty_in s g with
                      | [] -> ()
                      | dl ->
                          zero t dl;
                          List.iter (Hashtbl.remove s.dirty) dl;
                          Stats.Counter.incr t.counters ~by:(List.length dl)
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

let retire ?(destroy = false) t blocks ~relocate =
  match t.placement with
  | First_fit _ ->
      if blocks <> [] then begin
        flush_journal t;
        zero t blocks
      end
  | Bump s ->
      if destroy then purge t s;
      maintain t s ~relocate

let scrub_freed t = function
  | [] -> ()
  | blocks -> (
      let free = free_map t in
      let leftover =
        List.sort_uniq compare blocks
        |> List.filter (fun b ->
               free.(b - t.data_start) && Block_device.is_written t.dev b)
      in
      match leftover with
      | [] -> ()
      | _ ->
          Stats.Counter.incr t.counters ~by:(List.length leftover)
            "replay_zeroed_blocks";
          zero t leftover)

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

(* [Segments] places without touching the bitmap: the journaled op's
   [mark_used] sets the bits, so replay accounts identically, and the
   bump pointer alone prevents double placement in between. *)
let alloc t zone n ~relocate =
  if n = 0 then Some []
  else
    match t.placement with
    | First_fit hints ->
        let lo, hi = zone_bounds t zone in
        first_fit (free_map t) ~hint:hints.(zone_idx zone) ~lo ~hi n
        |> Option.map (List.map (fun i -> t.data_start + i))
    | Bump s -> (
        hydrate t s;
        let cls = zone_idx zone in
        match bump_alloc s ~cls n with
        | Some blocks -> Some blocks
        | None ->
            (* space-driven compaction is more aggressive than the
               dirty-driven pass: relocating up to 75%-live segments
               frees whole segments for reuse *)
            ignore
              (compact t ~max_victims:(2 * compact_batch) ~liveness_pct:75.0
                 ~relocate);
            bump_alloc s ~cls n)

(* ------------------------------------------------------------------ *)
(* persistence, introspection, invariant                              *)

let checkpoint t =
  match t.free_state with
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
                 ( t.bitmap_start + i,
                   String.sub raw (i * bs) (min bs (String.length raw - (i * bs)))
                 ))));
      t.root <- { present = true; bytes = String.length raw }

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
  o_record : int list;
  o_membrane : int list;
}

let check t owners =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let free = free_map t in
  let owned = Hashtbl.create 64 in
  let claim pd_id b =
    if free.(b - t.data_start) then note "entry %s owns free block %d" pd_id b;
    match Hashtbl.find_opt owned b with
    | Some other -> note "block %d owned by %s and %s" b other pd_id
    | None -> Hashtbl.replace owned b pd_id
  in
  List.iter
    (fun o ->
      let pd_id = o.o_pd in
      List.iter
        (fun b ->
          if b < t.data_start then note "entry %s owns non-data block %d" pd_id b
          else begin
            if b < t.rec_start then
              note "entry %s stores record in membrane zone (block %d)" pd_id b;
            if o.o_high && b < t.high_start then
              note "sensitive entry %s stored in ordinary region (block %d)" pd_id b;
            if (not o.o_high) && b >= t.high_start then
              note "ordinary entry %s stored in sensitive region (block %d)" pd_id b;
            claim pd_id b
          end)
        o.o_record;
      List.iter
        (fun b ->
          if b < t.data_start then note "entry %s owns non-data block %d" pd_id b
          else begin
            if b >= t.rec_start then
              note "entry %s stores membrane outside membrane zone (block %d)"
                pd_id b;
            claim pd_id b
          end)
        o.o_membrane)
    owners;
  Array.iteri
    (fun i is_free ->
      if (not is_free) && not (Hashtbl.mem owned (t.data_start + i)) then
        note "allocated block %d owned by no entry" (t.data_start + i))
    free;
  (match t.placement with
  | Bump s when s.hydrated ->
      Array.iter
        (fun g ->
          let live = ref 0 in
          for b = g.g_first to g.g_first + g.g_nblocks - 1 do
            if not free.(b - t.data_start) then incr live
          done;
          if !live <> g.g_live then
            note "segment %d counts %d live block(s), the bitmap %d" g.g_id
              g.g_live !live)
        s.segs;
      Hashtbl.fold (fun b () acc -> b :: acc) s.dirty []
      |> List.sort compare
      |> List.iter (fun b ->
             if not free.(b - t.data_start) then
               note "live block %d is queued for destruction" b)
  | _ -> ());
  List.rev !problems

let repair t ~owned ~zero_block ~act =
  let owned_h = Hashtbl.create 256 in
  List.iter (fun b -> Hashtbl.replace owned_h b ()) owned;
  let free = free_map t in
  let leaked = ref [] in
  Array.iteri
    (fun i is_free ->
      let b = t.data_start + i in
      if (not is_free) && not (Hashtbl.mem owned_h b) then leaked := b :: !leaked)
    free;
  if !leaked <> [] then begin
    mark_free t !leaked;
    act (Printf.sprintf "released %d leaked block(s)" (List.length !leaked))
  end;
  (* a free block must hold no bytes at all *)
  let scrubbed = ref 0 in
  Array.iteri
    (fun i is_free ->
      let b = t.data_start + i in
      if is_free && Block_device.is_written t.dev b then
        if zero_block b then incr scrubbed)
    free;
  if !scrubbed > 0 then act (Printf.sprintf "scrubbed %d free block(s)" !scrubbed);
  (match t.placement with Bump s -> invalidate s | First_fit _ -> ());
  !scrubbed
