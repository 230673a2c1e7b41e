(** DBFS space management: the one owner of the data region.

    The paper's DBFS (§3(1)) promises that deallocation zeroes the freed
    blocks and that sensitive data is stored apart.  Both depend on where
    PD bytes are placed and on when superseded bytes are destroyed, and
    this module decides both:

    - the {b zones}: membranes, ordinary records and High-sensitivity
      records each get their own range of the data region;
    - the {b free map}: the allocation bitmap, hydrated lazily (a clean
      mount never reads it) and written back at each checkpoint;
    - the {b placement policy}: hinted first-fit ([Heap]) or bump
      allocation in per-zone append-only segments ([Segments]);
    - {b destruction}: [Heap] zeroes a superseded extent as soon as the
      journal record that freed it commits.  [Segments] leaves it dirty
      in its sealed segment until a purge (every delete and erasure) or
      the compactor destroys it, trimming fully dead segments.  Either
      way the journal is flushed and settled first
      ({!flush_journal});
    - the invariant {!check} and its {!repair}.

    DBFS keeps what needs the journal and the entries tree: it applies
    the bitmap transitions of each journaled op through {!mark_used} /
    {!mark_free}, and it moves compaction survivors through its ordinary
    journaled write path (the {!relocate} callback). *)

type allocator =
  | Heap  (** update-in-place hinted first-fit (the default) *)
  | Segments of int
      (** log-structured: bump allocation in per-zone segments of this
          many blocks *)

val segments : allocator
(** [Segments 64], the log-structured allocator at its default size. *)

val encode_allocator : Rgpdos_util.Codec.Writer.t -> allocator -> unit
(** The superblock form of the allocator choice. *)

val decode_allocator :
  Rgpdos_util.Codec.Reader.t -> (allocator, string) result

type zone = Z_membrane | Z_record of bool  (** [true]: High sensitivity *)

type layout = {
  l_data_start : int;   (** first data block *)
  l_rec_start : int;    (** first record block; membranes live below *)
  l_high_start : int;   (** first High-sensitivity record block *)
  l_block_count : int;
}

type t

type root
(** What the root slot records of the free map: whether a bitmap was
    ever checkpointed, and its size. *)

val encode_root : Rgpdos_util.Codec.Writer.t -> t -> unit
val decode_root : Rgpdos_util.Codec.Reader.t -> (root, string) result

val create :
  allocator ->
  Rgpdos_block.Block_device.t ->
  ring:Rgpdos_block.Journal_ring.t ->
  counters:Rgpdos_util.Stats.Counter.t ->
  data_start:int ->
  bitmap_start:int ->
  root option ->
  t
(** The data region [[data_start, block_count)] of a store whose bitmap
    lives at [bitmap_start].  [None] is a freshly formatted region: every
    block is free and the first {!checkpoint} writes the bitmap.  [Some]
    is the root a mount read: the bitmap is read on first use.  [ring] is
    the store's journal, flushed before any block it may reference is
    destroyed; [counters] receives the space counters
    ("purge_zeroed_blocks", "segment_trims", "compactions", ...). *)

val layout : t -> layout

val retrying : t -> (unit -> 'a) -> 'a
(** Run a device operation, retrying a [Block_device.Faulted] up to three
    times with doubling simulated backoff ("fault_retries"). *)

val flush_journal : t -> unit
(** Flush-before-destroy: commit every buffered journal record (retrying
    faults) and settle its device time, so a crash cannot roll back a
    record whose freed blocks are already destroyed.  Free when nothing
    is buffered or in flight, as at group-commit window 1. *)

val zero : t -> int list -> unit
(** Forensic zeroing: one vectored write of zero blocks (none for [[]]). *)

val mark_used : ?bytes:int -> t -> int list -> unit
val mark_free : ?bytes:int -> t -> int list -> unit
(** Bitmap transitions of an applied journal op.  Both are idempotent, so
    replayed and live ops drive the segment table identically.  [bytes]
    is the payload size of the whole extent, when known. *)

type relocate = in_victim:(int -> bool) -> unit
(** DBFS's survivor relocation: move every live extent that starts in a
    compaction victim ([in_victim] of its first block) through the
    journaled write path, and settle those writes before returning. *)

val alloc : t -> zone -> int -> relocate:relocate -> int list option
(** Place an extent of [n] blocks in [zone].  [Heap] marks the blocks used
    at once (first-fit, rolled back on failure); [Segments] only picks
    them — the journaled op marks them — and, when the zone is full,
    compacts once and retries. *)

val retire : ?destroy:bool -> t -> int list -> relocate:relocate -> unit
(** Call after the journal record that freed [blocks] commits.  [Heap]
    flushes the journal and zeroes [blocks] now (nothing for [[]], so
    inserts keep batching).  [Segments] leaves them dirty, or with
    [~destroy:true] (delete, erasure) purges every dirty block, then
    compacts past the dirty trigger and stalls past the backpressure
    threshold. *)

val compact :
  ?max_victims:int -> ?liveness_pct:float -> t -> relocate:relocate -> int
(** One compaction pass over up to [max_victims] (default 8) sealed
    segments at most [liveness_pct] (default 35) live: flush the journal,
    [relocate] the survivors, flush again, then trim fully dead victims
    and zero the dead blocks of the rest.  Returns the victims processed;
    [0] under [Heap] or when nothing qualifies. *)

val scrub_freed : t -> int list -> unit
(** Mount-time crash repair: zero whichever of [blocks] (freed by replayed
    ops) are still free and hold bytes ("replay_zeroed_blocks"). *)

val checkpoint : t -> unit
(** Write the bitmap back when it was hydrated since mount. *)

val segment_table : t -> (int * string * int * int * int) list
(** [(id, state, used, live_blocks, live_bytes)] of every non-free
    segment; [[]] under [Heap]. *)

type owner = {
  o_pd : string;
  o_high : bool;
  o_record : int list;
  o_membrane : int list;
}

val check : t -> owner list -> string list
(** The space invariant, given every entry's extents: each block is a
    data block, allocated, owned once and in its entry's zone; every
    allocated block has an owner; and the segment table, once hydrated,
    counts exactly the allocated blocks of each segment and queues no
    allocated block for destruction. *)

val repair :
  t -> owned:int list -> zero_block:(int -> bool) -> act:(string -> unit) -> int
(** Release every allocated block outside [owned], zero every free block
    that still holds bytes (best-effort [zero_block]), and drop the
    segment table so it is rebuilt from the repaired bitmap.  Returns the
    free blocks zeroed. *)

val first_fit :
  bool array -> hint:int ref -> lo:int -> hi:int -> int -> int list option
(** [first_fit free ~hint ~lo ~hi n]: the first run of [n] free slots of
    [free] in [[lo, hi)], else the first [n] free slots scattered; they
    are marked used.  [None], with nothing taken, when fewer than [n] are
    free.  [hint] is a cursor the scan starts at: every slot in
    [[lo, !hint)] must be allocated, so a free below it must lower it.
    The placements equal those of a scan from [lo]. *)
