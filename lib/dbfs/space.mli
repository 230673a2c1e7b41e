(** DBFS space management: the one owner of the data region.

    The paper's DBFS (§3(1)) promises that deallocation zeroes the freed
    bytes and that sensitive data is stored apart.  Both depend on where
    PD bytes are placed and on when superseded bytes are destroyed, and
    this module decides both:

    - the {b zones}: membranes, ordinary records and High-sensitivity
      records each get their own range of the data region;
    - {b pages and slots}: an extent that fits in one block is a {i slot},
      a byte range of a page (a data block) shared with other slots of its
      zone.  Each zone appends new slots to its {i open page}, whose bytes
      are kept in memory and updated once a write of the page returns;
      when it is full the allocator gives a fresh page, and after a mount
      there is no open page.  A larger extent is a slot that starts at
      offset 0 of whole blocks of its own.  A page is allocated while it
      holds a live slot and freed when its last slot dies; dead space
      inside a partly live page is not reused, so a page never costs more
      than one block per live slot;
    - the {b free map}: the allocation bitmap, hydrated lazily (a clean
      mount never reads it) and written back at each checkpoint, and the
      {b slot map}, each page's live slots, loaded on first use after a
      mount from the entries.  Both change only through the idempotent
      transitions of the journaled ops ({!mark_used}, {!mark_free});
    - the {b placement policy}: hinted first-fit ([Heap]) or bump
      allocation in per-zone append-only segments ([Segments]) hands out
      the fresh pages;
    - {b destruction}, of byte ranges: [Heap] destroys a superseded slot
      as soon as the journal record that freed it commits, by a
      read-modify-write of its page (a page left with no live slot is
      zeroed whole).  [Segments] leaves dead slots in place until a
      purge (every delete and erasure) or the compactor scrubs their
      pages, trimming fully dead segments.  The page read a commit's
      destruction needs is never serial: the bytes are the open page's
      image, the commit's own write, or a read submitted on a channel of
      its own when the commit starts, so it overlaps the payload write
      and the flush.  Either way the journal is flushed and settled
      first ({!flush_journal});
    - the invariant {!check} and its {!repair}.

    DBFS keeps what needs the journal and the entries tree: it applies
    the slot transitions of each journaled op through {!mark_used} /
    {!mark_free}, commits through {!submit}, {!settle} and {!finish}, and
    moves compaction survivors through its ordinary journaled write path
    (the {!relocate} callback).

    Crash contract: a page write is one block, so a failed or torn write
    leaves the old page, with its neighbours, intact; the bytes of a slot
    whose record never became durable lie outside every live slot, which
    {!repair} zeroes; a crash between a commit and its destruction leaves
    the freed slot's bytes, which mount's {!scrub_freed} zeroes. *)

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

type extent = { blocks : int list; off : int; size : int }
(** Where an extent's [size] bytes live: at byte [off] of its one page
    (a slot), or from offset 0 of whole blocks ([off = 0]) when larger
    than a block.  A slot never straddles two pages. *)

val extent_pieces : block_size:int -> extent -> (int * int * int) list
(** [(block, off, len)] of each block an extent covers: one piece for a
    slot, and for a larger extent each of its whole blocks from offset
    0. *)

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
  live:(unit -> extent list) ->
  root option ->
  t
(** The data region [[data_start, block_count)] of a store whose bitmap
    lives at [bitmap_start].  [None] is a freshly formatted region: every
    block is free and the first {!checkpoint} writes the bitmap.  [Some]
    is the root a mount read: the bitmap is read on first use, and the
    slot map is loaded from [live] (every live extent of the store) on
    first use.  [ring] is the store's journal, flushed before any byte it
    may reference is destroyed; [counters] receives the space counters
    ("purge_zeroed_blocks", "segment_trims", "compactions", ...). *)

val layout : t -> layout

val retrying : t -> (unit -> 'a) -> 'a
(** Run a device operation, retrying a [Block_device.Faulted] up to three
    times with doubling simulated backoff ("fault_retries"). *)

val flush_journal : t -> unit
(** Flush-before-destroy: commit every buffered journal record (retrying
    faults) and settle its device time, so a crash cannot roll back a
    record whose freed bytes are already destroyed.  Free when nothing is
    buffered or in flight, as at group-commit window 1. *)

val zero : t -> int list -> unit
(** Forensic zeroing of whole blocks: one vectored write (none for
    [[]]). *)

val mark_used : t -> extent -> unit
val mark_free : t -> extent -> unit
(** Slot transitions of an applied journal op.  Both are idempotent, and
    a page's bit follows its slots (allocated while it holds one), so
    replayed and live ops drive the slot map, the bitmap and the segment
    table identically. *)

type relocate = in_victim:(int -> bool) -> unit
(** DBFS's survivor relocation: move every live extent that starts in a
    compaction victim ([in_victim] of its first block) through the
    journaled write path, and settle those writes before returning. *)

val place : t -> (zone * int) list -> relocate:relocate -> extent list option
(** Place one extent of each [(zone, size)], all or none: slots append to
    their zone's open page, a full page gives way to a fresh one, and a
    larger extent takes whole blocks.  [Heap] reserves fresh blocks in the
    bitmap at once; [Segments] only picks them — the journaled op marks
    them — and compacts first when a zone is short of room. *)

type pending
(** A commit's device requests in flight. *)

val submit :
  ?destroy:bool -> t -> (string * extent) list -> retiring:extent list -> pending
(** Start a commit: one vectored payload write of the placed payloads
    (each page rebuilt from its image with the new slots laid in), and a
    read of the pages its destruction must rewrite around live slots and
    holds no bytes of — on the heap those of [retiring]; on segments,
    with [~destroy:true] (delete, erasure), every dirty page the purge
    will scrub — each request on a channel of its own.  A read that
    raises settles the write first. *)

val settle : t -> pending -> unit
(** Await both requests (idempotent): call it on every path. *)

val finish : t -> pending -> relocate:relocate -> unit
(** Once the journal record that freed [retiring] has committed and its
    ops applied: update the open pages' images, then destroy or defer the
    retired slots.  [Heap] flushes the journal and rewrites each of their
    pages with no byte outside a live slot (zeroing a page left with
    none), in one write.  [Segments] leaves them dirty, or when the
    commit destroys purges every dirty page, then
    compacts past the dirty trigger and stalls past the backpressure
    threshold. *)

val compact :
  ?max_victims:int -> ?liveness_pct:float -> t -> relocate:relocate -> int
(** One compaction pass over up to [max_victims] (default 8) sealed
    segments whose live slot bytes are at most [liveness_pct] (default
    35) of their pages: close any open page among them, flush the
    journal, [relocate] the survivors, flush again, then trim fully dead
    victims and scrub the dirty pages of the rest.
    Returns the victims processed; [0] under [Heap] or when nothing
    qualifies. *)

val scrub_freed : t -> extent list -> unit
(** Mount-time crash repair: leave no byte outside a live slot in the
    written pages of [freed] (extents freed by replayed ops), reading the
    pages that keep live slots ("replay_zeroed_blocks"). *)

val checkpoint : t -> (int * string) list
(** The bitmap's blocks, for the checkpoint's one write, when it was
    hydrated since mount ([[]] otherwise); the root ({!encode_root}) now
    names them. *)

val segment_table : t -> (int * string * int * int * int) list
(** [(id, state, used, live_pages, live_bytes)] of every non-free
    segment; [[]] under [Heap]. *)

type owner = {
  o_pd : string;
  o_high : bool;
  o_record : extent;
  o_membrane : extent;
}

val check : t -> owner list -> string list
(** The space invariant, given every entry's extents: each slot lies in
    an allocated data page of its entry's zone and inside the page; the
    slots of a page are disjoint; every allocated page holds a slot; the
    slot map, once loaded, lists exactly the entries' slots; and the
    segment table, once hydrated, counts exactly the allocated pages of
    each segment. *)

val repair :
  t -> owned:extent list -> on_fault:(unit -> unit) -> act:(string -> unit) -> int
(** Rebuild the slot map and the bitmap from [owned] (releasing every
    allocated page outside it), leave no written data-page byte outside a
    live slot, in one scrub of every written page (page by page when that
    faults: a page that still faults is skipped, and reported through
    [on_fault]), and drop the open pages and the segment table so they
    are rebuilt.  Returns the pages written. *)

val first_fit :
  bool array -> hint:int ref -> lo:int -> hi:int -> int -> int list option
(** [first_fit free ~hint ~lo ~hi n]: the first run of [n] free slots of
    [free] in [[lo, hi)], else the first [n] free slots scattered; they
    are marked used.  [None], with nothing taken, when fewer than [n] are
    free.  [hint] is a cursor the scan starts at: every slot in
    [[lo, !hint)] must be allocated, so a free below it must lower it.
    The placements equal those of a scan from [lo]. *)
