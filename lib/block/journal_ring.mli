(** Write-ahead journal ring over a {!Block_device} region.

    Shared by the two filesystems, which use it with opposite policies —
    the conventional FS journals full data payloads (and therefore retains
    deleted PD), DBFS journals metadata-only records.  The ring itself is
    policy-free: it stores framed byte payloads with sequence numbers and
    checksums, supports replay from a checkpointed position, and never
    zeroes lapped blocks unless {!scrub} is called (matching real journal
    behaviour). *)

type t

val create :
  Block_device.t ->
  counters:Rgpdos_util.Stats.Counter.t ->
  start_block:int ->
  num_blocks:int ->
  t
(** Fresh ring: head, tail and sequence start at zero.  No device IO.
    Group-commit flushes count into [counters]: "committed_batches"
    (vectored flushes issued) and "batched_ops" (records committed
    through them). *)

val attach :
  Block_device.t ->
  counters:Rgpdos_util.Stats.Counter.t ->
  start_block:int ->
  num_blocks:int ->
  head:int ->
  seq:int ->
  t
(** Ring view positioned at a checkpointed (head, seq), ready to {!replay}
    whatever was appended after the checkpoint. *)

val append : t -> on_overflow:(unit -> unit) -> string -> unit
(** Frame one payload, under the next sequence number, into the pending
    batch.  Once the pending batch holds {!set_window} records it is
    written by one {!flush}.  At window 1 that is every append, and the
    flush is settled ({!barrier}) before [append] returns, so the record
    is durable on return.  Several ops that must commit together go in
    one payload: its frame checksum makes them all or nothing.  A flush
    that raises leaves the ring as it was before the append (the record
    is not pending, its sequence number not consumed), so a retried append
    frames it once.  If the ring would lap un-checkpointed records with
    the new frame, [on_overflow] is called first; it must persist a
    checkpoint and call {!mark_checkpointed}, otherwise the append raises
    [Failure].
    @raise Failure if the frame exceeds the ring capacity. *)

val max_payload : t -> int
(** The largest payload {!append} accepts: the capacity less the frame's
    header and checksum. *)

val set_window : t -> int -> unit
(** Group-commit window: how many framed records {!append} batches before
    it commits them in one vectored device write.  [1] (the default) is a
    batch of one per record; [n > 1] buffers up to [n].  A crash before
    the flush loses the buffered tail — replay rolls back to the durable
    prefix. *)

val flush : t -> unit
(** Write all buffered records at the head in one vectored device
    submission, whose clock charge {!barrier} settles.  No-op when nothing
    is pending.

    The ring keeps the image of the block its last successful flush ended
    in: the very string that flush handed to the device.  A flush that
    starts writing in that block starts from the image; one that starts in
    any other block reads that block first, so the medium's bytes past the
    batch are kept and each ring block is read at most once while the head
    moves through it.  The image is set only once the submission returns;
    a flush that raises, {!scrub}, {!create} and {!attach} leave none, so
    the next flush reads its head block back.  A bit flipped in the head
    block between two flushes is therefore overwritten with the ring's own
    bytes rather than carried forward (replay would have stopped at it
    anyway).

    On an exception the ring is otherwise unchanged: the records stay
    pending at the same head (a torn write may have left bytes past it on
    the medium, which the next flush reads back and overwrites). *)

val barrier : t -> unit
(** Settle the clock charge of every submitted flush (the ring's
    durability barrier).  Flushed bytes are always on the medium when
    {!flush} returns — only their simulated time is deferred, on the
    ring's own device channel, and callers settle it here at their
    durability points (checkpoint, purge, compaction).  No-op when
    nothing is in flight. *)

type stop_reason =
  | Clean  (** zeroed or stale (previous-lap) bytes: the journal's end *)
  | Torn_frame  (** partial header/garbage magic or an impossible length *)
  | Seq_gap  (** well-formed record whose sequence skips ahead *)
  | Bad_checksum  (** framed record whose FNV checksum does not match *)
  | Unwritten_data
      (** the last record framed correctly, but [tail_ok] found that the
          data it names outside the ring never reached the medium *)

val stop_reason_to_string : stop_reason -> string

type replay_summary = { records_replayed : int; stop_reason : stop_reason }

val replay :
  ?tail_ok:(string -> bool) -> t -> (string -> unit) -> replay_summary
(** Parse records from the current head, calling the function on each
    payload and advancing head/seq.  Stops at the first invalid frame and
    reports how many records were applied and why parsing ended — [Clean]
    is the ordinary end of the journal, the other reasons say what kind of
    damage cut replay short.  Never raises on frame damage.  Each ring
    block is read once: a header or frame that stays inside the block just
    read reuses it, so N records over B blocks cost at most B + 1 one-block
    reads.

    The last well-framed record is applied only if [tail_ok] accepts its
    payload (the default accepts every record).  An owner whose records
    name data written outside the ring, and lets a record go out while
    that data is still in flight, checks the data here: a rejected record
    is not applied, the head and sequence number end before it (so the
    next append overwrites it) and the stop reason is [Unwritten_data].
    Records before the last are never passed to [tail_ok]. *)

val mark_checkpointed : t -> unit
(** Move the tail to the head: all current records become dead. *)

val head : t -> int
(** Absolute byte offset of the next record (monotone). *)

val seq : t -> int
(** Next sequence number. *)

val live : t -> int * int
(** [(records, bytes)] appended since the last checkpoint. *)

val capacity : t -> int
(** Ring capacity in bytes. *)

val scrub : t -> unit
(** Zero every ring block holding no live bytes, in one vectored write,
    and drop the head-block image ({!flush}). *)
