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
(** Frame a payload into the pending batch; once the batch holds
    {!set_window} records it is written by {!flush}.  At window 1 that is
    every append, and the batch of one is settled ({!barrier}) before
    [append] returns, so the record is durable on return.  A flush that
    raises leaves the ring as it was before the append (the record is not
    pending, the sequence number not consumed), so a retried append frames
    its record once.  If the ring would lap un-checkpointed records,
    [on_overflow] is called first; it must persist a checkpoint and call
    {!mark_checkpointed}, otherwise the append raises [Failure].
    @raise Failure if a single record exceeds the ring capacity. *)

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
    submission, whose clock charge {!barrier} settles; blocks the new
    bytes cover only in part are read first.  No-op when nothing is
    pending.  On an exception the ring is unchanged: the records stay
    pending at the same head (a torn write may have left bytes past it on
    the medium, which the next flush overwrites). *)

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

val stop_reason_to_string : stop_reason -> string

type replay_summary = { records_replayed : int; stop_reason : stop_reason }

val replay : t -> (string -> unit) -> replay_summary
(** Parse records from the current head, calling the function on each
    payload and advancing head/seq.  Stops at the first invalid frame and
    reports how many records were applied and why parsing ended — [Clean]
    is the ordinary end of the journal, the other reasons say what kind of
    damage cut replay short.  Never raises on frame damage. *)

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
(** Zero every ring block holding no live bytes, in one vectored
    write. *)
