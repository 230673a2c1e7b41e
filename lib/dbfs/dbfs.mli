(** DBFS: the database-oriented filesystem (the paper's Idea 3, §3(1)).

    DBFS stores typed personal data, never opaque files.  Following §3(1)
    it keeps two major inode trees on the device:

    - the {b subject tree}: one inode subtree per data subject gathering
      their PD entries, each entry holding the record {i and} its membrane
      in separate inodes;
    - the {b schema tree}: one descriptor inode per table (PD type) with
      the field structure and the list of subject inodes holding rows, so
      the filesystem can format data when returning it to the DED.

    Three properties distinguish DBFS from the conventional {!module:
    Rgpdos_journalfs.Journalfs} and carry the paper's compliance argument:

    - {b metadata-only journaling}: the write-ahead journal records block
      numbers and identifiers, never PD bytes (data blocks are written in
      place before the journal record commits, ext3 [data=ordered] style),
      so the journal cannot retain deleted PD;
    - {b zeroing deallocation}: deleting or rewriting a PD entry zeroes
      its old blocks on the device;
    - {b membrane invariant}: the API makes it impossible to store a
      record without a membrane (enforcement rule 3 of §2), and the
      attached membrane must agree with the entry's identity.

    Sensitive records ([High] sensitivity) are allocated in a separate
    device region from ordinary ones, implementing the GDPR's requirement
    that sensitive data be stored apart.

    Access control: DBFS "is not visible from the outside" (§2).  Every
    operation takes an [~actor] and consults a pluggable LSM-style hook
    (installed by the machine; fail-open only until one is installed).
    The rgpdOS machine configures the hook so only the DED (and the
    built-ins it hosts) pass. *)

type t

type error =
  | Unknown_type of string
  | Type_exists of string
  | Unknown_pd of string
  | Membrane_mismatch of string
  | Invalid_record of string
  | Erased of string        (** PD was crypto-erased; plaintext is gone *)
  | No_space
  | Access_denied of string
  | Corrupt of string
  | Device_fault of string
      (** a read path exhausted its retries against a faulted block *)
  | Degraded of string
      (** the store is in degraded read-only mode; mutations are refused
          until [fsck ~repair:true] clears it *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val format :
  ?allocator:Space.allocator ->
  Rgpdos_block.Block_device.t ->
  journal_blocks:int ->
  t
(** Write a fresh DBFS on the device.  [?allocator] (default
    [Space.Heap]) picks the data-region allocator;
    [Space.Segments n] is the log-structured one: payload extents
    bump-allocate into per-zone append-only segments of [n] blocks,
    superseded extents stay in place until a purge or the compactor
    destroys them, and fully dead segments are reclaimed with
    segment-granular trims.  The choice persists in the superblock. *)

val mount : Rgpdos_block.Block_device.t -> (t, string) result
(** Load the last checkpoint and replay the metadata journal.  Replay is
    exception-free: it stops at the first damaged frame (see
    {!replay_report}); a frame that decodes but cannot be applied flips
    the store into degraded read-only mode instead of failing the mount.
    Blocks freed by replayed operations that are still free once the
    whole journal is applied are re-zeroed, closing the
    commit-then-crash window in which stale PD plaintext could survive
    on the medium. *)

val device : t -> Rgpdos_block.Block_device.t

val layout : t -> Space.layout
(** Data-region zone boundaries.  Membranes are allocated in
    [l_data_start, l_rec_start); ordinary records in
    [l_rec_start, l_high_start); High-sensitivity records in
    [l_high_start, l_block_count).  Separate membrane/record zones keep a
    whole-selection batch read of one kind contiguous (mergeable by the
    vectored device path); the High split implements storing sensitive
    data apart. *)

val entry_blocks :
  t -> actor:string -> string -> (int list * int list, error) result
(** [(record_blocks, membrane_blocks)] of a pd — placement introspection
    for allocator tests and forensic checks. *)

val set_access_hook : t -> (actor:string -> op:string -> bool) -> unit
(** Install the LSM-style mediation hook.  Ops are ["create_type"],
    ["read"], ["write"], ["delete"], ["erase"], ["export"], ["admin"]. *)

(** {1 Schema tree} *)

val create_type : t -> actor:string -> Schema.t -> (unit, error) result
val schema : t -> actor:string -> string -> (Schema.t, error) result
val list_types : t -> actor:string -> (string list, error) result

(** {1 PD entries} *)

val insert :
  t ->
  actor:string ->
  subject:string ->
  type_name:string ->
  record:Record.t ->
  membrane_of:(pd_id:string -> Rgpdos_membrane.Membrane.t) ->
  (string, error) result
(** Store a new PD entry.  DBFS assigns the pd_id, asks the caller to
    produce the membrane for it (the acquisition built-in does this from
    schema defaults + subject choices), validates both, and stores record
    and membrane in the subject's inode subtree.  Returns the pd_id. *)

val get_membrane :
  t -> actor:string -> string -> (Rgpdos_membrane.Membrane.t, error) result
(** Fetch only the membrane — the DED's first request (ded_load_membrane)
    never touches the data blocks.  A {!get_membranes} batch of one: one
    entries-tree descent (O(height) page reads on a checkpointed store). *)

val get_record : t -> actor:string -> string -> (Record.t, error) result
(** Fetch the record data (ded_load_data).  Fails with [Erased] after
    crypto-erasure.  A {!get_records} batch of one. *)

val get_membranes :
  t ->
  actor:string ->
  ?channel:int ->
  string list ->
  ((string * Rgpdos_membrane.Membrane.t) list, error) result
(** Batched membrane load: elevator-ordered vectored device requests
    cover every pd in the selection, so the fixed seek cost is paid per
    contiguous run rather than per pd.  Results are in input order.  Any
    unknown pd fails the whole batch.  Cache hits skip only the host-side
    decode — their blocks stay in the request, so the simulated cost (and
    every stage_ns figure) is identical whether the cache is cold or
    warm.

    The pds are resolved first, in one batched descent of the
    checkpointed entries tree: one vectored page request per tree level,
    each distinct node on the pds' root-to-leaf paths read and charged
    once (pds in the in-memory overlay need no page).  A batch of [k]
    pds therefore costs at most O(height) page requests, not [k]
    descents.

    The batch is split into the device's [queue_depth] contiguous chunks
    submitted up-front on [?channel] (default 0): chunk [k]'s decode
    overlaps the device service of chunks [k+1..], so the batch charges
    its critical path instead of the serial sum.  At depth 1 it is one
    request settled before any decode — exactly one blocking
    [Block_device.read_vec] plus the checksum charges.  Bytes, results
    and all non-latency counters are the same at every depth. *)

val get_records :
  t ->
  actor:string ->
  ?channel:int ->
  string list ->
  ((string * Record.t option) list, error) result
(** Batched record load for the selection (input order preserved).
    Erased pds yield [None] — their sealed payload is neither read nor
    charged — matching the DED's skip-erased semantics.  Any unknown pd
    fails the whole batch.  Resolved in one batched descent and
    pipelined by queue depth exactly like {!get_membranes}. *)

val update_record :
  t -> actor:string -> string -> Record.t -> (unit, error) result
(** Replace the record (built-in [update]).  Old blocks are zeroed.  One
    entries-tree descent: the journaled op applies to the entry resolved
    for the checks, with no second lookup. *)

val update_membrane :
  t ->
  actor:string ->
  string ->
  Rgpdos_membrane.Membrane.t ->
  (unit, error) result
(** Replace the membrane (consent changes).  The new membrane must keep the
    entry's pd_id, type and subject.  One entries-tree descent, as for
    {!update_record}. *)

val copy_pd : t -> actor:string -> string -> (string, error) result
(** Built-in [copy]: duplicate record and membrane under a fresh pd_id;
    the copy's membrane inherits every restriction and the lineage root.
    The copy is filed under its source's subject, and {!insert} and
    {!update_membrane} refuse a membrane naming another subject, so a
    lineage never leaves its subject: {!pds_of_subject} lists every copy
    of the subject's PD.  The source is resolved once: its record and
    membrane load from that entry. *)

val delete : t -> actor:string -> string -> (unit, error) result
(** Physical removal: record and membrane blocks are zeroed on the device
    before being freed.  One entries-tree descent, as for
    {!update_record}. *)

val erase_with :
  t ->
  actor:string ->
  ?withdraw:(Rgpdos_membrane.Membrane.t -> Rgpdos_membrane.Membrane.t) ->
  string ->
  seal:(Record.t -> string) ->
  (unit, error) result
(** Crypto-erasure (right to be forgotten, §4): the record is replaced by
    [seal record] — an authority-sealed envelope — and the plaintext blocks
    are zeroed.  The membrane remains so the entry's existence stays
    accountable.  With [?withdraw] the membrane is first rewritten to
    [withdraw membrane] (the DED's crypto-erase withdraws every consent),
    exactly as {!update_membrane} would: same checks, journal record and
    block writes, in the same order.

    The pd is resolved once for the whole erasure: one entries-tree
    descent, and no further lookup by the membrane rewrite, the record
    load or either journaled op.  Fails with [Erased], writing nothing,
    when the pd is already erased. *)

val erased_payload : t -> actor:string -> string -> (string, error) result
(** The sealed envelope bytes of an erased entry (what a supervisory
    authority would retrieve). *)

(** {1 Queries} *)

val list_pds : t -> actor:string -> string -> (string list, error) result
(** All pd_ids of a type, in insertion order. *)

val pds_of_subject : t -> actor:string -> string -> (string list, error) result
(** The subject's pd_ids in insertion order (oldest first) — backed by the
    persisted subject index, so exports and right-of-access output are
    deterministic and stable across remount. *)

val subjects : t -> actor:string -> (string list, error) result
val pd_count : t -> int

val select :
  t ->
  actor:string ->
  ?use_indexes:bool ->
  ?channel:int ->
  string ->
  Query.t ->
  (string list, error) result
(** [select t ~actor type_name pred]: the pd_ids of the type's live
    (non-erased) entries whose record satisfies [pred], in insertion
    order.  The predicate is pushed down into storage: a {!Plan.compile}d
    probe over the type's secondary indexes yields a candidate superset
    (Eq → hash-posting probe, Lt/Gt → ordered-index range scan, And →
    posting intersection, Or → union), one batched vectored load fetches
    only the candidates, and the original predicate runs as a residual
    filter — skipped entirely when the plan is exact.  [Not], [Contains]
    and unindexed atoms degrade soundly to today's full scan.

    Guaranteed equivalent to filtering {!list_pds} through {!get_records}
    + [Query.eval] (the qcheck planner-equivalence property).  Index
    probes charge simulated metadata-region reads proportional to the
    postings touched — warm and cold runs cost the same, like every other
    DBFS read path.  [?use_indexes:false] forces the full-scan path (for
    measurement; results are identical).

    An indexed probe's candidates are resolved in one batched
    entries-tree descent (a candidate whose lookup fails is not live);
    a full scan takes its entries from the merged entry stream.  Either
    way the residual record fetch loads from those resolved entries —
    no pd is looked up twice — and rides [?channel] (default 0) like
    {!get_records}: the candidate loads are submitted so their device
    service overlaps residual evaluation (from queue depth 2 up), and
    interior B+-tree scans prefetch the next sibling page ahead of the
    current decode on a channel of their own, so the prefetch overlaps
    even at depth 1. *)

val plan_for :
  t -> actor:string -> string -> Query.t -> (Plan.t, error) result
(** The plan {!select} would run — introspection for tests and debug. *)

val expired_pds : t -> actor:string -> now:int -> (string list, error) result
(** Live pds whose membrane expiry instant ([created_at + ttl]) is
    [<= now], in expiry order — a non-destructive peek at the TTL expiry
    min-queue, charged as an index read.  Entries leave the queue when
    their pd is deleted, erased or re-membraned, so a sweeper that pops
    and erases pays O(expired), not O(population). *)

val expiry_queue_size : t -> int
(** How many pds currently carry a TTL (queue population). *)

val entry_info :
  t -> actor:string -> string -> (string * string * bool, error) result
(** [(type_name, subject, erased)] for a pd_id. *)

val export_subject :
  t -> actor:string -> string -> (string list * string, error) result
(** Right-of-access export: [(pd_ids, json)], the subject's pds as
    {!pds_of_subject} lists them (erased included) and every non-erased
    record of the subject as it is stored in DBFS — structured,
    machine-readable, with meaningful keys (§4) — as a JSON array of
    record objects.  One walk of the subject index, one batched
    entries-tree descent and one vectored record request; a caller that
    also needs the pd list takes it from here rather than walking the
    subject index again. *)

val describe_trees : t -> actor:string -> (string, error) result
(** Render the two major inode trees of §3(1): the subject tree (each
    subject's PD-entry inodes with their record/membrane block lists) and
    the schema tree (each table's field descriptors and the subject inodes
    holding rows), plus the format-descriptor inodes (the record layout
    the filesystem uses to format data returned to the DED). *)

(** {1 Durability & integrity} *)

val checkpoint : t -> unit
val crash_and_remount : t -> (t, string) result

val fsck : ?repair:bool -> t -> (unit, string list) result
(** Invariant check, including the membrane invariant (every stored
    entry's membrane must decode and match the entry identity), per-extent
    checksums (every record and membrane extent must read back with its
    stored FNV-64 sum), the space invariant ({!Space.check}: block
    ownership, zones, leaks and the segment table), and index ↔ entry
    agreement in both directions:
    every index key names a live pd and matches its on-device record,
    every posting list contains its keyed pds, every live pd of an
    indexed type is keyed, the subject index links every entry, and the
    expiry queue agrees with each membrane's [created_at + ttl].

    With [~repair:true] the check is followed by {!fsck_repair};
    [Ok ()] then means the repaired store passes a re-check. *)

type repair_report = {
  rr_problems : string list;  (** what the initial check found *)
  rr_actions : string list;   (** repair actions taken, in order *)
  rr_quarantined : (string * string) list;
      (** unrecoverable pds removed from the store: [(pd_id, reason)] *)
  rr_scrubbed_blocks : int;   (** free blocks found non-zero and zeroed *)
  rr_journal_truncated : string option;
      (** why the journal was cut short, when replay stopped on damage *)
  rr_clean : bool;            (** post-repair re-check passed *)
}

val fsck_repair : t -> repair_report
(** Self-healing pass: quarantine entries whose extents are unreadable,
    fail their checksum, or no longer decode (reported, never silently
    dropped); rebuild every secondary index from the surviving records;
    release leaked blocks; zero any free block still holding bytes;
    truncate the journal at the first bad frame (checkpoint + scrub);
    and leave degraded read-only mode iff the re-check comes back clean.
    Repair never invents data — a quarantined pd is data loss and is
    reported as such. *)

val replay_report : t -> Rgpdos_block.Journal_ring.replay_summary option
(** The mount-time journal replay summary ([None] on a fresh format). *)

val degraded : t -> string option
(** [Some reason] when the store is in degraded read-only mode: every
    mutation returns [Error (Degraded _)] while reads (including
    right-of-access exports) are still served. *)

val set_cache_budget : t -> int -> unit
(** Resize the shared LRU entry budget (clamped to >= 1), evicting down
    to the new size immediately.  The budget bounds RESIDENT HOST MEMORY
    only: simulated device costs follow the warm==cold rule, so shrinking
    the cache changes hit/miss/eviction counters but no [stage_ns]
    figure. *)

val cache_resident : t -> int
(** Entries currently resident in the shared LRU (node pages + decoded
    membranes + decoded records). *)

val cache_budget : t -> int

val index_page_blocks : t -> (int * int) list
(** Every on-device node page [(first_block, nblocks)] of the checkpointed
    index trees — fault-injection targets for [fsck --damage index-page].
    Empty before the first checkpoint. *)

val entry_page_blocks : t -> (int * int) list
(** The same for the checkpointed entries tree, root first and in key
    order (so the last page is the rightmost leaf). *)

val index_dump : t -> string
(** Canonical rendering of the secondary indexes (sorted, iteration-order
    independent) — crash-consistency tests compare this across remounts. *)

val rebuilt_index_dump : t -> string
(** What {!index_dump} would print for a from-scratch index rebuilt off
    the live entries and their on-device payloads — the reference for
    crash-consistency tests. *)

val unsafe_tamper_index : t -> string -> bool
(** Test hook: corrupt the index in place by dropping the pd from the
    posting list of its first indexed field (leaving the index's own
    bookkeeping claiming it is posted) — the kind of damage {!fsck} must
    flag.  Returns [false] when the pd carries no indexed fields. *)

(** {1 Group commit & log-structured segments} *)

val set_group_commit : t -> int -> unit
(** Group-commit window for the metadata journal: every record commits
    in a batch through one vectored device write.  [1] (the default) is a
    batch of one, settled before the mutation returns; [n > 1] buffers up
    to [n] journal records per batch.  Either way every buffered record
    commits before a block is destroyed (an update's superseded extent on
    the heap allocator, a delete, an erasure, a compaction victim), so a
    crash loses only records whose blocks are still intact.  Any buffered
    records are flushed before the window changes. *)

val flush_journal : t -> unit
(** Commit any buffered journal records now and settle their device time
    (no-op when none). *)

val compact : ?max_victims:int -> ?liveness_pct:float -> t -> int
(** Run one compaction pass: pick up to [max_victims] sealed segments at
    or below [liveness_pct] live, relocate their surviving extents
    through the ordinary journaled write path, then destroy the victims
    (trim when fully dead, vectored zero otherwise).  Returns the number
    of victim segments processed; [0] on an update-in-place store or
    when nothing qualifies. *)

val segment_table : t -> (int * string * int * int * int) list
(** Per-segment live table [(id, state, used, live_blocks, live_bytes)]
    for every non-free segment; [[]] on an update-in-place store. *)

val stats : t -> Rgpdos_util.Stats.Counter.t
(** Operation counters ("inserts", "membrane_reads", "record_reads",
    "deletes", "erasures", "denials", ...), plus group-commit
    ("committed_batches", "batched_ops") and segment bookkeeping
    ("compactions", "compact_relocations", "segments_reclaimed",
    "segment_trims", "purge_zeroed_blocks", "backpressure_stalls").

    "cache_hits" / "cache_misses" count lookups in the decoded
    membrane/record read cache.  A hit skips the host-side payload
    reassembly and decode but is charged the identical simulated device
    cost, so experiment [stage_ns] figures are unaffected.  Coherence
    rule: every journalled operation that touches a pd ([J_insert],
    [J_replace] of its record, membrane or sealed envelope, [J_delete]) —
    whether live or replayed at mount — invalidates that pd's cached
    entries before it applies. *)
