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
      numbers, checksums and identifiers, never PD bytes, so the journal
      cannot retain deleted PD.  Each mutation submits its data write,
      journals its ops as one record while that write is in flight, and
      awaits both before it returns (a transactional-checksum commit, as
      in IRON file systems and ext4's [journal_async_commit]): only the
      journal's last record can be durable without its data, and replay
      checks that record against the data's checksums (see {!mount});
    - {b zeroing deallocation}: deleting or rewriting a PD entry zeroes
      its old bytes on the device.  An extent is a {i slot}, a byte range
      of a 4 KiB page shared with other slots of its zone (see
      {!Space}), so destroying one rewrites its page with every byte
      outside the page's live slots cleared, and a page left with no
      live slot is zeroed whole;
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
  | Stopped of { committed : string list; cause : error }
      (** a batch failed with [cause] after its first chunks had
          committed (a chunk whose slot destruction faulted included,
          see {!erase_with}): [committed] are their pds, in batch order,
          and stay done *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val committed : error -> string list
(** The pds a failed batch committed before it stopped ([Stopped]'s
    list); [[]] for every other error, after which the batch changed
    nothing. *)

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
    The pages of slots freed by replayed operations are scrubbed once the
    whole journal is applied (no byte outside a live slot), closing the
    commit-then-crash window in which stale PD plaintext could survive
    on the medium.  The first mutation after a mount loads the slot map
    from the entries (one walk of the entries tree).

    The journal's last record is applied only if no extent it names
    (a [J_insert]'s record and membrane, a [J_replace]'s new extent)
    fails its stored checksum.  Replay reads the pages of every record's
    extents in one vectored request and checks each slot once; the
    replayed ops index what they wrote from those slots, and an extent
    whose page still faults is unreadable (medium damage, which {!fsck}
    reports), not unwritten.  A record
    whose data never reached the medium is not applied: the journal ends
    before it (the next append overwrites it), {!replay_report} gives the
    stop reason [Unwritten_data], and {!fsck_repair}'s free-space scrub
    destroys whatever of its data did land.  Only the last record is
    held to its checksums: each mutation awaits its data before the next
    one starts. *)

val device : t -> Rgpdos_block.Block_device.t

val layout : t -> Space.layout
(** Data-region zone boundaries.  Membranes are allocated in
    [l_data_start, l_rec_start); ordinary records in
    [l_rec_start, l_high_start); High-sensitivity records in
    [l_high_start, l_block_count).  Separate membrane/record zones keep a
    whole-selection batch read of one kind contiguous (mergeable by the
    vectored device path); the High split implements storing sensitive
    data apart. *)

val entry_extents :
  t -> actor:string -> string -> (Space.extent * Space.extent, error) result
(** [(record, membrane)]: where a pd's two extents live, each a slot of a
    shared page (or whole blocks when larger than one) — placement
    introspection for allocator tests and forensic checks. *)

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
    and membrane in the subject's inode subtree.  Returns the pd_id.

    Commit: record and membrane go out in one vectored write, the
    [J_insert] record is journaled while it is in flight, and both are
    awaited before [insert] returns.  A crash before the record is
    durable, or with the record durable but the data not (see {!mount}),
    leaves no entry; its blocks are free, and {!fsck_repair} scrubs
    whatever of them was written. *)

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
    unknown pd fails the whole batch.  Each page is read once however
    many of the batch's slots it holds, and only the slots asked for are
    verified, decoded and returned.  Cache hits skip only the host-side
    decode — their pages stay in the request, so the simulated cost (and
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
    and all non-latency counters are the same at every depth.

    It is {!open_membranes} followed by {!consume} of each chunk in
    turn. *)

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

(** {2 Streamed loads}

    The two halves of a batch load, for a caller that works on the
    first pds of a batch while the pages of the rest are still landing
    (the DED's two-phase stages).  The data requests are exactly those
    of {!get_membranes} / {!get_records}: one per [queue_depth] chunk,
    same blocks, same runs.  A record batch opened from a membrane batch
    reuses its resolution instead of descending the entries tree
    again. *)

type 'a load
(** An opened batch: every request submitted, its pds not yet consumed. *)

val open_membranes :
  t ->
  actor:string ->
  ?channel:int ->
  string list ->
  (Rgpdos_membrane.Membrane.t load, error) result
(** Resolve the batch in one descent and submit its requests on
    [?channel] (default 0); nothing is awaited.  Fails as
    {!get_membranes} fails before its first decode, with every request
    it submitted settled. *)

val open_records_of :
  Rgpdos_membrane.Membrane.t load -> string list -> (Record.t load, error) result
(** [open_records_of ld pd_ids] opens the record batch of [pd_ids], pds
    of the membrane batch [ld], in the given order and on [ld]'s
    channel: the requests {!get_records} would submit, with no second
    descent, since [ld] resolved them.  An erased pd reads nothing.
    Raises [Invalid_argument] for a pd that is not in [ld]. *)

val consume : 'a load -> int -> ((string * 'a option) list, error) result
(** [consume ld n] takes the next [n] pds of the batch (fewer at its
    end, [[]] once it is exhausted), in input order.  It waits only for
    the pages of theirs not yet landed ([Block_device.await_blocks]),
    then checksums and decodes just their slots through the batch's one
    block table, so each page is still read and charged once.  An erased
    pd's record is [None]; a membrane is always [Some].  Every request
    of the batch is settled once its last pd is consumed, or when a
    consumed slot fails its checksum or decode — the error returns and
    the batch yields nothing more. *)

val update_record :
  t -> actor:string -> string -> Record.t -> (unit, error) result
(** Replace the record (built-in [update]).  One entries-tree descent:
    the journaled op applies to the entry resolved for the checks, with
    no second lookup.

    Commit: the new record is written (its page rebuilt with the new
    slot laid in) and its [J_replace] journaled as one record while the
    write is in flight; the page the old slot's destruction must rewrite
    is read on a channel of its own at the same time, unless its bytes
    are already in hand; all are awaited, and only then is the old slot
    destroyed (at once, by rewriting its page, on the heap allocator).  A crash leaves the old record or the new one, never a
    record pointing at unwritten blocks: replay drops a last record whose
    data is missing (see {!mount}). *)

val update_membrane :
  t ->
  actor:string ->
  string ->
  Rgpdos_membrane.Membrane.t ->
  (unit, error) result
(** Replace the membrane with the one given: a blind write, which reads
    no membrane.  The new membrane must keep the entry's pd_id, type and
    subject.  It commits like {!update_record}. *)

val update_membranes :
  t ->
  actor:string ->
  string list ->
  (Rgpdos_membrane.Membrane.t -> Rgpdos_membrane.Membrane.t) ->
  (string list, error) result
(** [update_membranes t ~actor pds f] replaces each pd's membrane [m]
    with [f m] (consent changes, restriction) in one entries-tree
    descent, one batched load of the current membranes and one commit,
    with {!update_record}'s crash contract; every new membrane must keep
    its entry's pd_id, type and subject, checked before anything is
    written.  A repeated pd counts once; an unknown pd fails the batch,
    writing nothing.  Returns the pds rewritten, lineage by lineage
    ({!Rgpdos_membrane.Membrane.lineage_root}; a lineage's pds in input
    order, the lineages in the order of their first pd).  A batch whose
    record would not fit the ring commits in chunks, as {!erase_with}'s
    does, of whole lineages: neither a crash nor a stop leaves copies of
    one PD under different membranes. *)

val copy_pd : t -> actor:string -> string -> (string, error) result
(** Built-in [copy]: duplicate record and membrane under a fresh pd_id;
    the copy's membrane inherits every restriction and the lineage root.
    The copy is filed under its source's subject, and {!insert} and
    {!update_membrane} refuse a membrane naming another subject, so a
    lineage never leaves its subject: {!pds_of_subject} lists every copy
    of the subject's PD.  The source is resolved once: its record and
    membrane load from that entry. *)

val delete : t -> actor:string -> string list -> (unit, error) result
(** Physical removal of a batch of pds (repeats count once): each one's
    record and membrane slots are zeroed on the device, their pages
    rewritten (or zeroed whole once no live slot is left), after its
    [J_delete] commits.  One entries-tree descent resolves the batch; an
    unknown pd fails it, writing nothing.  The [J_delete]s commit as one
    journal record, then one destruction of every slot — in chunks
    whose records fit the ring ([Journal_ring.max_payload]), each atomic,
    when the batch is larger; a failing chunk stops the batch, the chunks
    before it deleted, and its error is then [Stopped], naming their pds
    ({!committed}).  A single pd is a batch of one. *)

val erase_with :
  t ->
  actor:string ->
  ?withdraw:(Rgpdos_membrane.Membrane.t -> Rgpdos_membrane.Membrane.t) ->
  ?only:(Rgpdos_membrane.Membrane.t -> bool) ->
  string list ->
  seal:(Record.t -> string) ->
  (string list, error) result
(** Crypto-erasure of a batch of pds (right to be forgotten, §4; the TTL
    sweep): each live pd's record is replaced by [seal record] — an
    authority-sealed envelope — and its plaintext bytes are zeroed.  The
    membrane remains so the entry's existence stays accountable.  With
    [?only] a pd is erased only if [only membrane] holds (the TTL sweep
    passes [Membrane.expired ~now], so the membrane stays the authority
    over the expiry queue); the others are skipped, writing nothing for
    them.  With [?withdraw] each membrane is also rewritten, to
    [withdraw membrane] (the DED's crypto-erase withdraws every consent),
    under {!update_membrane}'s identity checks, which all run before
    anything is written.  Returns the pds it erased, in input order: a
    pd already erased (or named twice) is skipped, writing nothing for
    it.  An unknown pd fails the batch, writing nothing.

    One entries-tree descent resolves the batch, one batched load reads
    the membranes (with [?withdraw] or [?only]) and one the records, and
    the batch commits as one unit: one vectored write of every new
    payload, one journal record holding every [J_replace] (per pd, the
    withdrawn membrane, then the sealed record), flushed while that write
    is in flight, and, once both are awaited, one destruction of every
    superseded slot.  A crash therefore leaves the whole batch untouched
    or every pd withdrawn and sealed, never one withdrawn but live; if
    the record is durable but the new payloads are not, replay drops the
    record (see {!mount}) and the batch is untouched, since nothing was
    destroyed yet.  A batch whose record would not fit the ring
    ([Journal_ring.max_payload]) commits in chunks of whole pds, each
    atomic in the same way; a failing chunk stops the batch, the chunks
    before it erased, and its error is then [Stopped], naming their pds
    ({!committed}) so that a caller can audit them; a chunk whose slot
    destruction faults is among them, the store degraded.  A single pd is
    a batch of one. *)

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
(** Invariant check, made from ONE scan of the store: the entries are
    collected, every data page they name is read in one vectored request
    (a page that still faults after its retries is left out, so only the
    extents on it are unreadable), and each slot is cut out, checked
    against its stored FNV-64 sum and decoded once.  It checks the
    membrane invariant (every stored entry's membrane decodes and
    matches the entry identity), per-extent checksums, the space
    invariant ({!Space.check}: slots inside allocated pages of their
    zone and disjoint, no slotless allocated page, the slot map and the
    segment table), schema membership, the entry count, that every
    metadata tree page lies in the metadata heap, and the secondary
    indexes against their rebuild: an index built in memory from the
    sound entries' values, compared with the store's {!index_dump}
    rendering item by item, skipping pds already reported damaged — one
    line per differing item, naming its pd.  Each problem is reported
    once.  On a cold store this reads each data page and each tree leaf
    once and each interior tree page twice: the bounds walk reads only
    interior pages and each tree's leftmost leaf.

    With [~repair:true] the check is followed by {!fsck_repair};
    [Ok ()] then means the repaired store passes a re-check. *)

type repair_report = {
  rr_problems : string list;  (** what the initial check found *)
  rr_actions : string list;   (** repair actions taken, in order *)
  rr_quarantined : (string * string) list;
      (** unrecoverable pds removed from the store: [(pd_id, reason)] *)
  rr_scrubbed_blocks : int;
      (** data pages rewritten so no byte outside a live slot remains *)
  rr_journal_truncated : string option;
      (** why the journal was cut short, when replay stopped on damage *)
  rr_clean : bool;            (** post-repair re-check passed *)
}

val fsck_repair : t -> repair_report
(** Self-healing pass, from the check's one scan: quarantine entries
    whose extents the scan found unreadable, failing their checksum, or
    no longer decoding (reported, never silently dropped); install the
    scan's index, rebuilt from the surviving entries' decoded values;
    release leaked pages; leave no data-page byte outside a surviving
    slot (including what landed of a dropped last record's data); truncate
    the journal where replay stopped (checkpoint + scrub); zero the
    stale metadata heap blocks; and leave degraded read-only mode iff
    the re-check, the only second scan, comes back clean.  The data-page
    scrub and the heap zeroing are one request each, and block by block
    only when that request faults.
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
(** Entries currently resident in the shared LRU (decoded membranes and
    records; tree node pages are never cached). *)

val cache_budget : t -> int

val index_page_blocks : t -> (int * int) list
(** Every on-device node page [(first_block, nblocks)] of the checkpointed
    index trees, each tree level by level from its root — fault-injection
    targets for [fsck --damage index-page].  Reads only interior pages
    and each tree's leftmost leaf ({!Pagestore.node_blocks}).  Empty
    before the first checkpoint. *)

val entry_page_blocks : t -> (int * int) list
(** The same for the checkpointed entries tree, root first, each level in
    key order (so the last page is the rightmost leaf). *)

val index_dump : t -> string
(** Canonical rendering of the secondary indexes ({!Index.dump}): one
    sorted line per fact, each index family rendered from its own
    structures, so a fact lost from one family shows although another
    still holds it — crash-consistency tests compare this across
    remounts. *)

val rebuilt_index_dump : t -> string
(** What {!index_dump} prints for the index {!fsck}'s scan rebuilds from
    the sound entries and their on-device payloads — the reference for
    crash-consistency tests, which demand [index_dump t =
    rebuilt_index_dump t]. *)

val unsafe_tamper_index : t -> string -> bool
(** Test hook: corrupt the index in place by dropping the pd from the
    posting list of its first indexed field (leaving the index's own
    bookkeeping claiming it is posted) — the kind of damage {!fsck} must
    flag.  Returns [false] when the pd carries no indexed fields. *)

(** {1 Group commit & log-structured segments} *)

val set_group_commit : t -> int -> unit
(** Group-commit window for the metadata journal: every record (one per
    mutation) commits in a batch through one vectored device write.  [1]
    (the default) is a batch of one, settled before the mutation returns; [n > 1] buffers up
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
    through the ordinary commit, then destroy the victims (trim when
    fully dead, scrub their dirty pages otherwise).  Liveness counts live
    slot bytes, so a page holding one live slot is mostly dead.  Survivors commit in chunks:
    one payload write and one journal record of at most
    [Journal_ring.max_payload] bytes each, the chunk's data awaited
    before the next chunk commits.  A survivor that fails its checksum,
    or sits on a page that stays unreadable, is counted in
    ["compact_verify_failures"] and left in place for fsck; the others
    still move.  A dirty page of such a victim that stays unreadable is
    not scrubbed: it stays in the dirty set, is counted in
    ["compact_scrub_failures"] and is left for fsck, and every other
    dirty page is scrubbed, so the pass never raises after its
    relocations commit.  Returns the number
    of victim segments processed; [0] on an update-in-place store or
    when nothing qualifies. *)

val segment_table : t -> (int * string * int * int * int) list
(** Per-segment live table [(id, state, used, live_pages, live_bytes)]
    for every non-free segment; [[]] on an update-in-place store. *)

val stats : t -> Rgpdos_util.Stats.Counter.t
(** Operation counters ("inserts", "membrane_reads", "record_reads",
    "deletes", "erasures", "denials", ...), plus group-commit
    ("committed_batches", "batched_ops") and segment bookkeeping
    ("compactions", "compact_relocations", "compact_verify_failures",
    "compact_scrub_failures", "segments_reclaimed",
    "segment_trims", "purge_zeroed_blocks", "backpressure_stalls").

    "cache_hits" / "cache_misses" count lookups in the decoded
    membrane/record read cache.  A hit skips the host-side payload
    reassembly and decode but still reads its page, so experiment
    [stage_ns] figures are unaffected; "cache_evictions" counts budget
    evictions.  "index_page_reads" counts tree node pages read (none is
    cached).  Coherence
    rule: every journalled operation that touches a pd ([J_insert],
    [J_replace] of its record, membrane or sealed envelope, [J_delete]) —
    whether live or replayed at mount — invalidates that pd's cached
    entries before it applies. *)
