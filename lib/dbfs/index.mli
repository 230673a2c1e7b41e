(** Paged secondary indexes for DBFS.

    Three families, maintained write-through by DBFS on every
    insert/update/delete/erase/consent flip:

    - per (type, indexed field): equality and [Lt]/[Gt] range probes;
    - the subject → pd_ids index backing [Dbfs.pds_of_subject];
    - a TTL expiry min-queue (expiry instant → pd_ids) backing the
      incremental storage-limitation sweeper.

    The durable form is a set of bulk-loaded {!Pagestore} B+-trees in the
    DBFS metadata heap, read on demand node by node — attaching to them
    ({!attach}) touches no index pages at all.  Mutations go to an
    in-memory overlay which is authoritative per pd: the first mutation
    for a pd copies its base facts into the overlay (one [pdinfo] point
    lookup) and from then on the base keys for that pd are ignored.
    {!checkpoint} rewrites the trees from the merged view.

    Every base key belongs to a pd with a [pdinfo] item, so the base can
    add a fact to a read only while it holds a pd the overlay has not
    touched.  While it holds none, the probes and {!materialize} skip
    their descents and {!checkpoint} lays its trees out from the overlay
    alone: a read is skipped only when the merge would drop every key
    it returned, never charged less, so this is not a cache.  {!attach}
    assumes a non-empty base holds such a pd; {!checkpoint} counts the
    ones it carries over and {!rebase} takes that count up.  {!dump} and
    {!differences} read the base trees regardless.

    The removal source of truth is the pd → indexed-values map (overlay
    [pd_keys], base [pdinfo] tree), so maintenance never re-decodes
    payload bytes — which keeps replay correct when old blocks have been
    zeroed or reused.  Index values never enter the journal: they live
    only in the metadata heap pages. *)

type t

val create : unit -> t
(** Empty index with no on-device base (fresh format / full rebuild). *)

val materialize : t -> string list -> unit
(** Copy the base facts of the given pds into the overlay ahead of their
    first mutation, in one batched [pdinfo] lookup: each node page on
    their paths is read once.  The mutators below materialize their pd
    themselves (a no-op once done, and while the base holds no untouched
    pd), so a commit that names several pds calls this once, before its
    ops apply. *)

(** {2 Field indexes} *)

val add_entry :
  t -> pd_id:string -> type_name:string -> indexed:string list ->
  (string * Value.t) list -> unit
(** (Re-)index a record: drops any stale keys for [pd_id] first, then
    posts each indexed field present in the record. *)

val remove_entry : t -> pd_id:string -> unit
(** Drop every field-index fact for [pd_id] (delete / erase). *)

val probe_eq :
  t -> type_name:string -> field:string -> Value.t -> string list * int
(** Candidate pd_ids whose [field] equals the value under [Value.equal]
    (floats: nan = nan, -0. = 0.), plus the simulated index bytes the
    overlay side of the probe touched (base pages are charged as node
    reads by the [Pagestore.io] provider). *)

val probe_range :
  t -> type_name:string -> field:string -> op:[ `Lt | `Gt ] -> Value.t ->
  string list * int
(** Candidate pd_ids under [Query.numeric_cmp] — walks the ordered
    structures and re-filters each distinct value with [numeric_cmp], so
    results match [Query.eval] exactly. *)

(** {2 Subject index} *)

val add_subject : t -> subject:string -> pd_id:string -> unit
val remove_subject : t -> subject:string -> pd_id:string -> unit

val subject_pds : t -> string -> string list
(** In insertion order (oldest first) — stable across remount.  With a
    base, the answer is sorted by pd id, whether or not the subjects
    tree is read: a base pd materialized after a newer pd of the same
    subject sits behind it in the overlay. *)

val subject_list : t -> string list
(** Sorted; subjects whose list became empty are skipped. *)

(** {2 Expiry queue} *)

val set_expiry : t -> pd_id:string -> int option -> unit
(** [Some ns]: (re)key the pd at expiry instant [ns]
    (membrane [created_at + ttl]); [None]: remove it (no TTL). *)

val clear_expiry : t -> pd_id:string -> unit

val expired : t -> now:int -> string list
(** Non-destructive: pds whose expiry instant is [<= now], in expiry
    order (with a base, ties in pd order, whether or not the expiry tree
    is read).  Entries leave the queue when their pd is deleted, erased
    or re-membraned — never as a side effect of listing. *)

val expiry_size : t -> int

(** {2 Persistence} *)

type roots = {
  rt_postings : Pagestore.root;
  rt_pdinfo : Pagestore.root;
  rt_subjects : Pagestore.root;
  rt_expiry : Pagestore.root;
  rt_expiry_count : int;
  rt_max_pd : string;  (** largest pd key in the base, [""] when empty *)
}
(** Tree roots checkpointed into the DBFS root slot. *)

val empty_roots : roots

val attach : io:Pagestore.io -> roots -> t
(** Index view over checkpointed trees with an empty overlay.  Reads no
    pages — this is what makes a clean mount O(1).  Every pd of a
    non-empty base counts as untouched, so the probes read it. *)

val checkpoint : t -> page_size:int -> first:int -> roots * (int * string) list
(** Lay the merged (base + overlay) view out as fresh trees on contiguous
    blocks from [first]: their roots and every block's bytes, for the
    caller to write.  It streams the old trees only while they hold an
    untouched pd, and counts the [pdinfo] items it carries over from
    them.  The index keeps reading its old base until {!rebase}. *)

val rebase : t -> io:Pagestore.io -> roots -> unit
(** Re-base the index on the trees {!checkpoint} wrote, once their root
    is durable.  The overlay is retained: it stays authoritative for
    touched pds, whose facts the new base duplicates exactly.  The new
    base holds an untouched pd exactly when the checkpoint carried one
    over; when it carried none, the probes stop reading the base. *)

val encode_roots : Rgpdos_util.Codec.Writer.t -> roots -> unit
val decode_roots : Rgpdos_util.Codec.Reader.t -> (roots, string) result

val node_pages : t -> (int * int) list
(** Every node page [(first_block, nblocks)] of the four base trees —
    fsck ownership checks and fault injection.  Empty without a base.
    Reads each tree's interior pages and leftmost leaf
    ({!Pagestore.node_blocks}).  @raise Pagestore.Corrupt_page on an
    unreadable page it reads. *)

(** {2 Rendering — fsck and tests} *)

val dump : t -> string
(** Canonical rendering, one line per fact: ["<pd> <what>: <value>"],
    sorted, where [what] is ["posting <type>.<field>"] (value: the
    canonical value), ["pdinfo"] (the pd's subject, indexed values and
    expiry), ["subject link"] (the subject) or ["expiry"] (the instant).
    Each family renders from its own structures, its overlay and its
    base tree streamed once: postings from the posting lists and the
    postings tree, pdinfo from [pd_keys] and the pdinfo tree, subject
    links from the subject lists and the subjects tree, the expiry queue
    from the expiry map and the expiry tree.  So two indexes holding the
    same facts dump identically, in overlay memory or in base pages, and
    a fact one family lost shows although another still holds it.
    @raise Pagestore.Corrupt_page on an unreadable base page. *)

val differences : t -> rebuilt:t -> skip:(string -> bool) -> string list
(** One line per (pd, what) whose {!dump} facts differ between the index
    and [rebuilt] (a stray fact, a missing one, or one whose value
    differs), naming its pd but not the value; pds [skip] accepts are
    left out.  @raise Pagestore.Corrupt_page on an unreadable base
    page. *)

val unsafe_drop_posting : t -> pd_id:string -> bool
(** Test hook: silently drop [pd_id] from the posting list of its first
    indexed field, leaving the pd claiming it is indexed — the kind of
    corruption {!Dbfs.fsck} must flag.  Returns [false] when the pd has
    no indexed fields. *)
