(** On-device paged B+-trees, bulk-loaded at checkpoint and read one node
    at a time afterwards.

    Pages are immutable once written: mutations accumulate in in-memory
    overlays and the next checkpoint rewrites the whole tree into the
    other metadata heap half (see DESIGN.md).  {!layout} only lays a
    tree's pages out; the caller writes them.  All reads go through the
    {!io} closures supplied by DBFS, which read the device (or a pending
    prefetch) on every call: no page is cached, so every read is
    checksummed against what is on the medium. *)

type io = {
  read_pages : (int * int) list -> string list;
      (** [read_pages [(first, nblocks); ...]]: each page's concatenated
          raw bytes, in order, as one vectored request — cost-charged by
          the provider, each page once *)
  prefetch_page : int -> int -> unit;
      (** hint that the page will be read shortly: the provider submits
          the device read so its service overlaps the current page's
          decode ({!iter_from} issues it for the next sibling before
          descending).  Best-effort: it must not raise, since the scan
          may stop before it needs the page *)
}

type root = { r_block : int; r_nblocks : int }
(** Location of a tree's root page; [r_block = -1] encodes the empty tree. *)

val empty_root : root
val is_empty : root -> bool

exception Corrupt_page of int
(** Raised (with the page's first block) when a page fails its checksum or
    does not parse. *)

val layout :
  page_size:int -> first:int -> (string * string) list -> root * (int * string) list
(** Bulk-load a tree from items sorted ascending by key (keys unique),
    its pages laid out on contiguous blocks from [first]: the tree's root
    and every block's bytes, in block order, for the caller to write.
    Packs leaves greedily into single blocks (an oversized entry gets a
    multi-block page), then builds interior levels bottom-up. *)

val lookup : io -> root -> string list -> string option list
(** Batched point lookup, results in input order.  The keys are sorted
    and descend together: one {!io.read_pages} request per tree level
    reads every distinct node on their root-to-leaf paths once, so a
    batch costs at most O(height) requests and each node is read once
    however many keys pass through it.  A single key is a batch of one
    (O(height) page reads).  @raise Corrupt_page *)

val iter_from :
  ?on_corrupt:(int -> unit) -> io -> root -> lo:string -> (string -> string -> bool) -> unit
(** In-order iteration over keys >= [lo]; the callback returns [false] to
    stop.  Subtrees entirely below [lo] are pruned.  With [on_corrupt],
    unreadable pages are reported and skipped instead of raising. *)

val iter_prefix :
  ?on_corrupt:(int -> unit) -> io -> root -> prefix:string -> (string -> string -> unit) -> unit
(** Iterate exactly the keys with the given prefix, in order. *)

val node_blocks : ?on_corrupt:(int -> unit) -> io -> root -> (int * int) list
(** Every page of the tree as [(first_block, nblocks)], level by level,
    root first and the rightmost leaf last — used by fsck ownership checks
    and fault injection.  Reads the leftmost path, for the height, and
    then each interior level in one {!io.read_pages} request; the leaves
    are listed from their parents, so the leftmost is the only leaf read.
    With [on_corrupt], an unreadable page is reported and its subtree
    skipped instead of raising. *)

val encode_root : Rgpdos_util.Codec.Writer.t -> root -> unit
val decode_root : Rgpdos_util.Codec.Reader.t -> (root, string) result
