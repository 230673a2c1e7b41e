(** Simulated block device.

    Both filesystems in the reproduction (the conventional journaling FS of
    the Fig-2 baseline and rgpdOS's DBFS) sit on instances of this device,
    so the forensic experiments (E3: does deleted PD survive on the medium?)
    can scan the raw bytes exactly as a disk-imaging tool would.

    The device charges simulated time to a {!Rgpdos_util.Clock.t} per
    operation (seek + per-byte transfer), keeps IO statistics, and supports
    fault injection and point-in-time snapshots for crash-recovery tests. *)

type t

type config = {
  block_size : int;      (** bytes per block *)
  block_count : int;     (** device capacity in blocks *)
  read_latency : Rgpdos_util.Clock.ns;   (** fixed cost per read *)
  write_latency : Rgpdos_util.Clock.ns;  (** fixed cost per write *)
  byte_latency : Rgpdos_util.Clock.ns;   (** additional cost per byte moved *)
  vectored : bool;
  (** when true (the default), vectored requests charge one fixed seek per
      merged contiguous run; when false they degrade to one seek per block
      (the scalar cost model), letting before/after comparisons run on the
      same build. *)
  queue_depth : int;
  (** service slots per channel (default 1): how many submissions one
      channel services concurrently before further requests queue behind
      the earliest free slot.  Depth 1 is the blocking model — a
      submission awaited at once costs exactly its {!read_vec} /
      {!write_vec}. *)
}

val default_config : config
(** 4 KiB blocks, 16 Ki blocks (64 MiB), NVMe-flash-like latencies,
    vectored, queue depth 1. *)

val create : ?config:config -> clock:Rgpdos_util.Clock.t -> unit -> t

val config : t -> config

val clock : t -> Rgpdos_util.Clock.t
(** The virtual clock the device charges. *)

exception Out_of_range of int
(** Raised on access to a block index outside the device. *)

exception Faulted of int
(** Raised when fault injection has marked a block bad. *)

val read_vec : t -> int list -> (int * string) list
(** [read_vec dev indices] reads all the named blocks in one vectored
    request.  The indices are sorted (elevator order), duplicates are
    collapsed, and contiguous indices are merged into runs: the request
    charges one [read_latency] seek per run plus the usual per-byte cost.
    Returns [(index, contents)] in ascending index order, one entry per
    distinct requested index; each content is [block_size] bytes, and an
    unwritten block reads as zeros.  A single block is [read_vec dev [i]]. *)

val charge_read_vec : t -> int list -> unit
(** Charge exactly the simulated cost (and IO statistics) of
    [read_vec dev indices] without transferring any bytes.  Read caches
    use it so a cache hit costs the same simulated device time as the
    vectored miss it replaces. *)

val write_vec : t -> (int * string) list -> unit
(** [write_vec dev writes] stores every [(index, data)] pair in one
    vectored request, charging one [write_latency] seek per contiguous
    run of distinct indices plus the per-byte cost.  Later pairs win on
    duplicate indices, and duplicates are resolved {i before} cost
    accounting: a request naming the same block twice seeks and transfers
    it once.  [data] shorter than [block_size] is zero-padded; longer
    raises [Invalid_argument].  The request is checked whole before it
    has any effect: an out-of-range index, a faulted block or an oversize
    payload raises with nothing persisted, charged or counted, and no
    fault-plan write ordinal consumed.  Every write request, blocking or
    queued, meets the fault plan in this one dispatch. *)

(** {1 Submission / completion queues}

    io_uring-style queue pairs on the simulated clock.  A submission
    moves bytes immediately — writes persist (and run the whole
    fault-plan dispatch, write-op ordinals and crash capture) at submit
    time, reads capture their payload at submit time — so on-device
    state, outcomes and IO counters are identical to the blocking
    calls regardless of when completions settle.  Only TIME is deferred:
    each request occupies one of its channel's [queue_depth] service
    slots and {!await} advances the clock to the request's completion
    instant, charging zero when the caller's compute between submit and
    await already covered it (the hidden time is tallied in the
    ["overlap_ns_hidden"] counter).

    This is the device's only queued model; the blocking calls above are
    its depth-1 special case.  At [queue_depth = 1] a submission awaited
    before anything else is submitted on its channel costs exactly the
    blocking call.  Independent channels still overlap one another at
    depth 1, so DBFS's index prefetch, group-commit flushes and
    compactor writes (each on a channel of its own) can hide service
    behind the caller's compute. *)

type ticket
(** An in-flight submission.  Settle it with {!await} (idempotent). *)

val submit_read_vec : t -> ?channel:int -> int list -> ticket
(** Enqueue the vectored read of {!read_vec} on [channel] (default 0).
    Payload bytes are captured and faults raised at submission; the
    clock charge settles at {!await}.  Same IO counters as {!read_vec},
    plus the queue counters (see {!stats}). *)

val submit_charge_read_vec : t -> ?channel:int -> int list -> ticket
(** Cost-and-accounting-only {!submit_read_vec} (the queued analogue of
    {!charge_read_vec}): cache hits queue, cost and settle exactly like
    the cold read they replace, so warm==cold holds at every depth.
    The ticket's payload is empty. *)

val submit_write_vec : t -> ?channel:int -> (int * string) list -> ticket
(** Enqueue the vectored write of {!write_vec} on [channel].  Bytes
    persist and the fault plan dispatches at submission (raising
    {!Faulted} exactly as {!write_vec} would); the clock charge settles
    at {!await} — callers needing a durability barrier await the ticket
    (or {!drain}) before depending on the op's time being charged.  A
    faulted submission settles before it raises: its service is charged
    and it does not stay {!outstanding}. *)

val await : t -> ticket -> (int * string) list
(** Settle a completion: advance the clock to the request's completion
    instant (zero if compute already passed it) and return the payload
    captured at submission ([[]] for writes and charge-only reads).
    Idempotent — re-awaiting returns the payload without re-charging. *)

val drain : t -> unit
(** Settle every in-flight submission (the device-wide durability
    barrier).  After [drain] the clock covers all submitted device
    time. *)

val outstanding : t -> int
(** In-flight (submitted, not yet awaited) requests across all
    channels. *)

val trim : t -> int -> unit
(** Mark a block unallocated and zero it.  Unlike a real SSD TRIM this
    simulation zeroes eagerly, which is the *charitable* assumption for the
    baseline: its journal still leaks PD even with perfect TRIM. *)

val inject_fault : t -> int -> unit
(** Subsequent accesses to the block raise {!Faulted}. *)

val clear_fault : t -> int -> unit
(** Clears both permanent and transient faults on the block. *)

val inject_transient_fault : t -> int -> count:int -> unit
(** The next [count] accesses touching the block raise {!Faulted}, then the
    block recovers on its own — the model for a transient device error that
    a bounded retry loop is expected to ride out. *)

(** {1 Programmable fault plans}

    A fault plan is a deterministic schedule keyed on the device's write-op
    ordinal: each {!write_vec} or {!submit_write_vec} request counts as one
    write op, numbered from 1 as of plan installation.  A campaign harness
    installs a plan, runs a scripted workload, and every write op becomes an
    enumerable fault or crash point.  Determinism rule: the same seed and
    the same workload replay the exact same schedule and produce the same
    verdicts. *)

module Fault_plan : sig
  type action =
    | Fail_write of { transient : bool }
        (** the op charges the device but persists nothing and raises
            {!Faulted}; with [transient = false] the first target block is
            additionally marked permanently bad *)
    | Torn_write of { keep_runs : int }
        (** a write persists only its first [keep_runs] contiguous runs
            in ascending block order, then raises {!Faulted}: a one-run
            write persists nothing with [keep_runs = 0], and with [>= 1]
            persists everything but loses the acknowledgement *)
    | Bit_flip of { block : int; byte : int; bit : int }
        (** the op succeeds normally, then one bit of the named block is
            silently flipped — medium bit rot, visible only to checksums *)

  type t

  val create : unit -> t
  (** Empty plan: no faults, no crash trigger.  Installing an empty plan is
      how a reference run counts its write ops ({!writes_seen}). *)

  val on_write : t -> nth:int -> action -> unit
  (** Schedule [action] to fire on the [nth] write op (1-based, counted
      from plan installation).  Each scheduled fault fires exactly once. *)

  val crash_after_writes : t -> int -> unit
  (** Snapshot the device image immediately after the [n]th write op's
      persistence completes (including a torn prefix), modelling power loss
      at that instant; retrieve it with {!crash_image}. *)

  val writes_seen : t -> int
  (** Write ops observed by the device since the plan was installed. *)

  val pp_action : Format.formatter -> action -> unit
  val action_to_string : action -> string

  val pp : Format.formatter -> t -> unit
  (** Render the plan's still-scheduled faults and crash trigger, e.g.
      [plan{@3:torn-write(keep=1) crash@17}].  Fired entries are removed
      from the plan, so diagnosable failure reports should capture
      {!to_string} at install time. *)

  val to_string : t -> string

  val random :
    prng:Rgpdos_util.Prng.t ->
    writes:int ->
    faults:int ->
    block_count:int ->
    unit ->
    t
  (** [faults] actions drawn from a seeded PRNG over the first [writes]
      write ops (uniform mix of transient/permanent failures, torn writes
      and bit flips). *)
end

val set_fault_plan : t -> Fault_plan.t option -> unit
(** Install (or with [None] remove) the device's fault plan. *)

val crash_image : t -> string array option
(** The snapshot captured by the plan's [crash_after_writes] trigger, once
    the trigger has fired; [restore] it into a fresh device to model
    remounting after the crash. *)

val unsafe_flip : t -> block:int -> byte:int -> bit:int -> unit
(** Flip one bit of a block in place without charging the clock or touching
    counters — the direct bit-rot test hook ({!Fault_plan.Bit_flip} is the
    scheduled form).  Out-of-range [byte] offsets are ignored. *)

val is_written : t -> int -> bool
(** Whether the block currently holds bytes (written and not trimmed).
    Free introspection for repair tools choosing scrub candidates; reading
    the block's contents still charges normally. *)

val snapshot : t -> string array
(** Copy of all written blocks (unwritten slots are [""]), for crash tests:
    restore with [restore]. *)

val restore : t -> string array -> unit

val stats : t -> Rgpdos_util.Stats.Counter.t
(** Counters: "reads", "writes", "trims", "bytes_read", "bytes_written",
    plus vectored-IO observability: "vec_reads" / "vec_writes" (vectored
    requests issued) and "merged_runs" (contiguous runs charged across
    all vectored requests).  "reads"/"writes"/bytes stay per-block, so
    the merge ratio is [reads / merged_runs].  "write_ops" counts write
    requests — the ordinal space fault plans schedule against.

    Queue observability (all 0 until the submission API is used):
    "async_submits" / "async_completions" (submissions issued / settled),
    "async_service_ns"
    (total service time submitted), "overlap_ns_hidden" (service time
    hidden behind caller compute — the overlap ratio is
    [overlap_ns_hidden / async_service_ns]) and "queue_depth_highwater"
    (maximum simultaneously in-flight submissions). *)

val reset_stats : t -> unit

val scan : t -> string -> (int * int) list
(** [scan dev needle] searches every block (without charging simulated
    time — this is the forensic attacker, not a machine component) and
    returns [(block, offset)] of every occurrence of [needle].  Matches
    spanning two adjacent blocks are found as well. *)

val used_blocks : t -> int
(** Number of blocks that have been written and not trimmed. *)
