(** Deterministic fault-injection campaign over a scripted GDPR workload.

    The campaign turns every write the PD device sees during a scripted
    workload (collect → consent flip → erasure → TTL sweep → access →
    audit persistence) into an enumerable crash point: a reference run
    with an empty {!Rgpdos_block.Block_device.Fault_plan} counts the
    write ops, then one run per ordinal [k] snapshots the device image
    right after the [k]th write, remounts the image into a fresh device,
    runs [Dbfs.fsck_repair], and checks three invariants:

    - {b residue-free}: for every subject either a live (non-erased) PD
      of theirs exists in the recovered store, or a forensic
      {!Rgpdos_block.Block_device.scan} of the raw device for their
      email finds nothing — erased/expired/uncommitted PD leaves no
      plaintext behind at any crash point;
    - {b audit}: the audit chain captured at the crash instant
      deserialises and its hash chain verifies up to the crash;
    - {b repair}: the post-repair re-check comes back clean
      ([rr_clean]).

    Alongside the crash sweep, named fault scenarios exercise the
    self-healing paths directly: record-extent bit rot, secondary-index
    damage, bit rot inside an on-device paged index node (cold remount
    must hit the page checksum, repair must rebuild the trees with no
    residue of the damaged page), transient-fault retry, torn-write
    retry, degraded read-only mode (mutations refused, right of access
    still served), and a crash inside a TTL sweep's erasure batch after
    its journal record and before its destruction write (replay and
    repair must leave every member erased, with no plaintext).

    Determinism rule: the same seed and the same workload replay the
    exact same schedule and produce the same verdicts — {!to_json}
    output is byte-identical across runs modulo the optional wall-clock
    field. *)

type crash_verdict = {
  cp_write : int;          (** crash point: the write-op ordinal crashed after *)
  cp_step : string;        (** workload step the write belonged to *)
  cp_plan : string;        (** active fault plan, rendered at install time —
                               counterexamples are diagnosable without
                               re-running the campaign *)
  cp_replay_stop : string; (** mount-time journal replay stop reason *)
  cp_quarantined : int;    (** pds fsck_repair had to quarantine *)
  cp_residue_free : bool;  (** invariant 1 *)
  cp_audit_ok : bool;      (** invariant 2 *)
  cp_fsck_clean : bool;    (** invariant 3 *)
}

type scenario_verdict = {
  sc_name : string;
  sc_pass : bool;
  sc_detail : string;
}

type result = {
  fc_seed : int;
  fc_subjects : int;
  fc_steps : (string * int) list;
      (** workload steps with cumulative write count at each step's end *)
  fc_total_writes : int;   (** write ops in the fault-free reference run *)
  fc_sampled : bool;       (** true when [max_points] skipped some ordinals *)
  fc_points : crash_verdict list;
  fc_scenarios : scenario_verdict list;
}

val run : ?seed:int -> ?subjects:int -> ?max_points:int -> unit -> result
(** Run the campaign.  Defaults: seed 7, 6 subjects (minimum 4; the last
    two are collected after the TTL jump so the sweep has both expired
    and live entries), every crash point.  [max_points] evenly samples
    the ordinal space when the workload writes more than that. *)

val pass_rate_pct : result -> float
(** Percentage of passed invariant checks over the crash sweep
    (3 invariants x points); 100.0 means every invariant held at every
    crash point. *)

val all_pass : result -> bool
(** [pass_rate_pct = 100.0] and every scenario passed. *)

val to_json : ?wall_ms:float -> result -> Rgpdos_util.Json.t
(** Machine-readable campaign report (the [BENCH_fault_campaign.json]
    payload).  Deterministic for a given seed; [wall_ms] is the only
    non-deterministic field and is omitted unless given. *)

val render : result -> string
(** Human-readable summary table. *)
