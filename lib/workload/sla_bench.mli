(** Rights-under-load SLA bench: a mixed open-loop driver measuring how
    promptly the OS serves GDPR rights while heavy purpose-bound
    processing saturates the machine.

    Methodology (GDPRBench measures rights latency under mixed load as
    {i the} discriminating metric; "Towards an Enforceable GDPR
    Specification" frames the per-request deadline verdict as the
    enforcement monitor's output):

    - {b Open loop}: a seeded arrival schedule is generated up front on
      the virtual timeline — heavy shard-decomposable DED scans arriving
      faster than they complete (saturating by construction: the batch
      interarrival is 7/10 of the measured warm scan service time), with
      rights requests (Art. 15 access, Art. 17 erasure, Art. 20
      portability, Art. 33 breach enumeration) arriving as a Poisson
      stream, each carrying an absolute deadline.  Arrivals never wait
      for service: a backlog under FIFO makes rights queue behind every
      batch scan already submitted, which is exactly the effect the
      deadline lane exists to kill.
    - {b A/B on one build}: the identical schedule replays against a
      FIFO dispatcher (rights wait their turn; batch scans run to
      completion) and an EDF dispatcher (pending rights run
      earliest-deadline-first, and a scan in flight is {i preempted at
      shard-wave boundaries} through {!Rgpdos_ded.Ded.execute}'s
      cooperative [?yield]).  Both sides execute scans in the same
      wave/grain mode — FIFO gets a no-op yield — so simulated service
      costs are identical and only scheduling differs.
    - {b Verdicts}: per-right p50/p99 simulated latency, per-right
      deadline misses, and the scheduler counters ([preemptions],
      [deadline_misses], [rights_jobs], [max_queue_depth]).

    Two scenario runs ride on the same engine, both under EDF:
    - {b consent-revocation storm} — a purpose loses 10%% of subjects in
      one tick (a burst of Art. 7 withdrawals with one shared arrival),
      drained against a deadline while scans keep arriving;
    - {b Art. 33 breach notification} — replay the audit chain to
      enumerate every subject whose PD was touched since the breach
      window opened, against a notification deadline.

    Everything runs on the virtual clock: a [?domains] pool accelerates
    host wall time only, so the report is byte-identical (minus wall
    fields) at 1/2/4 domains — pinned by tests. *)

type policy = Fifo | Edf

val policy_label : policy -> string

type right = Access | Erase | Portability | Breach | Revoke

val right_label : right -> string
(** ["art15"], ["art17"], ["art20"], ["art33"], ["art7"]. *)

val deadline_ns : right -> int
(** The per-right SLO (relative simulated deadline): 50 ms for
    Art. 15/17/20 (above the scan's longest non-preemptible section —
    stages 1-4 of the DED pipeline run before the first shard-wave
    yield point exists), 250 ms for Art. 33.  For Art. 7 the value is
    the {i base} of the storm drain deadline — see {!storm_deadline}. *)

val storm_deadline : n:int -> int
(** The shared drain deadline of an [n]-withdrawal storm burst,
    relative to the burst arrival: applying one withdrawal costs
    several simulated ms (membrane update, copy propagation, journal),
    so the burst SLO is "all applied within base + n x budget" rather
    than a flat per-request latency. *)

val scan_cost_per_record : int
(** Simulated [ded_execute] cost per record of the saturating batch
    scan (50 us — a heavy analytics pass). *)

val breach_cost_per_entry : int
(** Simulated cost charged per audit-chain entry replayed by the
    Art. 33 enumerator. *)

type right_stats = {
  rs_label : string;
  rs_count : int;
  rs_errors : int;
  rs_p50_ns : int;
  rs_p99_ns : int;
  rs_max_ns : int;
  rs_misses : int;
  rs_deadline_ns : int;  (** the class SLO, relative *)
}

type side = {
  sd_policy : string;
  sd_batch_jobs : int;
  sd_batch_errors : int;
  sd_sim_ns : int;       (** simulated span of the whole run *)
  sd_wall_s : float;     (** host wall clock (the only nondeterminism) *)
  sd_counters : (string * int) list;
      (** the canonical scheduler counters, 0 defaults *)
  sd_rights : right_stats list;  (** sorted by label *)
}

type storm = {
  st_requests : int;
  st_p50_ns : int;
  st_p99_ns : int;
  st_misses : int;
  st_drain_ns : int;  (** last withdrawal completion − burst arrival *)
}

type breach = {
  bn_affected : int;        (** distinct subjects enumerated *)
  bn_entries : int;         (** audit entries replayed *)
  bn_latency_ns : int;
  bn_deadline_ns : int;
  bn_met : bool;
}

type result = {
  r_subjects : int;
  r_domains : int;
  r_seed : int64;
  r_batches : int;
  r_batch_every_ns : int;
  r_fifo : side;
  r_edf : side;
  r_improvement : (string * float) list;
      (** per right label, FIFO p99 / EDF p99 (present when both sides
          served the class) *)
  r_storm : storm;
  r_breach : breach;
}

val run :
  ?seed:int64 ->
  ?domains:int ->
  ?subjects:int ->
  ?batches:int ->
  unit ->
  result
(** Defaults: seed 7, domains 4 (0 = inline), 2000 subjects, 30 batch
    scans.  @raise Invalid_argument on a non-positive size. *)

val improvement : result -> string -> float option
(** The p99 improvement factor for a right label, e.g. ["art15"]. *)

val render : result -> string

val schema_id : string
(** The artifact's ["schema"] value. *)

val to_json : wall_ms:float -> result -> Rgpdos_util.Json.t
(** The committed artifact, BENCH_rights_sla.json: both dispatcher sides with per-right
    p50/p99/miss rows and the canonical scheduler counters, the per-right
    p99 improvement factors, and the storm / breach verdicts.
    [wall_ms] is the run's host time. *)
