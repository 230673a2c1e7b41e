(** The rgpdOS machine: the paper's Fig. 4 assembled and booted.

    A machine aggregates the purpose kernels (IO-driver kernels, a
    general-purpose kernel for non-personal data, and the rgpdOS kernel),
    two filesystems (DBFS for PD on its own device; a conventional
    journaling FS for NPD), the Processing Store, the DED, the
    tamper-evident audit log, the LSM policy that makes DBFS invisible
    from the outside, and the supervisory-authority key material for
    crypto-erasure.

    This is the library's main entry point: a data operator boots a
    machine, declares PD types (Listing 1 syntax), registers data
    processings, and invokes them; data subjects exercise their GDPR
    rights against it. *)

type t

val boot :
  ?seed:int64 ->
  ?pd_device:Rgpdos_block.Block_device.config ->
  ?npd_device:Rgpdos_block.Block_device.config ->
  ?authority:Rgpdos_gdpr.Authority.t ->
  ?segmented:bool ->
  unit ->
  t
(** Create and wire a fresh machine.  Defaults: 64 MiB devices, a
    dedicated authority derived from [seed].  The LSM policy installed at
    boot denies every DBFS access except the DED's (full) and the PS's
    (schema reads) — enforcement rules 1-4 of §2.  [?segmented] formats
    the PD store with the log-structured segment allocator.  Journal
    group commit is a runtime knob on the store
    ({!Rgpdos_dbfs.Dbfs.set_group_commit}), which a {!reboot} resets to 1. *)

val reboot : t -> (t, string) result
(** Power-cycle the machine: checkpoint and remount both filesystems from
    the same devices.  Stored PD, membranes and the persisted audit chain
    survive; in-memory state (declared purposes, registered processings,
    collectors) is gone and must be redeployed — call
    [load_declarations] and [register_processing] again, as on a real
    restart.  The virtual clock keeps its value (TTLs keep running).

    The audit chain starts fresh only when none was ever persisted.  A
    persisted chain is reloaded as stored, verified or not, so
    [Audit_log.verify] on the rebooted machine still reports a tampered
    entry; a persisted chain that no longer decodes is an [Error]. *)

(** {1 Component access} *)

val clock : t -> Rgpdos_util.Clock.t
val prng : t -> Rgpdos_util.Prng.t
val dbfs : t -> Rgpdos_dbfs.Dbfs.t
val npd_fs : t -> Rgpdos_journalfs.Journalfs.t
val audit : t -> Rgpdos_audit.Audit_log.t
val ps : t -> Rgpdos_ps.Processing_store.t
val authority : t -> Rgpdos_gdpr.Authority.t
val lsm : t -> Rgpdos_kernel.Lsm.t
val kernels : t -> Rgpdos_kernel.Subkernel.t list
val scheduler : t -> Rgpdos_kernel.Scheduler.t
val pd_device : t -> Rgpdos_block.Block_device.t

(** {1 Data-operator API} *)

val load_declarations : t -> string -> (int * int, string) result
(** Parse a source text in the declaration language and install its
    contents: type declarations become DBFS tables, purpose declarations
    enter the purpose registry.  Returns [(types, purposes)] counts. *)

val find_purpose : t -> string -> Rgpdos_lang.Ast.purpose_decl option

val make_processing :
  t ->
  name:string ->
  purpose:string ->
  ?touches:(string * string list) list ->
  ?cpu_cost_per_record:Rgpdos_util.Clock.ns ->
  ?shard_reduce:Rgpdos_ded.Processing.reduce ->
  Rgpdos_ded.Processing.impl ->
  (Rgpdos_ded.Processing.spec, string) result
(** Build a processing spec whose purpose is looked up in the registry
    (fails if the purpose was never declared). *)

val register_processing :
  t ->
  Rgpdos_ded.Processing.spec ->
  (Rgpdos_ps.Processing_store.register_outcome, string) result

val approve_processing : t -> string -> (unit, string) result

val invoke :
  t ->
  ?fetch_mode:Rgpdos_ded.Ded.fetch_mode ->
  ?location:Rgpdos_ded.Ded.location ->
  ?cores:int ->
  ?pool:Rgpdos_util.Pool.t ->
  ?grain:int ->
  ?yield:(unit -> unit) ->
  name:string ->
  target:Rgpdos_ded.Ded.target ->
  ?init:Rgpdos_ps.Processing_store.init ->
  unit ->
  (Rgpdos_ded.Ded.outcome, string) result
(** [?grain]/[?yield] make a shard-decomposable invocation cooperatively
    preemptible at shard-wave boundaries — see {!Rgpdos_ded.Ded.execute}. *)

val collect :
  t ->
  type_name:string ->
  subject:string ->
  interface:string ->
  record:Rgpdos_dbfs.Record.t ->
  ?consents:(string * Rgpdos_membrane.Membrane.consent_scope) list ->
  unit ->
  (string, string) result
(** The acquisition built-in: collect one record for a subject. *)

val register_collector :
  t -> interface:string -> (unit -> (string * Rgpdos_dbfs.Record.t) list) -> unit
(** Plug a data source behind a collection-interface name (the paper's
    [web_form]/[third_party] entries).  The callback returns
    [(subject, record)] rows when the machine pulls from it. *)

val collect_via :
  t -> type_name:string -> interface:string -> (int, string) result
(** Initialise DBFS from a registered collection interface (§2: "the data
    collection interface will be used by rgpdOS to initialize DBFS").  The
    interface must be declared in the type's [collection] clause — pulling
    a PD type through an undeclared channel is refused.  Returns how many
    records were acquired. *)

(** {1 Data-subject rights} *)

val right_of_access : t -> subject:string -> (string, string) result
(** GDPR art. 15: a JSON document with the subject's PD exactly as stored
    in DBFS (structured, meaningful keys) plus the processing history from
    the audit chain. *)

val right_to_portability : t -> subject:string -> (string, string) result
(** Art. 20: the structured record export alone. *)

val right_to_erasure : t -> subject:string -> (int, string) result
(** Art. 17: crypto-erase every PD of the subject under the authority's
    public key and withdraw all consents.  Returns the number of PD
    erased. *)

val right_to_rectification :
  t -> pd_id:string -> Rgpdos_dbfs.Record.t -> (unit, string) result

val set_consent :
  t ->
  subject:string ->
  purpose:string ->
  Rgpdos_membrane.Membrane.consent_scope ->
  (int, string) result
(** Record a subject's consent decision on all their PD (and every copy,
    via lineage propagation).  A lineage never leaves its subject (a copy
    is filed under its source's subject), so the decision reads and
    rewrites only the subject's own membranes, lineage by lineage in pd
    order, and appends one [Consent_changed] entry per lineage naming the
    subject's first PD in it.  Returns the number of membranes updated. *)

(** A consent receipt: the demonstrable record of a consent decision that
    art. 7(1) requires the operator to keep ("the controller shall be able
    to demonstrate that the data subject has consented").  The MAC is
    keyed with machine-local secret material; [verify_receipt] lets the
    operator (or an auditor holding the key) check a receipt presented
    later, and the referenced audit entry ties it to the tamper-evident
    chain. *)
type consent_receipt = {
  receipt_subject : string;
  receipt_purpose : string;
  receipt_scope : string;       (** rendered consent scope *)
  receipt_time : Rgpdos_util.Clock.ns;
  receipt_audit_seq : int;      (** the Consent_changed entry in the chain *)
  receipt_mac : string;         (** hex HMAC over the fields above *)
}

val set_consent_with_receipt :
  t ->
  subject:string ->
  purpose:string ->
  Rgpdos_membrane.Membrane.consent_scope ->
  (int * consent_receipt, string) result
(** Like [set_consent], also issuing the receipt for the decision.  A
    subject with no PD has no decision to record: [Error]. *)

val verify_receipt : t -> consent_receipt -> bool
(** MAC check plus agreement with the audit chain entry it references. *)

val withdraw_consent : t -> subject:string -> purpose:string -> (int, string) result

val restrict_processing : t -> subject:string -> (int, string) result
(** GDPR art. 18: mark every PD of the subject (and all copies) as
    restricted — processings are refused, but the data is retained.
    Returns the number of membranes updated. *)

val lift_restriction : t -> subject:string -> (int, string) result

(** {1 Operations} *)

val sweep_ttl :
  t ->
  ?mode:Rgpdos_gdpr.Ttl_sweeper.mode ->
  ?incremental:bool ->
  unit ->
  Rgpdos_gdpr.Ttl_sweeper.report
(** Storage-limitation sweep; default mode crypto-erasure under the
    machine's authority.  Incremental by default: only the entries due in
    DBFS's TTL expiry queue are visited, so the sweep costs O(expired)
    rather than O(population) ([?incremental:false] forces the legacy
    full membrane scan). *)

val compliance_evidence :
  t -> ?forensic_probes:string list -> unit -> Rgpdos_gdpr.Compliance.evidence
(** Gather the machine's own compliance evidence: TTL scan, membrane
    invariant (fsck), audit-chain verification, and a forensic scan of the
    PD device for the given probe strings (field values of erased
    subjects). *)

val submit_job : t -> Rgpdos_kernel.Scheduler.job -> (unit, string) result
val run_jobs : t -> unit
(** Purpose-kernel scheduling of PD/NPD work (experiment E9). *)

val persist_audit : t -> (unit, string) result
(** Write the audit chain to the NPD filesystem ([/var/audit.chain]).  The
    chain carries pd_ids and purposes but never PD field values, so the
    conventional journaling FS is an acceptable home for it. *)

val verify_persisted_audit : t -> (int, string) result
(** Reload the persisted chain from the NPD filesystem and verify it;
    returns its length.  Fails if the file was tampered with. *)

val repartition_cpu :
  t -> rgpd_mcpu:int -> general_mcpu:int -> (unit, string) result
(** Dynamic repartitioning (§2: the kernels "dynamically partition CPU and
    memory resources"): resize the rgpdOS and general-purpose kernels'
    CPU shares.  Fails if the request exceeds the machine total. *)

val cpu_partitions : t -> (string * int * int) list
(** [(kernel, cpu_millis, mem_pages)] for every sub-kernel. *)
