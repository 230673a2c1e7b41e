(** Storage-limitation sweeper (GDPR art. 5(1)(e)).

    The membrane's time-to-live "is directly requested by the GDPR and can
    be used to implement the right to be forgotten" (§2).  The sweeper
    removes PD whose TTL has elapsed, either physically or by
    crypto-erasure. *)

type mode =
  | Physical_delete
  | Crypto_erase of (Rgpdos_dbfs.Record.t -> string)
      (** the authority sealer *)

type report = {
  scanned : int;
  expired : int;
  removed : int;
  errors : (string * string) list;  (** (pd_id, error) *)
}

val sweep :
  dbfs:Rgpdos_dbfs.Dbfs.t ->
  audit:Rgpdos_audit.Audit_log.t ->
  now:Rgpdos_util.Clock.ns ->
  mode:mode ->
  ?incremental:bool ->
  unit ->
  report
(** Removes expired PD, logging each removal in the audit chain.

    [incremental] (the default) pops only the due entries off DBFS's TTL
    expiry min-queue ({!Rgpdos_dbfs.Dbfs.expired_pds}), so a sweep costs
    O(expired) rather than O(population); [report.scanned] counts the
    queue candidates.  The membrane remains the authority — one batched
    {!Rgpdos_dbfs.Dbfs.get_membranes} re-checks every candidate with
    [Membrane.expired] — and the expired pds are removed by ONE
    {!Rgpdos_dbfs.Dbfs.erase_with} (or {!Rgpdos_dbfs.Dbfs.delete}) call:
    one journal record and one destruction for the whole sweep, so a
    crash leaves it all done or not begun.  Audit entries stay one per
    pd, in expiry order.  If the batched re-check or removal fails (a
    damaged membrane or record), every pd it did not remove is re-checked
    or removed alone, so the others are removed and audited without it;
    a pd whose removal fails stays queued for the next sweep, with its
    error in [report.errors].  A sweep larger than one journal record
    commits in chunks ({!Rgpdos_dbfs.Dbfs.erase_with}); the pds of the
    chunks before a failing one stay removed and are audited.

    [~incremental:false] preserves the legacy full scan over every
    non-erased membrane (measurement baseline; identical outcome), each
    expired pd removed as a batch of one. *)
