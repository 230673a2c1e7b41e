(** Storage-limitation sweeper (GDPR art. 5(1)(e)).

    The membrane's time-to-live "is directly requested by the GDPR and can
    be used to implement the right to be forgotten" (§2).  The sweeper
    crypto-erases PD whose TTL has elapsed. *)

type report = {
  scanned : int;
  expired : int;
      (** the pds found expired: those removed plus those whose removal
          failed *)
  removed : int;
  errors : (string * string) list;  (** (pd_id, error) *)
}

val sweep :
  dbfs:Rgpdos_dbfs.Dbfs.t ->
  audit:Rgpdos_audit.Audit_log.t ->
  now:Rgpdos_util.Clock.ns ->
  seal:(Rgpdos_dbfs.Record.t -> string) ->
  unit ->
  report
(** Crypto-erases expired PD under [seal] (the authority sealer),
    logging each erasure in the audit chain.

    The sweep pops only the due entries off DBFS's TTL expiry min-queue
    ({!Rgpdos_dbfs.Dbfs.expired_pds}), so it costs O(expired) rather
    than O(population); [report.scanned] counts the
    queue candidates, erased by ONE {!Rgpdos_dbfs.Dbfs.erase_with} call
    with [~only:(Membrane.expired ~now)], so the membrane stays the
    authority: one descent, one membrane load, one journal record and one
    destruction for the whole sweep, so a crash leaves it all done or not
    begun.  Audit entries stay one per pd, in expiry order.
    If the call fails (a damaged membrane or record), every pd it did not
    erase is retried alone, so the others are erased and audited without
    it; a pd whose erasure fails stays queued for the next sweep, with
    its error in [report.errors].  A sweep larger than one journal record
    commits in chunks ({!Rgpdos_dbfs.Dbfs.erase_with}); the pds of the
    chunks that committed before a failure stay erased and are audited. *)
