(** A/B benchmark for the log-structured segment store (experiment
    E-segment).

    Runs the same ingest → churn → GDPR-slice workload twice on one
    build: once against the seed update-in-place allocator (journal
    window 1, synchronous zeroing) and once against the segmented store
    (group commit, bump allocation, compaction + trim).  Both runs use
    identical simulated devices and virtual clocks, so every delta in
    the report is attributable to the storage layout. *)

(** Per-side measurements. *)
type side = {
  sg_label : string;
  sg_subjects : int;
  sg_updates : int;
  sg_erasures : int;
  sg_deletes : int;
  sg_window : int;  (** group-commit window used *)
  sg_logical_bytes : int;
      (** encoded record + membrane bytes handed to the store *)
  sg_blocks_written : int;
  sg_bytes_written : int;
  sg_trims : int;
  sg_write_amp : float;  (** bytes_written / logical_bytes *)
  sg_ingest_mb_s : float;  (** logical MB per simulated second *)
  sg_sim_ms : float;
  sg_batches : int;
  sg_batched_ops : int;
  sg_compactions : int;
  sg_relocations : int;
  sg_segments_reclaimed : int;
  sg_backpressure_stalls : int;
  sg_residue_clean : bool;
      (** no marker of an erased/deleted record found by
          {!Rgpdos_block.Block_device.scan} over the raw image *)
}

type result = {
  sr_baseline : side;
  sr_segmented : side;
  sr_amp_ratio : float;
      (** baseline write-amp / segmented write-amp — the headline number;
          the committed artifact gates it at [>= 2.0] *)
  sr_ingest_ratio : float;
      (** segmented sustained ingest / baseline sustained ingest *)
}

val run : ?subjects:int -> ?update_rounds:int -> ?window:int -> unit -> result
(** Defaults: 10_000 subjects, 3 update rounds per subject (so 4 versions
    of every record exist over the run), group-commit window 16 on the
    segmented side. *)

val render : result -> string
(** Human-readable A/B table for the bench harness. *)

val schema_id : string
(** The artifact's ["schema"] value. *)

val to_json : wall_ms:float -> result -> Rgpdos_util.Json.t
(** The committed artifact, BENCH_segment_io.json: both sides of the A/B with write
    amplification, sustained ingest, group-commit / compaction counters
    and the residue verdicts.
    [wall_ms] is the run's host time. *)
