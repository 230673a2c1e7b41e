(** Same-build A/B driver for the asynchronous block-I/O path.

    Runs the E1 DED pipeline on one binary with the device's async
    submission queues off (the scalar charging model of every committed
    baseline) and on, sweeping queue depth, and reports the load-stage
    and total speedups plus the overlap ratio
    ([overlap_ns_hidden / async_service_ns]).  Each run also
    cross-checks the async==sync
    invariant at bench scale: identical stages and identical
    byte-movement device counters (reads, writes, bytes_read,
    bytes_written, write_ops, trims) — submission-shape counters may
    differ, since pipelining splits one batch op into several. *)

type depth_row = {
  ar_depth : int;  (** queue depth of this async run *)
  ar_total_ns : int;
  ar_load_ns : int;  (** ded_load_membrane + ded_load_data simulated ns *)
  ar_load_speedup : float;  (** sync load stages / async load stages *)
  ar_total_speedup : float;
  ar_overlap_pct : float;
      (** device service hidden behind compute, percent of total service *)
  ar_submits : int;  (** async_submits counter *)
  ar_highwater : int;  (** queue_depth_highwater counter *)
}

type size_run = {
  as_subjects : int;
  as_sync_total_ns : int;
  as_sync_load_ns : int;
  as_rows : depth_row list;  (** one per swept depth, input order *)
  as_invariant_ok : bool;
      (** same stages and same byte-movement device counters on every side *)
}

type result = {
  a_depths : int list;
  a_sizes : size_run list;
  a_best_load_speedup : float;
      (** best load-stage speedup over all sizes at depth >= 4 — the
          figure the BENCH gate compares against its absolute bar *)
  a_best_overlap_pct : float;  (** best overlap ratio at depth >= 4 *)
}

val run : ?depths:int list -> ?sizes:int list -> unit -> result
(** Defaults: depths [1; 4; 16; 64], sizes [2_000; 8_000] subjects.
    Deterministic: simulated figures depend only on the parameters. *)

val render : result -> string

val schema_id : string
(** The artifact's ["schema"] value. *)

val to_json : wall_ms:float -> result -> Rgpdos_util.Json.t
(** The committed artifact, BENCH_async_io.json: the depth sweep per population size with the
    sync baseline, per-depth speedups, overlap and the async==sync verdict.
    [wall_ms] is the run's host time. *)
