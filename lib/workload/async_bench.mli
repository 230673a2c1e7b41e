(** Queue-depth sweep for the block-I/O submission queues.

    Runs the E1 DED pipeline on one binary at each swept queue depth and
    reports the load-stage and total speedups over depth 1 (the blocking
    model every other committed baseline runs on) plus the overlap ratio
    ([overlap_ns_hidden / async_service_ns]).  Each run also
    cross-checks the depth invariant at bench scale: identical stages
    and identical byte-movement device counters (reads, writes,
    bytes_read, bytes_written, write_ops, trims) at every depth —
    submission-shape counters may differ, since pipelining splits one
    batch op into several. *)

type depth_row = {
  ar_depth : int;  (** queue depth of this run *)
  ar_total_ns : int;
  ar_load_ns : int;  (** ded_load_membrane + ded_load_data simulated ns *)
  ar_load_speedup : float;  (** depth-1 load stages / this depth's *)
  ar_total_speedup : float;
  ar_overlap_pct : float;
      (** device service hidden behind compute, percent of total service *)
  ar_submits : int;  (** async_submits counter *)
  ar_highwater : int;  (** queue_depth_highwater counter *)
}

type size_run = {
  as_subjects : int;
  as_rows : depth_row list;
      (** one per swept depth, input order; the depth-1 row is the
          baseline *)
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
    [depths] must include 1, the baseline.
    Deterministic: simulated figures depend only on the parameters. *)

val render : result -> string

val schema_id : string
(** The artifact's ["schema"] value. *)

val to_json : wall_ms:float -> result -> Rgpdos_util.Json.t
(** The committed artifact, BENCH_async_io.json: the depth sweep per
    population size (the depth-1 row is the baseline), per-depth
    speedups, overlap and the depth-invariant verdict.
    [wall_ms] is the run's host time. *)
