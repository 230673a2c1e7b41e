(** Mount-scale benchmark for the paged DBFS indexes and the bounded
    cache.

    Two claims, one artifact (BENCH_mount_scale.json):

    - a {e clean} remount touches O(1) device blocks regardless of
      population — the index trees are attached by root pointer, not
      decoded, and the allocation bitmap hydrates lazily;
    - a Zipf-skewed Art.15 (export) / Art.17 (erasure) / DED-select
      workload over the largest population completes inside a fixed
      cache-entry budget, with eviction semantically invisible. *)

type mount_row = {
  mb_subjects : int;
  mb_build_sim_ms : float;  (** populate + checkpoint, simulated *)
  mb_mount_reads : int;  (** device blocks read by the clean mount *)
  mb_mount_sim_us : float;  (** simulated mount latency *)
  mb_resident_after_mount : int;
      (** cache entries the mount left behind *)
  mb_index_pages : int;  (** node pages of the checkpointed trees *)
}

type zipf_row = {
  zb_subjects : int;
  zb_ops : int;
  zb_budget : int;  (** fixed cache-entry budget for the run *)
  zb_resident_max : int;
      (** high-water resident entries — must stay [<= zb_budget] *)
  zb_hits : int;
  zb_misses : int;
  zb_evictions : int;
  zb_page_reads : int;  (** index node-page reads, hit or miss *)
  zb_sim_ms : float;
  zb_ops_ok : bool;  (** every workload operation returned [Ok] *)
}

type result = { mb_rows : mount_row list; mb_zipf : zipf_row }

val run : ?sizes:int list -> ?ops:int -> ?budget:int -> unit -> result
(** One mount row per population in [sizes] (deduplicated, ascending;
    default 10^3 → 10^6), then the Zipfian workload of [ops] operations
    (default 20,000) over the largest population under [budget] cache
    entries (default 4,096).  Deterministic: fixed seeds, simulated
    clocks. *)

val read_ratio : result -> float
(** Max/min clean-mount device reads across the rows — the
    population-independence headline the artifact gates on (1.0 when
    mounts are exactly O(1)). *)

val render : result -> string

val schema_id : string
(** The artifact's ["schema"] value. *)

val to_json : wall_ms:float -> result -> Rgpdos_util.Json.t
(** The committed artifact, BENCH_mount_scale.json: one row per population, the max/min
    read ratio and the Zipf-budget workload counters.
    [wall_ms] is the run's host time. *)
