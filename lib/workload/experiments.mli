(** The evaluation harness: one function per experiment of DESIGN.md §3.

    The paper is a vision paper with no quantitative evaluation, so these
    experiments materialise its {i claims} (see EXPERIMENTS.md for the
    paper-vs-measured record).  Every function is deterministic from its
    parameters, returns a structured result, and has a [render] companion
    producing the table the bench binary prints.  `dune runtest` runs each
    at small scale and asserts the qualitative shape. *)

(** {1 E1 — DED pipeline breakdown} *)

type e1_result = {
  e1_subjects : int;
  e1_stage_ns : (string * int) list;  (** per-stage simulated ns *)
  e1_total_ns : int;
  e1_device : (string * int) list;
      (** PD-device counters over the invoke alone (stats are reset after
          the population load): reads, merged_runs, bytes_read, ... *)
}

val e1_ded_stages :
  ?subjects:int ->
  ?vectored:bool ->
  ?queue_depth:int ->
  ?cores:int ->
  unit ->
  e1_result
(** [?vectored:false] reruns the same pipeline with the device's scalar
    cost model (one seek per block) — the before/after pair behind
    [BENCH_vectored_io.json].  [?cores] bounds the parallel [ded_execute]
    fan-out ([~cores:1] is the sequential before-run of the
    [BENCH_parallel_scale.json] pair; the default is the Host core
    count).  [?queue_depth] (default 1, the blocking model) sizes the
    device's submission/completion queues — the depth sweep behind
    [BENCH_async_io.json]; all in-flight charge is drained before the
    totals are read, so every depth compares completed work. *)

val render_e1 : e1_result -> string

(** {1 E2 — GDPRBench-style comparison} *)

type e2_row = {
  e2_backend : string;
  e2_role : string;
  e2_ops : int;
  e2_errors : int;
  e2_unsupported : int;
  e2_sim_ms : float;
  e2_kops_per_sim_s : float;
}

val e2_gdprbench :
  ?subjects:int -> ?ops_per_role:int -> unit -> e2_row list
val render_e2 : e2_row list -> string

(** {1 E2b — processor-role scaling sweep} *)

type e2b_row = {
  e2b_backend : string;
  e2b_subjects : int;
  e2b_sim_ms : float;  (** simulated time for the fixed op stream *)
}

val e2b_scaling :
  ?sizes:int list -> ?ops:int -> unit -> e2b_row list
(** The processor role (purpose queries dominate) at growing population
    sizes: shows how the three systems scale with the amount of stored PD
    and where rgpdOS's membrane overhead sits relative to the baseline's
    row walks. *)

val render_e2b : e2b_row list -> string

(** {1 E3 — right to be forgotten, forensically} *)

type e3_row = {
  e3_system : string;
  e3_deleted : int;
  e3_leaked_subjects : int;  (** subjects whose secret is still on the medium *)
  e3_sim_ms : float;         (** cost of the deletion pass *)
  e3_authority_recovers : bool;  (** escrow path works (rgpdOS only) *)
}

val e3_erasure : ?subjects:int -> ?erase_fraction:float -> unit -> e3_row list
val render_e3 : e3_row list -> string

(** {1 E4 — right of access} *)

type e4_row = {
  e4_records_per_subject : int;
  e4_sim_us : float;
  e4_export_complete : bool;  (** every stored record present in the export *)
}

val e4_access : ?records_per_subject:int list -> unit -> e4_row list
val render_e4 : e4_row list -> string

(** {1 E5 — storage-limitation sweep} *)

type e5_row = {
  e5_records : int;
  e5_expired : int;
  e5_removed : int;
  e5_sim_ms : float;
}

val e5_ttl : ?sizes:int list -> ?expired_fraction:float -> unit -> e5_row list
val render_e5 : e5_row list -> string

(** {1 E6 — membrane filter selectivity} *)

type e6_row = {
  e6_grant_rate : float;
  e6_consumed : int;
  e6_filtered : int;
  e6_sim_us : float;
}

val e6_filter : ?subjects:int -> ?rates:float list -> unit -> e6_row list
val render_e6 : e6_row list -> string

(** {1 E7 — cross-purpose PD leaks} *)

type e7_result = {
  e7_baseline_dangling_reads : int;
  e7_baseline_leaks : int;       (** cross-purpose reads that succeeded *)
  e7_rgpdos_attacks : int;
  e7_rgpdos_leaks : int;         (** attacks that obtained PD (must be 0) *)
  e7_rgpdos_blocked : int;
}

val e7_leak : ?attacks:int -> unit -> e7_result
val render_e7 : e7_result -> string

(** {1 E8 — ps_register checks} *)

type e8_result = {
  e8_submitted : int;
  e8_accepted : int;
  e8_rejected_no_purpose : int;
  e8_alerted : int;
  e8_misclassified : int;  (** wrong verdict vs ground truth (must be 0) *)
}

val e8_register : unit -> e8_result
val render_e8 : e8_result -> string

(** {1 E9 — purpose-kernel scheduling} *)

type e9_row = {
  e9_config : string;    (** e.g. "rgpd=3000mcpu" *)
  e9_pd_jobs : int;
  e9_npd_jobs : int;
  e9_makespan_ms : float;
  e9_general_busy_ms : float;
  e9_rgpd_busy_ms : float;
  e9_pd_on_general : bool;  (** must be false: the separation invariant *)
}

val e9_kernels : ?jobs:int -> unit -> e9_row list
val render_e9 : e9_row list -> string

(** {1 E11 — consent churn and copy consistency} *)

type e11_result = {
  e11_subjects : int;
  e11_copies : int;
  e11_flips : int;
  e11_membranes_updated : int;  (** total membrane writes incl. copies *)
  e11_sim_ms : float;
  e11_inconsistent_copies : int;  (** copies disagreeing with their lineage
                                      root after the churn — must be 0 *)
}

val e11_consent_churn :
  ?subjects:int -> ?copy_fraction:float -> ?flips:int -> unit -> e11_result
(** Subjects repeatedly grant/withdraw consents while a fraction of the PD
    has live copies; the paper requires membrane consistency across all
    copies of the same PD, so every flip must propagate through the
    lineage. *)

val render_e11 : e11_result -> string

(** {1 A1 — ablation: two-phase vs single-phase DBFS fetching} *)

type a1_row = {
  a1_mode : string;
  a1_grant_rate : float;
  a1_sim_us : float;
  a1_overread : int;
      (** records read from DBFS despite a refusing membrane *)
}

val a1_fetch_mode :
  ?subjects:int -> ?rates:float list -> unit -> a1_row list
(** The design-choice ablation DESIGN.md §4 calls out: the paper's
    two-phase pipeline (membranes first) never reads refused PD but pays
    two DBFS round trips; a single-phase engine fetches records with their
    membranes — cheaper at high grant rates, but it reads PD it then has
    to discard. *)

val render_a1 : a1_row list -> string

(** {1 A2 — ablation: DED placement (host / PIM / PIS)} *)

type a2_row = {
  a2_location : string;
  a2_cpu_cost_us : float;  (** per-record compute intensity *)
  a2_sim_ms : float;
}

val a2_placement :
  ?subjects:int -> ?cpu_costs_ns:int list -> unit -> a2_row list
(** §3(3): "DED could be executed in multiple locations with the help of
    Processing in Memory and Processing in Storage".  The cost model gives
    near-data locations free transfers but slower cores; the sweep over
    compute intensity locates the crossover. *)

val render_a2 : a2_row list -> string

(** {1 E10 — audit-chain verification cost} *)

type e10_row = {
  e10_entries : int;
  e10_verify_wall_ms : float;
  e10_tamper_detected : bool;
}

val e10_audit : ?sizes:int list -> unit -> e10_row list
val render_e10 : e10_row list -> string

(** {1 E-index — secondary-index pushdown vs full-type scans} *)

type eidx_select_row = {
  eidx_population : int;
  eidx_probe : string;             (** rendered predicate *)
  eidx_selectivity_pct : float;    (** designed match fraction, percent *)
  eidx_matches : int;
  eidx_scan_ns : int;              (** simulated ns, [~use_indexes:false] *)
  eidx_index_ns : int;             (** simulated ns, [~use_indexes:true] *)
  eidx_speedup : float;
}

type eidx_ttl_row = {
  eidx_ttl_population : int;
  eidx_ttl_expired : int;
  eidx_ttl_sweep_ns : int;         (** expiry-queue sweep *)
}

type eidx_result = {
  eidx_select : eidx_select_row list;
  eidx_ttl : eidx_ttl_row list;
}

val e_index : ?sizes:int list -> ?ttl_sizes:int list -> unit -> eidx_result
(** The selectivity sweep over [sizes]: a type with three indexed int
    fields designed so an Eq probe matches exactly 0.1% / 1% / 10% of the
    population (plus [True] at 100%), each probe run by {!Dbfs.select}
    as a full scan and as index pushdown on the same store, with
    identical pd_ids asserted.  Then the TTL sweep over [ttl_sizes]: E5's
    aged population, with a fixed expired cohort, swept through the
    expiry queue, so its cost stays O(expired) as the population grows;
    each sweep must erase exactly the aged cohort. *)

val render_e_index : eidx_result -> string
