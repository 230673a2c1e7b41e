(** The refinement harness: drives the real {!Rgpdos_dbfs.Dbfs} and the
    pure {!Model} in lockstep over generated op scripts and asserts
    observational equivalence, in four modes:

    - {b lockstep} — every op's result is compared as it executes, then
      the full state is audited (records, membranes, erasure envelopes,
      selections under both planner paths, expiry, exports) and the
      audit is repeated at each cache budget in {!budgets} (the
      index/cache-coherence mode);
    - {b crash-refinement} — the same script replayed under a generated
      fault plan (torn/failed writes, data-region bit flips,
      crash-after-write-N) for every config in {!all_cfgs}; the crash
      image is remounted + [fsck_repair]ed and must land byte-equal to
      the model at {i some} micro-op prefix boundary (quarantined pds
      excluded on both sides), residue-free for every destroyed
      sentinel, and out of degraded mode;
    - {b linearizability} — disjoint per-shard scripts executed on 1/2/4
      domains must produce exactly the observables of their sequential
      execution (each shard is additionally lockstep-checked inside its
      domain);
    - {b degraded} ({!check_degraded}) — after unrecoverable device
      damage every mutation must return [Error (Degraded _)] while
      Art. 15 reads still answer from surviving data, matching the
      model's pre-damage answers.

    Counterexamples shrink (greedy op removal to fixpoint, then fault
    plans reduced to crash-only) and carry the seed, the rendered fault
    plan and the full script dump, so every failure replays without
    re-running the campaign. *)

(** One scripted operation.  Integer fields are interpreted modulo the
    relevant pool size, so any int is a valid op (shrinking stays
    type-correct).  [pick] selects a target pd from the model's current
    view ([pick mod population]); an empty population makes the op a
    no-op on both sides. *)
type op =
  | Collect of { subj : int; ki : int; ks : int; ttl : int }
      (** insert a fresh PD for subject [subj mod 6]; [ttl mod 3]:
          0 = none, 1 = short, 2 = long *)
  | Update of { pick : int; ki : int; ks : int }
      (** rewrite a live pd's record (fresh forensic sentinel) *)
  | Flip of { pick : int; grant : bool }
      (** consent flip on the "analytics" purpose of any pd *)
  | Erase_subject of { subj : int }  (** Art. 17 over the subject *)
  | Delete_pd of { pick : int }      (** physical removal *)
  | Ttl_sweep  (** erase every expired pd, in expiry-queue order *)
  | Advance of { ns : int }          (** advance the virtual clock *)
  | Access of { subj : int }         (** Art. 15 export comparison *)
  | Select_q of { q : int }
      (** run query [q mod pool] under both planner paths *)

type script = op list

type cfg = { segmented : bool; gc_window : int; queue_depth : int }
(** One point of the crash-refinement config matrix. *)

val base_cfg : cfg
(** Heap allocator, group-commit window 1, queue depth 1. *)

val all_cfgs : cfg list
(** Both allocators x group-commit windows {1,4,64} x queue depths
    {1,4,64} — 18 configs. *)

val budgets : int list
(** Cache budgets the coherence audit runs at: [1; 7; 65536]. *)

val cfg_to_string : cfg -> string
val op_to_string : op -> string
val script_to_string : script -> string

val gen_script : Rgpdos_util.Prng.t -> script
(** 4–16 ops, starting with two collects so scripts are never vacuous. *)

(** Deliberately-injected semantic bugs, for validating that the harness
    actually catches divergence with a shrunk, replayable
    counterexample. *)
type bug =
  | Drop_consent_flip
      (** the real side silently loses consent-flip writes *)

val run_script : ?bug:bug -> cfg -> script -> (int, string) result
(** Lockstep + full-state audit + coherence budgets + clean-mode residue
    scan.  [Ok n] is the number of observable comparisons performed. *)

val plan_for_script : spec_seed:int -> cfg -> script -> string
(** The rendered fault plan {!run_crash} derives for this
    (seed, cfg, script) — captured at install time, for reports. *)

val run_crash : spec_seed:int -> cfg -> script -> (int, string) result
(** One crash-refinement run: derive a fault plan deterministically from
    [spec_seed] and the script's reference write count, replay under it,
    crash, remount, repair, and check the prefix/residue/degraded rules.
    [Ok n] is the number of fault points exercised; [Error] details
    include the plan. *)

val check_degraded : script -> (unit, string) result
(** The degraded-mode law (satellite of the crash mode): run the script
    clean, damage every unowned data-region block permanently, then
    assert the store degrades on the next mutation, every further
    mutation returns [Error (Degraded _)], and Art. 15 access over the
    surviving subjects still equals the model's pre-damage answers. *)

(** {1 Campaign} *)

type failure = {
  f_mode : string;  (** "lockstep" | "crash" | "linearizability" | ... *)
  f_cfg : string;
  f_plan : string;  (** rendered fault plan, [""] outside crash mode *)
  f_seed : int;
  f_spec_seed : int;  (** fault-plan derivation seed, 0 outside crash *)
  f_script : script;  (** shrunk *)
  f_detail : string;
  f_shrunk_from : int;  (** op count before shrinking *)
}

val failure_to_string : failure -> string

type report = {
  r_seed : int;
  r_scripts : int;
  r_ops_checked : int;
  r_fault_points : int;
  r_crash_runs : int;
  r_lin_domains : int list;
  r_failures : failure list;
}

val run : ?seed:int -> ?scripts:int -> unit -> report
(** The full campaign: [scripts] generated scripts (default: the
    [QCHECK_COUNT] environment variable, else 4), each run in lockstep +
    coherence mode and in crash mode across {!all_cfgs}, plus one
    linearizability pass at 1/2/4 domains.  Deterministic in [seed]. *)

val find_counterexample :
  ?bug:bug -> seed:int -> max_scripts:int -> cfg -> failure option
(** Generate scripts until [run_script ?bug] fails, then shrink — the
    injected-bug demonstration entry point. *)

val conformance_pct : report -> float
val all_pass : report -> bool

val schema_id : string
(** ["rgpdos-model-check/1"]. *)

val to_json : ?wall_ms:float -> report -> Rgpdos_util.Json.t
(** The BENCH_model_check.json payload.  Deterministic modulo
    [wall_ms]. *)

val render : report -> string
