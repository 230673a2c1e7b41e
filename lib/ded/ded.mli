(** The Data Execution Domain (§2): the only component that touches DBFS.

    rgpdOS reverses the usual power balance: instead of a process pulling
    PD into its address space, the function runs {i inside the PD's
    domain}.  A DED instance executes one data processing through eight
    named steps:

    + [ded_type2req] — translate the input parameter (a PD type or
      explicit references) into DBFS requests;
    + [ded_load_membrane] — fetch only the membranes;
    + [ded_filter] — keep the PD whose membrane approves this purpose now;
    + [ded_load_data] — fetch records for the survivors, projected to the
      consented view (data minimisation);
    + [ded_execute] — run the implementation inside the seccomp sandbox;
    + [ded_build_membrane] — wrap any produced PD in a fresh membrane;
    + [ded_store] — store produced PD in DBFS;
    + [ded_return] — return non-PD values and {i references} to PD — raw
      records never cross back to the caller.

    Every step's simulated cost is recorded, which experiment E1 reports
    as the pipeline breakdown. *)

type target =
  | All_of_type of string       (** process every PD of a type *)
  | Pd_refs of string list      (** process specific PD references *)
  | Selection of string * Rgpdos_dbfs.Query.t
      (** process the PD of a type matching a predicate.  The predicate is
          evaluated {i after} membrane filtering and view projection, so a
          selection can never observe fields the purpose may not see. *)

(** How stages 2-4 fetch from DBFS.  [Two_phase] is the paper's design:
    membranes first, data only for PD whose membrane granted access.
    [Single_phase] is the ablation: membrane and record fetched together,
    as a conventional engine would — faster when almost everything is
    granted, but it *reads* PD that consents then refuse (the [overread]
    counter), which the paper's architecture exists to prevent. *)
type fetch_mode = Two_phase | Single_phase

(** Where the DED instance executes (§3(3)): on the host CPU, with
    Processing-in-Memory (UPMEM-style DPUs), or with Processing-in-Storage.
    The cost model: the host pays a per-record DMA transfer to bring data
    up the hierarchy but has the fastest cores; PIM/PIS avoid the transfer
    and run on progressively slower near-data cores.  Crossover depends on
    the processing's compute intensity (ablation A2). *)
type location = Host | Pim | Pis

type outcome = {
  value : Rgpdos_dbfs.Value.t option;   (** non-PD result *)
  produced_refs : string list;          (** references to newly stored PD *)
  consumed : int;                       (** PD records actually processed *)
  filtered : int;                       (** PD refused by their membranes *)
  overread : int;
      (** records fetched from DBFS despite a refusing membrane — always 0
          in [Two_phase] mode *)
  stage_ns : (string * Rgpdos_util.Clock.ns) list;
      (** simulated nanoseconds per pipeline stage, in stage order *)
}

type error =
  | Unknown_type of string
  | Syscall_violation of string   (** sandbox killed the processing *)
  | Implementation_error of string
  | Storage_error of string
  | No_purpose of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type t

val create :
  clock:Rgpdos_util.Clock.t ->
  dbfs:Rgpdos_dbfs.Dbfs.t ->
  audit:Rgpdos_audit.Audit_log.t ->
  unit ->
  t
(** One [t] per machine; each [execute] call instantiates a fresh logical
    DED (the paper's "PS instantiates a DED" on every invoke). *)

val actor : string
(** The actor string DBFS sees for DED accesses: ["ded"]. *)

val measurement : Processing.spec -> string
(** SGX-style enclave measurement of a data processing: a SHA-256 digest
    over the processing's identity (name, purpose text, declared
    footprint).  Recorded in the audit chain on every execution so a
    regulator can verify {i which} code ran against the PD. *)

val location_cores : location -> int
(** Cores the [ded_execute] stage may fan out over at each location:
    [Host] has few fast cores (8), [Pim] many slow DPUs (64), [Pis] an
    intermediate array (16).  Together with {!execute_multiplier}'s
    per-core slowdown this makes the A2 placement crossover a function
    of parallelism (§3(3)). *)

val execute_multiplier : location -> int
(** Per-core slowdown of [ded_execute] at each location (Host 1×,
    Pim 2×, Pis 4×). *)

val cost_filter_per_membrane : Rgpdos_util.Clock.ns
(** Simulated cost [ded_filter] charges per membrane examined (the stage
    is linear in the selection size, not flat). *)

val cost_spawn_per_shard : Rgpdos_util.Clock.ns
(** Simulated overhead charged per shard spawned by a parallel
    [ded_execute]. *)

val default_grain : int
(** Records per shard in preemptible ([?yield]) execution (64). *)

val execute :
  t ->
  ?fetch_mode:fetch_mode ->
  ?location:location ->
  ?cores:int ->
  ?pool:Rgpdos_util.Pool.t ->
  ?grain:int ->
  ?yield:(unit -> unit) ->
  ?channel:int ->
  processing:Processing.spec ->
  target:target ->
  unit ->
  (outcome, error) result
(** Run the eight-step pipeline (default [Two_phase], [Host]).  The processing
    must have a purpose (enforced again here, defence in depth — PS
    already rejects purposeless functions).

    When the processing declares [shard_reduce] and [cores > 1] (default:
    [location_cores location]), the [ded_execute] stage splits the
    granted records into at most [cores] contiguous shards, runs the
    body once per shard, and charges simulated time as the {b critical
    path} — [cost_spawn_per_shard * shards + cost of the longest shard]
    — instead of the sum.  [?pool] additionally runs the shards on real
    domains, which changes host wall-clock time only: outcomes, filter /
    overread counters, audit verdicts and the virtual clock are
    identical with or without a pool, and (for honestly-declared
    [shard_reduce]) identical to the sequential [~cores:1] run.

    [?yield] makes a shard-decomposable [ded_execute] {b cooperatively
    preemptible}: the granted records split into bounded shards of
    [?grain] records ({!default_grain} by default) instead of [cores]
    balanced chunks, shards execute in waves of [cores], each wave
    charges its own critical path ([cost_spawn_per_shard] per shard +
    longest shard in the wave), and [yield ()] runs {i between waves} —
    the shard-boundary pause point where a deadline scheduler serves
    rights requests.  Preemption is sound exactly here because stages
    1-4 already materialised the scan's membranes and projected records:
    whatever the yield callback mutates (an erasure, a consent flip) is
    invisible to the in-flight shards, so outcomes and merge order stay
    deterministic and pool-vs-inline equivalence holds wave by wave.
    A processing without [shard_reduce] ignores [?yield] (a body with
    cross-record state cannot be paused mid-scan).  The shard values
    seen by [reduce] differ in count (more, smaller shards), which is
    observationally equivalent for an honestly-declared decomposable
    reduce.

    [?channel] (default 0) names the {!Block_device} submission channel
    the load stages use: stage 2/4 batch fetches are pipelined by queue
    depth so decode of one chunk overlaps the device service of the
    next, and concurrent [execute] calls on distinct channels queue
    independently (each DED shard gets its own). *)

(** {1 Built-in functions} ([F_pd^w], provided by rgpdOS itself) *)

val builtin_acquire :
  t ->
  type_name:string ->
  subject:string ->
  interface:string ->
  record:Rgpdos_dbfs.Record.t ->
  ?consents:(string * Rgpdos_membrane.Membrane.consent_scope) list ->
  unit ->
  (string, error) result
(** Data collection: wrap the collected record in a membrane built from the
    schema's defaults (overridable by the subject's explicit [consents])
    and store it.  Returns the new PD reference. *)

val builtin_update :
  t -> pd_id:string -> Rgpdos_dbfs.Record.t -> (unit, error) result

val builtin_copy : t -> pd_id:string -> (string, error) result

val builtin_delete : t -> pd_id:string -> (unit, error) result
(** Physical deletion (zeroing). *)

val builtin_crypto_erase :
  t -> pd_id:string -> seal:(Rgpdos_dbfs.Record.t -> string) ->
  (bool, error) result
(** Right-to-be-forgotten erasure: withdraw every consent on the membrane
    and replace the record with an authority-sealed envelope — one
    {!Rgpdos_dbfs.Dbfs.erase_with} call, so the pd is resolved once.
    [Ok true] once erased (and audited); [Ok false], writing nothing, when
    the pd was already erased. *)
