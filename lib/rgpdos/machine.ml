module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Block_device = Rgpdos_block.Block_device
module Journalfs = Rgpdos_journalfs.Journalfs
module Membrane = Rgpdos_membrane.Membrane
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Ast = Rgpdos_lang.Ast
module Parser = Rgpdos_lang.Parser
module Lsm = Rgpdos_kernel.Lsm
module Syscall = Rgpdos_kernel.Syscall
module Resource = Rgpdos_kernel.Resource
module Subkernel = Rgpdos_kernel.Subkernel
module Scheduler = Rgpdos_kernel.Scheduler
module Audit_log = Rgpdos_audit.Audit_log
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Processing_store = Rgpdos_ps.Processing_store
module Authority = Rgpdos_gdpr.Authority
module Ttl_sweeper = Rgpdos_gdpr.Ttl_sweeper
module Compliance = Rgpdos_gdpr.Compliance

type t = {
  clock : Clock.t;
  prng : Prng.t;
  authority : Authority.t;
  pd_dev : Block_device.t;
  npd_dev : Block_device.t;
  dbfs : Dbfs.t;
  npd_fs : Journalfs.t;
  audit : Audit_log.t;
  ps : Processing_store.t;
  ded : Ded.t;
  lsm : Lsm.t;
  resources : Resource.t;
  kernels : Subkernel.t list;
  scheduler : Scheduler.t;
  purposes : (string, Ast.purpose_decl) Hashtbl.t;
  collectors : (string, unit -> (string * Record.t) list) Hashtbl.t;
}

let sysadmin = "sysadmin"

let default_journal_blocks = 256

let audit_path = "/var/audit.chain"

(* Wire a machine around already-constructed storage: shared by [boot]
   (fresh format) and [reboot] (remount of existing devices). *)
let assemble ~clock ~prng ~authority ~pd_dev ~npd_dev ~dbfs ~npd_fs ~audit =
  let ps = Processing_store.create ~clock ~dbfs ~audit () in
  let ded = Ded.create ~clock ~dbfs ~audit () in
  (* enforcement rules 1-4 (§2): DBFS is invisible from the outside.  Only
     the DED touches it fully; the PS may read schemas to run the
     purpose/implementation match; the sysadmin may create types. *)
  let lsm = Lsm.create ~default:Lsm.Deny () in
  Lsm.allow lsm ~actor:Ded.actor ~klass:"dbfs" ~op:"*";
  Lsm.allow lsm ~actor:Processing_store.actor ~klass:"dbfs" ~op:"read";
  Lsm.allow lsm ~actor:sysadmin ~klass:"dbfs" ~op:"create_type";
  Dbfs.set_access_hook dbfs (Lsm.as_dbfs_hook lsm);
  (* purpose kernels over a shared resource pool *)
  let resources = Resource.create ~cpu_millis:8_000 ~mem_pages:1_048_576 in
  let claim owner cpu mem =
    match Resource.claim resources ~owner ~cpu_millis:cpu ~mem_pages:mem with
    | Ok p -> p
    | Error e -> failwith ("Machine.boot: resource claim failed: " ^ e)
  in
  let kernels =
    [
      Subkernel.make ~id:"io-pd" ~kind:(Subkernel.Io_driver "pd-nvme")
        ~partition:(claim "io-pd" 500 32_768)
        ~policy:Syscall.Policy.allow_all ();
      Subkernel.make ~id:"io-npd" ~kind:(Subkernel.Io_driver "npd-nvme")
        ~partition:(claim "io-npd" 500 32_768)
        ~policy:Syscall.Policy.allow_all ();
      Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
        ~partition:(claim "general" 4_000 524_288)
        ~policy:Syscall.Policy.allow_all ();
      Subkernel.make ~id:"rgpdos" ~kind:Subkernel.Rgpd
        ~partition:(claim "rgpdos" 3_000 262_144)
        ~policy:Syscall.Policy.builtin_policy ();
    ]
  in
  let scheduler = Scheduler.create ~clock ~kernels in
  {
    clock;
    prng;
    authority;
    pd_dev;
    npd_dev;
    dbfs;
    npd_fs;
    audit;
    ps;
    ded;
    lsm;
    resources;
    kernels;
    scheduler;
    purposes = Hashtbl.create 16;
    collectors = Hashtbl.create 8;
  }

let boot ?(seed = 42L) ?pd_device ?npd_device ?authority ?(segmented = false) () =
  let clock = Clock.create () in
  let prng = Prng.create ~seed () in
  let authority =
    match authority with
    | Some a -> a
    | None -> Authority.create ~seed:(Int64.add seed 1L) ()
  in
  let mk_dev cfg =
    match cfg with
    | Some config -> Block_device.create ~config ~clock ()
    | None -> Block_device.create ~clock ()
  in
  let pd_dev = mk_dev pd_device in
  let npd_dev = mk_dev npd_device in
  let allocator = if segmented then Space.segments else Space.Heap in
  let dbfs = Dbfs.format ~allocator pd_dev ~journal_blocks:default_journal_blocks in
  let npd_fs = Journalfs.format npd_dev ~journal_blocks:default_journal_blocks in
  let audit = Audit_log.create () in
  assemble ~clock ~prng ~authority ~pd_dev ~npd_dev ~dbfs ~npd_fs ~audit

(* A reboot models a power cycle: stored PD, membranes and the persisted
   audit chain survive on the devices; everything in memory — declared
   purposes, registered processings, collectors — is gone and must be
   redeployed by the operator, exactly as code is redeployed on a real
   machine.  The PD and NPD devices keep the (advanced) virtual clock. *)
let reboot t =
  Dbfs.checkpoint t.dbfs;
  Journalfs.checkpoint t.npd_fs;
  match Dbfs.mount t.pd_dev with
  | Error e -> Error ("DBFS remount: " ^ e)
  | Ok dbfs -> (
      match Journalfs.mount t.npd_dev with
      | Error e -> Error ("NPD FS remount: " ^ e)
      | Ok npd_fs ->
          let audit =
            match Journalfs.read_file npd_fs audit_path with
            | Error (Journalfs.Not_found _) -> Ok (Audit_log.create ())
            | Error e -> Error (Journalfs.error_to_string e)
            | Ok raw -> Audit_log.of_bytes raw
          in
          match audit with
          | Error e -> Error ("audit chain reload: " ^ e)
          | Ok audit ->
              Ok
                (assemble ~clock:t.clock ~prng:t.prng ~authority:t.authority
                   ~pd_dev:t.pd_dev ~npd_dev:t.npd_dev ~dbfs ~npd_fs ~audit))

let clock t = t.clock
let prng t = t.prng
let dbfs t = t.dbfs
let npd_fs t = t.npd_fs
let audit t = t.audit
let ps t = t.ps
let authority t = t.authority
let lsm t = t.lsm
let kernels t = t.kernels
let scheduler t = t.scheduler
let pd_device t = t.pd_dev

(* ------------------------------------------------------------------ *)
(* data-operator API                                                  *)

let load_declarations t source =
  match Parser.parse source with
  | Error e -> Error e
  | Ok decls ->
      let rec go types purposes = function
        | [] -> Ok (types, purposes)
        | Ast.Type_decl d :: rest -> (
            match Ast.to_schema d with
            | Error e -> Error (Printf.sprintf "type %s: %s" d.Ast.t_name e)
            | Ok schema -> (
                match Dbfs.create_type t.dbfs ~actor:sysadmin schema with
                | Error e ->
                    Error
                      (Printf.sprintf "type %s: %s" d.Ast.t_name
                         (Dbfs.error_to_string e))
                | Ok () -> go (types + 1) purposes rest))
        | Ast.Purpose_decl d :: rest ->
            if Hashtbl.mem t.purposes d.Ast.p_name then
              Error (Printf.sprintf "duplicate purpose %s" d.Ast.p_name)
            else begin
              Hashtbl.replace t.purposes d.Ast.p_name d;
              go types (purposes + 1) rest
            end
      in
      go 0 0 decls

let find_purpose t name = Hashtbl.find_opt t.purposes name

let make_processing t ~name ~purpose ?touches ?cpu_cost_per_record
    ?shard_reduce body =
  match find_purpose t purpose with
  | None -> Error (Printf.sprintf "purpose %s was never declared" purpose)
  | Some decl ->
      Ok
        (Processing.make ~name ~purpose:decl ?touches ?cpu_cost_per_record
           ?shard_reduce body)

let register_processing t spec =
  match Processing_store.register t.ps spec with
  | Ok outcome -> Ok outcome
  | Error e -> Error (Processing_store.error_to_string e)

let approve_processing t name =
  match Processing_store.approve t.ps name with
  | Ok () -> Ok ()
  | Error e -> Error (Processing_store.error_to_string e)

let invoke t ?fetch_mode ?location ?cores ?pool ?grain ?yield ~name ~target
    ?init () =
  match
    Processing_store.invoke t.ps ?fetch_mode ?location ?cores ?pool ?grain
      ?yield ~name ~target ?init ()
  with
  | Ok outcome -> Ok outcome
  | Error e -> Error (Processing_store.error_to_string e)

let collect t ~type_name ~subject ~interface ~record ?consents () =
  match
    Ded.builtin_acquire t.ded ~type_name ~subject ~interface ~record ?consents ()
  with
  | Ok pd_id -> Ok pd_id
  | Error e -> Error (Ded.error_to_string e)

let register_collector t ~interface f = Hashtbl.replace t.collectors interface f

let collect_via t ~type_name ~interface =
  match Dbfs.schema t.dbfs ~actor:Processing_store.actor type_name with
  | Error e -> Error (Dbfs.error_to_string e)
  | Ok schema ->
      (* the membrane metadata declares which interfaces may feed this
         type; an undeclared channel is refused *)
      let declared =
        List.exists
          (fun (kind, target) -> kind = interface || target = interface)
          schema.Schema.collection
      in
      if not declared then
        Error
          (Printf.sprintf "interface %s is not a declared collection channel of %s"
             interface type_name)
      else (
        match Hashtbl.find_opt t.collectors interface with
        | None -> Error (Printf.sprintf "no collector registered for %s" interface)
        | Some pull ->
            let rows = pull () in
            let rec go n = function
              | [] -> Ok n
              | (subject, record) :: rest -> (
                  match
                    Ded.builtin_acquire t.ded ~type_name ~subject ~interface
                      ~record ()
                  with
                  | Ok _ -> go (n + 1) rest
                  | Error e -> Error (Ded.error_to_string e))
            in
            go 0 rows)

(* ------------------------------------------------------------------ *)
(* data-subject rights                                                *)

let lift_dbfs r = Result.map_error Dbfs.error_to_string r

let right_to_portability t ~subject =
  lift_dbfs (Result.map snd (Dbfs.export_subject t.dbfs ~actor:Ded.actor subject))

(* One walk of the subject index: the export names the pds it covered. *)
let right_of_access t ~subject =
  match Dbfs.export_subject t.dbfs ~actor:Ded.actor subject with
  | Error e -> Error (Dbfs.error_to_string e)
  | Ok (pd_ids, records) ->
      let history = Audit_log.export_for_subject t.audit ~pd_ids in
      ignore
        (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor:Ded.actor
           (Audit_log.Exported { subject; pd_ids }));
      Ok
        (Printf.sprintf
           "{\"subject\": \"%s\", \"records\": %s, \"processings\": %s}"
           subject records history)

(* Every PD of the subject in one batch: one commit, so a crash never
   leaves the subject half-erased.  PDs already erased are skipped. *)
let right_to_erasure t ~subject =
  match Dbfs.pds_of_subject t.dbfs ~actor:Ded.actor subject with
  | Error e -> Error (Dbfs.error_to_string e)
  | Ok pd_ids -> (
      let seal = Authority.sealer t.authority ~prng:t.prng in
      match Ded.builtin_crypto_erase t.ded ~pd_ids ~seal with
      | Ok erased -> Ok (List.length erased)
      | Error e -> Error (Ded.error_to_string e))

let right_to_rectification t ~pd_id record =
  match Ded.builtin_update t.ded ~pd_id record with
  | Ok () -> Ok ()
  | Error e -> Error (Ded.error_to_string e)

(* Rewrite with [f] every membrane of the subject's lineages in ONE DBFS
   call: one descent, one load, one commit, cut only between lineages when
   it outgrows a journal record, so copies never differ.  A lineage never
   leaves its subject ([Dbfs.copy_pd] files a copy under its source's
   subject, and DBFS refuses a membrane naming another subject), so the
   subject's PDs are every member of its lineages.  [on_lineage] is then
   called with the first PD of each lineage rewritten, in order.  Returns
   how many membranes were rewritten. *)
let update_subject_lineages t ~subject f ~on_lineage =
  let actor = Ded.actor in
  let lineage = Hashtbl.create 8 in
  let f m =
    Hashtbl.replace lineage m.Membrane.pd_id (Membrane.lineage_root m);
    f m
  in
  match Dbfs.pds_of_subject t.dbfs ~actor subject with
  | Error e -> Error (Dbfs.error_to_string e)
  | Ok pds ->
      let result = Dbfs.update_membranes t.dbfs ~actor pds f in
      (* the pds come back lineage by lineage ([f] noted each one's root):
         a new root starts a lineage *)
      ignore
        (List.fold_left
           (fun prev pd_id ->
             let root = Hashtbl.find lineage pd_id in
             if Some root <> prev then on_lineage pd_id;
             Some root)
           None
           (match result with Ok l -> l | Error e -> Dbfs.committed e));
      Result.map_error Dbfs.error_to_string (Result.map List.length result)

let set_consent t ~subject ~purpose scope =
  update_subject_lineages t ~subject
    (fun m -> Membrane.set_consent m ~purpose scope)
    ~on_lineage:(fun pd_id ->
      ignore
        (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor:Ded.actor
           (Audit_log.Consent_changed
              { pd_id; purpose; granted = scope <> Membrane.Denied })))

type consent_receipt = {
  receipt_subject : string;
  receipt_purpose : string;
  receipt_scope : string;
  receipt_time : Clock.ns;
  receipt_audit_seq : int;
  receipt_mac : string;
}

(* machine-local receipt key, derived from the authority fingerprint (any
   stable per-machine secret would do) *)
let receipt_key t =
  Rgpdos_crypto.Sha256.digest ("rgpdos-receipt-key|" ^ Authority.key_fingerprint t.authority)

let receipt_material r =
  Printf.sprintf "%s|%s|%s|%d|%d" r.receipt_subject r.receipt_purpose
    r.receipt_scope r.receipt_time r.receipt_audit_seq

let set_consent_with_receipt t ~subject ~purpose scope =
  match set_consent t ~subject ~purpose scope with
  | Error e -> Error e
  | Ok 0 -> Error ("no PD of subject " ^ subject ^ ": no consent to record")
  | Ok n ->
      (* the Consent_changed entry appended by set_consent is the latest *)
      let audit_seq = Audit_log.length t.audit - 1 in
      let partial =
        {
          receipt_subject = subject;
          receipt_purpose = purpose;
          receipt_scope = Format.asprintf "%a" Membrane.pp_consent_scope scope;
          receipt_time = Clock.now t.clock;
          receipt_audit_seq = audit_seq;
          receipt_mac = "";
        }
      in
      let mac =
        Rgpdos_util.Hex.encode
          (Rgpdos_crypto.Sha256.hmac ~key:(receipt_key t) (receipt_material partial))
      in
      Ok (n, { partial with receipt_mac = mac })

let verify_receipt t r =
  let expected =
    Rgpdos_util.Hex.encode
      (Rgpdos_crypto.Sha256.hmac ~key:(receipt_key t)
         (receipt_material { r with receipt_mac = "" }))
  in
  String.equal expected r.receipt_mac
  &&
  (* the referenced audit entry must exist and describe this decision *)
  match
    List.find_opt
      (fun e -> e.Audit_log.seq = r.receipt_audit_seq)
      (Audit_log.entries t.audit)
  with
  | Some { Audit_log.event = Audit_log.Consent_changed { purpose; _ }; _ } ->
      purpose = r.receipt_purpose
  | Some _ | None -> false

let withdraw_consent t ~subject ~purpose =
  set_consent t ~subject ~purpose Membrane.Denied

let set_restriction t ~subject restricted =
  update_subject_lineages t ~subject
    (fun m -> Membrane.set_restricted m restricted)
    ~on_lineage:ignore

let restrict_processing t ~subject = set_restriction t ~subject true

let lift_restriction t ~subject = set_restriction t ~subject false

(* ------------------------------------------------------------------ *)
(* operations                                                         *)

let sweep_ttl t () =
  Ttl_sweeper.sweep ~dbfs:t.dbfs ~audit:t.audit ~now:(Clock.now t.clock)
    ~seal:(Authority.sealer t.authority ~prng:t.prng)
    ()

let compliance_evidence t ?(forensic_probes = []) () =
  let now = Clock.now t.clock in
  (* expired PD still live *)
  let expired_live =
    match Dbfs.list_types t.dbfs ~actor:Ded.actor with
    | Error _ -> 0
    | Ok types ->
        List.fold_left
          (fun acc ty ->
            match Dbfs.list_pds t.dbfs ~actor:Ded.actor ty with
            | Error _ -> acc
            | Ok ids ->
                List.fold_left
                  (fun acc pd_id ->
                    match
                      ( Dbfs.entry_info t.dbfs ~actor:Ded.actor pd_id,
                        Dbfs.get_membrane t.dbfs ~actor:Ded.actor pd_id )
                    with
                    | Ok (_, _, false), Ok m when Membrane.expired m ~now ->
                        acc + 1
                    | _ -> acc)
                  acc ids)
          0 types
  in
  let membraneless =
    match Dbfs.fsck t.dbfs with Ok () -> 0 | Error problems -> List.length problems
  in
  let audit_ok = Audit_log.verify t.audit = Ok () in
  let leaks =
    List.fold_left
      (fun acc probe -> acc + List.length (Block_device.scan t.pd_dev probe))
      0 forensic_probes
  in
  {
    Compliance.expired_live_pd = expired_live;
    membraneless_pd = membraneless;
    audit_chain_ok = audit_ok;
    forensic_leaks_after_erasure = leaks;
    unconsented_accesses = 0 (* structural: the DED filter is the only data path *);
    exports_machine_readable = true;
    minimisation_enforced = true;
  }

let submit_job t job = Scheduler.submit t.scheduler job

let run_jobs t = Scheduler.run_until_idle t.scheduler ()

let persist_audit t =
  let bytes = Audit_log.to_bytes t.audit in
  let ensure_var =
    match Journalfs.mkdir t.npd_fs "/var" with
    | Ok () | Error (Journalfs.Already_exists _) -> Ok ()
    | Error e -> Error (Journalfs.error_to_string e)
  in
  match ensure_var with
  | Error e -> Error e
  | Ok () ->
      Result.map_error Journalfs.error_to_string
        (Journalfs.write_file t.npd_fs audit_path bytes)

let verify_persisted_audit t =
  match Journalfs.read_file t.npd_fs audit_path with
  | Error e -> Error (Journalfs.error_to_string e)
  | Ok raw -> (
      match Audit_log.of_bytes raw with
      | Error e -> Error e
      | Ok chain -> (
          match Audit_log.verify chain with
          | Ok () -> Ok (Audit_log.length chain)
          | Error seq -> Error (Printf.sprintf "persisted chain corrupt at #%d" seq)))

let find_kernel t id = List.find (fun k -> k.Subkernel.id = id) t.kernels

let repartition_cpu t ~rgpd_mcpu ~general_mcpu =
  let rgpd = find_kernel t "rgpdos" and general = find_kernel t "general" in
  (* shrink first so the pool can absorb the growth *)
  let shrink_first, grow_second =
    if Resource.cpu_millis rgpd.Subkernel.partition > rgpd_mcpu then
      ((rgpd, rgpd_mcpu), (general, general_mcpu))
    else ((general, general_mcpu), (rgpd, rgpd_mcpu))
  in
  let resize (k, cpu) =
    Resource.resize t.resources k.Subkernel.partition ~cpu_millis:cpu
      ~mem_pages:(Resource.mem_pages k.Subkernel.partition)
  in
  match resize shrink_first with
  | Error e -> Error e
  | Ok () -> resize grow_second

let cpu_partitions t =
  List.map
    (fun k ->
      ( k.Subkernel.id,
        Resource.cpu_millis k.Subkernel.partition,
        Resource.mem_pages k.Subkernel.partition ))
    t.kernels
