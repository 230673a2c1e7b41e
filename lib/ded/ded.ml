module Clock = Rgpdos_util.Clock
module Dbfs = Rgpdos_dbfs.Dbfs
module Schema = Rgpdos_dbfs.Schema
module Record = Rgpdos_dbfs.Record
module Value = Rgpdos_dbfs.Value
module Membrane = Rgpdos_membrane.Membrane
module Syscall = Rgpdos_kernel.Syscall
module Audit_log = Rgpdos_audit.Audit_log

module Query = Rgpdos_dbfs.Query

type target =
  | All_of_type of string
  | Pd_refs of string list
  | Selection of string * Query.t

type fetch_mode = Two_phase | Single_phase

type location = Host | Pim | Pis

type outcome = {
  value : Value.t option;
  produced_refs : string list;
  consumed : int;
  filtered : int;
  overread : int;
  stage_ns : (string * Clock.ns) list;
}

type error =
  | Unknown_type of string
  | Syscall_violation of string
  | Implementation_error of string
  | Storage_error of string
  | No_purpose of string

let pp_error fmt = function
  | Unknown_type n -> Format.fprintf fmt "unknown PD type %s" n
  | Syscall_violation m -> Format.fprintf fmt "sandbox violation: %s" m
  | Implementation_error m -> Format.fprintf fmt "implementation error: %s" m
  | Storage_error m -> Format.fprintf fmt "storage error: %s" m
  | No_purpose n -> Format.fprintf fmt "processing %s has no purpose" n

let error_to_string e = Format.asprintf "%a" pp_error e

type t = { clock : Clock.t; dbfs : Dbfs.t; audit : Audit_log.t }

let actor = "ded"

let create ~clock ~dbfs ~audit () = { clock; dbfs; audit }

let measurement (spec : Processing.spec) =
  let purpose_text =
    match spec.Processing.purpose with
    | None -> "<none>"
    | Some p ->
        p.Rgpdos_lang.Ast.p_name ^ "|" ^ p.Rgpdos_lang.Ast.p_description
  in
  let footprint =
    String.concat ";"
      (List.map
         (fun (ty, fields) -> ty ^ ":" ^ String.concat "," fields)
         spec.Processing.touches)
  in
  Rgpdos_crypto.Sha256.hexdigest
    (spec.Processing.name ^ "|" ^ purpose_text ^ "|" ^ footprint)

(* fixed CPU costs of the pipeline machinery itself (IO costs are charged
   by the block device underneath DBFS) *)
let cost_type2req = 1_000

(* §3(3) placement cost model: the host pays a DMA transfer per record to
   move PD up the memory hierarchy; near-data locations avoid it but have
   slower cores. *)
let host_transfer_per_record = 2_000

let execute_multiplier = function Host -> 1 | Pim -> 2 | Pis -> 4

let location_transfer = function
  | Host -> host_transfer_per_record
  | Pim | Pis -> 0
let cost_filter_per_membrane = 300
let cost_build_membrane = 500
let cost_return = 200

(* Parallel ded_execute (§3(3)): shardable processings fan out over the
   location's cores.  Host has few fast cores; PIM exposes many slow
   DPUs; PIS sits in between — so the A2 crossover is a function of
   parallelism, not just the per-core multiplier. *)
let location_cores = function Host -> 8 | Pim -> 64 | Pis -> 16
let cost_spawn_per_shard = 500

(* records per shard when a cooperative [?yield] makes ded_execute
   preemptible: small enough that a rights request waits at most one
   wave of shards, large enough that spawn overhead stays negligible *)
let default_grain = 64

let storage e = Error (Storage_error (Dbfs.error_to_string e))

let ( let** ) r f = match r with Error e -> Error e | Ok v -> f v

let lift r = match r with Ok v -> Ok v | Error e -> storage e

(* Best-effort exfiltration check on the scalar returned to the caller:
   the value must not verbatim reproduce a PD field it was shown.  (The
   structural guarantee is that records themselves never cross the
   boundary; this catches the lazy leak of copying a field into the
   return value.) *)
let value_leaks inputs value =
  match value with
  | Some (Value.VString s) when s <> "" ->
      List.exists
        (fun (input : Processing.pd_input) ->
          List.exists
            (fun (_, v) ->
              match v with Value.VString s' -> String.equal s s' | _ -> false)
            input.record)
        inputs
  | _ -> false

let execute t ?(fetch_mode = Two_phase) ?(location = Host) ?cores ?pool ?grain
    ?yield ?(channel = 0) ~processing ~target () =
  let open Processing in
  let cores =
    match cores with Some c -> max 1 c | None -> location_cores location
  in
  match processing.purpose with
  | None -> Error (No_purpose processing.name)
  | Some purpose -> (
      let purpose_name = purpose.Rgpdos_lang.Ast.p_name in
      let stages = ref [] in
      let staged name f =
        let before = Clock.now t.clock in
        let result = f () in
        stages := (name, Clock.now t.clock - before) :: !stages;
        result
      in
      (* 1. ded_type2req *)
      let** refs =
        staged "ded_type2req" (fun () ->
            Clock.advance t.clock cost_type2req;
            match target with
            | Pd_refs refs -> Ok refs
            | All_of_type ty -> lift (Dbfs.list_pds t.dbfs ~actor ty)
            | Selection (ty, pred) when Query.monotone pred ->
                (* Predicate pushdown: let DBFS prune the selection with
                   its secondary indexes.  Sound only for Not-free
                   predicates — stage 5 re-evaluates on the PROJECTED
                   record (fail closed), and for a monotone predicate
                   raw-record truth is implied by projected-record truth,
                   so index pruning on raw records never drops a pd the
                   residual filter would keep.  A [Not] breaks that
                   implication, so those selections keep the full scan. *)
                lift (Dbfs.select t.dbfs ~actor ~channel ty pred)
            | Selection (ty, _) -> lift (Dbfs.list_pds t.dbfs ~actor ty))
      in
      (* 2. ded_load_membrane — under Single_phase (the ablation mode) the
         record is fetched together with its membrane, before the filter
         has spoken *)
      let** loaded =
        let stage_name =
          match fetch_mode with
          | Two_phase -> "ded_load_membrane"
          | Single_phase -> "ded_load_membrane+data"
        in
        staged stage_name (fun () ->
            (* one vectored request for the whole selection's membranes *)
            let** membranes = lift (Dbfs.get_membranes t.dbfs ~actor ~channel refs) in
            match fetch_mode with
            | Two_phase ->
                Ok (List.map (fun (pd_id, m) -> (pd_id, m, None)) membranes)
            | Single_phase ->
                (* the ablation fetches the records alongside, before the
                   filter has spoken (erased pds come back as None) *)
                let** records = lift (Dbfs.get_records t.dbfs ~actor ~channel refs) in
                Ok
                  (List.map2
                     (fun (pd_id, m) (_, r) -> (pd_id, m, r))
                     membranes records))
      in
      (* 3. ded_filter *)
      let now = Clock.now t.clock in
      let granted, filtered_out =
        staged "ded_filter" (fun () ->
            Clock.advance t.clock
              (cost_filter_per_membrane * List.length loaded);
            List.partition_map
              (fun (pd_id, m, prefetched) ->
                match Membrane.decide m ~purpose:purpose_name ~now with
                | Membrane.Granted scope -> Left (pd_id, m, scope, prefetched)
                | Membrane.Refused reason -> Right (pd_id, reason, prefetched))
              loaded)
      in
      (* records fetched before their membrane refused: the privacy cost
         the paper's two-phase design exists to avoid *)
      let overread =
        List.length
          (List.filter (fun (_, _, prefetched) -> prefetched <> None) filtered_out)
      in
      List.iter
        (fun (pd_id, reason, _) ->
          ignore
            (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
               (Audit_log.Filtered_out
                  { purpose = purpose_name; pd_id; reason })))
        filtered_out;
      (* 4. ded_load_data (Two_phase) / projection only (Single_phase) *)
      let** inputs =
        let stage_name =
          match fetch_mode with
          | Two_phase -> "ded_load_data"
          | Single_phase -> "ded_project"
        in
        staged stage_name (fun () ->
            (* one vectored request for every record the filter granted;
               erased pds come back as None and silently drop out *)
            let need =
              List.filter_map
                (fun (pd_id, _, _, prefetched) ->
                  if prefetched = None then Some pd_id else None)
                granted
            in
            let** fetched = lift (Dbfs.get_records t.dbfs ~actor ~channel need) in
            let by_id = Hashtbl.create (max 16 (2 * List.length fetched)) in
            List.iter (fun (pd_id, r) -> Hashtbl.replace by_id pd_id r) fetched;
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | (pd_id, m, scope, prefetched) :: rest -> (
                  let record_opt =
                    match prefetched with
                    | Some record -> Some record
                    | None -> Hashtbl.find by_id pd_id
                  in
                  match record_opt with
                  | None -> go acc rest
                  | Some record -> (
                      match Dbfs.schema t.dbfs ~actor m.Membrane.type_name with
                      | Error e -> storage e
                      | Ok schema ->
                          let visible = Schema.view_fields schema scope in
                          let projected = Record.project record visible in
                          go
                            ({
                               pd_id;
                               subject = m.Membrane.subject_id;
                               record = projected;
                             }
                            :: acc)
                            rest))
            in
            go [] granted)
      in
      Clock.advance t.clock (location_transfer location * List.length inputs);
      (* selection predicates run on the PROJECTED records: a field the
         purpose may not see can never match (fails closed) *)
      let inputs =
        match target with
        | All_of_type _ | Pd_refs _ -> inputs
        | Selection (_, pred) ->
            Clock.advance t.clock (100 * List.length inputs);
            List.filter
              (fun (i : Processing.pd_input) -> Query.eval pred i.record)
              inputs
      in
      (* 5. ded_execute, inside the seccomp sandbox.  Each (potential)
         shard gets its own violation cell and sandbox context so a pool
         worker never writes state another shard reads; violations merge
         deterministically in shard order afterwards. *)
      let violation = ref None in
      let policy = Syscall.Policy.fpd_reader_policy in
      let sandbox_context cell =
        {
          syscall =
            (fun sc ->
              match Syscall.Policy.check policy sc with
              | Ok () -> Ok ()
              | Error msg ->
                  if !cell = None then cell := Some msg;
                  Error msg);
          now = (fun () -> Clock.now t.clock);
          log = (fun _line -> ());
        }
      in
      let run_body cell shard_inputs =
        match processing.body (sandbox_context cell) shard_inputs with
        | exception exn -> Error (Implementation_error (Printexc.to_string exn))
        | Error msg -> Error (Implementation_error msg)
        | Ok out -> Ok out
      in
      let n_inputs = List.length inputs in
      let mult = execute_multiplier location in
      let** out =
        staged "ded_execute" (fun () ->
            match processing.shard_reduce with
            | Some reduce when cores > 1 && n_inputs > 1 ->
                let input_arr = Array.of_list inputs in
                let bounds =
                  match yield with
                  | None ->
                      (* non-preemptible: one wave of at most [cores]
                         balanced shards (the pre-yield behaviour) *)
                      Rgpdos_util.Pool.chunks ~items:n_inputs ~chunks:cores
                  | Some _ ->
                      (* preemptible: bounded-size shards executed in
                         waves of [cores], a yield point between waves *)
                      let g = max 1 (Option.value ~default:default_grain grain) in
                      let nshards = (n_inputs + g - 1) / g in
                      Array.init nshards (fun i ->
                          (i * g, min g (n_inputs - (i * g))))
                in
                let nshards = Array.length bounds in
                let cells = Array.map (fun _ -> ref None) bounds in
                let run_shard i =
                  let off, len = bounds.(i) in
                  let shard_inputs =
                    Array.to_list (Array.sub input_arr off len)
                  in
                  run_body cells.(i) shard_inputs
                in
                let collected = Array.make nshards None in
                (* one wave: every shard in it spawns, the slowest shard
                   gates completion — the clock is charged the wave's
                   critical path BEFORE the bodies run, so pool and
                   inline execution observe identical simulated time *)
                let run_wave start n =
                  let longest = ref 0 in
                  for i = start to start + n - 1 do
                    let _, len = bounds.(i) in
                    if len > !longest then longest := len
                  done;
                  Clock.advance t.clock
                    ((cost_spawn_per_shard * n)
                    + (processing.cpu_cost_per_record * mult * !longest));
                  let indices = Array.init n (fun j -> start + j) in
                  let rs =
                    match pool with
                    | Some p -> Rgpdos_util.Pool.map_array p run_shard indices
                    | None -> Array.map run_shard indices
                  in
                  Array.iteri (fun j r -> collected.(start + j) <- Some r) rs
                in
                (match yield with
                | None -> run_wave 0 nshards
                | Some yield_fn ->
                    let start = ref 0 in
                    while !start < nshards do
                      let n = min cores (nshards - !start) in
                      run_wave !start n;
                      start := !start + n;
                      (* the cooperative preemption point: the caller may
                         run rights work here; the paused scan's inputs
                         were materialised in stages 1-4, so nothing the
                         yield mutates can reach the in-flight shards *)
                      if !start < nshards then yield_fn ()
                    done);
                let shard_results =
                  Array.map
                    (function Some r -> r | None -> assert false)
                    collected
                in
                (* first violation in shard order wins, matching what a
                   sequential left-to-right run would have recorded *)
                (match Array.find_map (fun c -> !c) cells with
                | Some msg -> if !violation = None then violation := Some msg
                | None -> ());
                let** outs =
                  Array.fold_left
                    (fun acc r ->
                      match (acc, r) with
                      | (Error _ as e), _ -> e
                      | Ok outs, Ok o -> Ok (o :: outs)
                      | Ok _, (Error _ as e) -> e)
                    (Ok []) shard_results
                  |> Result.map List.rev
                in
                Ok
                  {
                    value = reduce (List.map (fun o -> o.value) outs);
                    produced = List.concat_map (fun o -> o.produced) outs;
                  }
            | _ ->
                Clock.advance t.clock
                  (processing.cpu_cost_per_record * mult * n_inputs);
                run_body violation inputs)
      in
      let** () =
        match !violation with
        | Some msg ->
            ignore
              (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
                 (Audit_log.Denied { actor = processing.name; reason = msg }));
            Error (Syscall_violation msg)
        | None -> Ok ()
      in
      let** () =
        if value_leaks inputs out.value then begin
          let msg =
            Printf.sprintf "processing %s attempted to return raw PD"
              processing.name
          in
          ignore
            (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
               (Audit_log.Denied { actor = processing.name; reason = msg }));
          Error (Syscall_violation msg)
        end
        else Ok ()
      in
      (* 6+7. ded_build_membrane, ded_store *)
      let** produced_refs =
        staged "ded_build_membrane+store" (fun () ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | (type_name, subject, record) :: rest -> (
                  Clock.advance t.clock cost_build_membrane;
                  match Dbfs.schema t.dbfs ~actor type_name with
                  | Error e -> storage e
                  | Ok schema -> (
                      let membrane_of ~pd_id =
                        Membrane.make ~pd_id ~type_name ~subject_id:subject
                          ~origin:Membrane.Sysadmin
                          ~consents:schema.Schema.default_consents
                          ~created_at:(Clock.now t.clock)
                          ?ttl:schema.Schema.default_ttl
                          ~sensitivity:schema.Schema.default_sensitivity ()
                      in
                      match
                        Dbfs.insert t.dbfs ~actor ~subject ~type_name ~record
                          ~membrane_of
                      with
                      | Error e -> storage e
                      | Ok pd_id -> go (pd_id :: acc) rest))
            in
            go [] out.produced)
      in
      (* 8. ded_return *)
      let consumed_ids = List.map (fun (i : Processing.pd_input) -> i.pd_id) inputs in
      ignore
        (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
           (Audit_log.Attested
              {
                processing = processing.name;
                measurement = measurement processing;
              }));
      ignore
        (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
           (Audit_log.Processed
              { purpose = purpose_name; inputs = consumed_ids; produced = produced_refs }));
      let result =
        staged "ded_return" (fun () ->
            Clock.advance t.clock cost_return;
            {
              value = out.value;
              produced_refs;
              consumed = List.length inputs;
              filtered = List.length filtered_out;
              overread;
              stage_ns = [];
            })
      in
      Ok { result with stage_ns = List.rev !stages })

(* ------------------------------------------------------------------ *)
(* built-ins                                                          *)

let builtin_acquire t ~type_name ~subject ~interface ~record ?consents () =
  match Dbfs.schema t.dbfs ~actor type_name with
  | Error e -> storage e
  | Ok schema -> (
      let consents =
        Option.value ~default:schema.Schema.default_consents consents
      in
      let membrane_of ~pd_id =
        Membrane.make ~pd_id ~type_name ~subject_id:subject
          ~origin:schema.Schema.default_origin ~consents
          ~created_at:(Clock.now t.clock) ?ttl:schema.Schema.default_ttl
          ~sensitivity:schema.Schema.default_sensitivity
          ~collection:schema.Schema.collection ()
      in
      match Dbfs.insert t.dbfs ~actor ~subject ~type_name ~record ~membrane_of with
      | Error e -> storage e
      | Ok pd_id ->
          ignore
            (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
               (Audit_log.Collected { pd_id; interface }));
          Ok pd_id)

let builtin_update t ~pd_id record =
  lift (Dbfs.update_record t.dbfs ~actor pd_id record)

let builtin_copy t ~pd_id = lift (Dbfs.copy_pd t.dbfs ~actor pd_id)

let builtin_delete t ~pd_id =
  let** () = lift (Dbfs.delete t.dbfs ~actor pd_id) in
  ignore
    (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
       (Audit_log.Erased { pd_id; mode = "physical" }));
  Ok ()

(* One DBFS call withdraws the consents and seals the record, so the pd
   is resolved once. *)
let builtin_crypto_erase t ~pd_id ~seal =
  match
    Dbfs.erase_with t.dbfs ~actor ~withdraw:Membrane.withdraw_all pd_id ~seal
  with
  | Error (Dbfs.Erased _) -> Ok false
  | Error e -> storage e
  | Ok () ->
      ignore
        (Audit_log.append t.audit ~now:(Clock.now t.clock) ~actor
           (Audit_log.Erased { pd_id; mode = "crypto" }));
      Ok true
