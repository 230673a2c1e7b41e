(* Lockstep refinement of Dbfs against the pure Model.  See refine.mli
   for the mode catalogue and DESIGN.md "Refinement rules" for the
   equivalence / prefix-boundary / linearizability arguments. *)

module BD = Rgpdos_block.Block_device
module Dbfs = Rgpdos_dbfs.Dbfs
module Space = Rgpdos_dbfs.Space
module Record = Rgpdos_dbfs.Record
module Query = Rgpdos_dbfs.Query
module Schema = Rgpdos_dbfs.Schema
module Value = Rgpdos_dbfs.Value
module M = Rgpdos_membrane.Membrane
module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Pool = Rgpdos_util.Pool
module Fnv = Rgpdos_util.Fnv

type op =
  | Collect of { subj : int; ki : int; ks : int; ttl : int }
  | Update of { pick : int; ki : int; ks : int }
  | Flip of { pick : int; grant : bool }
  | Erase_subject of { subj : int }
  | Delete_pd of { pick : int }
  | Ttl_sweep
  | Advance of { ns : int }
  | Access of { subj : int }
  | Select_q of { q : int }

type script = op list

type cfg = { segmented : bool; gc_window : int; queue_depth : int }

let base_cfg = { segmented = false; gc_window = 1; queue_depth = 1 }

let all_cfgs =
  List.concat_map
    (fun segmented ->
      List.concat_map
        (fun gc_window ->
          List.map
            (fun queue_depth -> { segmented; gc_window; queue_depth })
            [ 1; 4; 64 ])
        [ 1; 4; 64 ])
    [ false; true ]

let budgets = [ 1; 7; 65_536 ]

let cfg_to_string c =
  Printf.sprintf "%s/gc=%d/depth=%d"
    (if c.segmented then "seg" else "heap")
    c.gc_window c.queue_depth

(* ------------------------------------------------------------------ *)
(* pools and fixed vocabulary                                         *)
(* ------------------------------------------------------------------ *)

let actor = "refine"
let type_name = "item"
let subjects_pool = [| "s0"; "s1"; "s2"; "s3"; "s4"; "s5" |]
let kstr_pool = [| "alpha"; "beta"; "gamma" |]
let short_ttl = 150_000
let long_ttl = 50_000_000

let queries =
  Query.
    [|
      Eq ("k_int", Value.VInt 1);
      Eq ("k_str", Value.VString "beta");
      Gt ("k_int", Value.VInt 2);
      And (Eq ("k_str", Value.VString "alpha"), Lt ("k_int", Value.VInt 3));
      Or (Eq ("k_int", Value.VInt 0), Eq ("k_str", Value.VString "gamma"));
      Contains ("note", "snt");
      Not (Eq ("k_int", Value.VInt 4));
      True;
    |]

let item_schema =
  match
    Schema.make ~name:type_name
      ~fields:
        [
          { Schema.fname = "k_int"; ftype = Value.TInt; required = true };
          { Schema.fname = "k_str"; ftype = Value.TString; required = true };
          { Schema.fname = "note"; ftype = Value.TString; required = true };
        ]
      ~default_consents:[ ("service", M.All) ]
      ~indexed_fields:[ "k_int"; "k_str" ] ()
  with
  | Ok s -> s
  | Error e -> failwith ("refine: bad item schema: " ^ e)

let mk_record ki ks sentinel =
  [
    ("k_int", Value.VInt (ki mod 5));
    ("k_str", Value.VString kstr_pool.(ks mod Array.length kstr_pool));
    ("note", Value.VString sentinel);
  ]

(* Sealed envelopes must carry no plaintext (residue scans look for the
   sentinels); a record hash still pins erased-payload equivalence to
   the full record bytes. *)
let seal_fn r = "sealed+" ^ Fnv.hash64_hex (Record.encode r)

(* ------------------------------------------------------------------ *)
(* rendering                                                          *)
(* ------------------------------------------------------------------ *)

let op_to_string = function
  | Collect { subj; ki; ks; ttl } ->
      Printf.sprintf "collect(s%d,ki=%d,ks=%d,ttl=%d)" (subj mod 6) ki ks
        (ttl mod 3)
  | Update { pick; ki; ks } -> Printf.sprintf "update(#%d,ki=%d,ks=%d)" pick ki ks
  | Flip { pick; grant } ->
      Printf.sprintf "flip(#%d,%s)" pick (if grant then "grant" else "deny")
  | Erase_subject { subj } -> Printf.sprintf "erase-subject(s%d)" (subj mod 6)
  | Delete_pd { pick } -> Printf.sprintf "delete(#%d)" pick
  | Ttl_sweep -> "ttl-sweep"
  | Advance { ns } -> Printf.sprintf "advance(%dns)" ns
  | Access { subj } -> Printf.sprintf "access(s%d)" (subj mod 6)
  | Select_q { q } -> Printf.sprintf "select(q%d)" (q mod Array.length queries)

let script_to_string s =
  "[" ^ String.concat "; " (List.map op_to_string s) ^ "]"

(* ------------------------------------------------------------------ *)
(* generation                                                         *)
(* ------------------------------------------------------------------ *)

let gen_collect prng =
  Collect
    {
      subj = Prng.int prng 6;
      ki = Prng.int prng 5;
      ks = Prng.int prng 3;
      ttl = Prng.int prng 3;
    }

let gen_op prng =
  match Prng.int prng 12 with
  | 0 | 1 | 2 -> gen_collect prng
  | 3 | 4 ->
      Update { pick = Prng.int prng 64; ki = Prng.int prng 5; ks = Prng.int prng 3 }
  | 5 -> Flip { pick = Prng.int prng 64; grant = Prng.bool prng }
  | 6 -> Erase_subject { subj = Prng.int prng 6 }
  | 7 -> Delete_pd { pick = Prng.int prng 64 }
  | 8 -> Ttl_sweep
  | 9 -> Advance { ns = 50_000 + Prng.int prng 400_000 }
  | 10 -> Access { subj = Prng.int prng 6 }
  | _ -> Select_q { q = Prng.int prng (Array.length queries) }

let gen_script prng =
  let len = 4 + Prng.int prng 12 in
  List.init len (fun i -> if i < 2 then gen_collect prng else gen_op prng)

(* ------------------------------------------------------------------ *)
(* the lockstep driver                                                *)
(* ------------------------------------------------------------------ *)

exception Divergence of string

type bug = Drop_consent_flip

type st = {
  clock : Clock.t;
  dev : BD.t;
  store : Dbfs.t;
  mutable model : Model.t;
  mutable trace : Model.t list;  (* newest first; ends with Model.empty *)
  mutable nsent : int;
  mutable sentinels : (string * string) list;  (* (sentinel, owner pd) *)
  mutable checked : int;
}

let dev_config cfg =
  {
    BD.block_size = 512;
    block_count = 4_096;
    read_latency = 10;
    write_latency = 20;
    byte_latency = 0;
    vectored = true;
    queue_depth = cfg.queue_depth;
  }

let make_st cfg =
  let clock = Clock.create () in
  let dev = BD.create ~config:(dev_config cfg) ~clock () in
  let allocator = if cfg.segmented then Space.segments else Space.Heap in
  let store = Dbfs.format ~allocator dev ~journal_blocks:256 in
  (match Dbfs.create_type store ~actor item_schema with
  | Ok () -> ()
  | Error e -> failwith ("refine: create_type: " ^ Dbfs.error_to_string e));
  Dbfs.set_group_commit store cfg.gc_window;
  {
    clock;
    dev;
    store;
    model = Model.empty;
    trace = [ Model.empty ];
    nsent = 0;
    sentinels = [];
    checked = 0;
  }

let commit st m =
  st.model <- m;
  st.trace <- m :: st.trace

let fresh_sentinel st =
  let s = Printf.sprintf "snt%05d" st.nsent in
  st.nsent <- st.nsent + 1;
  s

let err_str = Dbfs.error_to_string

let diverge fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

(* One observable comparison: canonical strings on both sides. *)
let expect st what ~model ~dbfs =
  st.checked <- st.checked + 1;
  if model <> dbfs then diverge "%s: model=%S dbfs=%S" what model dbfs

let ids_str l = String.concat "," l

let live_pds st = Model.select st.model type_name Query.True
let all_pds st = Model.list_pds st.model type_name

let model_pd st id =
  match Model.find st.model id with
  | Some p -> p
  | None -> diverge "internal: model lost pd %s" id

(* Erase one pd on both sides (used by Erase_subject and Ttl_sweep).
   Outside compare mode a real-side failure (e.g. a bit-flipped record
   that no longer reads back) skips the model micro-op too, keeping the
   two sides in lockstep by construction. *)
let erase_one ~compare st pd =
  match Model.find st.model pd with
  | Some p when p.Model.p_state = Model.Live -> (
      let sealed = seal_fn p.Model.p_record in
      match Dbfs.erase_with st.store ~actor pd ~seal:seal_fn with
      | Ok () -> (
          match Model.erase st.model pd ~sealed with
          | Ok m -> commit st m
          | Error _ -> diverge "model rejected erase(%s) the store accepted" pd)
      | Error e ->
          if compare then diverge "erase(%s) failed: %s" pd (err_str e))
  | _ -> ()

let step ~compare ?bug st op =
  match op with
  | Collect { subj; ki; ks; ttl } -> (
      let subject = subjects_pool.(subj mod Array.length subjects_pool) in
      let s = fresh_sentinel st in
      let record = mk_record ki ks s in
      let ttl =
        match ttl mod 3 with
        | 0 -> None
        | 1 -> Some short_ttl
        | _ -> Some long_ttl
      in
      let captured = ref None in
      match
        Dbfs.insert st.store ~actor ~subject ~type_name ~record
          ~membrane_of:(fun ~pd_id ->
            let m =
              M.make ~pd_id ~type_name ~subject_id:subject ~origin:M.Subject
                ~consents:[ ("service", M.All); ("analytics", M.All) ]
                ~created_at:(Clock.now st.clock) ?ttl ()
            in
            captured := Some m;
            m)
      with
      | Ok pd_id ->
          let membrane = Option.get !captured in
          st.sentinels <- (s, pd_id) :: st.sentinels;
          commit st
            (Model.insert st.model ~pd_id ~type_name ~subject ~record ~membrane)
      | Error e -> if compare then diverge "collect failed: %s" (err_str e))
  | Update { pick; ki; ks } -> (
      match live_pds st with
      | [] -> ()
      | live -> (
          let pd = List.nth live (pick mod List.length live) in
          let s = fresh_sentinel st in
          let record = mk_record ki ks s in
          match Dbfs.update_record st.store ~actor pd record with
          | Ok () -> (
              st.sentinels <- (s, pd) :: st.sentinels;
              match Model.update_record st.model pd record with
              | Ok m -> commit st m
              | Error _ ->
                  diverge "model rejected update(%s) the store accepted" pd)
          | Error e ->
              if compare then diverge "update(%s) failed: %s" pd (err_str e)))
  | Flip { pick; grant } -> (
      match all_pds st with
      | [] -> ()
      | all -> (
          let pd = List.nth all (pick mod List.length all) in
          let p = model_pd st pd in
          let m' =
            M.set_consent p.Model.p_membrane ~purpose:"analytics"
              (if grant then M.All else M.Denied)
          in
          let real =
            match bug with
            | Some Drop_consent_flip -> Ok ()  (* the injected bug: lost write *)
            | None -> Dbfs.update_membrane st.store ~actor pd m'
          in
          match real with
          | Ok () -> (
              match Model.update_membrane st.model pd m' with
              | Ok m -> commit st m
              | Error _ ->
                  diverge "model rejected flip(%s) the store accepted" pd)
          | Error e ->
              if compare then diverge "flip(%s) failed: %s" pd (err_str e)))
  | Erase_subject { subj } ->
      let subject = subjects_pool.(subj mod Array.length subjects_pool) in
      List.iter (erase_one ~compare st) (Model.pds_of_subject st.model subject)
  | Delete_pd { pick } -> (
      match all_pds st with
      | [] -> ()
      | all -> (
          let pd = List.nth all (pick mod List.length all) in
          match Dbfs.delete st.store ~actor pd with
          | Ok () -> (
              match Model.delete st.model pd with
              | Ok m -> commit st m
              | Error _ ->
                  diverge "model rejected delete(%s) the store accepted" pd)
          | Error e ->
              if compare then diverge "delete(%s) failed: %s" pd (err_str e)))
  | Ttl_sweep ->
      let now = Clock.now st.clock in
      let expired = Model.expired st.model ~now in
      (if compare then
         match Dbfs.expired_pds st.store ~actor ~now with
         | Ok l ->
             expect st "expired_pds" ~model:(ids_str expired) ~dbfs:(ids_str l)
         | Error e -> diverge "expired_pds failed: %s" (err_str e));
      List.iter (erase_one ~compare st) expired
  | Advance { ns } -> Clock.advance st.clock ns
  | Access { subj } ->
      if compare then (
        let subject = subjects_pool.(subj mod Array.length subjects_pool) in
        match Dbfs.export_subject st.store ~actor subject with
        | Ok (_, out) ->
            expect st
              (Printf.sprintf "export(%s)" subject)
              ~model:(Model.export st.model subject) ~dbfs:out
        | Error e -> diverge "export(%s) failed: %s" subject (err_str e))
  | Select_q { q } ->
      if compare then (
        let q = q mod Array.length queries in
        let pred = queries.(q) in
        let expected = ids_str (Model.select st.model type_name pred) in
        List.iter
          (fun use_indexes ->
            match Dbfs.select st.store ~actor ~use_indexes type_name pred with
            | Ok ids ->
                expect st
                  (Printf.sprintf "select(q%d,indexes=%b)" q use_indexes)
                  ~model:expected ~dbfs:(ids_str ids)
            | Error e -> diverge "select(q%d) failed: %s" q (err_str e))
          [ true; false ])

(* Full-state audit: every observable of every pd, every query under
   both planner paths, expiry and exports. *)
let check_state st =
  (match Dbfs.list_pds st.store ~actor type_name with
  | Ok ids -> expect st "list_pds" ~model:(ids_str (all_pds st)) ~dbfs:(ids_str ids)
  | Error e -> diverge "list_pds failed: %s" (err_str e));
  (match Dbfs.subjects st.store ~actor with
  | Ok subs ->
      expect st "subjects"
        ~model:(ids_str (Model.subjects st.model))
        ~dbfs:(ids_str (List.sort compare subs))
  | Error e -> diverge "subjects failed: %s" (err_str e));
  Array.iter
    (fun subject ->
      (match Dbfs.pds_of_subject st.store ~actor subject with
      | Ok ids ->
          expect st
            (Printf.sprintf "pds_of_subject(%s)" subject)
            ~model:(ids_str (Model.pds_of_subject st.model subject))
            ~dbfs:(ids_str ids)
      | Error e -> diverge "pds_of_subject(%s) failed: %s" subject (err_str e));
      match Dbfs.export_subject st.store ~actor subject with
      | Ok (_, out) ->
          expect st
            (Printf.sprintf "export(%s)" subject)
            ~model:(Model.export st.model subject) ~dbfs:out
      | Error e -> diverge "export(%s) failed: %s" subject (err_str e))
    subjects_pool;
  List.iter
    (fun p ->
      let id = p.Model.p_id in
      (match Dbfs.entry_info st.store ~actor id with
      | Ok (tname, subject, erased) ->
          expect st
            (Printf.sprintf "entry_info(%s)" id)
            ~model:
              (Printf.sprintf "%s|%s|%b" p.Model.p_type p.Model.p_subject
                 (p.Model.p_state <> Model.Live))
            ~dbfs:(Printf.sprintf "%s|%s|%b" tname subject erased)
      | Error e -> diverge "entry_info(%s) failed: %s" id (err_str e));
      (match Dbfs.get_membrane st.store ~actor id with
      | Ok m ->
          expect st
            (Printf.sprintf "membrane(%s)" id)
            ~model:(M.encode p.Model.p_membrane) ~dbfs:(M.encode m)
      | Error e -> diverge "get_membrane(%s) failed: %s" id (err_str e));
      match p.Model.p_state with
      | Model.Live -> (
          match Dbfs.get_record st.store ~actor id with
          | Ok r ->
              expect st
                (Printf.sprintf "record(%s)" id)
                ~model:(Record.encode p.Model.p_record) ~dbfs:(Record.encode r)
          | Error e -> diverge "get_record(%s) failed: %s" id (err_str e))
      | Model.Erased sealed -> (
          (match Dbfs.get_record st.store ~actor id with
          | Error (Dbfs.Erased _) -> st.checked <- st.checked + 1
          | Ok _ -> diverge "get_record(%s): erased pd read back plaintext" id
          | Error e ->
              diverge "get_record(%s): expected Erased, got %s" id (err_str e));
          match Dbfs.erased_payload st.store ~actor id with
          | Ok got ->
              expect st (Printf.sprintf "erased_payload(%s)" id) ~model:sealed
                ~dbfs:got
          | Error e -> diverge "erased_payload(%s) failed: %s" id (err_str e)))
    (Model.pds st.model);
  Array.iteri
    (fun i pred ->
      let expected = ids_str (Model.select st.model type_name pred) in
      List.iter
        (fun use_indexes ->
          match Dbfs.select st.store ~actor ~use_indexes type_name pred with
          | Ok ids ->
              expect st
                (Printf.sprintf "audit-select(q%d,indexes=%b)" i use_indexes)
                ~model:expected ~dbfs:(ids_str ids)
          | Error e -> diverge "audit-select(q%d) failed: %s" i (err_str e))
        [ true; false ])
    queries;
  let now = Clock.now st.clock in
  match Dbfs.expired_pds st.store ~actor ~now with
  | Ok l ->
      expect st "audit-expired"
        ~model:(ids_str (Model.expired st.model ~now))
        ~dbfs:(ids_str l)
  | Error e -> diverge "expired_pds failed: %s" (err_str e)

(* Clean-mode residue rule: every sentinel belonging to an erased or
   deleted pd must be gone from the raw medium (erase/delete destroy
   synchronously, including the segmented dirty set via purge).
   Sentinels updated away from a still-live pd are exempt: the segmented
   allocator may legally retain them until the next purge/compaction. *)
let check_residue_clean st =
  List.iter
    (fun (s, pd) ->
      let destroyed =
        match Model.find st.model pd with
        | None -> true
        | Some p -> p.Model.p_state <> Model.Live
      in
      if destroyed then
        match BD.scan st.dev s with
        | [] -> st.checked <- st.checked + 1
        | (b, off) :: _ ->
            diverge "residue: sentinel %s of destroyed pd %s at block %d+%d" s
              pd b off)
    st.sentinels

let run_script ?bug cfg script =
  let st = make_st cfg in
  try
    List.iter (step ~compare:true ?bug st) script;
    BD.drain st.dev;
    check_state st;
    List.iter
      (fun b ->
        Dbfs.set_cache_budget st.store b;
        check_state st)
      budgets;
    check_residue_clean st;
    Ok st.checked
  with
  | Divergence d -> Error d
  | e -> Error ("exception escaped: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* crash refinement                                                   *)
(* ------------------------------------------------------------------ *)

type fault_spec = {
  fs_crash : int option;
  fs_acts : (int * BD.Fault_plan.action) list;
}

let spec_to_plan spec =
  let p = BD.Fault_plan.create () in
  List.iter (fun (n, a) -> BD.Fault_plan.on_write p ~nth:n a) spec.fs_acts;
  Option.iter (BD.Fault_plan.crash_after_writes p) spec.fs_crash;
  p

let spec_to_string spec = BD.Fault_plan.to_string (spec_to_plan spec)

(* Reference run: same script, same cfg, empty plan — counts the write
   ordinals the fault plan schedules against, and exposes the layout for
   data-region bit flips. *)
let count_writes cfg script =
  let st = make_st cfg in
  let plan = BD.Fault_plan.create () in
  BD.set_fault_plan st.dev (Some plan);
  List.iter (step ~compare:false st) script;
  BD.drain st.dev;
  (BD.Fault_plan.writes_seen plan, Dbfs.layout st.store)

(* Faults are drawn only from the flavours the write path must ride out
   or repair must heal: transient failures, torn writes, data-region bit
   flips.  Permanent write failures are the degraded-mode law's job
   (check_degraded), not the crash-refinement rule's. *)
let derive_spec ~spec_seed cfg script =
  let writes, lay = count_writes cfg script in
  let prng = Prng.create ~seed:(Int64.of_int spec_seed) () in
  let writes = max 1 writes in
  let crash = 1 + Prng.int prng writes in
  let nacts = Prng.int prng 3 in
  let acts =
    List.init nacts (fun _ ->
        let nth = 1 + Prng.int prng writes in
        let act =
          match Prng.int prng 3 with
          | 0 -> BD.Fault_plan.Fail_write { transient = true }
          | 1 -> BD.Fault_plan.Torn_write { keep_runs = Prng.int prng 3 }
          | _ ->
              BD.Fault_plan.Bit_flip
                {
                  block =
                    lay.l_data_start
                    + Prng.int prng (lay.l_block_count - lay.l_data_start);
                  byte = Prng.int prng 512;
                  bit = Prng.int prng 8;
                }
        in
        (nth, act))
  in
  { fs_crash = Some crash; fs_acts = acts }

let plan_for_script ~spec_seed cfg script =
  spec_to_string (derive_spec ~spec_seed cfg script)

(* Canonical rendering of the real store in Model.dump's format, so the
   recovered image can be compared against model prefixes. *)
let dump_real store =
  let ( let* ) = Result.bind in
  let fail what e = Error (what ^ " failed: " ^ err_str e) in
  match Dbfs.list_pds store ~actor type_name with
  | Error e -> fail "list_pds" e
  | Ok ids ->
      let rec go acc = function
        | [] -> Ok (String.concat "\n" (List.sort compare acc))
        | id :: rest ->
            let* tname, subject, erased =
              Result.map_error
                (fun e -> Printf.sprintf "entry_info(%s) failed: %s" id (err_str e))
                (Dbfs.entry_info store ~actor id)
            in
            let* m =
              Result.map_error
                (fun e ->
                  Printf.sprintf "get_membrane(%s) failed: %s" id (err_str e))
                (Dbfs.get_membrane store ~actor id)
            in
            let* state =
              if erased then
                Result.map_error
                  (fun e ->
                    Printf.sprintf "erased_payload(%s) failed: %s" id (err_str e))
                  (Result.map (fun s -> "erased:" ^ s)
                     (Dbfs.erased_payload store ~actor id))
              else
                Result.map_error
                  (fun e ->
                    Printf.sprintf "get_record(%s) failed: %s" id (err_str e))
                  (Result.map
                     (fun r -> "live:" ^ Record.encode r)
                     (Dbfs.get_record store ~actor id))
            in
            go
              (Printf.sprintf "%s|%s|%s|%s|%s" id tname subject state
                 (M.encode m)
              :: acc)
              rest
      in
      go [] ids

let run_crash ~spec_seed cfg script =
  let spec = derive_spec ~spec_seed cfg script in
  let plan = spec_to_plan spec in
  let plan_str = BD.Fault_plan.to_string plan in
  let fail fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "%s [plan %s]" s plan_str)) fmt
  in
  let st = make_st cfg in
  BD.set_fault_plan st.dev (Some plan);
  match
    List.iter (step ~compare:false st) script;
    BD.drain st.dev
  with
  | exception e -> fail "exception escaped the write path: %s" (Printexc.to_string e)
  | () -> (
      let image =
        match BD.crash_image st.dev with
        | Some i -> i
        | None -> BD.snapshot st.dev
      in
      let clock2 = Clock.create () in
      let dev2 = BD.create ~config:(dev_config cfg) ~clock:clock2 () in
      BD.restore dev2 image;
      match Dbfs.mount dev2 with
      | Error m -> fail "mount after crash failed: %s" m
      | Ok store2 -> (
          let rep = Dbfs.fsck_repair store2 in
          let quarantined = List.map fst rep.Dbfs.rr_quarantined in
          let bit_flip = function
            | _, BD.Fault_plan.Bit_flip _ -> true
            | _ -> false
          in
          if not rep.Dbfs.rr_clean then
            fail "fsck_repair not clean: %s"
              (String.concat "; " rep.Dbfs.rr_problems)
          else if quarantined <> [] && not (List.exists bit_flip spec.fs_acts)
          then
            (* quarantine is for medium corruption: anything else lost a
               pd that the model would otherwise excuse *)
            fail "quarantined [%s] with no bit flip"
              (String.concat "," quarantined)
          else
            match Dbfs.degraded store2 with
            | Some why -> fail "degraded after repair: %s" why
            | None -> (
                match dump_real store2 with
                | Error d -> fail "post-repair read: %s" d
                | Ok dump ->
                    let matched =
                      List.exists
                        (fun m ->
                          Model.dump_excluding m ~exclude:quarantined = dump)
                        st.trace
                    in
                    if not matched then
                      fail
                        "recovered state matches no model prefix \
                         (quarantined: [%s])"
                        (String.concat "," quarantined)
                    else
                      (* post-repair residue rule is absolute: repair
                         scrubs every free block, so any sentinel not in
                         a live record of the RECOVERED store (recovery
                         may land at an earlier prefix, where a later-
                         destroyed pd is still legitimately live) must
                         be gone from the medium. *)
                      let live_notes =
                        match Dbfs.list_pds store2 ~actor type_name with
                        | Error _ -> []
                        | Ok ids ->
                            List.filter_map
                              (fun id ->
                                match Dbfs.get_record store2 ~actor id with
                                | Ok r -> (
                                    match List.assoc_opt "note" r with
                                    | Some (Value.VString s) -> Some s
                                    | _ -> None)
                                | Error _ -> None)
                              ids
                      in
                      let bad =
                        List.find_opt
                          (fun (s, _) ->
                            (not (List.mem s live_notes))
                            && BD.scan dev2 s <> [])
                          st.sentinels
                      in
                      (match bad with
                      | Some (s, pd) ->
                          fail "post-repair residue: sentinel %s of pd %s" s pd
                      | None -> Ok (1 + List.length spec.fs_acts)))))

(* ------------------------------------------------------------------ *)
(* degraded-mode law                                                  *)
(* ------------------------------------------------------------------ *)

let check_degraded script =
  let st = make_st base_cfg in
  try
    List.iter (step ~compare:true st) script;
    check_state st;
    (* Damage: permanently fault every data-region block not owned by a
       surviving entry or an index page — the next allocation must hit a
       bad block and flip the store into degraded read-only mode. *)
    let lay = Dbfs.layout st.store in
    let owned = Hashtbl.create 64 in
    List.iter
      (fun p ->
        match Dbfs.entry_blocks st.store ~actor p.Model.p_id with
        | Ok (rb, mb) -> List.iter (fun b -> Hashtbl.replace owned b ()) (rb @ mb)
        | Error e -> diverge "entry_blocks(%s) failed: %s" p.Model.p_id (err_str e))
      (Model.pds st.model);
    List.iter
      (fun (b, _) -> Hashtbl.replace owned b ())
      (Dbfs.index_page_blocks st.store);
    for b = lay.l_data_start to lay.l_block_count - 1 do
      if not (Hashtbl.mem owned b) then BD.inject_fault st.dev b
    done;
    (* Trigger: the next mutation that allocates must fail... *)
    let trigger =
      Dbfs.insert st.store ~actor ~subject:"s0" ~type_name
        ~record:(mk_record 1 1 "trigger")
        ~membrane_of:(fun ~pd_id ->
          M.make ~pd_id ~type_name ~subject_id:"s0" ~origin:M.Subject
            ~consents:[ ("service", M.All) ]
            ~created_at:(Clock.now st.clock) ())
    in
    (match trigger with
    | Ok id -> diverge "insert %s succeeded on an exhausted device" id
    | Error _ -> ());
    (match Dbfs.degraded st.store with
    | None -> diverge "store not degraded after a permanent write failure"
    | Some _ -> ());
    (* ...every further mutation must answer Degraded... *)
    let expect_degraded what = function
      | Error (Dbfs.Degraded _) -> st.checked <- st.checked + 1
      | Ok _ -> diverge "%s succeeded in degraded mode" what
      | Error e -> diverge "%s: expected Degraded, got %s" what (err_str e)
    in
    expect_degraded "insert"
      (Dbfs.insert st.store ~actor ~subject:"s1" ~type_name
         ~record:(mk_record 2 2 "trigger2")
         ~membrane_of:(fun ~pd_id ->
           M.make ~pd_id ~type_name ~subject_id:"s1" ~origin:M.Subject
             ~consents:[ ("service", M.All) ]
             ~created_at:(Clock.now st.clock) ()));
    List.iter
      (fun p ->
        let id = p.Model.p_id in
        expect_degraded
          (Printf.sprintf "update_record(%s)" id)
          (Dbfs.update_record st.store ~actor id (mk_record 0 0 "trigger3"));
        expect_degraded
          (Printf.sprintf "update_membrane(%s)" id)
          (Dbfs.update_membrane st.store ~actor id
             (M.withdraw p.Model.p_membrane ~purpose:"service"));
        expect_degraded
          (Printf.sprintf "erase(%s)" id)
          (Dbfs.erase_with st.store ~actor id ~seal:seal_fn);
        expect_degraded
          (Printf.sprintf "delete(%s)" id)
          (Dbfs.delete st.store ~actor id))
      (Model.pds st.model);
    (* ...while Art. 15 access still answers from the surviving data,
       exactly as the model answered before the damage. *)
    Array.iter
      (fun subject ->
        match Dbfs.export_subject st.store ~actor subject with
        | Ok (_, out) ->
            expect st
              (Printf.sprintf "degraded-export(%s)" subject)
              ~model:(Model.export st.model subject) ~dbfs:out
        | Error e -> diverge "degraded export(%s) failed: %s" subject (err_str e))
      subjects_pool;
    List.iter
      (fun p ->
        match p.Model.p_state with
        | Model.Live -> (
            match Dbfs.get_record st.store ~actor p.Model.p_id with
            | Ok r ->
                expect st
                  (Printf.sprintf "degraded-record(%s)" p.Model.p_id)
                  ~model:(Record.encode p.Model.p_record)
                  ~dbfs:(Record.encode r)
            | Error e ->
                diverge "degraded get_record(%s) failed: %s" p.Model.p_id
                  (err_str e))
        | Model.Erased _ -> ())
      (Model.pds st.model);
    Ok ()
  with
  | Divergence d -> Error d
  | e -> Error ("exception escaped: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* shrinking                                                          *)
(* ------------------------------------------------------------------ *)

(* Greedy op removal to fixpoint: drop any op whose removal preserves
   the failure, repeating until no single removal does. *)
let shrink_script still_fails script =
  let rec pass s =
    let n = List.length s in
    let rec try_at i =
      if i >= n then s
      else
        let cand = List.filteri (fun j _ -> j <> i) s in
        if still_fails cand then pass cand else try_at (i + 1)
    in
    try_at 0
  in
  if still_fails script then pass script else script

type failure = {
  f_mode : string;
  f_cfg : string;
  f_plan : string;
  f_seed : int;
  f_spec_seed : int;
  f_script : script;
  f_detail : string;
  f_shrunk_from : int;
}

let failure_to_string f =
  Printf.sprintf
    "FAIL [%s %s] seed=%d%s%s script(%d ops, shrunk from %d)=%s: %s" f.f_mode
    f.f_cfg f.f_seed
    (if f.f_spec_seed <> 0 then Printf.sprintf " spec_seed=%d" f.f_spec_seed
     else "")
    (if f.f_plan <> "" then " " ^ f.f_plan else "")
    (List.length f.f_script) f.f_shrunk_from
    (script_to_string f.f_script)
    f.f_detail

type report = {
  r_seed : int;
  r_scripts : int;
  r_ops_checked : int;
  r_fault_points : int;
  r_crash_runs : int;
  r_lin_domains : int list;
  r_failures : failure list;
}

let lockstep_failure ?bug ~mode ~seed cfg script detail =
  let still_fails s = Result.is_error (run_script ?bug cfg s) in
  let shrunk = shrink_script still_fails script in
  let detail =
    match run_script ?bug cfg shrunk with Error d -> d | Ok _ -> detail
  in
  {
    f_mode = mode;
    f_cfg = cfg_to_string cfg;
    f_plan = "";
    f_seed = seed;
    f_spec_seed = 0;
    f_script = shrunk;
    f_detail = detail;
    f_shrunk_from = List.length script;
  }

let crash_failure ~seed ~spec_seed cfg script detail =
  let still_fails s = Result.is_error (run_crash ~spec_seed cfg s) in
  let shrunk = shrink_script still_fails script in
  let detail =
    match run_crash ~spec_seed cfg shrunk with Error d -> d | Ok _ -> detail
  in
  {
    f_mode = "crash";
    f_cfg = cfg_to_string cfg;
    f_plan = plan_for_script ~spec_seed cfg shrunk;
    f_seed = seed;
    f_spec_seed = spec_seed;
    f_script = shrunk;
    f_detail = detail;
    f_shrunk_from = List.length script;
  }

let find_counterexample ?bug ~seed ~max_scripts cfg =
  let prng = Prng.create ~seed:(Int64.of_int seed) () in
  let rec go i =
    if i >= max_scripts then None
    else
      let script = gen_script (Prng.split prng) in
      match run_script ?bug cfg script with
      | Ok _ -> go (i + 1)
      | Error d ->
          Some (lockstep_failure ?bug ~mode:"lockstep" ~seed cfg script d)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* linearizability                                                    *)
(* ------------------------------------------------------------------ *)

(* Each shard owns a disjoint store (clock, device, Dbfs and model all
   created inside the shard's task, so the clock's single-writer
   assertion also polices domain confinement).  Every shard is lockstep-
   checked internally, and the parallel execution must reproduce the
   sequential one observable-for-observable — for disjoint shards, any
   interleaving is equivalent to the sequential composition, so this is
   exactly "matches some sequential execution of the model". *)
let run_shard script =
  let st = make_st base_cfg in
  try
    List.iter (step ~compare:true st) script;
    BD.drain st.dev;
    check_state st;
    Ok (Model.dump st.model, st.checked)
  with
  | Divergence d -> Error d
  | e -> Error ("exception escaped: " ^ Printexc.to_string e)

let run_linearizability ~seed domains =
  let scripts =
    List.init domains (fun j ->
        gen_script
          (Prng.create ~seed:(Int64.of_int ((seed * 1000) + (domains * 10) + j)) ()))
  in
  let sequential = List.map run_shard scripts in
  let parallel =
    Pool.with_pool ~workers:domains (fun pool ->
        Pool.map_list pool run_shard scripts)
  in
  let checked =
    List.fold_left
      (fun acc -> function Ok (_, n) -> acc + n | Error _ -> acc)
      0 sequential
  in
  let failures =
    List.concat
      (List.map2
         (fun script -> function
           | seq_r, par_r when seq_r = par_r -> (
               match seq_r with
               | Ok _ -> []
               | Error d ->
                   [ lockstep_failure ~mode:"linearizability" ~seed base_cfg
                       script d ])
           | seq_r, par_r ->
               let show = function
                 | Ok (dump, n) -> Printf.sprintf "ok(%d checks):%s" n dump
                 | Error d -> "error:" ^ d
               in
               [
                 {
                   f_mode = "linearizability";
                   f_cfg = cfg_to_string base_cfg;
                   f_plan = "";
                   f_seed = seed;
                   f_spec_seed = 0;
                   f_script = script;
                   f_detail =
                     Printf.sprintf
                       "parallel execution at %d domains diverged from \
                        sequential: seq=%s par=%s"
                       domains (show seq_r) (show par_r);
                   f_shrunk_from = List.length script;
                 };
               ])
         scripts
         (List.combine sequential parallel))
  in
  (checked, failures)

(* ------------------------------------------------------------------ *)
(* the campaign                                                       *)
(* ------------------------------------------------------------------ *)

let lin_domains = [ 1; 2; 4 ]

let default_scripts () =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 4)
  | None -> 4

let run ?(seed = 11) ?scripts () =
  let scripts = match scripts with Some n -> n | None -> default_scripts () in
  let prng = Prng.create ~seed:(Int64.of_int seed) () in
  let checked = ref 0 in
  let fault_points = ref 0 in
  let crash_runs = ref 0 in
  let failures = ref [] in
  for i = 0 to scripts - 1 do
    let script = gen_script (Prng.split prng) in
    let cfg0 = { base_cfg with segmented = i mod 2 = 1 } in
    (match run_script cfg0 script with
    | Ok n -> checked := !checked + n
    | Error d ->
        failures :=
          lockstep_failure ~mode:"lockstep" ~seed cfg0 script d :: !failures);
    List.iteri
      (fun ci cfg ->
        let spec_seed = (seed * 100_000) + (i * 100) + ci + 1 in
        incr crash_runs;
        match run_crash ~spec_seed cfg script with
        | Ok fp ->
            fault_points := !fault_points + fp;
            incr checked
        | Error d ->
            failures :=
              crash_failure ~seed ~spec_seed cfg script d :: !failures)
      all_cfgs
  done;
  List.iter
    (fun domains ->
      let n, fs = run_linearizability ~seed domains in
      checked := !checked + n;
      failures := fs @ !failures)
    lin_domains;
  {
    r_seed = seed;
    r_scripts = scripts;
    r_ops_checked = !checked;
    r_fault_points = !fault_points;
    r_crash_runs = !crash_runs;
    r_lin_domains = lin_domains;
    r_failures = List.rev !failures;
  }

let conformance_pct r =
  if r.r_failures = [] then 100.0
  else
    let total = max 1 (r.r_ops_checked + List.length r.r_failures) in
    100.0 *. float_of_int r.r_ops_checked /. float_of_int total

let all_pass r = r.r_failures = []

(* ------------------------------------------------------------------ *)
(* reporting                                                          *)
(* ------------------------------------------------------------------ *)

module Json = Rgpdos_util.Json

let schema_id = "rgpdos-model-check/1"

let to_json ?(wall_ms = 0.0) r =
  let num i = Json.Num (float_of_int i) in
  let failure_obj f =
    Json.Obj
      [
        ("mode", Json.Str f.f_mode);
        ("cfg", Json.Str f.f_cfg);
        ("plan", Json.Str f.f_plan);
        ("seed", num f.f_seed);
        ("spec_seed", num f.f_spec_seed);
        ("script", Json.Str (script_to_string f.f_script));
        ("detail", Json.Str f.f_detail);
        ("shrunk_from", num f.f_shrunk_from);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("seed", num r.r_seed);
      ("scripts", num r.r_scripts);
      ("ops_checked", num r.r_ops_checked);
      ("fault_points", num r.r_fault_points);
      ("crash_runs", num r.r_crash_runs);
      ("crash_configs", num (List.length all_cfgs));
      ("lin_domains", Json.List (List.map num r.r_lin_domains));
      ("cache_budgets", Json.List (List.map num budgets));
      ("conformance_pct", Json.Num (conformance_pct r));
      ("all_pass", Json.Bool (all_pass r));
      ("failures", Json.List (List.map failure_obj r.r_failures));
      ("wall_ms", Json.Num wall_ms);
    ]

let render r =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "model refinement check (seed=%d, %d scripts)\n" r.r_seed r.r_scripts;
  add "  observable comparisons : %d\n" r.r_ops_checked;
  add "  crash-refinement runs  : %d across %d configs, %d fault points\n"
    r.r_crash_runs (List.length all_cfgs) r.r_fault_points;
  add "  linearizability domains: %s\n"
    (String.concat "/" (List.map string_of_int r.r_lin_domains));
  add "  cache budgets audited  : %s\n"
    (String.concat "/" (List.map string_of_int budgets));
  add "  conformance            : %.2f%% (%d failures)\n" (conformance_pct r)
    (List.length r.r_failures);
  List.iter (fun f -> add "  %s\n" (failure_to_string f)) r.r_failures;
  Buffer.contents b
