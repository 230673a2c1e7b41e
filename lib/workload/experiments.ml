module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Table = Rgpdos_util.Table
module Membrane = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Schema = Rgpdos_dbfs.Schema
module Query = Rgpdos_dbfs.Query
module Dbfs = Rgpdos_dbfs.Dbfs
module Block_device = Rgpdos_block.Block_device
module Journalfs = Rgpdos_journalfs.Journalfs
module Userdb = Rgpdos_baseline.Userdb
module Process_model = Rgpdos_baseline.Process_model
module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Ps = Rgpdos_ps.Processing_store
module Syscall = Rgpdos_kernel.Syscall
module Resource = Rgpdos_kernel.Resource
module Subkernel = Rgpdos_kernel.Subkernel
module Scheduler = Rgpdos_kernel.Scheduler
module Audit_log = Rgpdos_audit.Audit_log
module Authority = Rgpdos_gdpr.Authority
module Ttl_sweeper = Rgpdos_gdpr.Ttl_sweeper

let fmt_f = Table.fmt_float

(* Boot a machine sized for [n] PD entries and loaded with the workload
   declarations. *)
let boot_sized ?(vectored = true) ?queue_depth ~seed ~n () =
  let config =
    {
      Block_device.default_config with
      Block_device.block_count = max 16_384 ((n * 8) + 4_096);
      Block_device.vectored;
      Block_device.queue_depth =
        (match queue_depth with
        | Some d -> max 1 d
        | None -> Block_device.default_config.Block_device.queue_depth);
    }
  in
  let m = Machine.boot ~seed ~pd_device:config ()
  in
  (match Machine.load_declarations m Population.type_declaration with
  | Ok _ -> ()
  | Error e -> failwith ("experiments: declarations: " ^ e));
  m

let counting_reader _ctx inputs =
  Ok (Processing.value_output (Value.VInt (List.length inputs)))

let register_reader m ~name ~purpose ~touches =
  let spec =
    match
      (* counting is record-wise decomposable: shard counts sum *)
      Machine.make_processing m ~name ~purpose ~touches
        ~shard_reduce:Processing.reduce_int_sum counting_reader
    with
    | Ok s -> s
    | Error e -> failwith ("experiments: " ^ e)
  in
  match Machine.register_processing m spec with
  | Ok _ -> ()
  | Error e -> failwith ("experiments: register: " ^ e)

let collect_population m people =
  List.iter
    (fun (p : Population.person) ->
      match
        Machine.collect m ~type_name:Population.type_name
          ~subject:p.Population.subject_id ~interface:"web_form"
          ~record:(Population.record_of p)
          ~consents:p.Population.consent_profile ()
      with
      | Ok _ -> ()
      | Error e -> failwith ("experiments: collect: " ^ e))
    people

(* ------------------------------------------------------------------ *)
(* E1                                                                 *)

type e1_result = {
  e1_subjects : int;
  e1_stage_ns : (string * int) list;
  e1_total_ns : int;
  e1_device : (string * int) list;
}

let e1_ded_stages ?(subjects = 2_000) ?(vectored = true) ?queue_depth ?cores ()
    =
  let m = boot_sized ~vectored ?queue_depth ~seed:101L ~n:subjects () in
  let prng = Prng.create ~seed:102L () in
  collect_population m (Population.generate prng ~n:subjects);
  register_reader m ~name:"e1_reader" ~purpose:"service"
    ~touches:[ (Population.type_name, [ "name"; "email"; "year_of_birth" ]) ];
  (* count only the hot path: reset device counters after population load
     so reads/merged_runs reflect the invoke alone *)
  Block_device.reset_stats (Machine.pd_device m);
  match
    Machine.invoke m ?cores ~name:"e1_reader"
      ~target:(Ded.All_of_type Population.type_name) ()
  with
  | Error e -> failwith ("e1: " ^ e)
  | Ok outcome ->
      (* settle any in-flight charge so runs at different queue depths
         compare the same completed work *)
      Block_device.drain (Machine.pd_device m);
      {
        e1_subjects = subjects;
        e1_stage_ns = outcome.Ded.stage_ns;
        e1_total_ns = List.fold_left (fun acc (_, ns) -> acc + ns) 0 outcome.Ded.stage_ns;
        e1_device =
          Rgpdos_util.Stats.Counter.to_list
            (Block_device.stats (Machine.pd_device m));
      }

let render_e1 r =
  let rows =
    List.map
      (fun (stage, ns) ->
        [
          stage;
          fmt_f (float_of_int ns /. 1e6);
          fmt_f (100.0 *. float_of_int ns /. float_of_int (max 1 r.e1_total_ns));
        ])
      r.e1_stage_ns
    @ [ [ "total"; fmt_f (float_of_int r.e1_total_ns /. 1e6); "100.00" ] ]
  in
  Printf.sprintf
    "E1: DED pipeline breakdown (%d subjects, purpose 'service')\n%s"
    r.e1_subjects
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right ]
       ~header:[ "stage"; "simulated ms"; "% of total" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E2                                                                 *)

type e2_row = {
  e2_backend : string;
  e2_role : string;
  e2_ops : int;
  e2_errors : int;
  e2_unsupported : int;
  e2_sim_ms : float;
  e2_kops_per_sim_s : float;
}

let e2_gdprbench ?(subjects = 400) ?(ops_per_role = 200) () =
  let backends =
    [
      (fun pop -> Runner.machine_backend ~seed:7L ~population:pop);
      (fun pop -> Runner.baseline_backend ~seed:7L ~mode:Userdb.Gdpr ~population:pop);
      (fun pop -> Runner.baseline_backend ~seed:7L ~mode:Userdb.Vanilla ~population:pop);
    ]
  in
  List.concat_map
    (fun make_backend ->
      List.map
        (fun role ->
          (* fresh population, backend and op stream per cell so erases in
             one role do not pollute the next *)
          let prng = Prng.create ~seed:55L () in
          let pop = Population.generate prng ~n:subjects in
          let backend = make_backend pop in
          let ops = Gdprbench.generate prng ~role ~population:pop ~n:ops_per_role in
          let result = Runner.run backend ops in
          {
            e2_backend = result.Runner.backend;
            e2_role = Gdprbench.role_to_string role;
            e2_ops = result.Runner.total_ops;
            e2_errors = result.Runner.errors;
            e2_unsupported = result.Runner.unsupported;
            e2_sim_ms = float_of_int result.Runner.total_simulated_ns /. 1e6;
            e2_kops_per_sim_s = Runner.ops_per_simulated_second result /. 1e3;
          })
        Gdprbench.all_roles)
    backends

let render_e2 rows =
  "E2: GDPRBench-style roles, simulated time per backend\n"
  ^ Table.render
      ~align:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      ~header:
        [ "backend"; "role"; "ops"; "err"; "unsup"; "sim ms"; "kops/sim-s" ]
      (List.map
         (fun r ->
           [
             r.e2_backend; r.e2_role; string_of_int r.e2_ops;
             string_of_int r.e2_errors; string_of_int r.e2_unsupported;
             fmt_f r.e2_sim_ms; fmt_f r.e2_kops_per_sim_s;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E2b                                                                *)

type e2b_row = {
  e2b_backend : string;
  e2b_subjects : int;
  e2b_sim_ms : float;
}

let e2b_scaling ?(sizes = [ 100; 200; 400; 800 ]) ?(ops = 100) () =
  List.concat_map
    (fun n ->
      List.map
        (fun make_backend ->
          let prng = Prng.create ~seed:66L () in
          let pop = Population.generate prng ~n in
          let backend = make_backend pop in
          let op_stream =
            Gdprbench.generate prng ~role:Gdprbench.Processor ~population:pop
              ~n:ops
          in
          let result = Runner.run backend op_stream in
          {
            e2b_backend = result.Runner.backend;
            e2b_subjects = n;
            e2b_sim_ms = float_of_int result.Runner.total_simulated_ns /. 1e6;
          })
        [
          (fun pop -> Runner.machine_backend ~seed:8L ~population:pop);
          (fun pop ->
            Runner.baseline_backend ~seed:8L ~mode:Userdb.Gdpr ~population:pop);
          (fun pop ->
            Runner.baseline_backend ~seed:8L ~mode:Userdb.Vanilla ~population:pop);
        ])
    sizes

let render_e2b rows =
  "E2b: processor-role scaling with population size (fixed op stream)\n"
  ^ Table.render
      ~align:[ Table.Left; Table.Right; Table.Right ]
      ~header:[ "backend"; "subjects"; "sim ms" ]
      (List.map
         (fun r ->
           [ r.e2b_backend; string_of_int r.e2b_subjects; fmt_f r.e2b_sim_ms ])
         rows)

(* ------------------------------------------------------------------ *)
(* E3                                                                 *)

type e3_row = {
  e3_system : string;
  e3_deleted : int;
  e3_leaked_subjects : int;
  e3_sim_ms : float;
  e3_authority_recovers : bool;
}

let secret_of i = Printf.sprintf "E3SECRET-%06d-ZQX" i

let e3_baseline_system ~subjects ~victims ~secure ~scrub =
  let clock = Clock.create () in
  let config =
    {
      Block_device.default_config with
      Block_device.block_count = max 16_384 ((subjects * 6) + 4_096);
    }
  in
  let dev = Block_device.create ~config ~clock () in
  let fs = Journalfs.format dev ~journal_blocks:256 in
  let db = Result.get_ok (Userdb.create fs ~mode:Userdb.Gdpr) in
  Result.get_ok (Userdb.create_table db "person") |> ignore;
  for i = 0 to subjects - 1 do
    ignore
      (Result.get_ok
         (Userdb.insert db ~table:"person"
            {
              Userdb.subject = Printf.sprintf "sub-%06d" i;
              fields = [ ("name", secret_of i); ("email", "x@y") ];
              allowed_purposes = [ "service" ];
              expires_at = None;
            }))
  done;
  let t0 = Clock.now clock in
  List.iter
    (fun i ->
      ignore
        (Result.get_ok
           (Userdb.delete_subject ~secure db ~table:"person"
              (Printf.sprintf "sub-%06d" i))))
    victims;
  if scrub then begin
    Journalfs.checkpoint fs;
    Journalfs.scrub_journal fs
  end;
  let sim_ms = float_of_int (Clock.now clock - t0) /. 1e6 in
  let leaked =
    List.length
      (List.filter (fun i -> Block_device.scan dev (secret_of i) <> []) victims)
  in
  let name =
    match (secure, scrub) with
    | false, _ -> "db-gdpr (plain delete)"
    | true, false -> "db-gdpr (secure delete)"
    | true, true -> "db-gdpr (secure + journal scrub)"
  in
  {
    e3_system = name;
    e3_deleted = List.length victims;
    e3_leaked_subjects = leaked;
    e3_sim_ms = sim_ms;
    e3_authority_recovers = false;
  }

let e3_rgpdos_system ~subjects ~victims =
  let m = boot_sized ~seed:301L ~n:subjects () in
  let people =
    List.init subjects (fun i ->
        let p = { (List.hd (Population.generate (Prng.create ~seed:(Int64.of_int i) ()) ~n:1))
                  with Population.subject_id = Printf.sprintf "sub-%06d" i;
                       name = secret_of i } in
        p)
  in
  collect_population m people;
  let clock = Machine.clock m in
  let t0 = Clock.now clock in
  let erased = ref 0 in
  List.iter
    (fun i ->
      match Machine.right_to_erasure m ~subject:(Printf.sprintf "sub-%06d" i) with
      | Ok n -> erased := !erased + n
      | Error e -> failwith ("e3 rgpdos: " ^ e))
    victims;
  let sim_ms = float_of_int (Clock.now clock - t0) /. 1e6 in
  let leaked =
    List.length
      (List.filter
         (fun i -> Block_device.scan (Machine.pd_device m) (secret_of i) <> [])
         victims)
  in
  (* escrow check: the authority opens the first victim's envelope *)
  let authority_recovers =
    match victims with
    | [] -> false
    | i :: _ -> (
        let subject = Printf.sprintf "sub-%06d" i in
        match Dbfs.pds_of_subject (Machine.dbfs m) ~actor:"ded" subject with
        | Ok (pd :: _) -> (
            match Dbfs.erased_payload (Machine.dbfs m) ~actor:"ded" pd with
            | Ok sealed -> (
                match Authority.open_record (Machine.authority m) sealed with
                | Ok record ->
                    Record.get record "name" = Some (Value.VString (secret_of i))
                | Error _ -> false)
            | Error _ -> false)
        | _ -> false)
  in
  {
    e3_system = "rgpdOS (crypto-erasure)";
    e3_deleted = !erased;
    e3_leaked_subjects = leaked;
    e3_sim_ms = sim_ms;
    e3_authority_recovers = authority_recovers;
  }

let e3_erasure ?(subjects = 300) ?(erase_fraction = 0.10) () =
  let n_victims = max 1 (int_of_float (float_of_int subjects *. erase_fraction)) in
  let victims = List.init n_victims (fun k -> k * subjects / n_victims) in
  [
    e3_baseline_system ~subjects ~victims ~secure:false ~scrub:false;
    e3_baseline_system ~subjects ~victims ~secure:true ~scrub:false;
    e3_baseline_system ~subjects ~victims ~secure:true ~scrub:true;
    e3_rgpdos_system ~subjects ~victims;
  ]

let render_e3 rows =
  "E3: right to be forgotten — forensic scan after deletion\n"
  ^ Table.render
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      ~header:
        [ "system"; "deleted"; "subjects leaked"; "sim ms"; "authority escrow" ]
      (List.map
         (fun r ->
           [
             r.e3_system; string_of_int r.e3_deleted;
             string_of_int r.e3_leaked_subjects; fmt_f r.e3_sim_ms;
             (if r.e3_authority_recovers then "recovers plaintext" else "n/a");
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E4                                                                 *)

type e4_row = {
  e4_records_per_subject : int;
  e4_sim_us : float;
  e4_export_complete : bool;
}

let count_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

let e4_access ?(records_per_subject = [ 1; 10; 50; 200; 1_000 ]) () =
  List.map
    (fun rps ->
      let m = boot_sized ~seed:401L ~n:(rps + 64) () in
      let prng = Prng.create ~seed:402L () in
      let base = List.hd (Population.generate prng ~n:1) in
      for k = 0 to rps - 1 do
        ignore k;
        match
          Machine.collect m ~type_name:Population.type_name ~subject:"sub-alice"
            ~interface:"web_form"
            ~record:(Population.record_of base)
            ~consents:base.Population.consent_profile ()
        with
        | Ok _ -> ()
        | Error e -> failwith ("e4: " ^ e)
      done;
      let clock = Machine.clock m in
      let t0 = Clock.now clock in
      let response =
        match Machine.right_of_access m ~subject:"sub-alice" with
        | Ok r -> r
        | Error e -> failwith ("e4: " ^ e)
      in
      {
        e4_records_per_subject = rps;
        e4_sim_us = float_of_int (Clock.now clock - t0) /. 1e3;
        e4_export_complete = count_sub response "\"id\":" = rps;
      })
    records_per_subject

let render_e4 rows =
  "E4: right of access — structured export latency vs PD volume\n"
  ^ Table.render
      ~align:[ Table.Right; Table.Right; Table.Left ]
      ~header:[ "records/subject"; "sim us"; "complete" ]
      (List.map
         (fun r ->
           [
             string_of_int r.e4_records_per_subject; fmt_f r.e4_sim_us;
             string_of_bool r.e4_export_complete;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E5                                                                 *)

type e5_row = {
  e5_records : int;
  e5_expired : int;
  e5_removed : int;
  e5_sim_ms : float;
}

let e5_ttl ?(sizes = [ 500; 1_000; 2_000; 4_000 ]) ?(expired_fraction = 0.3) () =
  List.map
    (fun n ->
      let m = boot_sized ~seed:501L ~n:(n * 2) () in
      let prng = Prng.create ~seed:502L () in
      let n_old = int_of_float (float_of_int n *. expired_fraction) in
      let old_people = Population.generate prng ~n:n_old in
      collect_population m old_people;
      (* person TTL is 2Y: jump past it, then add fresh PD *)
      Clock.advance (Machine.clock m) ((2 * Clock.year) + Clock.day);
      let fresh_people =
        List.map
          (fun (p : Population.person) ->
            { p with Population.subject_id = "fresh-" ^ p.Population.subject_id })
          (Population.generate prng ~n:(n - n_old))
      in
      collect_population m fresh_people;
      let clock = Machine.clock m in
      let t0 = Clock.now clock in
      let report = Machine.sweep_ttl m () in
      {
        e5_records = n;
        e5_expired = report.Ttl_sweeper.expired;
        e5_removed = report.Ttl_sweeper.removed;
        e5_sim_ms = float_of_int (Clock.now clock - t0) /. 1e6;
      })
    sizes

let render_e5 rows =
  "E5: storage-limitation (TTL) sweep cost vs DBFS size\n"
  ^ Table.render
      ~align:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:[ "records"; "expired"; "removed"; "sim ms" ]
      (List.map
         (fun r ->
           [
             string_of_int r.e5_records; string_of_int r.e5_expired;
             string_of_int r.e5_removed; fmt_f r.e5_sim_ms;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E6                                                                 *)

type e6_row = {
  e6_grant_rate : float;
  e6_consumed : int;
  e6_filtered : int;
  e6_sim_us : float;
}

let e6_filter ?(subjects = 1_000) ?(rates = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) () =
  List.map
    (fun rate ->
      let m = boot_sized ~seed:601L ~n:subjects () in
      let prng = Prng.create ~seed:602L () in
      let people = Population.generate prng ~n:subjects in
      List.iter
        (fun (p : Population.person) ->
          let analytics =
            if Prng.bernoulli prng rate then Membrane.View "v_ano"
            else Membrane.Denied
          in
          match
            Machine.collect m ~type_name:Population.type_name
              ~subject:p.Population.subject_id ~interface:"web_form"
              ~record:(Population.record_of p)
              ~consents:[ ("service", Membrane.All); ("analytics", analytics) ]
              ()
          with
          | Ok _ -> ()
          | Error e -> failwith ("e6: " ^ e))
        people;
      register_reader m ~name:"e6_reader" ~purpose:"analytics"
        ~touches:[ (Population.type_name, [ "year_of_birth" ]) ];
      let clock = Machine.clock m in
      let t0 = Clock.now clock in
      match
        Machine.invoke m ~name:"e6_reader"
          ~target:(Ded.All_of_type Population.type_name) ()
      with
      | Error e -> failwith ("e6: " ^ e)
      | Ok outcome ->
          {
            e6_grant_rate = rate;
            e6_consumed = outcome.Ded.consumed;
            e6_filtered = outcome.Ded.filtered;
            e6_sim_us = float_of_int (Clock.now clock - t0) /. 1e3;
          })
    rates

let render_e6 rows =
  "E6: membrane filter — consent selectivity sweep (purpose 'analytics')\n"
  ^ Table.render
      ~align:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:[ "grant rate"; "consumed"; "filtered"; "sim us" ]
      (List.map
         (fun r ->
           [
             fmt_f r.e6_grant_rate; string_of_int r.e6_consumed;
             string_of_int r.e6_filtered; fmt_f r.e6_sim_us;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E7                                                                 *)

type e7_result = {
  e7_baseline_dangling_reads : int;
  e7_baseline_leaks : int;
  e7_rgpdos_attacks : int;
  e7_rgpdos_leaks : int;
  e7_rgpdos_blocked : int;
}

let e7_leak ?(attacks = 200) () =
  (* baseline: use-after-free across purposes in one address space *)
  let heap = Process_model.create ~slots:8 in
  let dangling = ref 0 in
  for i = 0 to attacks - 1 do
    let p1 = Process_model.alloc heap ~owner:"purpose1" ~data:(Printf.sprintf "pd1-%d" i) in
    Process_model.free heap p1;
    let p2 = Process_model.alloc heap ~owner:"purpose2" ~data:(Printf.sprintf "pd2-%d" i) in
    ignore (Process_model.read heap p1);
    incr dangling;
    Process_model.free heap p2
  done;
  let baseline_leaks = Process_model.cross_owner_reads heap in
  (* rgpdOS: the same intent, attempted through the only available door *)
  let m = boot_sized ~seed:701L ~n:64 () in
  let prng = Prng.create ~seed:702L () in
  collect_population m (Population.generate prng ~n:16);
  let exfil_impl (ctx : Processing.context) _inputs =
    match ctx.Processing.syscall Syscall.Sys_net_send with
    | Ok () -> Ok (Processing.value_output (Value.VString "exfiltrated"))
    | Error _ -> Ok Processing.no_output
  in
  let leak_return_impl _ctx inputs =
    match inputs with
    | (i : Processing.pd_input) :: _ -> (
        match Record.get i.Processing.record "name" with
        | Some v -> Ok (Processing.value_output v)
        | None -> Ok Processing.no_output)
    | [] -> Ok Processing.no_output
  in
  let register name impl =
    let spec =
      match
        Machine.make_processing m ~name ~purpose:"service"
          ~touches:[ (Population.type_name, [ "name" ]) ]
          impl
      with
      | Ok s -> s
      | Error e -> failwith ("e7: " ^ e)
    in
    ignore (Result.get_ok (Machine.register_processing m spec))
  in
  register "e7_exfil" exfil_impl;
  register "e7_leak_return" leak_return_impl;
  let rgpd_attacks = ref 0 and rgpd_leaks = ref 0 and blocked = ref 0 in
  for i = 0 to attacks - 1 do
    let name = if i mod 2 = 0 then "e7_exfil" else "e7_leak_return" in
    incr rgpd_attacks;
    match
      Machine.invoke m ~name ~target:(Ded.All_of_type Population.type_name) ()
    with
    | Ok outcome ->
        (* the attack "succeeded" only if PD actually escaped *)
        (match outcome.Ded.value with
        | Some (Value.VString _) -> incr rgpd_leaks
        | _ -> ())
    | Error _ -> incr blocked
  done;
  {
    e7_baseline_dangling_reads = !dangling;
    e7_baseline_leaks = baseline_leaks;
    e7_rgpdos_attacks = !rgpd_attacks;
    e7_rgpdos_leaks = !rgpd_leaks;
    e7_rgpdos_blocked = !blocked;
  }

let render_e7 r =
  "E7: cross-purpose PD leak attempts\n"
  ^ Table.render
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~header:[ "system"; "attempts"; "leaks"; "blocked" ]
      [
        [
          "process-centric baseline (UAF)";
          string_of_int r.e7_baseline_dangling_reads;
          string_of_int r.e7_baseline_leaks;
          "0";
        ];
        [
          "rgpdOS (data-centric DED)";
          string_of_int r.e7_rgpdos_attacks;
          string_of_int r.e7_rgpdos_leaks;
          string_of_int r.e7_rgpdos_blocked;
        ];
      ]

(* ------------------------------------------------------------------ *)
(* E8                                                                 *)

type e8_result = {
  e8_submitted : int;
  e8_accepted : int;
  e8_rejected_no_purpose : int;
  e8_alerted : int;
  e8_misclassified : int;
}

let e8_register () =
  let m = boot_sized ~seed:801L ~n:64 () in
  let noop _ _ = Ok Processing.no_output in
  let mk name purpose touches =
    match Machine.make_processing m ~name ~purpose ~touches noop with
    | Ok s -> s
    | Error e -> failwith ("e8: " ^ e)
  in
  (* (spec, ground truth) *)
  let corpus =
    [
      (mk "e8_ok_whole" "service" [ (Population.type_name, [ "name"; "email" ]) ], `Accept);
      (mk "e8_ok_view" "analytics" [ (Population.type_name, [ "year_of_birth" ]) ], `Accept);
      (mk "e8_ok_empty" "marketing" [], `Accept);
      (Processing.make ~name:"e8_no_purpose" noop, `Reject);
      (mk "e8_overreach" "analytics" [ (Population.type_name, [ "email" ]) ], `Alert);
      (mk "e8_wrong_type" "analytics" [ ("invoice", [ "total" ]) ], `Alert);
    ]
  in
  let accepted = ref 0 and rejected = ref 0 and alerted = ref 0 and wrong = ref 0 in
  List.iter
    (fun (spec, truth) ->
      let verdict =
        match Machine.register_processing m spec with
        | Ok Ps.Registered ->
            incr accepted;
            `Accept
        | Ok (Ps.Registered_with_alert _) ->
            incr alerted;
            `Alert
        | Error _ ->
            incr rejected;
            `Reject
      in
      if verdict <> truth then incr wrong)
    corpus;
  {
    e8_submitted = List.length corpus;
    e8_accepted = !accepted;
    e8_rejected_no_purpose = !rejected;
    e8_alerted = !alerted;
    e8_misclassified = !wrong;
  }

let render_e8 r =
  Printf.sprintf
    "E8: ps_register verdicts on a labelled corpus\n%s"
    (Table.render
       ~align:[ Table.Left; Table.Right ]
       ~header:[ "outcome"; "count" ]
       [
         [ "submitted"; string_of_int r.e8_submitted ];
         [ "accepted"; string_of_int r.e8_accepted ];
         [ "rejected (no purpose)"; string_of_int r.e8_rejected_no_purpose ];
         [ "alerted (purpose mismatch)"; string_of_int r.e8_alerted ];
         [ "misclassified vs ground truth"; string_of_int r.e8_misclassified ];
       ])

(* ------------------------------------------------------------------ *)
(* E9                                                                 *)

type e9_row = {
  e9_config : string;
  e9_pd_jobs : int;
  e9_npd_jobs : int;
  e9_makespan_ms : float;
  e9_general_busy_ms : float;
  e9_rgpd_busy_ms : float;
  e9_pd_on_general : bool;
}

let e9_one_config ?(cores = 1) ~rgpd_mcpu ~general_mcpu ~jobs () =
  let clock = Clock.create () in
  let resources = Resource.create ~cpu_millis:8_000 ~mem_pages:100_000 in
  let claim owner cpu =
    Result.get_ok (Resource.claim resources ~owner ~cpu_millis:cpu ~mem_pages:1_000)
  in
  let general =
    Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
      ~partition:(claim "general" general_mcpu) ~policy:Syscall.Policy.allow_all
      ~cores ()
  in
  let rgpd =
    Subkernel.make ~id:"rgpdos" ~kind:Subkernel.Rgpd
      ~partition:(claim "rgpdos" rgpd_mcpu) ~policy:Syscall.Policy.builtin_policy
      ~cores ()
  in
  let io =
    Subkernel.make ~id:"io-pd" ~kind:(Subkernel.Io_driver "nvme0")
      ~partition:(claim "io-pd" 500) ~policy:Syscall.Policy.allow_all ()
  in
  let sched = Scheduler.create ~clock ~kernels:[ general; rgpd; io ] in
  let pd_jobs = jobs / 2 and npd_jobs = jobs - (jobs / 2) in
  (* the separation probe: a PD job must be unplaceable without a PD kernel *)
  let pd_on_general =
    let lone = Scheduler.create ~clock ~kernels:[ general ] in
    Result.is_ok
      (Scheduler.submit lone
         { Scheduler.job_id = "probe"; data_class = Scheduler.Pd; work = 1 })
  in
  for i = 0 to pd_jobs - 1 do
    ignore
      (Scheduler.submit sched
         {
           Scheduler.job_id = Printf.sprintf "pd%d" i;
           data_class = Scheduler.Pd;
           work = 2_000_000;
         })
  done;
  for i = 0 to npd_jobs - 1 do
    ignore
      (Scheduler.submit sched
         {
           Scheduler.job_id = Printf.sprintf "npd%d" i;
           data_class = Scheduler.Npd;
           work = 2_000_000;
         })
  done;
  let t0 = Clock.now clock in
  Scheduler.run_until_idle sched ();
  let busy = Scheduler.kernel_busy_time sched in
  {
    e9_config =
      Printf.sprintf "rgpd=%dmcpu general=%dmcpu cores=%d" rgpd_mcpu
        general_mcpu cores;
    e9_pd_jobs = pd_jobs;
    e9_npd_jobs = npd_jobs;
    e9_makespan_ms = float_of_int (Clock.now clock - t0) /. 1e6;
    e9_general_busy_ms = float_of_int (List.assoc "general" busy) /. 1e6;
    e9_rgpd_busy_ms = float_of_int (List.assoc "rgpdos" busy) /. 1e6;
    e9_pd_on_general = pd_on_general;
  }

let e9_kernels ?(jobs = 100) () =
  [
    e9_one_config ~rgpd_mcpu:1_500 ~general_mcpu:6_000 ~jobs ();
    e9_one_config ~rgpd_mcpu:3_750 ~general_mcpu:3_750 ~jobs ();
    e9_one_config ~rgpd_mcpu:6_000 ~general_mcpu:1_500 ~jobs ();
    (* the same balanced split under multicore: busy time is invariant,
       the makespan shrinks by the critical-path ratio *)
    e9_one_config ~cores:2 ~rgpd_mcpu:3_750 ~general_mcpu:3_750 ~jobs ();
    e9_one_config ~cores:4 ~rgpd_mcpu:3_750 ~general_mcpu:3_750 ~jobs ();
  ]

let render_e9 rows =
  "E9: purpose-kernel partitioning — PD/NPD job stream, dynamic CPU split\n"
  ^ Table.render
      ~align:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left ]
      ~header:
        [ "config"; "PD jobs"; "NPD jobs"; "makespan ms"; "general busy ms";
          "rgpd busy ms"; "PD placeable on general?" ]
      (List.map
         (fun r ->
           [
             r.e9_config; string_of_int r.e9_pd_jobs; string_of_int r.e9_npd_jobs;
             fmt_f r.e9_makespan_ms; fmt_f r.e9_general_busy_ms;
             fmt_f r.e9_rgpd_busy_ms;
             (if r.e9_pd_on_general then "YES (violation!)" else "no");
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E11                                                                *)

type e11_result = {
  e11_subjects : int;
  e11_copies : int;
  e11_flips : int;
  e11_membranes_updated : int;
  e11_sim_ms : float;
  e11_inconsistent_copies : int;
}

let e11_consent_churn ?(subjects = 300) ?(copy_fraction = 0.2) ?(flips = 200) () =
  let m = boot_sized ~seed:1101L ~n:(subjects * 2) () in
  let prng = Prng.create ~seed:1102L () in
  let people = Population.generate prng ~n:subjects in
  collect_population m people;
  let dbfs = Machine.dbfs m in
  (* duplicate a fraction of the PD (the copy built-in keeps lineage) *)
  let n_copies = int_of_float (float_of_int subjects *. copy_fraction) in
  let all_pds =
    match Dbfs.list_pds dbfs ~actor:"ded" Population.type_name with
    | Ok ids -> Array.of_list ids
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  for i = 0 to n_copies - 1 do
    match Dbfs.copy_pd dbfs ~actor:"ded" all_pds.(i) with
    | Ok _ -> ()
    | Error e -> failwith ("e11 copy: " ^ Dbfs.error_to_string e)
  done;
  (* churn: random subjects flip analytics consent back and forth *)
  let pop = Array.of_list people in
  let zipf = Prng.Zipf.create ~n:subjects ~theta:0.99 in
  let clock = Machine.clock m in
  let t0 = Clock.now clock in
  let updated = ref 0 in
  for _ = 1 to flips do
    let subject = pop.(Prng.Zipf.sample zipf prng).Population.subject_id in
    let scope =
      if Prng.bool prng then Membrane.View "v_ano" else Membrane.Denied
    in
    match Machine.set_consent m ~subject ~purpose:"analytics" scope with
    | Ok n -> updated := !updated + n
    | Error e -> failwith ("e11 flip: " ^ e)
  done;
  let sim_ms = float_of_int (Clock.now clock - t0) /. 1e6 in
  (* verify: every entry must agree with its lineage root on 'analytics' *)
  let consent_of pd_id =
    match Dbfs.get_membrane dbfs ~actor:"ded" pd_id with
    | Ok mem ->
        (Membrane.lineage_root mem,
         List.assoc_opt "analytics" mem.Membrane.consents)
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  let roots = Hashtbl.create 64 in
  let ids =
    match Dbfs.list_pds dbfs ~actor:"ded" Population.type_name with
    | Ok ids -> ids
    | Error e -> failwith (Dbfs.error_to_string e)
  in
  List.iter
    (fun pd_id ->
      let root, consent = consent_of pd_id in
      if not (Hashtbl.mem roots root) then Hashtbl.replace roots root consent)
    ids;
  let inconsistent =
    List.length
      (List.filter
         (fun pd_id ->
           let root, consent = consent_of pd_id in
           Hashtbl.find roots root <> consent)
         ids)
  in
  {
    e11_subjects = subjects;
    e11_copies = n_copies;
    e11_flips = flips;
    e11_membranes_updated = !updated;
    e11_sim_ms = sim_ms;
    e11_inconsistent_copies = inconsistent;
  }

let render_e11 r =
  Printf.sprintf
    "E11: consent churn with live copies (lineage propagation)\n%s"
    (Table.render
       ~align:[ Table.Left; Table.Right ]
       ~header:[ "metric"; "value" ]
       [
         [ "subjects"; string_of_int r.e11_subjects ];
         [ "copies"; string_of_int r.e11_copies ];
         [ "consent flips"; string_of_int r.e11_flips ];
         [ "membranes updated"; string_of_int r.e11_membranes_updated ];
         [ "simulated ms"; fmt_f r.e11_sim_ms ];
         [ "inconsistent copies after churn"; string_of_int r.e11_inconsistent_copies ];
       ])

(* ------------------------------------------------------------------ *)
(* A1                                                                 *)

type a1_row = {
  a1_mode : string;
  a1_grant_rate : float;
  a1_sim_us : float;
  a1_overread : int;
}

let a1_fetch_mode ?(subjects = 500) ?(rates = [ 0.1; 0.5; 0.9 ]) () =
  List.concat_map
    (fun rate ->
      List.map
        (fun (mode, mode_name) ->
          let m = boot_sized ~seed:901L ~n:subjects () in
          let prng = Prng.create ~seed:902L () in
          let people = Population.generate prng ~n:subjects in
          List.iter
            (fun (p : Population.person) ->
              let analytics =
                if Prng.bernoulli prng rate then Membrane.View "v_ano"
                else Membrane.Denied
              in
              match
                Machine.collect m ~type_name:Population.type_name
                  ~subject:p.Population.subject_id ~interface:"web_form"
                  ~record:(Population.record_of p)
                  ~consents:
                    [ ("service", Membrane.All); ("analytics", analytics) ]
                  ()
              with
              | Ok _ -> ()
              | Error e -> failwith ("a1: " ^ e))
            people;
          register_reader m ~name:"a1_reader" ~purpose:"analytics"
            ~touches:[ (Population.type_name, [ "year_of_birth" ]) ];
          let clock = Machine.clock m in
          let t0 = Clock.now clock in
          match
            Machine.invoke m ~fetch_mode:mode ~name:"a1_reader"
              ~target:(Ded.All_of_type Population.type_name) ()
          with
          | Error e -> failwith ("a1: " ^ e)
          | Ok outcome ->
              {
                a1_mode = mode_name;
                a1_grant_rate = rate;
                a1_sim_us = float_of_int (Clock.now clock - t0) /. 1e3;
                a1_overread = outcome.Ded.overread;
              })
        [ (Ded.Two_phase, "two-phase"); (Ded.Single_phase, "single-phase") ])
    rates

let render_a1 rows =
  "A1: ablation — two-phase membrane filtering vs single-phase fetching\n"
  ^ Table.render
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~header:[ "mode"; "grant rate"; "sim us"; "PD overread" ]
      (List.map
         (fun r ->
           [
             r.a1_mode; fmt_f r.a1_grant_rate; fmt_f r.a1_sim_us;
             string_of_int r.a1_overread;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* A2                                                                 *)

type a2_row = {
  a2_location : string;
  a2_cpu_cost_us : float;
  a2_sim_ms : float;
}

let a2_placement ?(subjects = 1_000) ?(cpu_costs_ns = [ 1_000; 10_000; 50_000 ]) () =
  List.concat_map
    (fun cpu_cost ->
      List.map
        (fun (location, location_name) ->
          let m = boot_sized ~seed:951L ~n:subjects () in
          let prng = Prng.create ~seed:952L () in
          collect_population m (Population.generate prng ~n:subjects);
          let spec =
            match
              Machine.make_processing m ~name:"a2_reader" ~purpose:"service"
                ~touches:[ (Population.type_name, [ "name" ]) ]
                ~cpu_cost_per_record:cpu_cost
                ~shard_reduce:Processing.reduce_int_sum counting_reader
            with
            | Ok s -> s
            | Error e -> failwith ("a2: " ^ e)
          in
          ignore (Result.get_ok (Machine.register_processing m spec));
          let clock = Machine.clock m in
          let t0 = Clock.now clock in
          (match
             Machine.invoke m ~location ~name:"a2_reader"
               ~target:(Ded.All_of_type Population.type_name) ()
           with
          | Ok _ -> ()
          | Error e -> failwith ("a2: " ^ e));
          {
            a2_location = location_name;
            a2_cpu_cost_us = float_of_int cpu_cost /. 1e3;
            a2_sim_ms = float_of_int (Clock.now clock - t0) /. 1e6;
          })
        [ (Ded.Host, "host"); (Ded.Pim, "pim"); (Ded.Pis, "pis") ])
    cpu_costs_ns

let render_a2 rows =
  "A2: ablation — DED placement (host vs processing-in-memory/-storage)\n"
  ^ Table.render
      ~align:[ Table.Left; Table.Right; Table.Right ]
      ~header:[ "location"; "compute us/record"; "sim ms" ]
      (List.map
         (fun r ->
           [ r.a2_location; fmt_f r.a2_cpu_cost_us; fmt_f r.a2_sim_ms ])
         rows)

(* ------------------------------------------------------------------ *)
(* E10                                                                *)

type e10_row = {
  e10_entries : int;
  e10_verify_wall_ms : float;
  e10_tamper_detected : bool;
}

let e10_audit ?(sizes = [ 100; 1_000; 10_000; 50_000 ]) () =
  List.map
    (fun n ->
      let log = Audit_log.create () in
      for i = 0 to n - 1 do
        ignore
          (Audit_log.append log ~now:i ~actor:"ded"
             (Audit_log.Processed
                {
                  purpose = "service";
                  inputs = [ Printf.sprintf "pd-%d" i ];
                  produced = [];
                }))
      done;
      let t0 = Sys.time () in
      let ok = Audit_log.verify log = Ok () in
      let wall_ms = (Sys.time () -. t0) *. 1e3 in
      if not ok then failwith "e10: clean chain failed to verify";
      Audit_log.unsafe_tamper log ~seq:(n / 2) ~actor:"attacker";
      let tampered = Audit_log.verify log = Error (n / 2) in
      { e10_entries = n; e10_verify_wall_ms = wall_ms; e10_tamper_detected = tampered })
    sizes

let render_e10 rows =
  "E10: audit-chain verification cost and tamper detection\n"
  ^ Table.render
      ~align:[ Table.Right; Table.Right; Table.Left ]
      ~header:[ "entries"; "verify wall ms"; "tamper detected" ]
      (List.map
         (fun r ->
           [
             string_of_int r.e10_entries; fmt_f r.e10_verify_wall_ms;
             string_of_bool r.e10_tamper_detected;
           ])
         rows)

(* ------------------------------------------------------------------ *)
(* E-index: secondary-index pushdown vs full-type scans               *)

type eidx_select_row = {
  eidx_population : int;
  eidx_probe : string;             (** rendered predicate *)
  eidx_selectivity_pct : float;    (** designed match fraction, percent *)
  eidx_matches : int;
  eidx_scan_ns : int;              (** [~use_indexes:false] *)
  eidx_index_ns : int;             (** [~use_indexes:true] *)
  eidx_speedup : float;
}

type eidx_ttl_row = {
  eidx_ttl_population : int;
  eidx_ttl_expired : int;
  eidx_ttl_full_ns : int;          (** legacy full membrane scan *)
  eidx_ttl_incr_ns : int;          (** expiry-queue incremental sweep *)
  eidx_ttl_speedup : float;
}

type eidx_result = {
  eidx_select : eidx_select_row list;
  eidx_ttl : eidx_ttl_row list;
}

(* A type built for exact selectivities: record i carries i mod 1000,
   i mod 100 and i mod 10 in three indexed int fields, so an Eq probe on
   one of them matches 0.1% / 1% / 10% of any population that is a
   multiple of 1000.  The unindexed payload string keeps the full-scan
   cost honest (records occupy real blocks). *)
let eidx_schema () =
  match
    Schema.make ~name:"sample"
      ~fields:
        [
          { Schema.fname = "permille"; ftype = Value.TInt; required = true };
          { Schema.fname = "centile"; ftype = Value.TInt; required = true };
          { Schema.fname = "decile"; ftype = Value.TInt; required = true };
          { Schema.fname = "payload"; ftype = Value.TString; required = true };
        ]
      ~default_consents:[ ("service", Membrane.All) ]
      ~collection:[ ("web_form", "sample_form.html") ]
      ~indexed_fields:[ "permille"; "centile"; "decile" ] ()
  with
  | Ok s -> s
  | Error e -> failwith ("e_index: schema: " ^ e)

let eidx_boot ~n =
  let clock = Clock.create () in
  let config =
    {
      Block_device.default_config with
      Block_device.block_count = max 16_384 ((n * 8) + 4_096);
    }
  in
  let dev = Block_device.create ~config ~clock () in
  let t = Dbfs.format dev ~journal_blocks:256 in
  let schema = eidx_schema () in
  (match Dbfs.create_type t ~actor:"ded" schema with
  | Ok () -> ()
  | Error e -> failwith ("e_index: " ^ Dbfs.error_to_string e));
  for i = 0 to n - 1 do
    let subject = Printf.sprintf "sub-%06d" i in
    let record =
      [
        ("permille", Value.VInt (i mod 1000));
        ("centile", Value.VInt (i mod 100));
        ("decile", Value.VInt (i mod 10));
        ("payload", Value.VString (Printf.sprintf "row %06d padding text" i));
      ]
    in
    match
      Dbfs.insert t ~actor:"ded" ~subject ~type_name:"sample" ~record
        ~membrane_of:(fun ~pd_id ->
          Membrane.make ~pd_id ~type_name:"sample" ~subject_id:subject
            ~origin:schema.Schema.default_origin
            ~consents:schema.Schema.default_consents
            ~created_at:(Clock.now clock)
            ~sensitivity:schema.Schema.default_sensitivity
            ~collection:schema.Schema.collection ())
    with
    | Ok _ -> ()
    | Error e -> failwith ("e_index: insert: " ^ Dbfs.error_to_string e)
  done;
  (t, clock)

let eidx_probes =
  [
    (0.1, Query.Eq ("permille", Value.VInt 7));
    (1.0, Query.Eq ("centile", Value.VInt 7));
    (10.0, Query.Eq ("decile", Value.VInt 7));
    (100.0, Query.True);
  ]

let e_index_select ?(sizes = [ 500; 2_000; 8_000 ]) () =
  List.concat_map
    (fun n ->
      let t, clock = eidx_boot ~n in
      List.map
        (fun (sel_pct, pred) ->
          let run ~use_indexes =
            let t0 = Clock.now clock in
            match Dbfs.select t ~actor:"ded" ~use_indexes "sample" pred with
            | Ok ids -> (ids, Clock.now clock - t0)
            | Error e -> failwith ("e_index: " ^ Dbfs.error_to_string e)
          in
          let scan_ids, scan_ns = run ~use_indexes:false in
          let index_ids, index_ns = run ~use_indexes:true in
          if scan_ids <> index_ids then
            failwith
              ("e_index: pushdown result mismatch on " ^ Query.to_string pred);
          {
            eidx_population = n;
            eidx_probe = Query.to_string pred;
            eidx_selectivity_pct = sel_pct;
            eidx_matches = List.length index_ids;
            eidx_scan_ns = scan_ns;
            eidx_index_ns = index_ns;
            eidx_speedup =
              (* a trivial probe (True) is free on both paths *)
              (if scan_ns = 0 && index_ns = 0 then 1.0
               else float_of_int scan_ns /. float_of_int (max 1 index_ns));
          })
        eidx_probes)
    sizes

(* Same aged-population shape as E5, but the sweep is timed twice from
   identical boots: once forced through the legacy full membrane scan,
   once through the TTL expiry queue.  The expired cohort is held at a
   fixed [expired] count while the population grows, so the queue path's
   O(expired) cost stays flat and the measured speedup widens with
   O(population) — the scaling claim itself. *)
let e_index_ttl ?(sizes = [ 500; 2_000; 4_000 ]) ?(expired = 25) () =
  let boot_aged ~n =
    let m = boot_sized ~seed:1201L ~n:(n * 2) () in
    let prng = Prng.create ~seed:1202L () in
    let n_old = max 1 (min expired n) in
    let old_people = Population.generate prng ~n:n_old in
    collect_population m old_people;
    Clock.advance (Machine.clock m) ((2 * Clock.year) + Clock.day);
    let fresh_people =
      List.map
        (fun (p : Population.person) ->
          { p with Population.subject_id = "fresh-" ^ p.Population.subject_id })
        (Population.generate prng ~n:(n - n_old))
    in
    collect_population m fresh_people;
    m
  in
  List.map
    (fun n ->
      let time_sweep ~incremental =
        let m = boot_aged ~n in
        let clock = Machine.clock m in
        let t0 = Clock.now clock in
        let report = Machine.sweep_ttl m ~incremental () in
        (report, Clock.now clock - t0)
      in
      let full_report, full_ns = time_sweep ~incremental:false in
      let incr_report, incr_ns = time_sweep ~incremental:true in
      if full_report.Ttl_sweeper.removed <> incr_report.Ttl_sweeper.removed
      then failwith "e_index: incremental sweep removed a different set";
      {
        eidx_ttl_population = n;
        eidx_ttl_expired = incr_report.Ttl_sweeper.expired;
        eidx_ttl_full_ns = full_ns;
        eidx_ttl_incr_ns = incr_ns;
        eidx_ttl_speedup = float_of_int full_ns /. float_of_int (max 1 incr_ns);
      })
    sizes

let e_index ?sizes ?ttl_sizes () =
  {
    eidx_select = e_index_select ?sizes ();
    eidx_ttl = e_index_ttl ?sizes:ttl_sizes ();
  }

let render_e_index r =
  "E-index: predicate pushdown vs full-type scan (Dbfs.select)\n"
  ^ Table.render
      ~align:
        [
          Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right;
        ]
      ~header:
        [
          "population"; "probe"; "sel %"; "matches"; "scan sim us";
          "index sim us"; "speedup";
        ]
      (List.map
         (fun row ->
           [
             string_of_int row.eidx_population; row.eidx_probe;
             fmt_f row.eidx_selectivity_pct; string_of_int row.eidx_matches;
             fmt_f (float_of_int row.eidx_scan_ns /. 1e3);
             fmt_f (float_of_int row.eidx_index_ns /. 1e3);
             fmt_f row.eidx_speedup ^ "x";
           ])
         r.eidx_select)
  ^ "\nE-index: TTL sweep, full membrane scan vs expiry queue\n"
  ^ Table.render
      ~align:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~header:
        [ "population"; "expired"; "full sim us"; "incr sim us"; "speedup" ]
      (List.map
         (fun row ->
           [
             string_of_int row.eidx_ttl_population;
             string_of_int row.eidx_ttl_expired;
             fmt_f (float_of_int row.eidx_ttl_full_ns /. 1e3);
             fmt_f (float_of_int row.eidx_ttl_incr_ns /. 1e3);
             fmt_f row.eidx_ttl_speedup ^ "x";
           ])
         r.eidx_ttl)
