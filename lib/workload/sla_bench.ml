module Clock = Rgpdos_util.Clock
module Prng = Rgpdos_util.Prng
module Stats = Rgpdos_util.Stats
module Pool = Rgpdos_util.Pool
module Block_device = Rgpdos_block.Block_device
module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Audit_log = Rgpdos_audit.Audit_log
module Scheduler = Rgpdos_kernel.Scheduler

type policy = Fifo | Edf

let policy_label = function Fifo -> "fifo" | Edf -> "edf"

type right = Access | Erase | Portability | Breach | Revoke

let right_label = function
  | Access -> "art15"
  | Erase -> "art17"
  | Portability -> "art20"
  | Breach -> "art33"
  | Revoke -> "art7"

let ms = 1_000_000

(* The 50 ms interactive SLO sits above the scan's longest
   non-preemptible section: stages 1-4 of the DED pipeline (type2req,
   membrane load, filter, data load) run to completion before the first
   shard-wave yield point exists, and at full scale that prefix alone is
   ~22 simulated ms.  No dispatcher can promise less than
   prefix + one wave + the service of earlier-deadline rights. *)
let deadline_ns = function
  | Access | Erase | Portability -> 50 * ms
  | Revoke -> 100 * ms
  | Breach -> 250 * ms

(* a storm burst shares one drain deadline scaled to its size, so "all
   applied by" is the SLO for a burst, not a flat per-request latency.  A
   withdrawal rewrites only the subject's own membranes (copies included)
   and journals them — the full-scale burst of 200 drains in about 27
   simulated ms — so the per-item budget is loose *)
let storm_budget_per_item = 25 * ms
let storm_deadline ~n = deadline_ns Revoke + (n * storm_budget_per_item)

let scan_cost_per_record = 50_000
let breach_cost_per_entry = 500
let scan_name = "sla_scan"

(* finer than Ded.default_grain so a scan spans several shard waves even
   at smoke scale (one wave = 8 cores x grain records; the yield point
   only exists between waves) *)
let scan_grain = 16

type right_stats = {
  rs_label : string;
  rs_count : int;
  rs_errors : int;
  rs_p50_ns : int;
  rs_p99_ns : int;
  rs_max_ns : int;
  rs_misses : int;
  rs_deadline_ns : int;
}

type side = {
  sd_policy : string;
  sd_batch_jobs : int;
  sd_batch_errors : int;
  sd_sim_ns : int;
  sd_wall_s : float;
  sd_counters : (string * int) list;
  sd_rights : right_stats list;
}

type storm = {
  st_requests : int;
  st_p50_ns : int;
  st_p99_ns : int;
  st_misses : int;
  st_drain_ns : int;
}

type breach = {
  bn_affected : int;
  bn_entries : int;
  bn_latency_ns : int;
  bn_deadline_ns : int;
  bn_met : bool;
}

type result = {
  r_subjects : int;
  r_domains : int;
  r_seed : int64;
  r_batches : int;
  r_batch_every_ns : int;
  r_fifo : side;
  r_edf : side;
  r_improvement : (string * float) list;
  r_storm : storm;
  r_breach : breach;
}

(* ------------------------------------------------------------------ *)
(* machine setup                                                      *)

type sim = {
  machine : Machine.t;
  pool : Pool.t option;
  subjects : string array;
  pd_subject : (string, string) Hashtbl.t;
}

let boot_sim ?pool ~seed ~subjects () =
  let prng = Prng.create ~seed () in
  let population = Population.generate prng ~n:subjects in
  let config =
    {
      Block_device.default_config with
      Block_device.block_count = max 16_384 ((subjects * 8) + 4_096);
    }
  in
  let machine =
    Machine.boot ~seed ~pd_device:config
      ~npd_device:Block_device.default_config ()
  in
  (match Machine.load_declarations machine Population.type_declaration with
  | Ok _ -> ()
  | Error e -> failwith ("sla_bench: declarations: " ^ e));
  let counting _ctx inputs =
    Ok (Processing.value_output (Rgpdos_dbfs.Value.VInt (List.length inputs)))
  in
  (* the saturating batch load: a heavy, shard-decomposable analytics
     pass (50 us of simulated CPU per record) *)
  (match
     Machine.make_processing machine ~name:scan_name ~purpose:"analytics"
       ~touches:[ (Population.type_name, [ "year_of_birth" ]) ]
       ~cpu_cost_per_record:scan_cost_per_record
       ~shard_reduce:Processing.reduce_int_sum counting
   with
  | Error e -> failwith ("sla_bench: make_processing: " ^ e)
  | Ok spec -> (
      match Machine.register_processing machine spec with
      | Ok _ -> ()
      | Error e -> failwith ("sla_bench: register: " ^ e)));
  let pd_subject = Hashtbl.create (2 * subjects) in
  List.iter
    (fun (p : Population.person) ->
      match
        Machine.collect machine ~type_name:Population.type_name
          ~subject:p.Population.subject_id
          ~interface:"web_form:signup_form.html"
          ~record:(Population.record_of p)
          ~consents:p.Population.consent_profile ()
      with
      | Ok pd_id -> Hashtbl.replace pd_subject pd_id p.Population.subject_id
      | Error e -> failwith ("sla_bench: collect: " ^ e))
    population;
  let subjects_arr =
    Array.of_list (List.map (fun p -> p.Population.subject_id) population)
  in
  { machine; pool; subjects = subjects_arr; pd_subject }

let run_scan ?yield sim =
  let yield = Option.value ~default:(fun () -> ()) yield in
  Machine.invoke sim.machine ?pool:sim.pool ~grain:scan_grain ~yield
    ~name:scan_name
    ~target:(Ded.All_of_type Population.type_name)
    ()

(* Two priming scans: the first warms DBFS caches, the second measures
   the warm simulated service time the open-loop interarrival is derived
   from (saturation needs interarrival < warm service time). *)
let prime sim =
  let clock = Machine.clock sim.machine in
  (match run_scan sim with
  | Ok _ -> ()
  | Error e -> failwith ("sla_bench: priming scan: " ^ e));
  let before = Clock.now clock in
  (match run_scan sim with
  | Ok _ -> ()
  | Error e -> failwith ("sla_bench: priming scan: " ^ e));
  Clock.now clock - before

(* ------------------------------------------------------------------ *)
(* open-loop schedule                                                 *)

type request = {
  rq_right : right;
  rq_subject : string;
  rq_arrival : int;
  rq_deadline : int;
  rq_seq : int;
}

type ev = Ev_batch of { ba : int; bseq : int } | Ev_right of request

let ev_arrival = function
  | Ev_batch b -> b.ba
  | Ev_right r -> r.rq_arrival

let pick_right prng =
  let x = Prng.float prng 1.0 in
  if x < 0.40 then Access
  else if x < 0.70 then Portability
  else if x < 0.95 then Erase
  else Breach

(* mixed schedule: batch scans every [batch_every]; rights as a Poisson
   stream (mean interarrival [batch_every]/8) over Zipf-skewed subjects *)
let gen_schedule ~prng ~subjects ~batches ~batch_every =
  let horizon = batches * batch_every in
  let zipf = Prng.Zipf.create ~n:(Array.length subjects) ~theta:0.99 in
  let rights_mean = float_of_int batch_every /. 8.0 in
  let raw = ref [] in
  let gen = ref 0 in
  let push x =
    raw := (!gen, x) :: !raw;
    incr gen
  in
  for i = 0 to batches - 1 do
    push (`B (i * batch_every))
  done;
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Prng.exponential prng rights_mean;
    let arr = int_of_float !t in
    if arr >= horizon then continue := false
    else begin
      let r = pick_right prng in
      let s = subjects.(Prng.Zipf.sample zipf prng) in
      push (`R (arr, r, s))
    end
  done;
  let arrival_of_raw = function `B a -> a | `R (a, _, _) -> a in
  let sorted =
    List.sort
      (fun (g1, x1) (g2, x2) ->
        match compare (arrival_of_raw x1) (arrival_of_raw x2) with
        | 0 -> compare g1 g2
        | c -> c)
      (List.rev !raw)
  in
  List.mapi
    (fun seq (_, x) ->
      match x with
      | `B a -> Ev_batch { ba = a; bseq = seq }
      | `R (a, r, s) ->
          Ev_right
            {
              rq_right = r;
              rq_subject = s;
              rq_arrival = a;
              rq_deadline = a + deadline_ns r;
              rq_seq = seq;
            })
    sorted

(* ------------------------------------------------------------------ *)
(* the dispatcher                                                     *)

type sim_out = {
  o_side : side;
  o_fins : (right * int) list;  (* (class, relative completion) per right *)
  o_breach_info : (int * int) option;  (* (affected, entries) of last replay *)
}

let replay_breach sim =
  let clock = Machine.clock sim.machine in
  let entries = Audit_log.entries (Machine.audit sim.machine) in
  let n = List.length entries in
  Clock.advance clock (breach_cost_per_entry * n);
  let affected = Hashtbl.create 256 in
  let mark pd_id =
    match Hashtbl.find_opt sim.pd_subject pd_id with
    | Some s -> Hashtbl.replace affected s ()
    | None -> ()
  in
  List.iter
    (fun (e : Audit_log.entry) ->
      match e.Audit_log.event with
      | Audit_log.Processed { inputs; produced; _ } ->
          List.iter mark inputs;
          List.iter mark produced
      | Audit_log.Collected { pd_id; _ } -> mark pd_id
      | _ -> ())
    entries;
  (Hashtbl.length affected, n)

let simulate sim ~policy ~schedule =
  let wall0 = Unix.gettimeofday () in
  let clock = Machine.clock sim.machine in
  let t0 = Clock.now clock in
  let events = ref schedule in
  let pend_rights : request list ref = ref [] in
  let pend_batch : (int * int) Queue.t = Queue.create () in
  let counters = Stats.Counter.create () in
  let max_depth = ref 0 in
  let lats : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let misses : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let errors : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let cell tbl label =
    match Hashtbl.find_opt tbl label with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace tbl label c;
        c
  in
  let icell tbl label =
    match Hashtbl.find_opt tbl label with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace tbl label c;
        c
  in
  let fins = ref [] in
  let breach_info = ref None in
  let batch_jobs = ref 0 and batch_errors = ref 0 in
  let release () =
    let now_rel = Clock.now clock - t0 in
    let rec go () =
      match !events with
      | e :: rest when ev_arrival e <= now_rel ->
          events := rest;
          (match e with
          | Ev_batch b -> Queue.add (b.ba, b.bseq) pend_batch
          | Ev_right r -> pend_rights := r :: !pend_rights);
          go ()
      | _ -> ()
    in
    go ();
    let depth = List.length !pend_rights + Queue.length pend_batch in
    if depth > !max_depth then max_depth := depth
  in
  let take_right () =
    match !pend_rights with
    | [] -> None
    | hd :: tl ->
        let better a b =
          match policy with
          | Fifo -> if a.rq_seq <= b.rq_seq then a else b
          | Edf ->
              if (a.rq_deadline, a.rq_seq) <= (b.rq_deadline, b.rq_seq) then a
              else b
        in
        let best = List.fold_left better hd tl in
        pend_rights :=
          List.filter (fun r -> r.rq_seq <> best.rq_seq) !pend_rights;
        Some best
  in
  let serve_right r =
    let label = right_label r.rq_right in
    Stats.Counter.incr counters "rights_jobs";
    let outcome =
      match r.rq_right with
      | Access ->
          Result.map ignore
            (Machine.right_of_access sim.machine ~subject:r.rq_subject)
      | Erase ->
          Result.map ignore
            (Machine.right_to_erasure sim.machine ~subject:r.rq_subject)
      | Portability ->
          Result.map ignore
            (Machine.right_to_portability sim.machine ~subject:r.rq_subject)
      | Revoke ->
          Result.map ignore
            (Machine.set_consent sim.machine ~subject:r.rq_subject
               ~purpose:"analytics" Rgpdos_membrane.Membrane.Denied)
      | Breach ->
          breach_info := Some (replay_breach sim);
          Ok ()
    in
    (match outcome with
    | Ok () -> ()
    | Error _ -> incr (icell errors label));
    let fin_rel = Clock.now clock - t0 in
    fins := (r.rq_right, fin_rel) :: !fins;
    let c = cell lats label in
    c := float_of_int (fin_rel - r.rq_arrival) :: !c;
    if fin_rel > r.rq_deadline then begin
      incr (icell misses label);
      Stats.Counter.incr counters "deadline_misses"
    end
  in
  (* the shard-wave preemption point: under EDF, pending rights drain in
     deadline order between waves of the in-flight scan *)
  let yield_fn =
    match policy with
    | Fifo -> fun () -> ()
    | Edf ->
        fun () ->
          release ();
          let rec drain () =
            match take_right () with
            | None -> ()
            | Some r ->
                Stats.Counter.incr counters "preemptions";
                serve_right r;
                release ();
                drain ()
          in
          drain ()
  in
  let run_batch () =
    incr batch_jobs;
    match run_scan ~yield:yield_fn sim with
    | Ok _ -> ()
    | Error _ -> incr batch_errors
  in
  let rec loop () =
    release ();
    let have_r = !pend_rights <> [] in
    let have_b = not (Queue.is_empty pend_batch) in
    if (not have_r) && not have_b then
      match !events with
      | [] -> ()
      | e :: _ ->
          let target = t0 + ev_arrival e in
          let now = Clock.now clock in
          if target > now then Clock.advance clock (target - now);
          loop ()
    else begin
      let run_right =
        if not have_r then false
        else if not have_b then true
        else
          match policy with
          | Edf -> true
          | Fifo ->
              let min_rseq =
                List.fold_left
                  (fun acc r -> min acc r.rq_seq)
                  max_int !pend_rights
              in
              let _, bseq = Queue.peek pend_batch in
              min_rseq < bseq
      in
      (if run_right then
         match take_right () with
         | Some r -> serve_right r
         | None -> assert false
       else begin
         ignore (Queue.pop pend_batch);
         run_batch ()
       end);
      loop ()
    end
  in
  loop ();
  Stats.Counter.incr counters ~by:!max_depth "max_queue_depth";
  let right_stats_of label rt =
    let ls = match Hashtbl.find_opt lats label with Some c -> !c | None -> [] in
    let count = List.length ls in
    let m = match Hashtbl.find_opt misses label with Some c -> !c | None -> 0 in
    let e = match Hashtbl.find_opt errors label with Some c -> !c | None -> 0 in
    if count = 0 then
      {
        rs_label = label;
        rs_count = 0;
        rs_errors = e;
        rs_p50_ns = 0;
        rs_p99_ns = 0;
        rs_max_ns = 0;
        rs_misses = m;
        rs_deadline_ns = deadline_ns rt;
      }
    else
      let s = Stats.summarize ls in
      {
        rs_label = label;
        rs_count = count;
        rs_errors = e;
        rs_p50_ns = int_of_float s.Stats.p50;
        rs_p99_ns = int_of_float s.Stats.p99;
        rs_max_ns = int_of_float s.Stats.max;
        rs_misses = m;
        rs_deadline_ns = deadline_ns rt;
      }
  in
  let classes =
    [ Access; Erase; Portability; Breach ]
    @ (if Hashtbl.mem lats (right_label Revoke) then [ Revoke ] else [])
  in
  let rights =
    List.sort
      (fun a b -> compare a.rs_label b.rs_label)
      (List.map (fun rt -> right_stats_of (right_label rt) rt) classes)
  in
  let side =
    {
      sd_policy = policy_label policy;
      sd_batch_jobs = !batch_jobs;
      sd_batch_errors = !batch_errors;
      sd_sim_ns = Clock.now clock - t0;
      sd_wall_s = Unix.gettimeofday () -. wall0;
      sd_counters =
        List.map
          (fun n -> (n, Stats.Counter.get counters n))
          Scheduler.counter_names;
      sd_rights = rights;
    }
  in
  { o_side = side; o_fins = !fins; o_breach_info = !breach_info }

(* ------------------------------------------------------------------ *)
(* the three runs                                                     *)

let find_right side label =
  List.find_opt (fun rs -> rs.rs_label = label) side.sd_rights

let improvement_of fifo edf =
  List.filter_map
    (fun rs ->
      match find_right fifo rs.rs_label with
      | Some f when rs.rs_count > 0 && f.rs_count > 0 && rs.rs_p99_ns > 0 ->
          Some (rs.rs_label, float_of_int f.rs_p99_ns /. float_of_int rs.rs_p99_ns)
      | _ -> None)
    edf.sd_rights

let run ?(seed = 7L) ?(domains = 4) ?(subjects = 2000) ?(batches = 30) () =
  if subjects < 10 then invalid_arg "Sla_bench.run: subjects must be >= 10";
  if batches < 2 then invalid_arg "Sla_bench.run: batches must be >= 2";
  if domains < 0 then invalid_arg "Sla_bench.run: domains must be >= 0";
  Pool.with_pool ~workers:domains (fun pool_v ->
      let pool = if domains = 0 then None else Some pool_v in
      (* A/B: one schedule, two dispatchers, two identically-seeded
         machines *)
      let sim_f = boot_sim ?pool ~seed ~subjects () in
      let scan_ns = prime sim_f in
      let batch_every = max 1 (scan_ns * 7 / 10) in
      let schedule =
        gen_schedule
          ~prng:(Prng.create ~seed ())
          ~subjects:sim_f.subjects ~batches ~batch_every
      in
      let out_f = simulate sim_f ~policy:Fifo ~schedule in
      let sim_e = boot_sim ?pool ~seed ~subjects () in
      let scan_ns_e = prime sim_e in
      if scan_ns_e <> scan_ns then
        failwith "sla_bench: priming scans disagree across sides";
      let out_e = simulate sim_e ~policy:Edf ~schedule in
      (* consent-revocation storm: 10% of subjects withdraw in one tick
         mid-run, drained under EDF while scans keep arriving *)
      let sim_s = boot_sim ?pool ~seed ~subjects () in
      let _ = prime sim_s in
      let storm_batches = 6 in
      let storm_at = batch_every * 5 / 2 in
      let n_storm = subjects / 10 in
      let storm_reqs =
        List.init n_storm (fun i ->
            Ev_right
              {
                rq_right = Revoke;
                rq_subject = sim_s.subjects.(i * (subjects / n_storm));
                rq_arrival = storm_at;
                rq_deadline = storm_at + storm_deadline ~n:n_storm;
                rq_seq = 0;
              })
      in
      let storm_schedule =
        let batch_evs =
          List.init storm_batches (fun i -> Ev_batch { ba = i * batch_every; bseq = 0 })
        in
        List.sort
          (fun a b -> compare (ev_arrival a) (ev_arrival b))
          (batch_evs @ storm_reqs)
        |> List.mapi (fun seq ev ->
               match ev with
               | Ev_batch b -> Ev_batch { b with bseq = seq }
               | Ev_right r -> Ev_right { r with rq_seq = seq })
      in
      let out_s = simulate sim_s ~policy:Edf ~schedule:storm_schedule in
      let storm =
        let rs =
          match find_right out_s.o_side (right_label Revoke) with
          | Some rs -> rs
          | None -> failwith "sla_bench: storm produced no art7 samples"
        in
        let drain =
          List.fold_left
            (fun acc (rt, fin) ->
              if rt = Revoke then max acc (fin - storm_at) else acc)
            0 out_s.o_fins
        in
        {
          st_requests = rs.rs_count;
          st_p50_ns = rs.rs_p50_ns;
          st_p99_ns = rs.rs_p99_ns;
          st_misses = rs.rs_misses;
          st_drain_ns = drain;
        }
      in
      (* Art. 33 breach notification: enumerate every affected subject by
         replaying the audit chain, against the notification deadline *)
      let sim_b = boot_sim ?pool ~seed ~subjects () in
      let _ = prime sim_b in
      let breach_at = batch_every * 7 / 2 in
      let breach_schedule =
        let batch_evs =
          List.init storm_batches (fun i -> Ev_batch { ba = i * batch_every; bseq = i })
        in
        batch_evs
        @ [
            Ev_right
              {
                rq_right = Breach;
                rq_subject = "";
                rq_arrival = breach_at;
                rq_deadline = breach_at + deadline_ns Breach;
                rq_seq = storm_batches;
              };
          ]
        |> List.sort (fun a b ->
               compare (ev_arrival a, 0) (ev_arrival b, 0))
      in
      let out_b = simulate sim_b ~policy:Edf ~schedule:breach_schedule in
      let breach =
        let affected, entries =
          match out_b.o_breach_info with
          | Some x -> x
          | None -> failwith "sla_bench: breach scenario never replayed"
        in
        let rs =
          match find_right out_b.o_side (right_label Breach) with
          | Some rs -> rs
          | None -> failwith "sla_bench: breach produced no art33 sample"
        in
        {
          bn_affected = affected;
          bn_entries = entries;
          bn_latency_ns = rs.rs_max_ns;
          bn_deadline_ns = deadline_ns Breach;
          bn_met = rs.rs_misses = 0;
        }
      in
      {
        r_subjects = subjects;
        r_domains = domains;
        r_seed = seed;
        r_batches = batches;
        r_batch_every_ns = batch_every;
        r_fifo = out_f.o_side;
        r_edf = out_e.o_side;
        r_improvement = improvement_of out_f.o_side out_e.o_side;
        r_storm = storm;
        r_breach = breach;
      })

let improvement r label = List.assoc_opt label r.r_improvement

let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let msf ns = float_of_int ns /. 1e6 in
  pf "rights-under-load SLA: %d subjects, %d batch scans every %.2f ms, seed %Ld, %d domains\n"
    r.r_subjects r.r_batches (msf r.r_batch_every_ns) r.r_seed r.r_domains;
  let side s =
    pf "  [%s] %d scans (%d errors), sim %.1f ms, wall %.2f s\n" s.sd_policy
      s.sd_batch_jobs s.sd_batch_errors (msf s.sd_sim_ns) s.sd_wall_s;
    List.iter (fun (k, v) -> pf "    %s=%d\n" k v) s.sd_counters;
    List.iter
      (fun rs ->
        pf "    %-6s n=%-4d p50=%8.3f ms  p99=%8.3f ms  max=%8.3f ms  misses=%d (SLO %.0f ms)\n"
          rs.rs_label rs.rs_count (msf rs.rs_p50_ns) (msf rs.rs_p99_ns)
          (msf rs.rs_max_ns) rs.rs_misses (msf rs.rs_deadline_ns))
      s.sd_rights
  in
  side r.r_fifo;
  side r.r_edf;
  List.iter
    (fun (label, f) -> pf "  p99 improvement %s: %.1fx\n" label f)
    r.r_improvement;
  pf "  storm: %d withdrawals, p50 %.3f ms, p99 %.3f ms, drained in %.3f ms, misses=%d\n"
    r.r_storm.st_requests (msf r.r_storm.st_p50_ns) (msf r.r_storm.st_p99_ns)
    (msf r.r_storm.st_drain_ns) r.r_storm.st_misses;
  pf "  breach: %d subjects enumerated from %d audit entries in %.3f ms (deadline %.0f ms, %s)\n"
    r.r_breach.bn_affected r.r_breach.bn_entries (msf r.r_breach.bn_latency_ns)
    (msf r.r_breach.bn_deadline_ns)
    (if r.r_breach.bn_met then "met" else "MISSED");
  Buffer.contents b

(* ---------- artifact encoder ---------- *)

module Json = Rgpdos_util.Json

let schema_id = "rgpdos-bench-rights-sla/1"

let right_json (rs : right_stats) =
  Json.Obj
    [
      ("label", Json.Str rs.rs_label);
      ("count", Json.int rs.rs_count);
      ("errors", Json.int rs.rs_errors);
      ("p50_ns", Json.int rs.rs_p50_ns);
      ("p99_ns", Json.int rs.rs_p99_ns);
      ("max_ns", Json.int rs.rs_max_ns);
      ("misses", Json.int rs.rs_misses);
      ("deadline_ns", Json.int rs.rs_deadline_ns);
    ]

let side_json (s : side) =
  Json.Obj
    [
      ("policy", Json.Str s.sd_policy);
      ("batch_jobs", Json.int s.sd_batch_jobs);
      ("batch_errors", Json.int s.sd_batch_errors);
      ("sim_ns", Json.int s.sd_sim_ns);
      ("wall_s", Json.Num s.sd_wall_s);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.sd_counters));
      ("rights", Json.List (List.map right_json s.sd_rights));
    ]

let to_json ~wall_ms (result : result) =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("subjects", Json.int result.r_subjects);
      ("domains", Json.int result.r_domains);
      ("seed", Json.Num (Int64.to_float result.r_seed));
      ("batches", Json.int result.r_batches);
      ("batch_every_ns", Json.int result.r_batch_every_ns);
      ("fifo", side_json result.r_fifo);
      ("edf", side_json result.r_edf);
      ( "improvement",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) result.r_improvement) );
      ( "storm",
        Json.Obj
          [
            ("requests", Json.int result.r_storm.st_requests);
            ("p50_ns", Json.int result.r_storm.st_p50_ns);
            ("p99_ns", Json.int result.r_storm.st_p99_ns);
            ("misses", Json.int result.r_storm.st_misses);
            ("drain_ns", Json.int result.r_storm.st_drain_ns);
          ] );
      ( "breach",
        Json.Obj
          [
            ("affected", Json.int result.r_breach.bn_affected);
            ("entries", Json.int result.r_breach.bn_entries);
            ("latency_ns", Json.int result.r_breach.bn_latency_ns);
            ("deadline_ns", Json.int result.r_breach.bn_deadline_ns);
            ("met", Json.Bool result.r_breach.bn_met);
          ] );
      ("wall_ms", Json.Num wall_ms);
    ]
