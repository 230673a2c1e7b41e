(* The four workloads: set-up, the generated request schedule, execution
   against a booted machine, output checks and per-round measurements.

   Everything the system receives comes from [Gen] and the seed.  The
   benchmark keeps its own record (the shadow) of every subject's live
   record, consent scopes and erasure, and checks each answer against
   it. *)

module Machine = Rgpdos.Machine
module Clock = Rgpdos_util.Clock
module Counter = Rgpdos_util.Stats.Counter
module Dbfs = Rgpdos_dbfs.Dbfs
module Value = Rgpdos_dbfs.Value
module Query = Rgpdos_dbfs.Query
module Block_device = Rgpdos_block.Block_device
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Audit_log = Rgpdos_audit.Audit_log
module Membrane = Rgpdos_membrane.Membrane
module Ttl_sweeper = Rgpdos_gdpr.Ttl_sweeper

type kind = Portal | Cold | Analytics | Retention

type spec = {
  name : string;
  kind : kind;
  subjects : int;  (** N, loaded at set-up *)
  requests : int;  (** requests; for [Retention], simulated days *)
  rate_per_s : float;  (** open-loop Poisson rate in req/sim-s; 0 = closed loop *)
}

(* The open-loop rates are frozen at about 0.7x the capacity
   ([sim_ops_per_s]) measured on the commit that introduced the
   benchmark; they are never derived at run time, so a faster system
   sees the same offered load and shows it as lower latency. *)
let portal = { name = "portal"; kind = Portal; subjects = 4000; requests = 3000; rate_per_s = 75.0 }
let cold = { name = "cold"; kind = Cold; subjects = 16000; requests = 6000; rate_per_s = 3000.0 }
let analytics = { name = "analytics"; kind = Analytics; subjects = 4000; requests = 400; rate_per_s = 0.0 }
let retention = { name = "retention"; kind = Retention; subjects = 4000; requests = 200; rate_per_s = 0.0 }
let all = [ portal; cold; analytics; retention ]
let find name = List.find_opt (fun s -> s.name = name) all
let open_loop spec = spec.rate_per_s > 0.0

(* the record cache budget that puts [cold]'s data past the cache *)
let cold_cache_budget = 4096

(* the Art. 15/17/20 deadline Sla_bench uses, as the latency limit *)
let slo_ns = 50_000_000

(* ------------------------------------------------------------------ *)
(* requests                                                           *)

type op =
  | Access of int  (** subject index *)
  | Portability of int
  | Erase of int
  | Consent of int * string * Membrane.consent_scope
  | Signup of Gen.person
  | Rectify of int * string * string  (** subject, new name, new email *)
  | Scan
  | Select of int  (** year of birth *)
  | Read of int
  | Verify
  | Sweep of int  (** day *)

let class_of = function
  | Access _ -> "access"
  | Portability _ -> "portability"
  | Erase _ -> "erase"
  | Consent _ -> "consent"
  | Signup _ -> "signup"
  | Rectify _ -> "rectify"
  | Scan -> "scan"
  | Select _ -> "select"
  | Read _ -> "read"
  | Verify -> "verify"
  | Sweep _ -> "ttl_sweep"

(* the request classes that are [Machine] calls *)
let classes =
  [ "access"; "portability"; "erase"; "consent"; "signup"; "rectify"; "scan";
    "select"; "read"; "ttl_sweep" ]

(* [due] is the simulated time, relative to the start of the timed phase,
   at which the request is sent; -1 sends it as soon as the previous one
   completes (closed loop) *)
type req = { op : op; due : int }

(* retention's time grid: subject i is collected at [base + i*stagger],
   and the sweep of day d runs at [t0 + d*day] with
   [t0 = base + ttl - stagger/2], so day d's sweep finds exactly the
   subjects [(d-1)k .. dk-1] due, half a stagger away from any
   expiry instant *)
let ttl_ns = 2 * Clock.year
let retention_base = Clock.second
let per_day n = (n + 729) / 730
let stagger n = Clock.day / per_day n
let retention_t0 n = retention_base + ttl_ns - (stagger n / 2)

(* The class mix is exact within every block of requests (a seeded
   shuffle of a fixed multiset), so class shares, and with them
   capacity and host cost, do not drift from seed to seed; the seed
   still picks the order, the subjects and every input. *)
let mixed r ~requests block =
  let unit = Array.of_list (List.concat_map (fun (tag, c) -> List.init c (fun _ -> tag)) block) in
  let b = Array.length unit in
  Array.concat
    (List.init ((requests + b - 1) / b) (fun i ->
         let u = Array.copy unit in
         Gen.shuffle r u;
         Array.sub u 0 (min b (requests - (i * b)))))

let flip_scope r purpose =
  if Gen.bernoulli r 0.5 then Membrane.Denied
  else if purpose = "analytics" then Membrane.View "v_ano"
  else Membrane.View "v_contact"

(* Poisson due times at the workload's rate: draw 0 is the executed
   schedule, later draws only feed the replay of recorded service
   times *)
let arrivals spec ~seed draw =
  Gen.poisson
    (Gen.rng (Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int draw)))
    ~rate_per_s:spec.rate_per_s ~n:spec.requests

(* The request schedule: a function of the spec and the seed alone. *)
let schedule spec ~seed =
  let root = Gen.rng seed in
  let r = Gen.split root in
  let due = if open_loop spec then arrivals spec ~seed 0 else Array.make spec.requests (-1) in
  let n = spec.subjects in
  let zipf = Gen.zipf ~n ~theta:0.99 in
  (* popularity is independent of insertion order *)
  let rank = Array.init n Fun.id in
  Gen.shuffle (Gen.split root) rank;
  let hot () = rank.(Gen.zipf_sample zipf r) in
  (* Art. 17 is a one-off decision, not a matter of how often a subject
     visits: erasure targets are uniform.  Zipf targets would erase the
     few hottest subjects at a random point and make every later visit
     of theirs cheap, so capacity would hinge on when that happens. *)
  let anyone () = Gen.int r n in
  let next_subject = ref n in
  let signup () =
    let p = Gen.person r !next_subject in
    incr next_subject;
    Signup p
  in
  let requests block op_of =
    Array.to_list (Array.mapi (fun k tag -> { op = op_of tag; due = due.(k) }) (mixed r ~requests:spec.requests block))
  in
  match spec.kind with
  | Portal ->
      requests
        [ (`Access, 7); (`Port, 3); (`Consent, 5); (`Erase, 2); (`Signup, 3) ]
        (function
          | `Access -> Access (hot ())
          | `Port -> Portability (hot ())
          | `Erase -> Erase (anyone ())
          | `Signup -> signup ()
          | `Consent ->
              let purpose = if Gen.bernoulli r 0.5 then "analytics" else "marketing" in
              Consent (hot (), purpose, flip_scope r purpose))
  | Cold ->
      requests
        [ (`Access, 9); (`Port, 4); (`Erase, 3); (`Signup, 4) ]
        (function
          | `Access -> Access (hot ())
          | `Port -> Portability (hot ())
          | `Erase -> Erase (anyone ())
          | `Signup -> signup ())
  | Analytics ->
      requests
        [ (`Scan, 25); (`Select, 35); (`Read, 38); (`Verify, 2) ]
        (function
          | `Scan -> Scan
          | `Select -> Select (Gen.yob_min + Gen.int r (Gen.yob_max - Gen.yob_min + 1))
          | `Read -> Read (hot ())
          | `Verify -> Verify)
  | Retention ->
      let k = per_day n in
      let reqs = ref [] in
      let push op due = reqs := { op; due } :: !reqs in
      for d = 1 to spec.requests do
        (* live on day d before its sweep: originals from (d-1)k, and
           every signup so far *)
        let first_live = min n ((d - 1) * k) in
        let live () =
          let originals = n - first_live and signups = !next_subject - n in
          let x = Gen.int r (originals + signups) in
          if x < originals then first_live + x else n + (x - originals)
        in
        for _ = 1 to Gen.poisson_count r (float_of_int n /. 730.0) do
          push (signup ()) (-1)
        done;
        for j = 1 to Gen.poisson_count r 4.0 do
          let name = Gen.make_name r in
          push (Rectify (live (), name, Gen.email_of ~name ~tag:(Printf.sprintf "r%d.%d" d j))) (-1)
        done;
        push (Consent (live (), "analytics", flip_scope r "analytics")) (-1);
        push (Sweep d) (d * Clock.day)
      done;
      List.rev !reqs

(* ------------------------------------------------------------------ *)
(* the shadow                                                         *)

type subj = {
  id : string;
  pd : string;
  mutable name : string;
  mutable email : string;
  yob : int;
  mutable analytics_scope : Membrane.consent_scope;
  mutable erased : bool;
}

type shadow = {
  mutable subs : subj array;
  mutable count : int;
  mutable erased_emails : string list;
  mutable user_bytes_written : int;
}

let record_bytes s = String.length s.name + String.length s.email + 8

let add_subject sh (p : Gen.person) pd =
  if sh.count = Array.length sh.subs then begin
    let bigger = Array.make (max 16 (2 * sh.count)) sh.subs.(0) in
    Array.blit sh.subs 0 bigger 0 sh.count;
    sh.subs <- bigger
  end;
  let s =
    { id = p.subject; pd; name = p.name; email = p.email; yob = p.yob;
      analytics_scope = p.analytics; erased = false }
  in
  sh.subs.(sh.count) <- s;
  sh.count <- sh.count + 1;
  sh.user_bytes_written <- sh.user_bytes_written + record_bytes s

let live_bytes sh =
  let t = ref 0 in
  for i = 0 to sh.count - 1 do
    let s = sh.subs.(i) in
    if not s.erased then t := !t + record_bytes s
  done;
  !t

let granted s = (not s.erased) && s.analytics_scope <> Membrane.Denied

let count_where sh f =
  let c = ref 0 in
  for i = 0 to sh.count - 1 do
    if f sh.subs.(i) then incr c
  done;
  !c

let mark_erased sh s =
  s.erased <- true;
  sh.erased_emails <- s.email :: sh.erased_emails

(* ------------------------------------------------------------------ *)
(* machine set-up                                                     *)

let record_of ~name ~email ~yob =
  [ ("name", Value.VString name); ("email", Value.VString email); ("year_of_birth", Value.VInt yob) ]

let consents_of (p : Gen.person) =
  [ ("service", Membrane.All); ("analytics", p.analytics); ("marketing", p.marketing) ]

let fail fmt = Printf.ksprintf failwith fmt

let ok_or what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* purpose-limited processings the operator deploys: a consent-filtered
   count (analytics, anonymised view) and a per-subject read (service) *)
let deploy ?(types = true) m =
  if types then ignore (ok_or "type declaration" (Machine.load_declarations m Gen.type_declaration));
  ignore (ok_or "purpose declarations" (Machine.load_declarations m Gen.purpose_declarations));
  let counting _ctx inputs = Ok (Processing.value_output (Value.VInt (List.length inputs))) in
  let yob_sum _ctx (inputs : Processing.pd_input list) =
    Ok
      (Processing.value_output
         (Value.VInt
            (List.fold_left
               (fun acc (i : Processing.pd_input) ->
                 match List.assoc_opt "year_of_birth" i.record with
                 | Some (Value.VInt y) -> acc + y
                 | _ -> acc)
               0 inputs)))
  in
  List.iter
    (fun (name, purpose, fields, body) ->
      let spec =
        ok_or "make_processing"
          (Machine.make_processing m ~name ~purpose
             ~touches:[ (Gen.type_name, fields) ]
             ~shard_reduce:Processing.reduce_int_sum body)
      in
      match ok_or "register_processing" (Machine.register_processing m spec) with
      | Rgpdos_ps.Processing_store.Registered -> ()
      | Rgpdos_ps.Processing_store.Registered_with_alert why -> fail "processing %s alerted: %s" name why)
    [
      ("bench_count", "analytics", [ "year_of_birth" ], counting);
      ("bench_read", "service", [ "name"; "email"; "year_of_birth" ], yob_sum);
    ]

type ctx = {
  spec : spec;
  mutable m : Machine.t;
  sh : shadow;
  t0 : int;  (** simulated start of the timed phase *)
}

let clock c = Machine.clock c.m

let setup spec ~seed =
  let pd_device =
    { Block_device.default_config with Block_device.block_count = (8 * spec.subjects) + 4096 }
  in
  let m = Machine.boot ~seed ~pd_device () in
  deploy m;
  let blank = { id = ""; pd = ""; name = ""; email = ""; yob = 0; analytics_scope = Membrane.Denied; erased = false } in
  let sh = { subs = Array.make (spec.subjects + 1) blank; count = 0; erased_emails = []; user_bytes_written = 0 } in
  let people = Gen.rng (Int64.logxor seed 0x5EEDL) in
  let clk = Machine.clock m in
  if spec.kind = Retention && Clock.now clk > retention_base then
    fail "retention: boot charged more than %d ns" retention_base;
  for i = 0 to spec.subjects - 1 do
    let p = Gen.person people i in
    if spec.kind = Retention then Clock.set clk (retention_base + (i * stagger spec.subjects));
    let pd =
      ok_or "collect"
        (Machine.collect m ~type_name:Gen.type_name ~subject:p.subject
           ~interface:"web_form:signup_form.html"
           ~record:(record_of ~name:p.name ~email:p.email ~yob:p.yob)
           ~consents:(consents_of p) ())
    in
    add_subject sh p pd
  done;
  if spec.kind = Cold then begin
    Dbfs.checkpoint (Machine.dbfs m);
    Dbfs.set_cache_budget (Machine.dbfs m) cold_cache_budget
  end;
  let t0 =
    if spec.kind = Retention then begin
      Clock.set clk (retention_t0 spec.subjects);
      retention_t0 spec.subjects
    end
    else Clock.now clk
  in
  sh.user_bytes_written <- 0;
  { spec; m; sh; t0 }

(* Host time is this process's CPU time, in seconds: on a shared
   machine it leaves out the time the benchmark waits for a processor,
   the largest source of run-to-run noise. *)
external cpu_time_ns : unit -> int = "bench_cpu_time_ns" [@@noalloc]

let host_now () = float_of_int (cpu_time_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* execution                                                          *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  k = 0 || go 0

(* an Art. 15/20 export holds the subject's live email and none erased *)
let check_export s out =
  if s.erased then not (contains out s.email) else contains out s.email

type answer = { good : bool; out : string; outcome : Ded.outcome option; sweep : Ttl_sweeper.report option }

let answer ?outcome ?sweep good out = { good; out; outcome; sweep }

(* [expected] is (consumed, filtered, value) *)
let check_invoke res (consumed, filtered, value) =
  match res with
  | Error e -> answer false ("error " ^ e)
  | Ok (o : Ded.outcome) ->
      let v = match o.value with Some (Value.VInt x) -> x | _ -> min_int in
      answer ~outcome:o
        (o.consumed = consumed && o.filtered = filtered && v = value && o.overread = 0)
        (Printf.sprintf "consumed=%d filtered=%d value=%d" o.consumed o.filtered v)

let exec c op =
  let sh = c.sh in
  let sub i = sh.subs.(i) in
  match op with
  | Access i -> (
      let s = sub i in
      match Machine.right_of_access c.m ~subject:s.id with
      | Ok out -> answer (check_export s out) out
      | Error e -> answer false e)
  | Portability i -> (
      let s = sub i in
      match Machine.right_to_portability c.m ~subject:s.id with
      | Ok out -> answer (check_export s out) out
      | Error e -> answer false e)
  | Erase i -> (
      let s = sub i in
      let expected = if s.erased then 0 else 1 in
      match Machine.right_to_erasure c.m ~subject:s.id with
      | Ok k ->
          if not s.erased then mark_erased sh s;
          answer (k = expected) (Printf.sprintf "erased=%d" k)
      | Error e -> answer false e)
  | Consent (i, purpose, scope) -> (
      let s = sub i in
      match Machine.set_consent c.m ~subject:s.id ~purpose scope with
      | Ok k ->
          if purpose = "analytics" then s.analytics_scope <- scope;
          answer (k = 1) (Printf.sprintf "updated=%d" k)
      | Error e -> answer false e)
  | Signup p -> (
      match
        Machine.collect c.m ~type_name:Gen.type_name ~subject:p.subject
          ~interface:"web_form:signup_form.html"
          ~record:(record_of ~name:p.name ~email:p.email ~yob:p.yob)
          ~consents:(consents_of p) ()
      with
      | Ok pd ->
          add_subject sh p pd;
          answer (pd <> "") pd
      | Error e -> answer false e)
  | Rectify (i, name, email) -> (
      let s = sub i in
      match Machine.right_to_rectification c.m ~pd_id:s.pd (record_of ~name ~email ~yob:s.yob) with
      | Ok () ->
          s.name <- name;
          s.email <- email;
          sh.user_bytes_written <- sh.user_bytes_written + record_bytes s;
          answer (not s.erased) email
      | Error e -> answer false e)
  | Scan ->
      let consumed = count_where sh granted in
      check_invoke
        (Machine.invoke c.m ~name:"bench_count" ~target:(Ded.All_of_type Gen.type_name) ())
        (consumed, sh.count - consumed, consumed)
  | Select y ->
      let consumed = count_where sh (fun s -> s.yob = y && granted s) in
      (* a selection probes live entries only; a scan lists erased ones too *)
      let filtered = count_where sh (fun s -> s.yob = y && (not s.erased) && not (granted s)) in
      check_invoke
        (Machine.invoke c.m ~name:"bench_count"
           ~target:(Ded.Selection (Gen.type_name, Query.Eq ("year_of_birth", Value.VInt y)))
           ())
        (consumed, filtered, consumed)
  | Read i ->
      let s = sub i in
      let live = if s.erased then 0 else 1 in
      check_invoke
        (Machine.invoke c.m ~name:"bench_read" ~target:(Ded.Pd_refs [ s.pd ]) ())
        (live, 0, live * s.yob)
  | Verify -> (
      match Audit_log.verify (Machine.audit c.m) with
      | Ok () -> answer true (string_of_int (Audit_log.length (Machine.audit c.m)))
      | Error seq -> answer false (Printf.sprintf "chain broken at %d" seq))
  | Sweep d ->
      let k = per_day c.spec.subjects in
      let lo = min c.spec.subjects ((d - 1) * k) and hi = min c.spec.subjects (d * k) in
      let rep = Machine.sweep_ttl c.m () in
      for i = lo to hi - 1 do
        mark_erased sh (sub i)
      done;
      answer ~sweep:rep
        (rep.Ttl_sweeper.expired = hi - lo && rep.Ttl_sweeper.removed = hi - lo
        && rep.Ttl_sweeper.errors = [])
        (Printf.sprintf "expired=%d removed=%d" rep.Ttl_sweeper.expired rep.Ttl_sweeper.removed)

(* ------------------------------------------------------------------ *)
(* one round: set-up, timed phase, end-of-run checks                  *)

type round = {
  setup_s : float;
  attempted : int;
  failed : int;
  first_failure : string;
  host_s : float array;  (** per request, around the system call *)
  due : int array;  (** relative; -1 in closed loop *)
  service : int array;  (** simulated ns *)
  latency : int array;  (** open loop: finish - due; closed: service *)
  ok : bool array;
  digest : string;
  end_checks : string list;  (** failed end-of-run checks *)
  used_bytes : int;
  live_bytes : int;
  user_bytes_written : int;
  ends : (string * float) list;  (** end-of-run gauges for the trace *)
  trace : Trace.t option;
}

let snapshot m =
  let pre p l = List.map (fun (k, v) -> (p ^ k, v)) l in
  pre "dbfs." (Counter.to_list (Dbfs.stats (Machine.dbfs m)))
  @ pre "block." (Counter.to_list (Block_device.stats (Machine.pd_device m)))
  @ [ ("audit.length", Audit_log.length (Machine.audit m)) ]

let ded_stage_name s =
  let s = if String.length s > 4 && String.sub s 0 4 = "ded_" then String.sub s 4 (String.length s - 4) else s in
  "ded." ^ String.map (fun ch -> if ch = '+' then '_' else ch) s

(* A forensic pass over the raw PD-device image: every address
   ([token@example.test]) stored anywhere, mapped to whether it was seen
   outside the checkpointed index node pages [in_index].  One pass
   replaces a [Block_device.scan] per needle, so every erased email is
   checked, not a sample.  Each block is searched with the previous
   block's tail prepended, so an address split across two blocks is
   still found. *)
let emails_on_device dev ~in_index =
  let suffix = "@example.test" in
  let found = Hashtbl.create 4096 in
  let note tok outside =
    match Hashtbl.find_opt found tok with
    | Some seen -> seen := !seen || outside
    | None -> Hashtbl.replace found tok (ref outside)
  in
  let is_tok c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' in
  let tail = 96 in
  let prev = ref "" in
  Array.iteri
    (fun i block ->
      let outside = not (in_index i) in
      if block <> "" || !prev <> "" then begin
        let p = !prev in
        let hay = String.sub p (max 0 (String.length p - tail)) (min tail (String.length p)) ^ block in
        let rec go from =
          match String.index_from_opt hay from '@' with
          | None -> ()
          | Some at ->
              let l = String.length suffix in
              if at + l <= String.length hay && String.sub hay at l = suffix then begin
                let start = ref at in
                while !start > 0 && is_tok hay.[!start - 1] do
                  decr start
                done;
                let tok = String.sub hay !start (at + l - !start) in
                note tok outside;
                (* the byte before a stored string is the low byte of its
                   big-endian length, which may itself look like a
                   token character *)
                if String.length tok > l then note (String.sub tok 1 (String.length tok - 1)) outside
              end;
              go (at + 1)
        in
        go 0
      end;
      prev := block)
    (Block_device.snapshot dev);
  found

(* end-of-run: chain verification, forensic residue check of every
   erased email and, for retention, reboot + redeploy stability of
   sampled exports *)
let end_checks c ~seed ~trace =
  let failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let clk = clock c in
  let h0 = host_now () and s0 = Clock.now clk in
  let verified = Audit_log.verify (Machine.audit c.m) in
  let h1 = host_now () in
  Option.iter
    (fun t ->
      ignore (Trace.add t ~parent:0 ~rid:(-1) ~name:"audit.verify" ~host0:h0 ~host1:h1 ~sim0:s0 ~sim1:s0 ~deltas:[]))
    trace;
  (match verified with Ok () -> () | Error seq -> failf "audit chain broken at entry %d" seq);
  let dev = Machine.pd_device c.m in
  let index_block = Array.make (Block_device.config dev).block_count false in
  List.iter
    (fun (first, n) -> Array.fill index_block first n true)
    (Dbfs.index_page_blocks (Machine.dbfs c.m));
  let on_device = emails_on_device dev ~in_index:(fun i -> index_block.(i)) in
  (* Records, membranes and the journal must hold no erased email.  The
     checkpointed index node pages keep an erased key until the next
     checkpoint rewrites them; that lag is counted ([index_residue]),
     not failed. *)
  let index_residue = ref 0 in
  List.iter
    (fun email ->
      match Hashtbl.find_opt on_device email with
      | None -> ()
      | Some { contents = false } -> incr index_residue
      | Some { contents = true } -> failf "erased email %s left residue outside the index pages" email)
    c.sh.erased_emails;
  for i = 0 to c.sh.count - 1 do
    let s = c.sh.subs.(i) in
    if (not s.erased) && not (Hashtbl.mem on_device s.email) then failf "live email of %s is not on the PD device" s.id
  done;
  if c.spec.kind = Retention then begin
    let live = Array.of_list (List.filter (fun s -> not s.erased) (Array.to_list (Array.sub c.sh.subs 0 c.sh.count))) in
    Gen.shuffle (Gen.rng (Int64.logxor seed 0xE4A5EL)) live;
    let sample = Array.sub live 0 (min 200 (Array.length live)) in
    let export s = Machine.right_to_portability c.m ~subject:s.id in
    let before = Array.map export sample in
    (match Machine.reboot c.m with
    | Error e -> failf "reboot: %s" e
    | Ok m ->
        c.m <- m;
        deploy ~types:false m;
        Array.iteri
          (fun i s ->
            let after = export s in
            if after <> before.(i) then failf "export of %s changed across reboot" s.id
            else match after with
              | Ok out when check_export s out -> ()
              | Ok _ -> failf "export of %s misses its live email" s.id
              | Error e -> failf "export of %s: %s" s.id e)
          sample)
  end;
  (List.rev !failures, !index_residue)

(* set-up alone, for more set-up time samples than rounds *)
let setup_seconds spec ~seed =
  Gc.compact ();
  let h0 = host_now () in
  ignore (setup spec ~seed);
  host_now () -. h0

let run_round spec ~seed ~traced =
  Gc.compact ();
  let reqs = Array.of_list (schedule spec ~seed) in
  let h0 = host_now () in
  let c = setup spec ~seed in
  let setup_s = host_now () -. h0 in
  let n = Array.length reqs in
  let host_s = Array.make n 0.0 and service = Array.make n 0 and latency = Array.make n 0 in
  let ok = Array.make n false in
  let trace = if traced then Some (Trace.create ()) else None in
  let digest = ref (Digest.string spec.name) in
  let failed = ref 0 and first_failure = ref "" in
  let clk = clock c in
  let open_l = open_loop spec in
  Array.iteri
    (fun k (req : req) ->
      (if req.due >= 0 then
         let due = c.t0 + req.due in
         if Clock.now clk < due then Clock.set clk due);
      let before = match trace with Some _ -> snapshot c.m | None -> [] in
      let s0 = Clock.now clk in
      let h0 = host_now () in
      let a = exec c req.op in
      let h1 = host_now () in
      let s1 = Clock.now clk in
      host_s.(k) <- h1 -. h0;
      service.(k) <- s1 - s0;
      latency.(k) <- (if open_l then s1 - (c.t0 + req.due) else s1 - s0);
      ok.(k) <- a.good;
      if not a.good then begin
        incr failed;
        if !first_failure = "" then
          first_failure := Printf.sprintf "request %d (%s): %s" k (class_of req.op) a.out
      end;
      digest := Digest.string (!digest ^ a.out);
      Option.iter
        (fun t ->
          let deltas = Trace.deltas ~before ~after:(snapshot c.m) in
          let deltas =
            match a.outcome with
            | Some o -> deltas @ [ ("ded.consumed", o.consumed); ("ded.filtered", o.filtered); ("ded.overread", o.overread) ]
            | None -> deltas
          in
          let deltas =
            match a.sweep with
            | Some r ->
                deltas
                @ [ ("gdpr.scanned", r.Ttl_sweeper.scanned); ("gdpr.expired", r.Ttl_sweeper.expired);
                    ("gdpr.removed", r.Ttl_sweeper.removed) ]
            | None -> deltas
          in
          let layer = match req.op with Verify -> "audit.verify" | op -> "rgpdos." ^ class_of op in
          let id = Trace.add t ~parent:0 ~rid:k ~name:layer ~host0:h0 ~host1:h1 ~sim0:s0 ~sim1:s1 ~deltas in
          Option.iter
            (fun (o : Ded.outcome) ->
              ignore
                (List.fold_left
                   (fun at (stage, ns) ->
                     ignore
                       (Trace.add t ~parent:id ~rid:k ~name:(ded_stage_name stage) ~host0:nan ~host1:nan
                          ~sim0:at ~sim1:(at + ns) ~deltas:[]);
                     at + ns)
                   s0 o.stage_ns))
            a.outcome)
        trace)
    reqs;
  let used_bytes =
    Block_device.used_blocks (Machine.pd_device c.m) * (Block_device.config (Machine.pd_device c.m)).block_size
  in
  let live = live_bytes c.sh in
  let user_written = c.sh.user_bytes_written in
  let ends =
    [
      ("dbfs.cache_resident_end", float_of_int (Dbfs.cache_resident (Machine.dbfs c.m)));
      ("block.used_blocks_end", float_of_int (Block_device.used_blocks (Machine.pd_device c.m)));
      ("audit.length_end", float_of_int (Audit_log.length (Machine.audit c.m)));
    ]
  in
  let end_failures, index_residue = end_checks c ~seed ~trace in
  let ends = ("dbfs.index_page_residue", float_of_int index_residue) :: ends in
  {
    setup_s;
    attempted = n;
    failed = !failed;
    first_failure = !first_failure;
    host_s;
    due = Array.map (fun (r : req) -> r.due) reqs;
    service;
    latency;
    ok;
    digest = Digest.to_hex !digest;
    end_checks = end_failures;
    used_bytes;
    live_bytes = live;
    user_bytes_written = user_written;
    ends;
    trace;
  }
