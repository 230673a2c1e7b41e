(* Metrics of one invocation: the end-to-end figures of each round, the
   open-loop replay, and the per-layer breakdown of a traced round. *)

open Workload

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* host-time figures (and the heap, which depends on how many rounds
   fit in the time budget); every other metric repeats exactly for one
   seed *)
let is_host x = contains x.name "host" || List.mem x.name [ "setup_s"; "heap_mb"; "trace.overhead_pct" ]

(* linear interpolation between closest ranks; [sorted] ascending *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1) else sorted.(i) +. (f *. (sorted.(i + 1) -. sorted.(i)))

let sorted_floats a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median xs = percentile (sorted_floats (Array.of_list xs)) 0.5

(* ------------------------------------------------------------------ *)
(* open-loop replay                                                   *)

(* FIFO single server: request k starts at max(due_k, finish_{k-1}) and
   holds the server for its recorded service time.  Returns latencies
   (finish - due) and the wait of the last request. *)
let fifo ~due ~service =
  let fin = ref 0 and wait = ref 0 in
  let lat =
    Array.mapi
      (fun k d ->
        let start = max d !fin in
        wait := start - d;
        fin := start + service.(k);
        !fin - d)
      due
  in
  (lat, !wait)

(* the run's own FIFO replayed at its executed schedule must give back
   every latency the clock measured (closed loops have no schedule:
   latency is service time) *)
let replay_holds spec (r : round) =
  if not (open_loop spec) then r.latency = r.service
  else fst (fifo ~due:r.due ~service:r.service) = r.latency

let meets_slo (r : round) scale =
  let due = Array.map (fun d -> int_of_float (float_of_int d /. scale)) r.due in
  let lat, wait = fifo ~due ~service:r.service in
  let p99 = percentile (sorted_floats (Array.map float_of_int lat)) 0.99 in
  p99 <= float_of_int slo_ns && wait <= slo_ns

(* highest Poisson rate (the run's arrivals rescaled) whose replay keeps
   p99 and the last request's wait within the SLO; latency only grows
   with the rate, so bisection finds it.  A run short enough to meet the
   SLO with every request due at once has no such rate: the search stops
   at [max_scale] times the executed one. *)
let max_scale = 1e6

let slo_rate spec r =
  if not (meets_slo r 1e-6) then 0.0
  else begin
    let lo = ref 1e-6 and hi = ref 1.0 in
    while !hi < max_scale && meets_slo r !hi do
      lo := !hi;
      hi := !hi *. 2.0
    done;
    for _ = 1 to 40 do
      let mid = sqrt (!lo *. !hi) in
      if meets_slo r mid then lo := mid else hi := mid
    done;
    spec.rate_per_s *. !lo
  end

(* ------------------------------------------------------------------ *)
(* end-to-end                                                         *)

let sum_f a = Array.fold_left ( +. ) 0.0 a
let sum_i a = Array.fold_left ( + ) 0 a

(* Every round replays the same schedule on a fresh machine, so request
   k is the same work in each; its least host time over the rounds
   leaves out the interference a shared machine adds in bursts of one to
   tens of seconds (+20-40% on this workload's memory-bound calls), and a
   median or mean over rounds does not. *)
let fastest rounds =
  match rounds with
  | [] -> [||]
  | r :: rest -> List.fold_left (fun acc r -> Array.map2 Float.min acc r.host_s) r.host_s rest

let host_ops_per_s rounds =
  let h = fastest rounds in
  float_of_int (Array.length h) /. sum_f h

let host_p50_us rounds = 1e6 *. percentile (sorted_floats (fastest rounds)) 0.5

(* arrival draws pooled for the open-loop latency percentiles *)
let replay_draws = 51

(* The samples sim_p50_ms and sim_p99_ms are taken over.  Open loop:
   due-to-completion latency, pooled over the executed schedule and
   [replay_draws - 1] more Poisson draws at the same rate replayed
   through the recorded service times (the replay check shows the FIFO
   reproduces the executed schedule exactly); a single draw's tail
   moves by 10-15% from seed to seed.  Retention: the controller's
   daily batch, its operations up to and including the day's sweep.
   Analytics: service time. *)
let latency_samples spec ~seed r =
  let floats a = Array.map float_of_int a in
  if open_loop spec then
    Array.concat
      (floats r.latency
      :: List.init (replay_draws - 1) (fun k ->
             floats (fst (fifo ~due:(arrivals spec ~seed (k + 1)) ~service:r.service))))
  else if spec.kind = Retention then begin
    let days = ref [] and acc = ref 0 in
    Array.iteri
      (fun k s ->
        acc := !acc + s;
        if r.due.(k) >= 0 then begin
          days := float_of_int !acc :: !days;
          acc := 0
        end)
      r.service;
    Array.of_list !days
  end
  else floats r.service

(* deterministic figures of a round: equal across rounds of one seed *)
let simulated spec ~seed r =
  let lat = sorted_floats (latency_samples spec ~seed r) in
  let misses = ref 0 in
  Array.iteri (fun k l -> if (not r.ok.(k)) || l > slo_ns then incr misses) r.latency;
  [
    m "sim_ops_per_s" "req/sim-s" (float_of_int r.attempted /. (float_of_int (sum_i r.service) /. 1e9));
    m "sim_p50_ms" "sim-ms" (percentile lat 0.5 /. 1e6);
    m "sim_p99_ms" "sim-ms" (percentile lat 0.99 /. 1e6);
    m "space_amp" "ratio" (float_of_int r.used_bytes /. float_of_int (max 1 r.live_bytes));
    m "failed_pct" "%" (100.0 *. float_of_int r.failed /. float_of_int r.attempted);
  ]
  @
  if open_loop spec then
    [
      m "slo_rate_per_s" "req/sim-s" (slo_rate spec r);
      m "slo_miss_pct" "%" (100.0 *. float_of_int !misses /. float_of_int r.attempted);
    ]
  else []

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* host figures of the untraced rounds *)
let host ~setups rounds =
  [
    m "setup_s" "s" (median setups);
    m "host_ops_per_s" "req/s" (host_ops_per_s rounds);
    m "host_p50_us" "us" (host_p50_us rounds);
    m "heap_mb" "MiB" (heap_mb ());
  ]

(* ------------------------------------------------------------------ *)
(* per layer, from a traced round                                     *)

let ded_stages =
  [ "type2req"; "load_membrane"; "filter"; "load_data"; "execute"; "build_membrane_store"; "return" ]

let per_layer (r : round) =
  let spans = match r.trace with Some t -> Trace.spans t | None -> [] in
  let reqs = List.filter (fun (s : Trace.span) -> s.parent = 0 && s.rid >= 0) spans in
  let nreq = float_of_int (max 1 r.attempted) in
  let total ?(among = reqs) k = List.fold_left (fun acc s -> acc + Trace.delta s k) 0 among in
  let per_req k = float_of_int (total k) /. nreq in
  let pct a b = if a + b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int (a + b) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let of_class c = List.filter (fun (s : Trace.span) -> s.name = "rgpdos." ^ c) reqs in
  let host_of (s : Trace.span) = s.host1 -. s.host0 and sim_of (s : Trace.span) = s.sim1 - s.sim0 in
  let host_total = List.fold_left (fun acc s -> acc +. host_of s) 0.0 reqs in
  let sim_total = List.fold_left (fun acc s -> acc + sim_of s) 0 reqs in
  let share x total = if total = 0.0 then 0.0 else 100.0 *. x /. total in
  (* A class absent from a workload reads 0; per class the breakdown
     is a count and shares of the round's host and simulated time, so
     no time-valued metric is a structural zero. *)
  let host_us = sorted_floats (Array.of_list (List.map (fun s -> 1e6 *. host_of s) reqs)) in
  let rgpdos =
    m "rgpdos.host_us_p50" "us" (percentile host_us 0.5)
    :: m "rgpdos.host_us_p90" "us" (percentile host_us 0.9)
    :: List.concat_map
         (fun c ->
           let ss = of_class c in
           let p = Printf.sprintf "rgpdos.%s.%s" c in
           [
             m (p "n") "count" (float_of_int (List.length ss));
             m (p "host_pct") "%" (share (List.fold_left (fun acc s -> acc +. host_of s) 0.0 ss) host_total);
             m (p "sim_pct") "%"
               (share (float_of_int (List.fold_left (fun acc s -> acc + sim_of s) 0 ss)) (float_of_int sim_total));
           ])
         classes
  in
  (* DED: each of the pipeline's stages as a share of the invocations'
     simulated time; what no stage covers (transfer and the selection
     residual between stages) is [unattributed_pct] *)
  let invokes = List.filter (fun (s : Trace.span) -> List.mem_assoc "ded.consumed" s.deltas) reqs in
  let ninv = float_of_int (max 1 (List.length invokes)) in
  let invoke_ids = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace invoke_ids s.id ()) invokes;
  let stage_ns = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      if Hashtbl.mem invoke_ids s.parent then
        Hashtbl.replace stage_ns s.name (sim_of s + Option.value ~default:0 (Hashtbl.find_opt stage_ns s.name)))
    spans;
  let stage st = Option.value ~default:0 (Hashtbl.find_opt stage_ns ("ded." ^ st)) in
  let invoke_total = float_of_int (List.fold_left (fun acc s -> acc + sim_of s) 0 invokes) in
  let stage_total = List.fold_left (fun acc st -> acc + stage st) 0 ded_stages in
  let consumed = total ~among:invokes "ded.consumed" and filtered = total ~among:invokes "ded.filtered" in
  let ded =
    List.map (fun st -> m (Printf.sprintf "ded.%s.sim_pct" st) "%" (share (float_of_int (stage st)) invoke_total)) ded_stages
    @ [
        m "ded.unattributed_pct" "%" (share (invoke_total -. float_of_int stage_total) invoke_total);
        m "ded.consumed_per_invoke" "count" (float_of_int consumed /. ninv);
        m "ded.filtered_pct" "%" (pct filtered consumed);
        m "ded.overread" "count" (float_of_int (total ~among:invokes "ded.overread"));
      ]
  in
  let consents = of_class "consent" in
  let dbfs =
    [
      m "dbfs.membrane_reads_per_req" "count" (per_req "dbfs.membrane_reads");
      m "dbfs.record_reads_per_req" "count" (per_req "dbfs.record_reads");
      m "dbfs.index_page_reads_per_req" "count" (per_req "dbfs.index_page_reads");
      m "dbfs.membrane_reads_per_consent" "count"
        (ratio (total ~among:consents "dbfs.membrane_reads") (List.length consents));
      m "dbfs.cache_hit_pct" "%" (pct (total "dbfs.cache_hits") (total "dbfs.cache_misses"));
      m "dbfs.page_hit_pct" "%" (pct (total "dbfs.page_hits") (total "dbfs.page_misses"));
      m "dbfs.cache_evictions" "count" (float_of_int (total "dbfs.cache_evictions"));
      m "dbfs.index_probes" "count" (float_of_int (total "dbfs.index_probes"));
      m "dbfs.membrane_updates" "count" (float_of_int (total "dbfs.membrane_updates"));
      m "dbfs.record_updates" "count" (float_of_int (total "dbfs.record_updates"));
      m "dbfs.inserts" "count" (float_of_int (total "dbfs.inserts"));
      m "dbfs.erasures" "count" (float_of_int (total "dbfs.erasures"));
      m "dbfs.committed_batches" "count" (float_of_int (total "dbfs.committed_batches"));
    ]
  in
  let block =
    [
      m "block.reads_per_req" "count" (per_req "block.reads");
      m "block.seeks_per_req" "count" (per_req "block.merged_runs");
      m "block.bytes_read_per_req" "B" (per_req "block.bytes_read");
      m "block.bytes_written_per_req" "B" (per_req "block.bytes_written");
      m "block.write_ops_per_req" "count" (per_req "block.write_ops");
      m "block.write_amp" "ratio" (ratio (total "block.bytes_written") r.user_bytes_written);
    ]
  in
  let verifies = List.filter (fun (s : Trace.span) -> s.name = "audit.verify") spans in
  let audit =
    [
      m "audit.verify.host_ms" "ms"
        (1e3 *. median (List.map (fun (s : Trace.span) -> s.host1 -. s.host0) verifies));
      m "audit.entries_per_req" "count" (per_req "audit.length");
    ]
  in
  let expired = total "gdpr.expired" in
  let gdpr =
    [
      m "gdpr.ttl_expired" "count" (float_of_int expired);
      m "gdpr.ttl_scanned_per_expired" "count" (ratio (total "gdpr.scanned") expired);
      m "gdpr.ttl_removed" "count" (float_of_int (total "gdpr.removed"));
    ]
  in
  let ends =
    List.map
      (fun (k, v) -> m k (if k = "block.used_blocks_end" then "blocks" else "count") v)
      r.ends
  in
  rgpdos @ ded @ dbfs @ block @ audit @ gdpr @ ends
