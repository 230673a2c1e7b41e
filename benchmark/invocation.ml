(* One invocation of one workload: rounds until the time budget is
   spent, the checks that tie rounds of one seed together, and the
   metrics the invocation reports. *)

open Workload

type t = {
  rounds : round list;
  problems : string list;  (** failed output checks; empty when correct *)
  metrics : Metrics.metric list;  (** host, simulated, then per-layer *)
  reported : Metrics.metric list;  (** the metrics BENCHMARK.json declares for this mode *)
  attempted : int;
  failed : int;
  digest : string;
}

(* The end-to-end metrics BENCHMARK.json declares.  host_ops_per_s and
   host_p50_us are printed but not declared: on a shared machine their
   spread over ten seeds reached 0.19 and 0.25 of the median, as wide as
   the largest bound a declared metric may have. *)
let end_to_end = [ "setup_s"; "sim_ops_per_s"; "sim_p50_ms"; "sim_p99_ms"; "space_amp"; "heap_mb" ]

(* Host figures take each request's least time over at least
   [min_rounds] rounds, so the first round of a process, which also
   grows the heap, never decides them alone.  Set-up time is the median
   of at least [min_setup_s] of set-ups (and at least one per round);
   extra set-ups run alone. *)
let min_rounds = 3
let min_setup_s = 1.5
let max_setups = 15

let run spec ~seed ~seconds ~trace =
  let started = Unix.gettimeofday () in
  let rounds = ref [] in
  (* another round while fewer than [min_rounds] ran or the next should
     end within [seconds]; with tracing, rounds alternate untraced and
     traced *)
  let rec loop k =
    let t = Unix.gettimeofday () in
    rounds := run_round spec ~seed ~traced:(trace && k mod 2 = 1) :: !rounds;
    let now = Unix.gettimeofday () in
    if k + 1 < min_rounds || now -. started +. (now -. t) <= seconds then loop (k + 1)
  in
  loop 0;
  let rounds = List.rev !rounds in
  let setups = ref (List.map (fun (r : round) -> r.setup_s) rounds) in
  while List.fold_left ( +. ) 0.0 !setups < min_setup_s && List.length !setups < max_setups do
    setups := setup_seconds spec ~seed :: !setups
  done;
  let first = List.hd rounds in
  let untraced = List.filter (fun r -> r.trace = None) rounds in
  let traced = List.filter (fun r -> r.trace <> None) rounds in
  let sim = Metrics.simulated spec ~seed first in
  let problems =
    List.concat_map
      (fun (r : round) ->
        (if r.failed > 0 then [ Printf.sprintf "%d failed requests, first: %s" r.failed r.first_failure ] else [])
        @ r.end_checks
        @ (if Metrics.replay_holds spec r then [] else [ "FIFO replay does not reproduce the measured latencies" ])
        @ (if r.digest = first.digest then [] else [ "output digest differs between rounds of one seed" ])
        @ if Metrics.simulated spec ~seed r = sim then [] else [ "simulated figures differ between rounds of one seed" ])
      rounds
    |> List.sort_uniq compare
  in
  let layers =
    match traced with
    | [] -> []
    | t :: _ ->
        (* as many untraced rounds as traced ones: a least time over
           more rounds is smaller *)
        let base = Metrics.host_ops_per_s (List.filteri (fun i _ -> i < List.length traced) untraced) in
        Metrics.per_layer t
        @ [ Metrics.m "trace.overhead_pct" "%" (100.0 *. (base -. Metrics.host_ops_per_s traced) /. base) ]
  in
  let metrics = Metrics.host ~setups:!setups untraced @ sim @ layers in
  {
    rounds;
    problems;
    metrics;
    reported =
      (if trace then layers else List.filter (fun (x : Metrics.metric) -> List.mem x.name end_to_end) metrics);
    attempted = List.fold_left (fun a (r : round) -> a + r.attempted) 0 rounds;
    failed = List.fold_left (fun a (r : round) -> a + r.failed) 0 rounds;
    digest = first.digest;
  }
