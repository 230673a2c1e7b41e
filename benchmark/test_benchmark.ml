(* The benchmark at tiny sizes: every workload, traced and untraced
   rounds, run twice with one seed.  Checks that the two invocations
   agree on everything but host timings, that the FIFO replay holds,
   and that every metric BENCHMARK.json declares is emitted. *)

open Rgpdos_benchmark

let tiny =
  [
    { Workload.portal with subjects = 60; requests = 150 };
    { Workload.cold with subjects = 120; requests = 150 };
    { Workload.analytics with subjects = 60; requests = 80 };
    { Workload.retention with subjects = 60; requests = 20 };
  ]

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* everything an invocation prints except host-time figures *)
let deterministic (inv : Invocation.t) =
  String.concat "\n"
    (inv.digest
    :: List.filter_map
         (fun (x : Metrics.metric) ->
           if Metrics.is_host x then None else Some (Printf.sprintf "%s=%.17g" x.name x.value))
         inv.metrics)

(* the "name" values inside the JSON array that follows [key] *)
let declared_names text key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i = if i + n > String.length text then raise Not_found else if String.sub text i n = sub then i else go (i + 1) in
    go i
  in
  let start = find_from 0 (Printf.sprintf "%S" key) in
  let stop = find_from start "]" in
  let rec names i acc =
    match find_from i "\"name\"" with
    | j when j < stop ->
        let q1 = find_from (j + 6) "\"" in
        let q2 = find_from (q1 + 1) "\"" in
        names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  names start []

let () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let e2e = declared_names text "end_to_end" and per_layer = declared_names text "per_layer" in
  check "BENCHMARK.json end_to_end matches the emitted set"
    (List.sort compare e2e = List.sort compare Invocation.end_to_end);
  List.iter
    (fun (spec : Workload.spec) ->
      let run trace = Invocation.run spec ~seed:7L ~seconds:0.0 ~trace in
      let a = run true and b = run true and plain = run false in
      List.iter (fun p -> check (spec.name ^ ": " ^ p) false) (a.problems @ plain.problems);
      (* [problems] already holds a traced round to the untraced one's
         digest and simulated figures *)
      check (spec.name ^ ": same seed, same output apart from host fields") (deterministic a = deterministic b);
      List.iter
        (fun (r : Workload.round) -> check (spec.name ^ ": replay reproduces every latency") (Metrics.replay_holds spec r))
        a.rounds;
      let names (inv : Invocation.t) = List.map (fun (x : Metrics.metric) -> x.name) inv.reported in
      check (spec.name ^ ": every end_to_end metric emitted") (List.sort compare (names plain) = List.sort compare e2e);
      check (spec.name ^ ": every per_layer metric emitted") (List.sort compare (names a) = List.sort compare per_layer))
    tiny;
  if !failures > 0 then exit 1;
  print_endline "benchmark: all checks passed"
