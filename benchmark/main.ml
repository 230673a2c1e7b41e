(* End-to-end GDPR benchmark of a booted rgpdOS machine.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--json FILE] [--trace-out FILE]
     main.exe --seed N ...        every workload, each in its own process

   A run repeats rounds (fresh machine, set-up, the seed's request
   schedule, end-of-run checks) while another round fits in [--seconds]
   of wall time.  Every round of one seed must produce the same output
   digest and the same simulated figures; host figures take each
   request's least time over the rounds.  With [--trace 1], rounds alternate untraced and traced, and
   the per-layer metrics come from a traced one.  Every metric is
   printed by name with its unit; the last line of standard output is
   one JSON object, and the exit code is 1 when any output check
   failed. *)

open Rgpdos_benchmark

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let json_out = ref ""
let trace_out = ref ""

let args =
  [
    ("--workload", Arg.Set_string workload, "W  portal | cold | analytics | retention (default: all, one process each)");
    ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  wall-clock seconds to keep starting rounds in (default 10)");
    ("--trace", Arg.Set_int trace, "0|1  per-layer run (default 0)");
    ("--json", Arg.Set_string json_out, "FILE  append this invocation's full record as one JSON line");
    ("--trace-out", Arg.Set_string trace_out, "FILE  write a traced round as Chrome trace-event JSON");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : Metrics.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         ms)
  ^ "}"

let run_one (spec : Workload.spec) =
  let started = Unix.gettimeofday () in
  let inv = Invocation.run spec ~seed:(Int64.of_int !seed) ~seconds:!seconds ~trace:(!trace = 1) in
  let traced = List.filter (fun (r : Workload.round) -> r.trace <> None) inv.rounds in
  let correct = inv.problems = [] in
  Printf.printf "workload %s seed %d: %d rounds (%d traced) of %d requests, %.1f s\n" spec.name !seed
    (List.length inv.rounds) (List.length traced) (List.hd inv.rounds).attempted
    (Unix.gettimeofday () -. started);
  Printf.printf "digest %s\n" inv.digest;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) inv.problems;
  List.iter (fun (x : Metrics.metric) -> Printf.printf "%-40s %14.4f %s\n" x.name x.value x.unit_) inv.metrics;
  (match traced with
  | { trace = Some t; _ } :: _ when !trace_out <> "" ->
      Out_channel.with_open_text !trace_out (fun oc -> output_string oc (Trace.chrome_json t))
  | _ -> ());
  if !json_out <> "" then
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 !json_out (fun oc ->
        Printf.fprintf oc
          "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"rounds\": %d, \"digest\": %S, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
          spec.name !seed !trace (List.length inv.rounds) inv.digest correct inv.attempted inv.failed
          (json_metrics inv.metrics));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct inv.attempted
    inv.failed (json_metrics inv.reported);
  if correct then 0 else 1

(* every workload in a fresh child process, one at a time, so heap and
   GC state never carry over *)
let run_all () =
  List.fold_left
    (fun code (spec : Workload.spec) ->
      let argv =
        [| Sys.executable_name; "--workload"; spec.name; "--seed"; string_of_int !seed; "--seconds";
           Printf.sprintf "%g" !seconds; "--trace"; string_of_int !trace |]
      in
      let argv = if !json_out = "" then argv else Array.append argv [| "--json"; !json_out |] in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> code | _ -> 1)
    0 Workload.all

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let code =
    if !workload = "" then run_all ()
    else
      match Workload.find !workload with
      | Some spec -> run_one spec
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          2
  in
  exit code
