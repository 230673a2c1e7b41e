(* Queue-depth sweep for the block-I/O submission queues: one binary, one
   workload (the E1 DED pipeline), the device booted at each swept queue
   depth.  Depth 1 — the blocking model every other committed baseline
   runs on — is the baseline the speedups are measured against.

   The probe is [Experiments.e1_ded_stages]: its load stages
   (ded_load_membrane + ded_load_data) are where the pipelined fetches
   overlap decode with in-flight device service, so the headline figure
   is the load-stage speedup.  The run also cross-checks the depth
   invariant at bench scale: every byte-movement device counter (reads,
   writes, bytes_read, bytes_written, write_ops, trims) must be
   identical at every depth, and the per-stage breakdown must list the
   same stages — queue depth moves simulated time, never bytes or
   outcomes. *)

module Stats = Rgpdos_util.Stats

let load_stage_ns (r : Experiments.e1_result) =
  List.fold_left
    (fun acc (stage, ns) ->
      if String.length stage >= 8 && String.sub stage 0 8 = "ded_load" then
        acc + ns
      else acc)
    0 r.Experiments.e1_stage_ns

let counter r name =
  match List.assoc_opt name r.Experiments.e1_device with
  | Some v -> v
  | None -> 0

(* The carve-out: pipelining splits one big batch read into
   [queue_depth] in-flight vectored ops, so the {i submission-shape}
   counters (how many vec ops, how many merged runs, the queue
   telemetry) legitimately differ between depths.  What must be
   identical is byte movement — every per-block and per-byte total —
   plus outcomes and stages.  (The qcheck law in test_async is stricter:
   at the device level, where the op script itself is fixed, only
   queue_depth_highwater and overlap_ns_hidden may differ.) *)
let byte_movement_counters =
  [ "reads"; "writes"; "bytes_read"; "bytes_written"; "write_ops"; "trims" ]

let counters_equal_modulo_latency a b =
  let pick r =
    List.map
      (fun k ->
        (k, Option.value ~default:0 (List.assoc_opt k r.Experiments.e1_device)))
      byte_movement_counters
  in
  pick a = pick b

type depth_row = {
  ar_depth : int;
  ar_total_ns : int;
  ar_load_ns : int;
  ar_load_speedup : float;
  ar_total_speedup : float;
  ar_overlap_pct : float;
  ar_submits : int;
  ar_highwater : int;
}

type size_run = {
  as_subjects : int;
  as_rows : depth_row list;
  as_invariant_ok : bool;
      (* stages + all byte-movement device counters identical at every
         depth *)
}

type result = {
  a_depths : int list;
  a_sizes : size_run list;
  a_best_load_speedup : float;  (* best load-stage speedup at depth >= 4 *)
  a_best_overlap_pct : float;   (* best overlap ratio at depth >= 4 *)
}

let ratio num den = float_of_int num /. float_of_int (max 1 den)

let run_size ~depths ~subjects =
  let runs =
    List.map
      (fun depth ->
        (depth, Experiments.e1_ded_stages ~subjects ~queue_depth:depth ()))
      depths
  in
  let base = List.assoc 1 runs in
  let base_load = load_stage_ns base in
  let invariant = ref true in
  let rows =
    List.map
      (fun (depth, r) ->
        if
          (not (counters_equal_modulo_latency base r))
          || List.map fst base.Experiments.e1_stage_ns
             <> List.map fst r.Experiments.e1_stage_ns
        then invariant := false;
        let load = load_stage_ns r in
        {
          ar_depth = depth;
          ar_total_ns = r.Experiments.e1_total_ns;
          ar_load_ns = load;
          ar_load_speedup = ratio base_load load;
          ar_total_speedup =
            ratio base.Experiments.e1_total_ns r.Experiments.e1_total_ns;
          ar_overlap_pct =
            100.0 *. ratio (counter r "overlap_ns_hidden") (counter r "async_service_ns");
          ar_submits = counter r "async_submits";
          ar_highwater = counter r "queue_depth_highwater";
        })
      runs
  in
  {
    as_subjects = subjects;
    as_rows = rows;
    as_invariant_ok = !invariant;
  }

let run ?(depths = [ 1; 4; 16; 64 ]) ?(sizes = [ 2_000; 8_000 ]) () =
  if not (List.mem 1 depths) then
    invalid_arg "Async_bench.run: the sweep must include depth 1, the baseline";
  if sizes = [] then invalid_arg "Async_bench.run: empty size sweep";
  let sizes_r = List.map (fun n -> run_size ~depths ~subjects:n) sizes in
  let best f =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc row -> if row.ar_depth >= 4 then max acc (f row) else acc)
          acc s.as_rows)
      0.0 sizes_r
  in
  {
    a_depths = depths;
    a_sizes = sizes_r;
    a_best_load_speedup = best (fun r -> r.ar_load_speedup);
    a_best_overlap_pct = best (fun r -> r.ar_overlap_pct);
  }

let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let msf ns = float_of_int ns /. 1e6 in
  pf "block I/O queue-depth sweep: same build, E1 DED pipeline, vs depth 1\n";
  List.iter
    (fun s ->
      pf "  %d subjects%s\n" s.as_subjects
        (if s.as_invariant_ok then "" else "  [INVARIANT VIOLATED]");
      List.iter
        (fun row ->
          pf
            "    depth %-3d total %8.3f ms (%.2fx)  load %8.3f ms (%.2fx)  \
             overlap %5.1f%%  submits %d  highwater %d\n"
            row.ar_depth (msf row.ar_total_ns) row.ar_total_speedup
            (msf row.ar_load_ns) row.ar_load_speedup row.ar_overlap_pct
            row.ar_submits row.ar_highwater)
        s.as_rows)
    r.a_sizes;
  pf "  best load-stage speedup at depth>=4: %.2fx, best overlap: %.1f%%\n"
    r.a_best_load_speedup r.a_best_overlap_pct;
  Buffer.contents b

(* ---------- artifact encoder ---------- *)

module Json = Rgpdos_util.Json

let schema_id = "rgpdos-bench-async-io/2"

let depth_row_json (row : depth_row) =
  Json.Obj
    [
      ("depth", Json.int row.ar_depth);
      ("total_ns", Json.int row.ar_total_ns);
      ("load_ns", Json.int row.ar_load_ns);
      ("load_speedup", Json.Num row.ar_load_speedup);
      ("total_speedup", Json.Num row.ar_total_speedup);
      ("overlap_pct", Json.Num row.ar_overlap_pct);
      ("submits", Json.int row.ar_submits);
      ("highwater", Json.int row.ar_highwater);
    ]

let size_run_json (s : size_run) =
  Json.Obj
    [
      ("subjects", Json.int s.as_subjects);
      ("invariant_ok", Json.Bool s.as_invariant_ok);
      ("rows", Json.List (List.map depth_row_json s.as_rows));
    ]

let to_json ~wall_ms (result : result) =
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("depths", Json.List (List.map Json.int result.a_depths));
      ("sizes", Json.List (List.map size_run_json result.a_sizes));
      ("best_load_speedup", Json.Num result.a_best_load_speedup);
      ("best_overlap_pct", Json.Num result.a_best_overlap_pct);
      ("wall_ms", Json.Num wall_ms);
    ]
