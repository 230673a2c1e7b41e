module Json = Rgpdos_util.Json
module Table = Rgpdos_util.Table
module E = Experiments

(* ---------- field paths ---------- *)

type step =
  | K of string
  | Each
  | Where of (string * Json.t) list
  | Max_by of string
  | Len

type path = step list

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let json_to_string = function
  | Json.Num f -> num_to_string f
  | Json.Str s -> s
  | v -> Json.to_string ~indent:0 v

let path_to_string path =
  String.concat ""
    (List.mapi
       (fun i -> function
         | K k -> if i = 0 then k else "." ^ k
         | Each -> "[*]"
         | Where conds ->
             "["
             ^ String.concat ","
                 (List.map (fun (f, x) -> f ^ "=" ^ json_to_string x) conds)
             ^ "]"
         | Max_by f -> "[max " ^ f ^ "]"
         | Len -> ".length")
       path)

let resolve path root =
  let apply step v =
    match (step, v) with
    | K k, _ -> (
        match Json.member k v with
        | Some x -> Ok [ x ]
        | None -> Error ("missing " ^ k))
    | Each, Json.List l -> Ok l
    | Where conds, Json.List l ->
        Ok
          (List.filter
             (fun e ->
               List.for_all (fun (f, x) -> Json.member f e = Some x) conds)
             l)
    | Max_by f, Json.List l -> (
        let key e = Option.bind (Json.member f e) Json.to_float in
        match List.filter (fun e -> key e <> None) l with
        | [] -> Ok []
        | e :: rest ->
            Ok
              [
                List.fold_left
                  (fun best e -> if key e > key best then e else best)
                  e rest;
              ])
    | Len, Json.List l -> Ok [ Json.int (List.length l) ]
    | (Each | Where _ | Max_by _ | Len), _ -> Error "not a list"
  in
  List.fold_left
    (fun acc step ->
      Result.bind acc (fun vs ->
          List.fold_left
            (fun acc v ->
              Result.bind acc (fun out ->
                  Result.map (fun xs -> out @ xs) (apply step v)))
            (Ok []) vs))
    (Ok [ root ]) path
  |> Result.map_error (fun e -> path_to_string path ^ ": " ^ e)

let rec update path f v =
  match (path, v) with
  | [], _ -> f v
  | K k :: rest, Json.Obj kvs ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then update rest f x else x)) kvs)
  | Each :: rest, Json.List l -> Json.List (List.map (update rest f) l)
  | (Where _ | Max_by _) :: rest, Json.List l ->
      let picked = Result.value ~default:[] (resolve [ List.hd path ] v) in
      Json.List (List.map (fun e -> if List.memq e picked then update rest f e else e) l)
  | [ Len ], Json.List _ -> f v
  | _ -> v

(* ---------- gates ---------- *)

type cmp = Ge of float | Gt of float | Le of float | Eq of float
type better = Higher | Lower

type gate =
  | Bar of { name : string; path : path; cmp : cmp }
  | Flag of { name : string; path : path }
  | Drift of { name : string; path : path; per : path option; better : better }
  | Rule of { name : string; check : Json.t -> (string, string) result }
  | Drift_rule of {
      name : string;
      check : committed:Json.t -> Json.t -> (string, string) result;
    }

let gate_name = function
  | Bar { name; _ }
  | Flag { name; _ }
  | Drift { name; _ }
  | Rule { name; _ }
  | Drift_rule { name; _ } ->
      name

let drift_pct = 25.0
let ( let* ) = Result.bind

let holds cmp x =
  match cmp with Ge b -> x >= b | Gt b -> x > b | Le b -> x <= b | Eq b -> x = b

let cmp_to_string = function
  | Ge b -> ">= " ^ num_to_string b
  | Gt b -> "> " ^ num_to_string b
  | Le b -> "<= " ^ num_to_string b
  | Eq b -> "= " ^ num_to_string b

(* every value at [path] passes [ok]; an empty result fails *)
let check_all path v ok what =
  let* xs = resolve path v in
  let p = path_to_string path in
  match (xs, List.find_opt (fun x -> not (ok x)) xs) with
  | [], _ -> Error (p ^ ": no value")
  | _, Some bad -> Error (Printf.sprintf "%s = %s, need %s" p (json_to_string bad) what)
  | [ x ], None -> Ok (Printf.sprintf "%s = %s (%s)" p (json_to_string x) what)
  | xs, None -> Ok (Printf.sprintf "%s: all %d %s" p (List.length xs) what)

let number path v =
  let* xs = resolve path v in
  match List.map Json.to_float xs with
  | [ Some f ] -> Ok f
  | _ -> Error (path_to_string path ^ ": need exactly one number")

(* the figure a drift gate compares, and how it was computed *)
let measure path per v =
  let* x = number path v in
  match per with
  | None -> Ok (x, num_to_string x)
  | Some per ->
      let* n = number per v in
      if n <= 0.0 then Error (path_to_string per ^ ": not positive")
      else
        Ok (x /. n, Printf.sprintf "%s / %s = %.4g" (num_to_string x) (num_to_string n) (x /. n))

let check_absolute v = function
  | Bar { path; cmp; _ } ->
      Some
        (check_all path v
           (fun x ->
             match Json.to_float x with Some f -> holds cmp f | None -> false)
           (cmp_to_string cmp))
  | Flag { path; _ } -> Some (check_all path v (( = ) (Json.Bool true)) "true")
  | Rule { check; _ } -> Some (check v)
  | Drift _ | Drift_rule _ -> None

let check_drift ~committed fresh = function
  | Drift { path; per; better; _ } ->
      Some
        (let* c, c_text = measure path per committed in
         let* f, f_text = measure path per fresh in
         let limit, ok, word =
           match better with
           | Higher ->
               let l = c *. (1.0 -. (drift_pct /. 100.0)) in
               (l, f >= l, "floor")
           | Lower ->
               let l = c *. (1.0 +. (drift_pct /. 100.0)) in
               (l, f <= l, "ceiling")
         in
         let line =
           Printf.sprintf "%s%s = %s vs committed %s (%s %.4g)"
             (path_to_string path)
             (match per with
             | None -> ""
             | Some p -> " / " ^ path_to_string p)
             f_text c_text word limit
         in
         if ok then Ok line else Error line)
  | Drift_rule { check; _ } -> Some (check ~committed fresh)
  | Bar _ | Flag _ | Rule _ -> None

let collect results =
  let lines =
    List.map
      (fun (name, r) ->
        Result.map (fun l -> name ^ ": " ^ l) r
        |> Result.map_error (fun l -> name ^ ": " ^ l))
      results
  in
  match List.filter_map (function Error l -> Some l | Ok _ -> None) lines with
  | [] -> Ok (List.filter_map Result.to_option lines)
  | errors -> Error errors

type entry = {
  section : string;
  file : string;
  schema : string;
  regen : string;
  run : quick:bool -> Json.t;
  gates : gate list;
}

let absolute e v =
  let schema =
    match Option.bind (Json.member "schema" v) Json.to_str with
    | Some s when s = e.schema -> Ok s
    | Some s -> Error ("expected " ^ e.schema ^ ", got " ^ s)
    | None -> Error "missing"
  in
  ("schema", schema)
  :: List.filter_map
       (fun g -> Option.map (fun r -> (gate_name g, r)) (check_absolute v g))
       e.gates

let validate e v = collect (absolute e v)

let compare e ~committed fresh =
  let drifts =
    List.filter_map
      (fun g ->
        Option.map (fun r -> (gate_name g, r)) (check_drift ~committed fresh g))
      e.gates
  in
  let committed_errors =
    match validate e committed with
    | Ok _ -> []
    | Error lines -> List.map (fun l -> "committed " ^ l) lines
  in
  match (collect (absolute e fresh @ drifts), committed_errors) with
  | Ok lines, [] -> Ok lines
  | Ok _, errors -> Error errors
  | Error fresh_errors, errors -> Error (errors @ fresh_errors)

(* ---------- helpers ---------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let section title body =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf
    "================================================================\n";
  print_endline body

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> Error ("missing " ^ path)
  | ic -> (
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string raw with
      | Ok v -> Ok v
      | Error e -> Error ("cannot parse " ^ path ^ ": " ^ e))

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string v))

let d ~quick full small = if quick then small else full

let pct_reduction ~before ~after =
  if before <= 0.0 then 0.0 else 100.0 *. (before -. after) /. before

let stage_of r name =
  Option.value ~default:0 (List.assoc_opt name r.E.e1_stage_ns)

let regen ?(quick = false) section =
  Printf.sprintf "dune exec bench/main.exe -- %s--out . %s"
    (if quick then "--quick " else "")
    section

(* gate constructors, to keep the entries below one line per gate *)
let bar name path cmp = Bar { name; path; cmp }
let flag name path = Flag { name; path }

let drift ?per name path better = Drift { name; path; per; better }

(* ---------- hotpath: micro rows + E1 + E4 ---------- *)

type micro_row = { name : string; ns_per_op : float; r2 : float }

let merge_ratio counters =
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  let runs = get "merged_runs" in
  if runs = 0 then 1.0 else float_of_int (get "reads") /. float_of_int runs

let e1_json ((r : E.e1_result), wall_ms) =
  Json.Obj
    [
      ("subjects", Json.int r.e1_subjects);
      ("stage_ns", Json.Obj (List.map (fun (s, ns) -> (s, Json.int ns)) r.e1_stage_ns));
      ("total_sim_ns", Json.int r.e1_total_ns);
      ("device", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.e1_device));
      ("merge_ratio", Json.Num (merge_ratio r.e1_device));
      ("wall_ms", Json.Num wall_ms);
    ]

let hotpath_json ~quick ~micro ~e1 ~e4:(rows, e4_wall_ms) =
  Json.Obj
    [
      ("schema", Json.Str "rgpdos-bench-hotpath/1");
      ("quick", Json.Bool quick);
      ( "micro",
        Json.List
          (List.map
             (fun { name; ns_per_op; r2 } ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("ns_per_op", Json.Num ns_per_op);
                   ("r2", Json.Num r2);
                 ])
             micro) );
      ("e1", e1_json e1);
      ( "e4",
        Json.Obj
          [
            ( "rows",
              Json.List
                (List.map
                   (fun (row : E.e4_row) ->
                     Json.Obj
                       [
                         ("records_per_subject", Json.int row.e4_records_per_subject);
                         ("sim_us", Json.Num row.e4_sim_us);
                         ("export_complete", Json.Bool row.e4_export_complete);
                       ])
                   rows) );
            ("wall_ms", Json.Num e4_wall_ms);
          ] );
    ]

(* Per-stage E1 drift, per subject (the committed and the fresh run may
   be at different scales).  A stage regresses only when it is both >25%
   slower and more than 50 ns/subject slower: the fixed-cost stages
   (ded_type2req 1000 ns, ded_return 200 ns) would otherwise trip the
   percentage on constant-cost noise at different scales. *)
let e1_drift ~committed fresh =
  let stages v =
    match Option.bind (Json.member "e1" v) (Json.member "stage_ns") with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, x) -> Option.map (fun f -> (k, f)) (Json.to_float x))
          kvs
    | _ -> []
  in
  let subjects v =
    match number [ K "e1"; K "subjects" ] v with
    | Ok n when n > 0.0 -> n
    | _ -> 1.0
  in
  let old_n = subjects committed and cur_n = subjects fresh in
  let current = stages fresh in
  match stages committed with
  | [] -> Error "committed report has no e1 stages"
  | old -> (
      let regressions =
        List.filter_map
          (fun (stage, old_ns) ->
            match List.assoc_opt stage current with
            | None -> Some (stage ^ " disappeared from E1")
            | Some cur_ns ->
                let o = old_ns /. old_n and c = cur_ns /. cur_n in
                if c > o *. (1.0 +. (drift_pct /. 100.0)) && c -. o > 50.0 then
                  Some
                    (Printf.sprintf "%s %.1f -> %.1f ns/subject (+%.1f%%)" stage
                       o c
                       (100.0 *. ((c /. o) -. 1.0)))
                else None)
          old
      in
      match regressions with
      | [] ->
          Ok
            (Printf.sprintf "%d stages within +%.0f%% per subject"
               (List.length old) drift_pct)
      | l -> Error (String.concat "; " l))

let render_micro rows =
  Table.render
    ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "benchmark"; "wall ns/op"; "r^2" ]
    (List.map
       (fun { name; ns_per_op; r2 } ->
         [ name; Printf.sprintf "%.1f" ns_per_op; Printf.sprintf "%.4f" r2 ])
       rows)

let hotpath ~micro =
  {
    section = "hotpath";
    file = "BENCH_hotpath.json";
    schema = "rgpdos-bench-hotpath/1";
    regen = regen ~quick:true "hotpath";
    gates =
      List.map
        (fun row ->
          bar ("micro " ^ row)
            [ K "micro"; Where [ ("name", Json.Str ("core/" ^ row)) ]; K "ns_per_op" ]
            (Gt 0.0))
        [ "sha256/1KiB"; "chacha20/1KiB"; "audit/append" ]
      @ [
          bar "micro ns/op" [ K "micro"; Each; K "ns_per_op" ] (Gt 0.0);
          bar "E1 total" [ K "e1"; K "total_sim_ns" ] (Gt 0.0);
          bar "E4 latency" [ K "e4"; K "rows"; Each; K "sim_us" ] (Gt 0.0);
          Drift_rule { name = "E1 drift"; check = e1_drift };
        ];
    run =
      (fun ~quick ->
        let e1 =
          timed (fun () -> E.e1_ded_stages ~subjects:(d ~quick 2_000 200) ())
        in
        section "E1 — DED pipeline breakdown" (E.render_e1 (fst e1));
        let e4 =
          timed (fun () ->
              E.e4_access
                ~records_per_subject:
                  (d ~quick [ 1; 10; 50; 200; 1_000 ] [ 1; 10; 50 ])
                ())
        in
        section "E4 — right of access latency" (E.render_e4 (fst e4));
        let micro = micro () in
        section "MICRO — bechamel micro-benchmarks (host wall clock)"
          (render_micro micro);
        hotpath_json ~quick ~micro ~e1 ~e4);
  }

(* ---------- vecio: scalar vs vectored device cost model ---------- *)

let load_stages = [ "ded_load_membrane"; "ded_load_data" ]

let vectored_json ~scalar ~vectored =
  let s = fst scalar and v = fst vectored in
  let loads r = List.fold_left (fun acc st -> acc + stage_of r st) 0 load_stages in
  let red before after =
    Json.Num
      (pct_reduction ~before:(float_of_int before) ~after:(float_of_int after))
  in
  Json.Obj
    [
      ("schema", Json.Str "rgpdos-bench-vectored-io/1");
      ("scalar", e1_json scalar);
      ("vectored", e1_json vectored);
      ( "reduction_pct",
        Json.Obj
          (List.map (fun st -> (st, red (stage_of s st) (stage_of v st))) load_stages
          @ [
              ("load_stages_combined", red (loads s) (loads v));
              ("total", red s.E.e1_total_ns v.E.e1_total_ns);
            ]) );
    ]

let vecio =
  {
    section = "vecio";
    file = "BENCH_vectored_io.json";
    schema = "rgpdos-bench-vectored-io/1";
    regen = regen "vecio";
    gates =
      List.map
        (fun st ->
          bar (st ^ " reduction") [ K "reduction_pct"; K st ] (Ge 30.0))
        (load_stages @ [ "load_stages_combined" ])
      @ [
          (* the merge ratio grows with the dataset (a bigger table is a
             longer contiguous extent), so it drifts per subject *)
          drift "merge ratio"
            ~per:[ K "vectored"; K "subjects" ]
            [ K "vectored"; K "merge_ratio" ]
            Higher;
        ];
    run =
      (fun ~quick ->
        let subjects = d ~quick 2_000 200 in
        let scalar =
          timed (fun () -> E.e1_ded_stages ~subjects ~vectored:false ())
        in
        let vectored =
          timed (fun () -> E.e1_ded_stages ~subjects ~vectored:true ())
        in
        section "VECIO — scalar vs vectored device cost model (E1)"
          (Printf.sprintf
             "scalar (one seek per block):\n%s\nvectored (one seek per merged \
              run):\n%s\nmerge ratio: %.1f blocks per seek"
             (E.render_e1 (fst scalar))
             (E.render_e1 (fst vectored))
             (merge_ratio (fst vectored).E.e1_device));
        vectored_json ~scalar ~vectored);
  }

(* ---------- scale: sharded domains sweep + parallel ded_execute ---------- *)

let scale =
  let module SB = Shard_bench in
  {
    section = "scale";
    file = "BENCH_parallel_scale.json";
    schema = "rgpdos-bench-parallel-scale/1";
    regen = regen "scale";
    gates =
      (let speedup4 = [ K "scale"; Where [ ("domains", Json.Num 4.0) ]; K "speedup" ] in
       [
         bar "4-domain speedup" speedup4 (Ge 2.5);
         bar "critical path" [ K "scale"; Each; K "sim_critical_ns" ] (Gt 0.0);
         bar "parallel ded_execute" [ K "e1_ded_execute"; K "reduction_pct" ] (Gt 0.0);
         drift "4-domain speedup" speedup4 Higher;
       ]);
    run =
      (fun ~quick ->
        let subjects = d ~quick 800 240 and total_ops = d ~quick 400 120 in
        let runs =
          Rgpdos_util.Pool.with_pool (fun pool ->
              List.map
                (fun shards ->
                  SB.run ~pool ~role:Gdprbench.Processor ~subjects ~total_ops
                    ~shards ())
                [ 1; 2; 4; 8 ])
        in
        let baseline = List.hd runs in
        let e1_subjects = d ~quick 2_000 200 in
        let e1_cores = Rgpdos_ded.Ded.location_cores Rgpdos_ded.Ded.Host in
        let exec r = stage_of r "ded_execute" in
        let seq = exec (E.e1_ded_stages ~subjects:e1_subjects ~cores:1 ()) in
        let par = exec (E.e1_ded_stages ~subjects:e1_subjects ()) in
        let reduction =
          pct_reduction ~before:(float_of_int seq) ~after:(float_of_int par)
        in
        section "SCALE — sharded GDPRBench domains sweep (processor-role mix)"
          (Table.render
             ~align:Table.[ Right; Right; Right; Right; Right; Right ]
             ~header:
               [
                 "domains"; "sim critical ms"; "aggregate ms"; "kops/sim-s";
                 "speedup"; "host wall s";
               ]
             (List.map
                (fun (r : SB.report) ->
                  [
                    string_of_int r.shards;
                    Printf.sprintf "%.2f" (float_of_int r.sim_critical_ns /. 1e6);
                    Printf.sprintf "%.2f" (float_of_int r.sim_total_ns /. 1e6);
                    Printf.sprintf "%.1f" r.kops_per_sim_s;
                    Printf.sprintf "%.2fx" (SB.speedup ~baseline r);
                    Printf.sprintf "%.3f" r.wall_seconds;
                  ])
                runs)
          ^ Printf.sprintf
              "\nE1 ded_execute (%d subjects): sequential %.2f sim-ms -> %d-core \
               %.2f sim-ms (%.1f%% less)"
              e1_subjects
              (float_of_int seq /. 1e6)
              e1_cores
              (float_of_int par /. 1e6)
              (100.0 *. float_of_int (seq - par) /. float_of_int (max 1 seq)));
        Json.Obj
          [
            ("schema", Json.Str "rgpdos-bench-parallel-scale/1");
            ("role", Json.Str "processor");
            ("subjects", Json.int subjects);
            ("total_ops", Json.int total_ops);
            ( "scale",
              Json.List
                (List.map
                   (fun (r : SB.report) ->
                     Json.Obj
                       [
                         ("domains", Json.int r.shards);
                         ("sim_critical_ns", Json.int r.sim_critical_ns);
                         ("sim_total_ns", Json.int r.sim_total_ns);
                         ("kops_per_sim_s", Json.Num r.kops_per_sim_s);
                         ("wall_s", Json.Num r.wall_seconds);
                         ("speedup", Json.Num (SB.speedup ~baseline r));
                       ])
                   runs) );
            ( "e1_ded_execute",
              Json.Obj
                [
                  ("subjects", Json.int e1_subjects);
                  ("cores", Json.int e1_cores);
                  ("sequential_ns", Json.int seq);
                  ("parallel_ns", Json.int par);
                  ("reduction_pct", Json.Num reduction);
                ] );
          ]);
  }

(* ---------- index: selectivity sweep + TTL sweep ---------- *)

let index =
  {
    section = "index";
    file = "BENCH_index_select.json";
    schema = "rgpdos-bench-index-select/2";
    regen = regen "index";
    gates =
      (* the 1% Eq probe at 2,000 subjects: the configuration both the
         quick and the full run include *)
      (let pushdown =
         [
           K "select";
           Where [ ("selectivity_pct", Json.Num 1.0); ("population", Json.Num 2000.0) ];
           K "speedup";
         ]
       in
       [
         bar "1% pushdown speedup" pushdown (Ge 10.0);
         (* O(expired): a fixed expired cohort costs the same sweep
            whatever the population around it *)
         bar "TTL sweep flat" [ K "ttl_sweep_ratio" ] (Le 1.25);
         drift "1% pushdown speedup" pushdown Higher;
       ]);
    run =
      (fun ~quick ->
        let (r : E.eidx_result), wall_ms =
          timed (fun () ->
              E.e_index
                ~sizes:(d ~quick [ 500; 2_000; 8_000 ] [ 500; 2_000 ])
                ~ttl_sizes:(d ~quick [ 500; 2_000; 4_000 ] [ 200; 500 ])
                ())
        in
        section "INDEX — secondary-index pushdown vs full-type scans"
          (E.render_e_index r);
        Json.Obj
          [
            ("schema", Json.Str "rgpdos-bench-index-select/2");
            ( "select",
              Json.List
                (List.map
                   (fun (row : E.eidx_select_row) ->
                     Json.Obj
                       [
                         ("population", Json.int row.eidx_population);
                         ("probe", Json.Str row.eidx_probe);
                         ("selectivity_pct", Json.Num row.eidx_selectivity_pct);
                         ("matches", Json.int row.eidx_matches);
                         ("scan_sim_ns", Json.int row.eidx_scan_ns);
                         ("index_sim_ns", Json.int row.eidx_index_ns);
                         ("speedup", Json.Num row.eidx_speedup);
                       ])
                   r.eidx_select) );
            ( "ttl",
              Json.List
                (List.map
                   (fun (row : E.eidx_ttl_row) ->
                     Json.Obj
                       [
                         ("population", Json.int row.eidx_ttl_population);
                         ("expired", Json.int row.eidx_ttl_expired);
                         ("sweep_sim_ns", Json.int row.eidx_ttl_sweep_ns);
                       ])
                   r.eidx_ttl) );
            (* the sweep at the largest population over the smallest's *)
            ( "ttl_sweep_ratio",
              let ns (row : E.eidx_ttl_row) = float_of_int row.eidx_ttl_sweep_ns in
              match
                List.sort
                  (fun (a : E.eidx_ttl_row) b ->
                    Int.compare a.eidx_ttl_population b.eidx_ttl_population)
                  r.eidx_ttl
              with
              | [] -> Json.Null
              | smallest :: _ as rows ->
                  Json.Num (ns (List.nth rows (List.length rows - 1)) /. ns smallest) );
            ("wall_ms", Json.Num wall_ms);
          ]);
  }

(* ---------- the entries over result types with their own encoder ---------- *)

let mount =
  let module MB = Mount_bench in
  {
    section = "mount";
    file = "BENCH_mount_scale.json";
    schema = MB.schema_id;
    regen = regen "mount" ^ "  # the 10^6-subject row needs ~20 GB and ~6 min";
    gates =
      [
        bar "population sweep" [ K "mount"; Len ] (Ge 2.0);
        bar "mount reads" [ K "mount"; Each; K "mount_reads" ] (Gt 0.0);
        bar "mount read ratio" [ K "read_ratio_max" ] (Le 2.0);
        Rule
          {
            name = "zipf within budget";
            check =
              (fun v ->
                let* resident = number [ K "zipf"; K "resident_max" ] v in
                let* budget = number [ K "zipf"; K "budget" ] v in
                let line =
                  Printf.sprintf "resident high-water %.0f, budget %.0f" resident
                    budget
                in
                if resident <= budget then Ok line else Error line);
          };
        bar "zipf evictions" [ K "zipf"; K "evictions" ] (Gt 0.0);
        flag "zipf ops ok" [ K "zipf"; K "ops_ok" ];
        drift "mount read ratio" [ K "read_ratio_max" ] Lower;
      ];
    run =
      (fun ~quick ->
        let r, wall_ms =
          timed (fun () ->
              MB.run
                ~sizes:
                  (d ~quick
                     [ 1_000; 10_000; 100_000; 1_000_000 ]
                     [ 1_000; 4_000; 10_000 ])
                ~ops:(d ~quick 20_000 1_000) ~budget:(d ~quick 4_096 128) ())
        in
        section "MOUNT — paged-index mount scaling + bounded-cache Zipf workload"
          (MB.render r);
        MB.to_json ~wall_ms r);
  }

let fault =
  let module FC = Fault_campaign in
  {
    section = "fault";
    file = "BENCH_fault_campaign.json";
    schema = "rgpdos-fault-campaign/1";
    regen = regen "fault";
    gates =
      [
        bar "total writes" [ K "total_writes" ] (Gt 0.0);
        Rule
          {
            name = "fault-point exhaustiveness";
            check =
              (fun v ->
                let* total = number [ K "total_writes" ] v in
                let* ordinals = resolve [ K "points"; Each; K "write" ] v in
                let covered =
                  List.sort_uniq Stdlib.compare
                    (List.filter_map Json.to_float ordinals)
                in
                match Json.member "sampled" v with
                | Some (Json.Bool true) ->
                    Ok (Printf.sprintf "sampled, %d points" (List.length covered))
                | Some (Json.Bool false) ->
                    let line =
                      Printf.sprintf "%d of %.0f crash points covered"
                        (List.length covered) total
                    in
                    if covered = List.init (int_of_float total) (fun i -> float_of_int (i + 1))
                    then Ok line
                    else Error line
                | _ -> Error "missing sampled flag");
          };
        bar "invariant pass rate" [ K "pass_rate_pct" ] (Ge 100.0);
        flag "scenarios pass" [ K "scenarios"; Each; K "pass" ];
      ];
    run =
      (fun ~quick ->
        (* deterministic, and the workload writes well under the
           200-point cap, so quick and full enumerate the same points *)
        let r, wall_ms =
          timed (fun () ->
              FC.run ?max_points:(if quick then Some 200 else None) ())
        in
        section "FAULT — deterministic crash/fault-injection campaign"
          (FC.render r);
        FC.to_json ~wall_ms r);
  }

let model =
  let module RF = Rgpdos_model.Refine in
  {
    section = "model";
    file = "BENCH_model_check.json";
    schema = "rgpdos-model-check/1";
    regen = regen "model";
    gates =
      List.map
        (fun k -> bar k [ K k ] (Gt 0.0))
        [ "scripts"; "ops_checked"; "fault_points"; "crash_runs" ]
      @ [
          Rule
            {
              name = "crash matrix";
              check =
                (fun v ->
                  let ints k =
                    let* l = resolve [ K k; Each ] v in
                    Ok (List.map int_of_float (List.filter_map Json.to_float l))
                  in
                  let* configs = number [ K "crash_configs" ] v in
                  let* runs = number [ K "crash_runs" ] v in
                  let* domains = ints "lin_domains" in
                  let* budgets = ints "cache_budgets" in
                  let n = List.length RF.all_cfgs in
                  if int_of_float configs <> n then
                    Error
                      (Printf.sprintf "%.0f crash configs, the matrix has %d"
                         configs n)
                  else if runs < configs then
                    Error "fewer crash runs than crash configs"
                  else if domains <> [ 1; 2; 4 ] then
                    Error "lin_domains must be 1/2/4"
                  else if budgets <> RF.budgets then
                    Error "cache_budgets differ from the coherence audit's"
                  else
                    Ok
                      (Printf.sprintf "%d configs, %.0f runs, 1/2/4 domains" n
                         runs));
            };
          bar "conformance" [ K "conformance_pct" ] (Ge 100.0);
          bar "counterexamples" [ K "failures"; Len ] (Eq 0.0);
          flag "all pass" [ K "all_pass" ];
        ];
    run =
      (fun ~quick:_ ->
        (* 4 scripts at every scale: deterministic in the seed *)
        let r, wall_ms = timed (fun () -> RF.run ~scripts:4 ()) in
        section
          "MODEL — executable GDPR model refinement (lockstep / crash / \
           linearizability / coherence)"
          (RF.render r);
        RF.to_json ~wall_ms r);
  }

let segment =
  let module SG = Segment_bench in
  {
    section = "segment";
    file = "BENCH_segment_io.json";
    schema = SG.schema_id;
    regen = regen "segment";
    gates =
      [
        bar "subjects" [ K "segmented"; K "subjects" ] (Ge 10_000.0);
        bar "baseline write amp" [ K "baseline"; K "write_amp" ] (Gt 0.0);
        bar "segmented write amp" [ K "segmented"; K "write_amp" ] (Gt 0.0);
        bar "group-commit batches" [ K "segmented"; K "batches" ] (Gt 0.0);
        flag "baseline residue clean" [ K "baseline"; K "residue_clean" ];
        flag "segmented residue clean" [ K "segmented"; K "residue_clean" ];
        bar "write-amp ratio" [ K "amp_ratio" ] (Ge 2.0);
        bar "ingest ratio" [ K "ingest_ratio" ] (Gt 1.0);
        drift "segmented ingest" [ K "segmented"; K "ingest_mb_s" ] Higher;
      ];
    run =
      (fun ~quick:_ ->
        (* virtual-clock deterministic; the >= 10^4-subject claim needs
           the default size at either scale *)
        let r, wall_ms = timed (fun () -> SG.run ()) in
        section "SEGMENT — update-in-place vs log-structured segments (A/B)"
          (SG.render r);
        SG.to_json ~wall_ms r);
  }

let sla =
  let module SLA = Sla_bench in
  let art15 side k =
    [ K side; K "rights"; Where [ ("label", Json.Str "art15") ]; K k ]
  in
  {
    section = "sla";
    file = "BENCH_rights_sla.json";
    schema = SLA.schema_id;
    regen = regen "sla";
    gates =
      [
        bar "FIFO Art. 15 samples" (art15 "fifo" "count") (Gt 0.0);
        bar "EDF Art. 15 samples" (art15 "edf" "count") (Gt 0.0);
        Rule
          {
            name = "equal Art. 15 counts";
            check =
              (fun v ->
                let* fifo = number (art15 "fifo" "count") v in
                let* edf = number (art15 "edf" "count") v in
                let line = Printf.sprintf "FIFO %.0f, EDF %.0f" fifo edf in
                if fifo = edf then Ok line else Error line);
          };
        bar "EDF preemptions" [ K "edf"; K "counters"; K "preemptions" ] (Gt 0.0);
        bar "FIFO preemptions" [ K "fifo"; K "counters"; K "preemptions" ] (Eq 0.0);
        bar "EDF Art. 15 misses" (art15 "edf" "misses") (Eq 0.0);
        bar "EDF deadline misses" [ K "edf"; K "counters"; K "deadline_misses" ] (Eq 0.0);
        bar "storm requests" [ K "storm"; K "requests" ] (Gt 0.0);
        bar "storm misses" [ K "storm"; K "misses" ] (Eq 0.0);
        bar "breach subjects" [ K "breach"; K "affected" ] (Gt 0.0);
        flag "breach deadline met" [ K "breach"; K "met" ];
        (* the factor deepens with schedule length, so quick and full
           runs are held to the absolute bar rather than a drift *)
        bar "Art. 15 p99 improvement" [ K "improvement"; K "art15" ] (Ge 5.0);
      ];
    run =
      (fun ~quick ->
        let r, wall_ms =
          timed (fun () ->
              SLA.run ~subjects:(d ~quick 2_000 600) ~batches:(d ~quick 30 12) ())
        in
        section "SLA — rights latency under saturating load (FIFO vs EDF)"
          (SLA.render r);
        SLA.to_json ~wall_ms r);
  }

let async =
  let module AB = Async_bench in
  {
    section = "async";
    file = "BENCH_async_io.json";
    schema = AB.schema_id;
    regen = regen "async";
    gates =
      [
        flag "same bytes at every depth" [ K "sizes"; Each; K "invariant_ok" ];
        bar "depth >= 4 swept"
          [ K "sizes"; Each; K "rows"; Max_by "depth"; K "depth" ]
          (Ge 4.0);
        (* overlap deepens with batch size: absolute bars, no drift *)
        bar "load-stage speedup" [ K "best_load_speedup" ] (Ge 1.8);
        bar "overlap" [ K "best_overlap_pct" ] (Ge 40.0);
        (* a batch resolves its pds in one entries-tree descent, so E1's
           blocking cost per subject stays flat once the tree is paged *)
        Rule
          {
            name = "no per-subject cliff";
            check =
              (fun v ->
                let* sizes = resolve [ K "sizes"; Each ] v in
                let* per =
                  List.fold_left
                    (fun acc s ->
                      let* acc = acc in
                      let* n = number [ K "subjects" ] s in
                      let* ns =
                        number
                          [ K "rows"; Where [ ("depth", Json.Num 1.0) ]; K "total_ns" ]
                          s
                      in
                      Ok ((n, ns /. n) :: acc))
                    (Ok []) sizes
                in
                match List.sort Stdlib.compare per with
                | [] | [ _ ] -> Ok "one size: no sweep to compare"
                | (n0, lo) :: rest ->
                    let n1, hi = List.nth rest (List.length rest - 1) in
                    let line =
                      Printf.sprintf
                        "depth-1 E1 %.0f ns/subject at %.0f subjects vs %.0f at \
                         %.0f (%.2fx, max 1.5x)"
                        hi n1 lo n0 (hi /. lo)
                    in
                    if hi <= 1.5 *. lo then Ok line else Error line);
          };
      ];
    run =
      (fun ~quick ->
        (* quick shrinks the populations but keeps the depth sweep *)
        let r, wall_ms =
          timed (fun () ->
              AB.run ~sizes:(d ~quick [ 2_000; 8_000 ] [ 400; 1_000 ]) ())
        in
        section "ASYNC — submission/completion queue depth sweep (E1, vs depth 1)"
          (AB.render r);
        AB.to_json ~wall_ms r);
  }

let registry ~micro =
  [ hotpath ~micro; vecio; scale; index; mount; fault; model; segment; sla; async ]

let find section =
  List.find (fun e -> e.section = section) (registry ~micro:(fun () -> []))

(* ---------- print-only sections ---------- *)

(* A3: crypto-erasure cost versus the authority's key size, host time of
   keygen / seal / open at growing RSA moduli — the knob an operator
   turns when the simulation-scale default (256 bits) is not enough. *)
let keysize_ablation () =
  let module Rsa = Rgpdos_crypto.Rsa in
  let module Envelope = Rgpdos_crypto.Envelope in
  let prng = Rgpdos_util.Prng.create ~seed:4L () in
  let payload = Rgpdos_util.Prng.bytes prng 1024 in
  (* average the cheap operations *)
  let avg n f =
    let r, ms = timed (fun () -> List.init n (fun _ -> f ())) in
    (List.hd r, ms /. float_of_int n)
  in
  Table.render
    ~align:Table.[ Right; Right; Right; Right ]
    ~header:[ "modulus bits"; "keygen ms"; "seal 1KiB ms"; "open 1KiB ms" ]
    (List.map
       (fun bits ->
         let kp, keygen_ms = timed (fun () -> Rsa.generate ~bits prng) in
         let env, seal_ms =
           avg 20 (fun () -> Envelope.seal prng kp.Rsa.public payload)
         in
         let opened, open_ms =
           avg 5 (fun () -> Envelope.open_ kp.Rsa.private_ env)
         in
         (match opened with
         | Ok p when String.equal p payload -> ()
         | _ -> failwith "a3: envelope did not roundtrip");
         [
           string_of_int bits;
           Printf.sprintf "%.1f" keygen_ms;
           Printf.sprintf "%.2f" seal_ms;
           Printf.sprintf "%.2f" open_ms;
         ])
       [ 256; 384; 512; 1_024 ] (* < ~224 bits cannot hold the envelope seed *))

let printed =
  let p name title body = (name, fun ~quick -> section title (body ~quick)) in
  [
    p "fig1" "FIG1 — GDPR penalty statistics (paper Figure 1)" (fun ~quick:_ ->
        Rgpdos_penalties.Penalties.render_figure1 ());
    p "e2" "E2 — GDPRBench roles: rgpdOS vs DB-level GDPR vs vanilla"
      (fun ~quick ->
        E.render_e2
          (E.e2_gdprbench ~subjects:(d ~quick 400 80)
             ~ops_per_role:(d ~quick 200 50) ()));
    p "e2b" "E2b — processor-role scaling sweep" (fun ~quick ->
        E.render_e2b
          (E.e2b_scaling
             ~sizes:(d ~quick [ 100; 200; 400; 800 ] [ 50; 100 ])
             ~ops:(d ~quick 100 30) ()));
    p "e3" "E3 — right to be forgotten (forensic)" (fun ~quick ->
        E.render_e3
          (E.e3_erasure ~subjects:(d ~quick 300 60) ~erase_fraction:0.10 ()));
    p "e5" "E5 — storage-limitation sweep" (fun ~quick ->
        E.render_e5
          (E.e5_ttl ~sizes:(d ~quick [ 500; 1_000; 2_000; 4_000 ] [ 100; 200 ]) ()));
    p "e6" "E6 — membrane filter selectivity" (fun ~quick ->
        E.render_e6 (E.e6_filter ~subjects:(d ~quick 1_000 150) ()));
    p "e7" "E7 — cross-purpose leak attempts" (fun ~quick ->
        E.render_e7 (E.e7_leak ~attacks:(d ~quick 200 40) ()));
    p "e8" "E8 — ps_register purpose/implementation checks" (fun ~quick:_ ->
        E.render_e8 (E.e8_register ()));
    p "e9" "E9 — purpose-kernel partitioning" (fun ~quick ->
        E.render_e9 (E.e9_kernels ~jobs:(d ~quick 100 24) ()));
    p "e11" "E11 — consent churn with live copies" (fun ~quick ->
        E.render_e11
          (E.e11_consent_churn ~subjects:(d ~quick 300 60) ~flips:(d ~quick 200 40) ()));
    p "a1" "A1 — ablation: two-phase vs single-phase DBFS fetching"
      (fun ~quick -> E.render_a1 (E.a1_fetch_mode ~subjects:(d ~quick 500 80) ()));
    p "a2" "A2 — ablation: DED placement (host / PIM / PIS)" (fun ~quick ->
        E.render_a2 (E.a2_placement ~subjects:(d ~quick 1_000 150) ()));
    p "e10" "E10 — audit-chain verification" (fun ~quick ->
        E.render_e10
          (E.e10_audit
             ~sizes:(d ~quick [ 100; 1_000; 10_000; 50_000 ] [ 100; 1_000 ])
             ()));
    p "a3" "A3 — ablation: crypto-erasure cost vs authority key size (wall clock)"
      (fun ~quick:_ -> keysize_ablation ());
  ]

let parse_sections entries args =
  let known = List.map fst printed @ List.map (fun e -> e.section) entries in
  match List.filter (fun a -> not (List.mem a known)) args with
  | [] -> Ok (if args = [] then known else args)
  | unknown ->
      Error
        (Printf.sprintf "unknown section%s %s; valid sections: %s"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown)
           (String.concat " " known))
