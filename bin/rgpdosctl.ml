(* rgpdosctl: command-line front end to the rgpdOS simulation.

   Subcommands:
     parse FILE        check a declaration file and print what it defines
     demo              run an end-to-end scenario on a fresh machine
     fsck              populate a DBFS or journalfs, optionally damage it,
                       check/repair (both print the journal replay summary)
     stats             run a scripted workload, print cache/index/device counters
     fig1              print the paper's Figure 1 statistics
     experiment ID     run one experiment (e1..e11, a1..a3) at bench scale
     model-check       run the executable-GDPR-model refinement campaign
     articles          print the GDPR article -> rgpdOS mechanism table *)

open Cmdliner

module Machine = Rgpdos.Machine
module Parser = Rgpdos_lang.Parser
module Ast = Rgpdos_lang.Ast
module Schema = Rgpdos_dbfs.Schema
module Value = Rgpdos_dbfs.Value
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Articles = Rgpdos_gdpr.Articles
module E = Rgpdos_workload.Experiments
module Bench = Rgpdos_workload.Bench
module Table = Rgpdos_util.Table

(* ------------------------------------------------------------------ *)
(* parse                                                              *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_cmd_run path =
  match Parser.parse (read_file path) with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      1
  | Ok decls ->
      List.iter
        (function
          | Ast.Type_decl d -> (
              match Ast.to_schema d with
              | Ok schema ->
                  Format.printf "%a@.@." Schema.pp schema
              | Error e ->
                  Format.printf "type %s: INVALID (%s)@.@." d.Ast.t_name e)
          | Ast.Purpose_decl p -> Format.printf "%a@.@." Ast.pp_purpose_decl p)
        decls;
      Printf.printf "%d declaration(s) parsed from %s\n" (List.length decls) path;
      0

let parse_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Declaration file (Listing-1 syntax).")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Check a PD-type/purpose declaration file")
    Term.(const parse_cmd_run $ path)

(* ------------------------------------------------------------------ *)
(* demo                                                               *)

let demo_run subjects seed where =
  let prng = Rgpdos_util.Prng.create ~seed:(Int64.of_int seed) () in
  let people = Rgpdos_workload.Population.generate prng ~n:subjects in
  let m = Machine.boot ~seed:(Int64.of_int seed) () in
  (match Machine.load_declarations m Rgpdos_workload.Population.type_declaration with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "declarations: %s\n" e;
      exit 1);
  List.iter
    (fun (p : Rgpdos_workload.Population.person) ->
      ignore
        (Machine.collect m ~type_name:"person" ~subject:p.Rgpdos_workload.Population.subject_id
           ~interface:"web_form"
           ~record:(Rgpdos_workload.Population.record_of p)
           ~consents:p.Rgpdos_workload.Population.consent_profile ()))
    people;
  Printf.printf "collected %d subjects\n" subjects;
  let spec =
    match
      Machine.make_processing m ~name:"stats" ~purpose:"analytics"
        ~touches:[ ("person", [ "year_of_birth" ]) ]
        (fun _ctx inputs ->
          Ok (Processing.value_output (Value.VInt (List.length inputs))))
    with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
  in
  ignore (Machine.register_processing m spec);
  let target =
    match where with
    | None -> Ded.All_of_type "person"
    | Some src -> (
        match Parser.parse_predicate src with
        | Ok pred ->
            Printf.printf "selection: %s\n" (Rgpdos_dbfs.Query.to_string pred);
            Ded.Selection ("person", pred)
        | Error e ->
            Printf.eprintf "bad --where predicate: %s\n" e;
            exit 1)
  in
  (match Machine.invoke m ~name:"stats" ~target () with
  | Ok o ->
      Printf.printf "analytics processing: %d consented+selected, %d refused\n"
        o.Ded.consumed o.Ded.filtered
  | Error e -> Printf.printf "invoke failed: %s\n" e);
  let victim = (List.hd people).Rgpdos_workload.Population.subject_id in
  (match Machine.right_to_erasure m ~subject:victim with
  | Ok n -> Printf.printf "right to be forgotten for %s: %d PD erased\n" victim n
  | Error e -> Printf.printf "erasure failed: %s\n" e);
  let verdicts =
    Rgpdos_gdpr.Compliance.evaluate (Machine.compliance_evidence m ())
  in
  Printf.printf "compliance: %s\n" (Rgpdos_gdpr.Compliance.summary verdicts);
  if subjects <= 10 then (
    match Rgpdos_dbfs.Dbfs.describe_trees (Machine.dbfs m) ~actor:"ded" with
    | Ok trees ->
        print_newline ();
        print_string trees
    | Error _ -> ());
  0

let demo_cmd =
  let subjects =
    Arg.(value & opt int 100 & info [ "subjects"; "n" ] ~doc:"Population size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let where =
    Arg.(value & opt (some string) None
         & info [ "where" ] ~docv:"PRED"
             ~doc:"Selection predicate, e.g. \"year_of_birth > 1990\".")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run an end-to-end scenario on a fresh machine")
    Term.(const demo_run $ subjects $ seed $ where)

(* ------------------------------------------------------------------ *)
(* fsck                                                               *)

module Dbfs = Rgpdos_dbfs.Dbfs
module Block_device = Rgpdos_block.Block_device
module Journal_ring = Rgpdos_block.Journal_ring
module Journalfs = Rgpdos_journalfs.Journalfs
module Population = Rgpdos_workload.Population

let print_replay_summary = function
  | Some s ->
      Printf.printf "journal replay: %d record(s), stop=%s\n"
        s.Journal_ring.records_replayed
        (Journal_ring.stop_reason_to_string s.Journal_ring.stop_reason)
  | None -> ()

let fsck_boot subjects seed =
  let prng = Rgpdos_util.Prng.create ~seed:(Int64.of_int seed) () in
  let people = Population.generate prng ~n:subjects in
  let m = Machine.boot ~seed:(Int64.of_int seed) () in
  (match Machine.load_declarations m Population.type_declaration with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "declarations: %s\n" e;
      exit 2);
  List.iter
    (fun (p : Population.person) ->
      match
        Machine.collect m ~type_name:"person" ~subject:p.Population.subject_id
          ~interface:"web_form" ~record:(Population.record_of p)
          ~consents:p.Population.consent_profile ()
      with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "collect: %s\n" e;
          exit 2)
    people;
  (m, people)

(* Build the store the check runs against, per the requested damage mode:
   a cold remount (caches dropped, so extent checksums are re-verified)
   with optionally one bit of a record extent flipped, the secondary
   index tampered, or the device image captured mid-erasure as a crash
   would leave it. *)
let fsck_store damage subjects seed =
  let m, people = fsck_boot subjects seed in
  let store = Machine.dbfs m in
  let first_pd () =
    match
      Dbfs.pds_of_subject store ~actor:"ded"
        (List.hd people).Population.subject_id
    with
    | Ok (pd :: _) -> pd
    | _ ->
        Printf.eprintf "no pd to damage\n";
        exit 2
  in
  let remount () =
    match Dbfs.crash_and_remount store with
    | Ok s -> s
    | Error e ->
        Printf.eprintf "remount: %s\n" e;
        exit 2
  in
  match damage with
  | "none" -> remount ()
  | "bit-rot" ->
      let pd = first_pd () in
      let rec_blocks =
        match Dbfs.entry_blocks store ~actor:"ded" pd with
        | Ok (rb, _) -> rb
        | Error e ->
            Printf.eprintf "entry_blocks: %s\n" (Dbfs.error_to_string e);
            exit 2
      in
      let cold = remount () in
      Block_device.unsafe_flip (Dbfs.device cold)
        ~block:(List.hd rec_blocks) ~byte:10 ~bit:3;
      cold
  | "index" ->
      if not (Dbfs.unsafe_tamper_index store (first_pd ())) then begin
        Printf.eprintf "pd has no indexed field to tamper\n";
        exit 2
      end;
      store
  | "index-page" ->
      (* the paged index trees exist on the device only after a
         checkpoint; enumerate a node page while the store is warm, then
         remount cold (empty page cache) and flip one bit inside the
         page's framed payload so the next read must fail its checksum *)
      Dbfs.checkpoint store;
      (match Dbfs.index_page_blocks store with
      | [] ->
          Printf.eprintf "no index node pages after checkpoint\n";
          exit 2
      | (block, _) :: _ ->
          let cold = remount () in
          Block_device.unsafe_flip (Dbfs.device cold) ~block ~byte:8 ~bit:3;
          cold)
  | "crash" ->
      let dev = Machine.pd_device m in
      let plan = Block_device.Fault_plan.create () in
      Block_device.Fault_plan.crash_after_writes plan 1;
      Block_device.set_fault_plan dev (Some plan);
      ignore
        (Machine.right_to_erasure m
           ~subject:(List.hd people).Population.subject_id);
      Block_device.set_fault_plan dev None;
      let image =
        match Block_device.crash_image dev with
        | Some i -> i
        | None ->
            Printf.eprintf "crash point never fired\n";
            exit 2
      in
      let clock = Rgpdos_util.Clock.create () in
      let rdev =
        Block_device.create ~config:(Block_device.config dev) ~clock ()
      in
      Block_device.restore rdev image;
      (match Dbfs.mount rdev with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "mount: %s\n" e;
          exit 2)
  | other ->
      Printf.eprintf
        "unknown --damage %s (expected none, bit-rot, index, index-page, \
         crash)\n"
        other;
      exit 2

let fsck_dbfs repair subjects seed damage =
  let store = fsck_store damage subjects seed in
  print_replay_summary (Dbfs.replay_report store);
  if not repair then
    match Dbfs.fsck store with
    | Ok () ->
        Printf.printf "fsck: clean (%d pd)\n" (Dbfs.pd_count store);
        0
    | Error problems ->
        Printf.printf "fsck: %d problem(s) found:\n" (List.length problems);
        List.iter (fun p -> Printf.printf "  %s\n" p) problems;
        Printf.printf "run with --repair to self-heal\n";
        1
  else begin
    let rep = Dbfs.fsck_repair store in
    Printf.printf "fsck --repair:\n";
    Printf.printf "  problems found:    %d\n" (List.length rep.Dbfs.rr_problems);
    List.iter (fun p -> Printf.printf "    %s\n" p) rep.Dbfs.rr_problems;
    Printf.printf "  repair actions:    %d\n" (List.length rep.Dbfs.rr_actions);
    List.iter (fun a -> Printf.printf "    %s\n" a) rep.Dbfs.rr_actions;
    Printf.printf "  quarantined pds:   %d\n"
      (List.length rep.Dbfs.rr_quarantined);
    List.iter
      (fun (pd, reason) -> Printf.printf "    %s: %s\n" pd reason)
      rep.Dbfs.rr_quarantined;
    Printf.printf "  scrubbed blocks:   %d\n" rep.Dbfs.rr_scrubbed_blocks;
    (match rep.Dbfs.rr_journal_truncated with
    | Some reason -> Printf.printf "  journal truncated: %s\n" reason
    | None -> ());
    if rep.Dbfs.rr_clean then begin
      Printf.printf "store is clean (%d pd live)\n" (Dbfs.pd_count store);
      0
    end
    else begin
      Printf.printf "UNRECOVERABLE: post-repair check still failing\n";
      1
    end
  end

(* The journalfs (non-PD files) variant: populate a fresh journalfs
   without checkpointing — every op sits in the journal ring — then
   remount per the requested damage mode and print the same
   Journal_ring.replay summary the DBFS path prints, followed by the
   fsck verdict.  Only damage modes that make sense for a plain
   journaling filesystem are accepted. *)
let fsck_journalfs repair subjects seed damage =
  let prng = Rgpdos_util.Prng.create ~seed:(Int64.of_int seed) () in
  let people = Population.generate prng ~n:subjects in
  let clock = Rgpdos_util.Clock.create () in
  let dev = Block_device.create ~config:Block_device.default_config ~clock () in
  let fs = Journalfs.format dev ~journal_blocks:64 in
  let ok_or_die what = function
    | Ok v -> v
    | Error e ->
        Printf.eprintf "%s: %s\n" what (Journalfs.error_to_string e);
        exit 2
  in
  ok_or_die "mkdir" (Journalfs.mkdir fs "/subjects");
  let populate () =
    List.iter
      (fun (p : Population.person) ->
        let path = "/subjects/" ^ p.Population.subject_id in
        ok_or_die "write_file"
          (Journalfs.write_file fs path
             (Rgpdos_dbfs.Record.encode (Population.record_of p))))
      people
  in
  let remount () =
    match Journalfs.crash_and_remount fs with
    | Ok fs' -> fs'
    | Error e ->
        Printf.eprintf "remount: %s\n" e;
        exit 2
  in
  let fs =
    match damage with
    | "none" ->
        populate ();
        remount ()
    | "bit-rot" ->
        (* flip a bit inside an early journal frame (the ring starts at
           block 1; the first frames sit at the start of it): replay
           must stop there with Bad_checksum instead of trusting the
           damaged tail, recovering only the prefix before the flip *)
        populate ();
        Block_device.unsafe_flip dev ~block:1 ~byte:120 ~bit:2;
        remount ()
    | "crash" ->
        (* power loss mid-populate: cut the device off after a handful
           of writes and mount whatever image a real crash would leave *)
        let plan = Block_device.Fault_plan.create () in
        Block_device.Fault_plan.crash_after_writes plan (3 + (seed mod 5));
        Block_device.set_fault_plan dev (Some plan);
        populate ();
        Block_device.set_fault_plan dev None;
        let image =
          match Block_device.crash_image dev with
          | Some i -> i
          | None ->
              Printf.eprintf "crash point never fired\n";
              exit 2
        in
        let rdev =
          Block_device.create ~config:(Block_device.config dev) ~clock ()
        in
        Block_device.restore rdev image;
        (match Journalfs.mount rdev with
        | Ok fs' -> fs'
        | Error e ->
            Printf.eprintf "mount: %s\n" e;
            exit 2)
    | other ->
        Printf.eprintf
          "unknown --damage %s for --fs journalfs (expected none, bit-rot, \
           crash)\n"
          other;
        exit 2
  in
  print_replay_summary (Journalfs.replay_report fs);
  (match Journalfs.replay_warning fs with
  | Some w -> Printf.printf "journal warning: %s\n" w
  | None -> ());
  if repair then begin
    (* journalfs self-heals at replay time by truncating the damaged
       tail; --repair additionally checkpoints the replayed state and
       scrubs the stale journal so the next mount starts clean *)
    Journalfs.checkpoint fs;
    Journalfs.scrub_journal fs;
    Printf.printf "repair: checkpointed replayed state, journal scrubbed\n"
  end;
  match Journalfs.fsck fs with
  | Ok () ->
      let files =
        match Journalfs.list_dir fs "/subjects" with
        | Ok names -> List.length names
        | Error _ -> 0
      in
      Printf.printf "fsck: clean (%d file(s) under /subjects)\n" files;
      0
  | Error problems ->
      Printf.printf "fsck: %d problem(s) found:\n" (List.length problems);
      List.iter (fun p -> Printf.printf "  %s\n" p) problems;
      1

let fsck_run repair subjects seed damage fstype =
  match fstype with
  | "dbfs" -> fsck_dbfs repair subjects seed damage
  | "journalfs" -> fsck_journalfs repair subjects seed damage
  | other ->
      Printf.eprintf "unknown --fs %s (expected dbfs, journalfs)\n" other;
      2

let fsck_cmd =
  let repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:"Self-heal: quarantine unrecoverable pds, rebuild the \
                   secondary indexes, scrub free blocks, truncate a damaged \
                   journal.")
  in
  let subjects =
    Arg.(value & opt int 20 & info [ "subjects"; "n" ] ~doc:"Population size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let damage =
    Arg.(value & opt string "none"
         & info [ "damage" ] ~docv:"KIND"
             ~doc:"Damage to inject before checking: none, bit-rot (flip a \
                   bit in a record extent, or in a journal frame for \
                   journalfs), index (drop a posting), index-page (flip a \
                   bit in an on-device index node page after a cold \
                   remount), crash (power loss mid-erasure, or \
                   mid-populate for journalfs).")
  in
  let fstype =
    Arg.(value & opt string "dbfs"
         & info [ "fs" ] ~docv:"FS"
             ~doc:"Filesystem to check: dbfs (the PD store) or journalfs \
                   (the journaling filesystem for non-PD files).  Both \
                   print the journal replay summary on mount.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Check (or self-heal with --repair) a populated DBFS or \
             journalfs; exits non-zero on unrecoverable damage")
    Term.(const fsck_run $ repair $ subjects $ seed $ damage $ fstype)

(* ------------------------------------------------------------------ *)
(* stats                                                              *)

(* Populate, checkpoint, remount cold (paged trees on device, caches
   empty), then run a Zipf-skewed read workload under the requested
   cache budget and print the observability counters: cache
   hits/misses/evictions, index node-page reads, and the device's own
   read/write/seek statistics. *)
let stats_run subjects seed budget ops =
  let m, people = fsck_boot subjects seed in
  let store0 = Machine.dbfs m in
  Dbfs.checkpoint store0;
  match Dbfs.crash_and_remount store0 with
  | Error e ->
      Printf.eprintf "remount: %s\n" e;
      2
  | Ok store ->
      Dbfs.set_cache_budget store budget;
      let dev = Dbfs.device store in
      Block_device.reset_stats dev;
      Rgpdos_util.Stats.Counter.reset (Dbfs.stats store);
      let pop = Array.of_list people in
      let zipf =
        Rgpdos_util.Prng.Zipf.create ~n:(Array.length pop) ~theta:0.99
      in
      let prng = Rgpdos_util.Prng.create ~seed:(Int64.of_int (seed + 1)) () in
      let failed = ref 0 in
      let note = function Ok _ -> () | Error _ -> incr failed in
      for _ = 1 to ops do
        let p = pop.(Rgpdos_util.Prng.Zipf.sample zipf prng) in
        match Rgpdos_util.Prng.int prng 3 with
        | 0 ->
            note (Dbfs.export_subject store ~actor:"ded" p.Population.subject_id)
        | 1 ->
            note
              (Dbfs.select store ~actor:"ded" "person"
                 (Rgpdos_dbfs.Query.Eq
                    ("email", Value.VString p.Population.email)))
        | _ ->
            note (Dbfs.pds_of_subject store ~actor:"ded" p.Population.subject_id)
      done;
      (* snapshot the counters before anything else reads pages —
         enumerating the node pages below walks the trees *)
      (* every observability counter the store can emit is listed by
         name, so a counter that stayed at zero still prints: absence
         would be indistinguishable from "this build doesn't have it" *)
      let dbfs_counter_names =
        [
          "page_hits"; "page_misses"; "cache_evictions"; "index_page_reads";
          "fault_retries"; "committed_batches"; "batched_ops"; "compactions";
          "compact_relocations"; "compact_verify_failures";
          "segments_reclaimed"; "segment_trims"; "purge_zeroed_blocks";
          "backpressure_stalls"; "backpressure_stall_ns";
        ]
      in
      let dev_counter_names =
        [
          "reads"; "writes"; "bytes_read"; "bytes_written"; "trims";
          "vec_reads"; "vec_writes"; "write_ops"; "merged_runs";
          "async_submits"; "async_completions"; "async_service_ns";
          "queue_depth_highwater"; "overlap_ns_hidden";
        ]
      in
      let with_defaults names present =
        let extra =
          List.filter (fun (k, _) -> not (List.mem k names)) present
        in
        List.map
          (fun k ->
            (k, match List.assoc_opt k present with Some v -> v | None -> 0))
          names
        @ extra
        |> List.sort compare
      in
      let dbfs_counters =
        with_defaults dbfs_counter_names
          (Rgpdos_util.Stats.Counter.to_list (Dbfs.stats store))
      in
      let dev_counters =
        with_defaults dev_counter_names
          (Rgpdos_util.Stats.Counter.to_list (Block_device.stats dev))
      in
      (* scheduler counters come pre-defaulted from the kernel: the
         deadline lane prints zeros on a machine that never scheduled
         rights work, same canonical-name rule as the store counters *)
      let sched_counters =
        Rgpdos_kernel.Scheduler.counters (Machine.scheduler m)
      in
      let resident = Dbfs.cache_resident store in
      let get k =
        match List.assoc_opt k dbfs_counters with Some v -> v | None -> 0
      in
      let hits = get "page_hits" and misses = get "page_misses" in
      Printf.printf
        "workload: %d ops over %d subjects (Zipf theta=0.99), %d failed\n"
        ops subjects !failed;
      Printf.printf "cache: budget %d entries, resident %d\n"
        (Dbfs.cache_budget store) resident;
      Printf.printf "  page hits        %8d\n" hits;
      Printf.printf "  page misses      %8d\n" misses;
      Printf.printf "  hit rate         %8.1f%%\n"
        (if hits + misses = 0 then 0.0
         else 100.0 *. float_of_int hits /. float_of_int (hits + misses));
      Printf.printf "  evictions        %8d\n" (get "cache_evictions");
      Printf.printf "index: node-page reads %d (%d node pages on device)\n"
        (get "index_page_reads")
        (List.length (Dbfs.index_page_blocks store));
      Printf.printf "dbfs counters:\n";
      List.iter (fun (k, v) -> Printf.printf "  %-22s %10d\n" k v) dbfs_counters;
      Printf.printf "device counters:\n";
      List.iter (fun (k, v) -> Printf.printf "  %-22s %10d\n" k v) dev_counters;
      Printf.printf "scheduler counters:\n";
      List.iter (fun (k, v) -> Printf.printf "  %-22s %10d\n" k v) sched_counters;
      0

let stats_cmd =
  let subjects =
    Arg.(value & opt int 500 & info [ "subjects"; "n" ] ~doc:"Population size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let budget =
    Arg.(value & opt int 256
         & info [ "budget" ] ~doc:"Cache budget in resident entries.")
  in
  let ops =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~doc:"Workload operations.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a Zipf-skewed workload against a cold-remounted store and \
             print the cache, index and device counters")
    Term.(const stats_run $ subjects $ seed $ budget $ ops)

(* ------------------------------------------------------------------ *)
(* fig1 / experiments / articles                                      *)

let fig1_cmd =
  Cmd.v
    (Cmd.info "fig1" ~doc:"Print the paper's Figure 1 statistics")
    Term.(
      const (fun () ->
          print_endline (Rgpdos_penalties.Penalties.render_figure1 ());
          0)
      $ const ())

(* E1 and E4 print here directly; every other id runs through the bench
   harness's own table, at the sizes bench/main.exe uses. *)
let experiment_run id quick =
  let id = String.lowercase_ascii id in
  let print s =
    print_endline s;
    0
  in
  match (id, List.assoc_opt id Bench.printed) with
  | "e1", _ ->
      print (E.render_e1 (E.e1_ded_stages ~subjects:(if quick then 200 else 2_000) ()))
  | "e4", _ -> print (E.render_e4 (E.e4_access ()))
  | _, Some run ->
      run ~quick;
      0
  | _, None ->
      Printf.eprintf "unknown experiment %s (expected one of: %s)\n" id
        (String.concat " " ("e1" :: "e4" :: List.map fst Bench.printed));
      1

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id: e1, e4, or a print-only bench section \
                 (fig1, e2, e2b, e3, e5-e11, a1-a3).")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sizes.") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one experiment and print its table")
    Term.(const experiment_run $ id $ quick)

(* ------------------------------------------------------------------ *)
(* model-check                                                        *)

let model_check_run seed scripts =
  let module Refine = Rgpdos_model.Refine in
  let report = Refine.run ~seed ?scripts () in
  print_string (Refine.render report);
  if Refine.all_pass report then 0 else 1

let model_check_cmd =
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Campaign seed.") in
  let scripts =
    Arg.(value & opt (some int) None
         & info [ "scripts" ] ~docv:"N"
             ~doc:"Generated scripts per mode (default: the QCHECK_COUNT \
                   environment variable, else 4).")
  in
  Cmd.v
    (Cmd.info "model-check"
       ~doc:"Run the executable-GDPR-model refinement campaign (lockstep \
             observational equivalence, crash refinement across the \
             allocator/group-commit/queue-depth config matrix, \
             linearizability at 1/2/4 domains, index/cache coherence); \
             exits non-zero on any counterexample")
    Term.(const model_check_run $ seed $ scripts)

let articles_cmd =
  Cmd.v
    (Cmd.info "articles" ~doc:"GDPR article to rgpdOS mechanism mapping")
    Term.(
      const (fun () ->
          Table.print
            ~header:[ "article"; "right/principle"; "rgpdOS mechanism" ]
            (List.map
               (fun a ->
                 [ Articles.to_string a; Articles.description a; Articles.mechanism a ])
               Articles.all);
          0)
      $ const ())

let () =
  let info =
    Cmd.info "rgpdosctl" ~version:"1.0.0"
      ~doc:"Drive the rgpdOS GDPR-aware operating system simulation"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            parse_cmd; demo_cmd; fsck_cmd; stats_cmd; fig1_cmd; experiment_cmd;
            model_check_cmd; articles_cmd;
          ]))
