(* The evaluation harness.

   Usage: dune exec bench/main.exe -- [--quick] [--out DIR] [--compare DIR]
                                      [SECTION...]

   With no section it runs every section: the print-only experiments
   (Figure 1, E2-E11 but E4, the A1-A3 ablations; DESIGN.md §3) and the
   ten entries of Rgpdos_workload.Bench, each of which produces one
   committed BENCH_*.json artifact (E1 and E4 are in [hotpath]) and
   fails the run when one of its gates does.  An unknown section name is an error that lists the valid
   ones.  [--quick] shrinks problem sizes for a smoke pass.

   [--out DIR] writes each entry's report to DIR under its artifact
   name; every entry's regeneration command is in its [regen] field,
   e.g. dune exec bench/main.exe -- --out . index.

   [--compare DIR] checks each fresh report against the committed
   artifact of the same name in DIR: the absolute bars on both, and the
   drift gates between them.  A missing or unparseable committed
   artifact fails.  Every failing gate is printed before the single
   non-zero exit.
*)

open Bechamel
open Toolkit
module Bench = Rgpdos_workload.Bench
module Prng = Rgpdos_util.Prng
module Clock = Rgpdos_util.Clock
module Bignum = Rgpdos_crypto.Bignum
module Sha256 = Rgpdos_crypto.Sha256
module Chacha20 = Rgpdos_crypto.Chacha20
module Rsa = Rgpdos_crypto.Rsa
module Envelope = Rgpdos_crypto.Envelope
module Membrane = Rgpdos_membrane.Membrane
module Value = Rgpdos_dbfs.Value
module Record = Rgpdos_dbfs.Record
module Audit_log = Rgpdos_audit.Audit_log

(* ------------------------------------------------------------------ *)
(* micro-benchmarks                                                   *)

let micro_tests () =
  let prng = Prng.create ~seed:1L () in
  let kib = Prng.bytes prng 1024 in
  let key32 = Prng.bytes prng 32 in
  let nonce12 = Prng.bytes prng 12 in
  let keypair = Rsa.generate ~bits:256 (Prng.create ~seed:2L ()) in
  let envelope = Envelope.seal prng keypair.Rsa.public kib in
  let base = Bignum.of_string "1234567890123456789012345678901234567890" in
  let exponent = Bignum.of_string "65537" in
  let modulus =
    Bignum.of_string "99999999999999999999999999999999999999999999999999999977"
  in
  let membrane =
    Membrane.make ~pd_id:"pd-1" ~type_name:"user" ~subject_id:"sub-1"
      ~origin:Membrane.Subject
      ~consents:
        [ ("service", Membrane.All); ("analytics", Membrane.View "v_ano");
          ("marketing", Membrane.Denied) ]
      ~created_at:0 ~ttl:Clock.year ~sensitivity:Membrane.High ()
  in
  let membrane_bytes = Membrane.encode membrane in
  let record : Record.t =
    [
      ("name", Value.VString "Chiraz Benamor");
      ("email", Value.VString "chiraz@example.test");
      ("year_of_birth", Value.VInt 1992);
    ]
  in
  let record_bytes = Record.encode record in
  let log = Audit_log.create () in
  for i = 0 to 999 do
    ignore
      (Audit_log.append log ~now:i ~actor:"ded"
         (Audit_log.Processed
            { purpose = "p"; inputs = [ "pd-1" ]; produced = [] }))
  done;
  Test.make_grouped ~name:"core"
    [
      Test.make ~name:"sha256/1KiB" (Staged.stage (fun () -> Sha256.digest kib));
      Test.make ~name:"hmac-sha256/1KiB"
        (Staged.stage (fun () -> Sha256.hmac ~key:key32 kib));
      Test.make ~name:"chacha20/1KiB"
        (Staged.stage (fun () -> Chacha20.encrypt ~key:key32 ~nonce:nonce12 kib));
      Test.make ~name:"bignum/modpow-190bit"
        (Staged.stage (fun () -> Bignum.mod_pow base exponent modulus));
      Test.make ~name:"envelope/seal-1KiB"
        (Staged.stage (fun () -> Envelope.seal prng keypair.Rsa.public kib));
      Test.make ~name:"envelope/open-1KiB"
        (Staged.stage (fun () -> Envelope.open_ keypair.Rsa.private_ envelope));
      Test.make ~name:"membrane/encode"
        (Staged.stage (fun () -> Membrane.encode membrane));
      Test.make ~name:"membrane/decode"
        (Staged.stage (fun () -> Membrane.decode membrane_bytes));
      Test.make ~name:"membrane/decide"
        (Staged.stage (fun () ->
             Membrane.decide membrane ~purpose:"analytics" ~now:1000));
      Test.make ~name:"record/encode" (Staged.stage (fun () -> Record.encode record));
      Test.make ~name:"record/decode"
        (Staged.stage (fun () -> Record.decode record_bytes));
      Test.make ~name:"audit/append"
        (Staged.stage (fun () ->
             Audit_log.append log ~now:0 ~actor:"ded"
               (Audit_log.Erased { pd_id = "pd-1"; mode = "crypto" })));
    ]

let run_micro () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      { Bench.name; ns_per_op = estimate; r2 } :: acc)
    results []
  |> List.sort compare

let () =
  let rec parse quick out cmp names = function
    | [] -> (quick, out, cmp, List.rev names)
    | "--quick" :: rest -> parse true out cmp names rest
    | "--out" :: dir :: rest -> parse quick (Some dir) cmp names rest
    | "--compare" :: dir :: rest -> parse quick out (Some dir) names rest
    | [ ("--out" | "--compare") as flag ] ->
        prerr_endline (flag ^ " requires a DIR argument");
        exit 2
    | name :: rest -> parse quick out cmp (name :: names) rest
  in
  let quick, out, compare_dir, names =
    parse false None None [] (List.tl (Array.to_list Sys.argv))
  in
  let entries = Bench.registry ~micro:run_micro in
  let selected =
    match Bench.parse_sections entries names with
    | Ok s -> s
    | Error e ->
        prerr_endline e;
        exit 2
  in
  List.iter
    (fun (name, run) -> if List.mem name selected then run ~quick)
    Bench.printed;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    out;
  let failures =
    List.concat_map
      (fun (e : Bench.entry) ->
        if not (List.mem e.section selected) then []
        else begin
          let report = e.run ~quick in
          Option.iter
            (fun dir ->
              let path = Filename.concat dir e.file in
              Bench.write_file path report;
              Printf.printf "\nwrote %s\n" path)
            out;
          let verdict =
            match compare_dir with
            | None -> Bench.validate e report
            | Some dir -> (
                match Bench.read_file (Filename.concat dir e.file) with
                | Ok committed -> Bench.compare e ~committed report
                | Error msg ->
                    Error [ Printf.sprintf "%s (regenerate: %s)" msg e.regen ])
          in
          match verdict with
          | Ok lines ->
              List.iter (Printf.printf "gate %s: %s\n" e.section) lines;
              []
          | Error lines -> List.map (fun l -> e.section ^ ": " ^ l) lines
        end)
      entries
  in
  match failures with
  | [] -> print_endline "\ndone."
  | lines ->
      Printf.eprintf "\n%d gate(s) failed:\n" (List.length lines);
      List.iter (Printf.eprintf "  %s\n") lines;
      exit 1
