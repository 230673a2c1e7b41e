(* Quickstart: the paper's Listings 1-3 as a running program.

   Boot an rgpdOS machine, declare the `user` PD type and its purposes in
   the declaration language, collect three users, register the
   `compute_age` processing (Listing 2), invoke it through the Processing
   Store (Listing 3), and exercise two GDPR rights.

   Run with: dune exec examples/quickstart.exe *)

module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Record = Rgpdos_dbfs.Record
module Value = Rgpdos_dbfs.Value

let declarations =
  {|
type user {
  fields {
    name: string,
    pwd: string,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { year_of_birthdate };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: v_ano
  };
  collection { web_form: user_form.html };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}

type age_pd {
  fields { age: int };
  consent { purpose3: all };
}

purpose purpose3 {
  description: "compute the age of the input user";
  reads: user.v_ano;
  produces: age_pd;
  legal_basis: consent;
}
|}

(* Listing 2: struct age_pd compute_age(struct user_pd user) *)
let compute_age _ctx inputs =
  let produced =
    List.filter_map
      (fun (i : Processing.pd_input) ->
        match Record.get i.record "year_of_birthdate" with
        | Some (Value.VInt y) ->
            (* if (user.age) { ... }  -- is the field allowed to be seen? *)
            Some ("age_pd", i.subject, [ ("age", Value.VInt (2026 - y)) ])
        | _ -> None)
      inputs
  in
  Ok { Processing.value = Some (Value.VInt (List.length produced)); produced }

let die msg =
  prerr_endline ("error: " ^ msg);
  exit 1

let ok = function Ok v -> v | Error e -> die e

let () =
  print_endline "== rgpdOS quickstart ==";
  let m = Machine.boot ~seed:2026L () in
  let types, purposes = ok (Machine.load_declarations m declarations) in
  Printf.printf "loaded %d PD types and %d purposes\n" types purposes;

  (* collection: the acquisition built-in wraps each record in a membrane
     built from the schema's default consents *)
  let collect name year =
    ok
      (Machine.collect m ~type_name:"user"
         ~subject:("sub-" ^ String.lowercase_ascii name)
         ~interface:"web_form:user_form.html"
         ~record:
           [
             ("name", Value.VString name);
             ("pwd", Value.VString ("hash:" ^ name));
             ("year_of_birthdate", Value.VInt year);
           ]
         ())
  in
  let pd1 = collect "Chiraz" 1992 in
  let pd2 = collect "Benoit" 1979 in
  let pd3 = collect "Natacha" 1988 in
  Printf.printf "collected %s %s %s\n" pd1 pd2 pd3;

  (* ps_register(compute_age) *)
  let spec =
    ok
      (Machine.make_processing m ~name:"compute_age" ~purpose:"purpose3"
         ~touches:[ ("user", [ "year_of_birthdate" ]) ]
         compute_age)
  in
  (match ok (Machine.register_processing m spec) with
  | Rgpdos_ps.Processing_store.Registered ->
      print_endline "ps_register: compute_age accepted (purpose matches)"
  | Rgpdos_ps.Processing_store.Registered_with_alert reason ->
      Printf.printf "ps_register: alert raised: %s\n" reason);

  (* main(): ref = ps_invoke(compute_age, user) -- Listing 3 *)
  let outcome =
    ok (Machine.invoke m ~name:"compute_age" ~target:(Ded.All_of_type "user") ())
  in
  Printf.printf
    "ps_invoke: processed %d users, %d filtered, produced %d age_pd refs\n"
    outcome.Ded.consumed outcome.Ded.filtered
    (List.length outcome.Ded.produced_refs);
  print_endline "DED stage breakdown (simulated):";
  List.iter
    (fun (stage, ns) -> Printf.printf "  %-28s %8.1f us\n" stage (float_of_int ns /. 1e3))
    outcome.Ded.stage_ns;
  (* the caller only ever sees references, never raw PD *)
  List.iter (fun r -> Printf.printf "  produced ref: %s\n" r) outcome.Ded.produced_refs;

  (* right of access: structured, machine-readable, with history *)
  print_endline "\nright of access for sub-chiraz:";
  print_endline (ok (Machine.right_of_access m ~subject:"sub-chiraz"));

  (* right to be forgotten: crypto-erasure under the authority's key *)
  let n = ok (Machine.right_to_erasure m ~subject:"sub-benoit") in
  Printf.printf "\nright to be forgotten: %d PD of sub-benoit crypto-erased\n" n;
  (match
     Rgpdos_block.Block_device.scan (Machine.pd_device m) "Benoit"
   with
  | [] -> print_endline "forensic scan of the PD device: no trace of the name"
  | hits ->
      Printf.printf "forensic scan found %d remnants (BUG)\n" (List.length hits);
      exit 1);

  (* the compliance checker agrees *)
  let verdicts =
    Rgpdos_gdpr.Compliance.evaluate
      (Machine.compliance_evidence m ~forensic_probes:[ "Benoit" ] ())
  in
  Printf.printf "\ncompliance: %s\n" (Rgpdos_gdpr.Compliance.summary verdicts);
  if not (Rgpdos_gdpr.Compliance.all_ok verdicts) then exit 1
