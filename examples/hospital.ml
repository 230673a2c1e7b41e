(* Hospital scenario.

   The paper's introduction cites a real 2020 CNIL case: two doctors fined
   because medical images sat on a server freely reachable from the
   Internet.  This example models a small clinic on rgpdOS: patient
   records are High-sensitivity PD, the care team processes them under a
   "care" purpose (vital interest), a research team only sees an
   anonymised view, and a rogue reporting script that tries to read DBFS
   directly — the digital equivalent of the open server — is stopped by
   the LSM.

   Run with: dune exec examples/hospital.exe *)

module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Record = Rgpdos_dbfs.Record
module Value = Rgpdos_dbfs.Value
module Dbfs = Rgpdos_dbfs.Dbfs
module Membrane = Rgpdos_membrane.Membrane
module Lsm = Rgpdos_kernel.Lsm

let declarations =
  {|
type patient {
  fields {
    name: string,
    social_security: string,
    diagnosis: string,
    image_id: string,
    age_years: int
  };
  view v_care { name, diagnosis, image_id, age_years };
  view v_research { diagnosis, age_years };
  consent {
    care: v_care,
    research: none,
    billing: none
  };
  collection { web_form: admission_form.html };
  origin: subject;
  age: 10Y;
  sensitivity: high;
}

type cohort_stat {
  fields { diagnosis: string, patients: int, mean_age: int };
  consent { research: all };
  sensitivity: low;
}

purpose care {
  description: "diagnose and treat the admitted patient";
  reads: patient.v_care;
  legal_basis: vital_interest;
}

purpose research {
  description: "aggregate anonymised cohort statistics";
  reads: patient.v_research;
  produces: cohort_stat;
  legal_basis: consent;
}
|}

let ok = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1

let admit m ~name ~ssn ~diagnosis ~age ~research_ok =
  let consents =
    [
      ("care", Membrane.View "v_care");
      ( "research",
        if research_ok then Membrane.View "v_research" else Membrane.Denied );
      ("billing", Membrane.Denied);
    ]
  in
  ok
    (Machine.collect m ~type_name:"patient"
       ~subject:("patient-" ^ String.lowercase_ascii name)
       ~interface:"web_form:admission_form.html"
       ~record:
         [
           ("name", Value.VString name);
           ("social_security", Value.VString ssn);
           ("diagnosis", Value.VString diagnosis);
           ("image_id", Value.VString ("scan-" ^ name));
           ("age_years", Value.VInt age);
         ]
       ~consents ())

(* care team: reads identified records under the care purpose *)
let treatment_rounds _ctx inputs =
  List.iter
    (fun (i : Processing.pd_input) ->
      (* the view hides social_security even from the care team *)
      assert (Record.get i.record "social_security" = None))
    inputs;
  Ok (Processing.value_output (Value.VInt (List.length inputs)))

(* research team: only the anonymised view, produces cohort statistics *)
let cohort_study _ctx inputs =
  let by_diagnosis = Hashtbl.create 8 in
  List.iter
    (fun (i : Processing.pd_input) ->
      match (Record.get i.record "diagnosis", Record.get i.record "age_years") with
      | Some (Value.VString d), Some (Value.VInt a) ->
          let count, total =
            Option.value ~default:(0, 0) (Hashtbl.find_opt by_diagnosis d)
          in
          Hashtbl.replace by_diagnosis d (count + 1, total + a)
      | _ -> ())
    inputs;
  let produced =
    Hashtbl.fold
      (fun d (count, total) acc ->
        ( "cohort_stat",
          "clinic",
          [
            ("diagnosis", Value.VString d);
            ("patients", Value.VInt count);
            ("mean_age", Value.VInt (total / max 1 count));
          ] )
        :: acc)
      by_diagnosis []
  in
  Ok { Processing.value = Some (Value.VInt (Hashtbl.length by_diagnosis)); produced }

let () =
  print_endline "== clinic on rgpdOS ==";
  let m = Machine.boot ~seed:1913L () in
  ignore (ok (Machine.load_declarations m declarations));

  let _p1 = admit m ~name:"Amira" ~ssn:"2 92 05 75 116 001"
      ~diagnosis:"fracture" ~age:34 ~research_ok:true in
  let _p2 = admit m ~name:"Jules" ~ssn:"1 85 11 69 042 002"
      ~diagnosis:"fracture" ~age:41 ~research_ok:true in
  let _p3 = admit m ~name:"Leina" ~ssn:"2 01 02 13 005 003"
      ~diagnosis:"pneumonia" ~age:25 ~research_ok:false in
  print_endline "admitted 3 patients (High sensitivity, stored separately)";

  let register name purpose touches impl =
    let spec = ok (Machine.make_processing m ~name ~purpose ~touches impl) in
    ignore (ok (Machine.register_processing m spec))
  in
  register "treatment_rounds" "care"
    [ ("patient", [ "name"; "diagnosis"; "image_id"; "age_years" ]) ]
    treatment_rounds;
  register "cohort_study" "research"
    [ ("patient", [ "diagnosis"; "age_years" ]) ]
    cohort_study;

  let rounds =
    ok (Machine.invoke m ~name:"treatment_rounds" ~target:(Ded.All_of_type "patient") ())
  in
  Printf.printf "care rounds saw %d patients (SSN hidden by the v_care view)\n"
    rounds.Ded.consumed;

  let study =
    ok (Machine.invoke m ~name:"cohort_study" ~target:(Ded.All_of_type "patient") ())
  in
  Printf.printf
    "cohort study: %d consenting patients, %d refused, %d cohort_stat produced\n"
    study.Ded.consumed study.Ded.filtered
    (List.length study.Ded.produced_refs);

  (* the open-server scenario: a reporting script tries to read the
     patient store directly, without going through PS/DED *)
  print_endline "\nrogue script attempts a direct DBFS read...";
  (match Dbfs.list_pds (Machine.dbfs m) ~actor:"reporting_script" "patient" with
  | Error (Dbfs.Access_denied msg) -> Printf.printf "LSM: %s\n" msg
  | Error e -> Printf.printf "unexpected error: %s\n" (Dbfs.error_to_string e)
  | Ok _ ->
      print_endline "BUG: the rogue script read the patient store!";
      exit 1);
  Printf.printf "LSM denial log has %d entries\n" (Lsm.denial_count (Machine.lsm m));

  (* a patient leaves and invokes the right to be forgotten; the clinic
     must keep an escrow for the health authority *)
  let erased = ok (Machine.right_to_erasure m ~subject:"patient-leina") in
  Printf.printf "\npatient-leina erased (%d PD); scanning the medium: %d hits\n"
    erased
    (List.length (Rgpdos_block.Block_device.scan (Machine.pd_device m) "Leina"));

  let verdicts =
    Rgpdos_gdpr.Compliance.evaluate
      (Machine.compliance_evidence m
         ~forensic_probes:[ "Leina"; "2 01 02 13 005 003" ] ())
  in
  Printf.printf "compliance: %s\n" (Rgpdos_gdpr.Compliance.summary verdicts);
  if not (Rgpdos_gdpr.Compliance.all_ok verdicts) then exit 1
