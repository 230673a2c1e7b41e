(* E-commerce scenario: consent lifecycles and storage limitation.

   A shop keeps customer profiles, runs a recommendation engine under an
   "analytics" purpose and a mailing campaign under "marketing".
   Customers grant and withdraw consents over time; profiles carry a 1-year
   TTL, and the nightly storage-limitation sweep crypto-erases what
   expired.  The same machine also handles the shop's *non-personal* data
   (catalog files) on the conventional journaling filesystem — showing the
   two-filesystem split of the paper's design.

   Run with: dune exec examples/ecommerce.exe *)

module Machine = Rgpdos.Machine
module Ded = Rgpdos_ded.Ded
module Processing = Rgpdos_ded.Processing
module Record = Rgpdos_dbfs.Record
module Value = Rgpdos_dbfs.Value
module Membrane = Rgpdos_membrane.Membrane
module Jfs = Rgpdos_journalfs.Journalfs
module Clock = Rgpdos_util.Clock

let declarations =
  {|
type customer {
  fields {
    name: string,
    email: string,
    last_order: string,
    total_spent_cents: int
  };
  view v_reco { last_order, total_spent_cents };
  view v_mail { name, email };
  consent {
    fulfillment: all,
    analytics: v_reco,
    marketing: none
  };
  collection { web_form: checkout.html };
  origin: subject;
  age: 1Y;
  sensitivity: medium;
}

purpose fulfillment {
  description: "deliver orders the customer placed";
  reads: customer;
  legal_basis: contract;
}

purpose analytics {
  description: "recommend products from purchase history";
  reads: customer.v_reco;
  legal_basis: legitimate_interest;
}

purpose marketing {
  description: "send the monthly promotional newsletter";
  reads: customer.v_mail;
  legal_basis: consent;
}
|}

let ok = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1

let signup m ~name ~order ~spent ~marketing_ok =
  ok
    (Machine.collect m ~type_name:"customer"
       ~subject:("cust-" ^ String.lowercase_ascii name)
       ~interface:"web_form:checkout.html"
       ~record:
         [
           ("name", Value.VString name);
           ("email", Value.VString (String.lowercase_ascii name ^ "@mail.test"));
           ("last_order", Value.VString order);
           ("total_spent_cents", Value.VInt spent);
         ]
       ~consents:
         [
           ("fulfillment", Membrane.All);
           ("analytics", Membrane.View "v_reco");
           ( "marketing",
             if marketing_ok then Membrane.View "v_mail" else Membrane.Denied );
         ]
       ())

let count_reader _ctx inputs =
  Ok (Processing.value_output (Value.VInt (List.length inputs)))

let () =
  print_endline "== shop on rgpdOS ==";
  let m = Machine.boot ~seed:77L () in
  ignore (ok (Machine.load_declarations m declarations));

  ignore (signup m ~name:"Mina" ~order:"espresso kit" ~spent:12_900 ~marketing_ok:true);
  ignore (signup m ~name:"Otto" ~order:"kettle" ~spent:4_500 ~marketing_ok:false);
  ignore (signup m ~name:"Prisha" ~order:"grinder" ~spent:8_900 ~marketing_ok:true);
  print_endline "3 customers signed up";

  let register name purpose touches =
    let spec = ok (Machine.make_processing m ~name ~purpose ~touches count_reader) in
    ignore (ok (Machine.register_processing m spec))
  in
  register "recommender" "analytics" [ ("customer", [ "last_order"; "total_spent_cents" ]) ];
  register "newsletter" "marketing" [ ("customer", [ "name"; "email" ]) ];

  let run name =
    let o = ok (Machine.invoke m ~name ~target:(Ded.All_of_type "customer") ()) in
    Printf.printf "%-12s reached %d customers (%d refused)\n" name o.Ded.consumed
      o.Ded.filtered
  in
  run "recommender";
  run "newsletter";

  (* Otto signs up for the newsletter; Mina opts out of everything optional *)
  print_endline "\nconsent changes: Otto opts in to marketing, Mina opts out";
  ignore (ok (Machine.set_consent m ~subject:"cust-otto" ~purpose:"marketing"
                (Membrane.View "v_mail")));
  ignore (ok (Machine.withdraw_consent m ~subject:"cust-mina" ~purpose:"marketing"));
  ignore (ok (Machine.withdraw_consent m ~subject:"cust-mina" ~purpose:"analytics"));
  run "recommender";
  run "newsletter";

  (* non-personal data lives on the second (conventional) filesystem *)
  let fs = Machine.npd_fs m in
  (match Jfs.write_file fs "/catalog.csv" "sku,price\nespresso kit,129.00\n" with
  | Ok () -> print_endline "\ncatalog written to the NPD filesystem (ext4-like)"
  | Error e -> Printf.printf "npd fs error: %s\n" (Jfs.error_to_string e));

  (* a year passes: the storage-limitation sweep erases expired profiles *)
  Clock.advance (Machine.clock m) (Clock.year + Clock.day);
  let report = Machine.sweep_ttl m () in
  Printf.printf
    "\nnightly TTL sweep after 1 year: %d scanned, %d expired, %d crypto-erased\n"
    report.Rgpdos_gdpr.Ttl_sweeper.scanned
    report.Rgpdos_gdpr.Ttl_sweeper.expired
    report.Rgpdos_gdpr.Ttl_sweeper.removed;
  run "newsletter";

  let verdicts =
    Rgpdos_gdpr.Compliance.evaluate
      (Machine.compliance_evidence m ~forensic_probes:[ "Mina"; "Otto"; "Prisha" ] ())
  in
  Printf.printf "\ncompliance: %s\n" (Rgpdos_gdpr.Compliance.summary verdicts);

  (* the audit trail survives all of it *)
  Printf.printf "audit chain: %d entries, verifies: %b\n"
    (Rgpdos_audit.Audit_log.length (Machine.audit m))
    (Rgpdos_audit.Audit_log.verify (Machine.audit m) = Ok ());
  if not (Rgpdos_gdpr.Compliance.all_ok verdicts) then exit 1
