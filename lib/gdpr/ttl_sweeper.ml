module Dbfs = Rgpdos_dbfs.Dbfs
module Membrane = Rgpdos_membrane.Membrane
module Audit_log = Rgpdos_audit.Audit_log

type report = {
  scanned : int;
  expired : int;
  removed : int;
  errors : (string * string) list;
}

let actor = "ded" (* the sweeper is an rgpdOS built-in and runs as the DED *)

(* Crypto-erase [pds] with one DBFS call ([only] re-checks each membrane
   inside it), logging each erasure in the audit chain, in order.
   Returns how many it erased and the error of each pd it did not.  A
   batch stopped after its first chunks reports their pds
   ([Dbfs.committed]), which stay erased; on any error the pds the call
   did not erase are retried as batches of one, so one damaged pd holds
   back no other. *)
let rec remove ~only ~dbfs ~audit ~now ~seal pds =
  let result = Dbfs.erase_with dbfs ~actor ~only pds ~seal in
  let removed =
    match result with Ok removed -> removed | Error e -> Dbfs.committed e
  in
  List.iter
    (fun pd_id ->
      ignore
        (Audit_log.append audit ~now ~actor
           (Audit_log.Erased { pd_id; mode = "crypto" })))
    removed;
  match (result, List.filter (fun pd -> not (List.mem pd removed)) pds) with
  | Ok _, _ | Error _, [] -> (List.length removed, [])
  | Error e, [ pd_id ] when pds = [ pd_id ] ->
      (0, [ (pd_id, Dbfs.error_to_string e) ])
  | Error _, rest ->
      List.fold_left
        (fun (n, failed) pd_id ->
          let k, f = remove ~only ~dbfs ~audit ~now ~seal [ pd_id ] in
          (n + k, failed @ f))
        (List.length removed, [])
        rest

let sweep ~dbfs ~audit ~now ~seal () =
  (* O(expired): the due entries of the TTL expiry queue, erased by one
     call that re-checks each membrane as it loads it — the queue is an
     index, the membrane stays the authority.  Erasure clears each pd's
     queue entry as part of its journalled op; a pd whose erasure fails
     stays queued and is retried on the next sweep, and the others go on
     without it. *)
  let due =
    match Dbfs.expired_pds dbfs ~actor ~now with Ok ids -> ids | Error _ -> []
  in
  let removed, errors =
    if due = [] then (0, [])
    else remove ~only:(Membrane.expired ~now) ~dbfs ~audit ~now ~seal due
  in
  { scanned = List.length due; expired = removed + List.length errors; removed; errors }
