module Dbfs = Rgpdos_dbfs.Dbfs
module Membrane = Rgpdos_membrane.Membrane
module Audit_log = Rgpdos_audit.Audit_log

type mode = Physical_delete | Crypto_erase of (Rgpdos_dbfs.Record.t -> string)

type report = {
  scanned : int;
  expired : int;
  removed : int;
  errors : (string * string) list;
}

let actor = "ded" (* the sweeper is an rgpdOS built-in and runs as the DED *)

(* The [due] pds whose membrane says they have expired: one batched
   load re-checks them all; if it fails, each pd is re-checked alone, so
   one damaged membrane holds back no other pd.  Returns the error of
   each pd that failed alone. *)
let rec recheck ~dbfs ~now due =
  match (Dbfs.get_membranes dbfs ~actor due, due) with
  | Ok ms, _ ->
      ( List.filter_map
          (fun (pd_id, m) -> if Membrane.expired m ~now then Some pd_id else None)
          ms,
        [] )
  | Error e, [ pd_id ] -> ([], [ (pd_id, Dbfs.error_to_string e) ])
  | Error _, _ ->
      List.fold_left
        (fun (expired, errors) pd_id ->
          let x, e = recheck ~dbfs ~now [ pd_id ] in
          (expired @ x, errors @ e))
        ([], []) due

(* Remove the expired [pds] with one DBFS call, logging each removal in
   the audit chain, in order.  Returns how many it removed and the error
   of each pd it did not.  A batch stopped after its first chunks reports
   their pds ([Dbfs.committed]), which stay removed; on any error the
   pds the call did not remove are retried as batches of one, so one
   damaged pd holds back no other. *)
let rec remove ~dbfs ~audit ~now ~mode pds =
  let result, mode_str =
    match mode with
    | Physical_delete ->
        (Result.map (fun () -> pds) (Dbfs.delete dbfs ~actor pds), "physical")
    | Crypto_erase seal -> (Dbfs.erase_with dbfs ~actor pds ~seal, "crypto")
  in
  let removed =
    match result with Ok removed -> removed | Error e -> Dbfs.committed e
  in
  List.iter
    (fun pd_id ->
      ignore
        (Audit_log.append audit ~now ~actor
           (Audit_log.Erased { pd_id; mode = mode_str })))
    removed;
  match (result, pds) with
  | Ok _, _ -> (List.length removed, [])
  | Error e, [ pd_id ] -> (0, [ (pd_id, Dbfs.error_to_string e) ])
  | Error _, _ ->
      List.fold_left
        (fun (n, failed) pd_id ->
          if List.mem pd_id removed then (n, failed)
          else
            let k, f = remove ~dbfs ~audit ~now ~mode [ pd_id ] in
            (n + k, failed @ f))
        (List.length removed, [])
        pds

let sweep ~dbfs ~audit ~now ~mode ?(incremental = true) () =
  if incremental then begin
    (* O(expired): the due entries of the TTL expiry queue, whose
       membranes one batched load re-checks — the queue is an index, the
       membrane stays the authority — and one call removes.  Removal
       clears each pd's queue entry as part of its journalled op; a pd
       whose re-check or removal fails stays queued and is retried on the
       next sweep, and the others go on without it. *)
    let due =
      match Dbfs.expired_pds dbfs ~actor ~now with
      | Ok ids -> ids
      | Error _ -> []
    in
    let expired, errors =
      if due = [] then ([], []) else recheck ~dbfs ~now due
    in
    let removed, failed =
      if expired = [] then (0, []) else remove ~dbfs ~audit ~now ~mode expired
    in
    {
      scanned = List.length due;
      expired = List.length expired;
      removed;
      errors = errors @ failed;
    }
  end
  else begin
    (* legacy full scan: every non-erased membrane, O(population), each
       expired pd removed as a batch of one *)
    let all_pds =
      match Dbfs.list_types dbfs ~actor with
      | Error _ -> []
      | Ok types ->
          List.concat_map
            (fun ty ->
              match Dbfs.list_pds dbfs ~actor ty with
              | Ok ids -> ids
              | Error _ -> [])
            types
    in
    let scanned = ref 0 and expired = ref 0 and removed = ref 0 in
    let errors = ref [] in
    List.iter
      (fun pd_id ->
        match Dbfs.entry_info dbfs ~actor pd_id with
        | Error _ -> ()
        | Ok (_, _, true) -> () (* already erased *)
        | Ok (_, _, false) -> (
            incr scanned;
            match Dbfs.get_membrane dbfs ~actor pd_id with
            | Error e -> errors := (pd_id, Dbfs.error_to_string e) :: !errors
            | Ok m ->
                if Membrane.expired m ~now then begin
                  incr expired;
                  let n, failed = remove ~dbfs ~audit ~now ~mode [ pd_id ] in
                  removed := !removed + n;
                  errors := List.rev_append failed !errors
                end))
      all_pds;
    {
      scanned = !scanned;
      expired = !expired;
      removed = !removed;
      errors = !errors;
    }
  end
