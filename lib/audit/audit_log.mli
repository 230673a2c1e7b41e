(** Tamper-evident processing log.

    §4 (right of access): "the DED logs every executed processing.  This
    log is organized so that it can give information about executed
    processings for each piece of PD."  Entries form a SHA-256 hash chain
    so that any after-the-fact modification is detectable — the property a
    supervisory authority needs to trust the operator's answer to an
    access request.

    The log records {i events about} PD (identifiers, purposes, decisions)
    but never PD field values themselves, so it can live outside DBFS. *)

type event =
  | Collected of { pd_id : string; interface : string }
  | Processed of { purpose : string; inputs : string list; produced : string list }
  | Filtered_out of { purpose : string; pd_id : string; reason : string }
      (** a membrane refused this PD to this processing *)
  | Consent_changed of { pd_id : string; purpose : string; granted : bool }
  | Erased of { pd_id : string; mode : string }  (** "physical" | "crypto" *)
  | Exported of { subject : string; pd_ids : string list }
  | Denied of { actor : string; reason : string }
  | Registered of { processing : string; alert : bool }
  | Attested of { processing : string; measurement : string }
      (** SGX-style measurement of the code the DED executed *)

type entry = {
  seq : int;
  timestamp : Rgpdos_util.Clock.ns;
  actor : string;
  event : event;
  prev_hash : string;  (** hex digest of the previous entry (or genesis) *)
  hash : string;       (** hex digest binding this entry to the chain *)
}

type t

val create : unit -> t

val append :
  t -> now:Rgpdos_util.Clock.ns -> actor:string -> event -> entry

val length : t -> int

val entries : t -> entry list
(** Oldest first. *)

val verify : t -> (unit, int) result
(** Recompute the chain; [Error seq] points at the first corrupted entry. *)

val unsafe_tamper : t -> seq:int -> actor:string -> unit
(** Test hook: overwrite an entry's actor in place {i without} re-hashing,
    so that [verify] must catch it. *)

val to_bytes : t -> string
(** Serialize the whole chain (for persistence on the NPD filesystem —
    entries reference pd_ids and purposes but never PD field values). *)

val of_bytes : string -> (t, string) result
(** Decode a persisted chain.  The chain is NOT re-verified here; call
    {!verify} on the result. *)

val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit

val export_for_subject : t -> pd_ids:string list -> string
(** Human/machine-readable JSON list of the processing history for a
    subject's PD — every entry mentioning any of [pd_ids], oldest first —
    included in right-of-access responses. *)
