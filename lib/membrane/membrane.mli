(** The PD membrane: the paper's first demonstration of {i active data}.

    Every piece of personal data stored in DBFS is wrapped in a membrane
    (Fig. 3's black layer) that carries the metadata §2 enumerates: origin,
    per-purpose consents, time-to-live, sensitivity level, and the
    collection interfaces to use when the data is not yet present.  The
    membrane is what makes the data "active": access decisions are taken by
    evaluating the membrane, not by trusting the requesting process.

    Consents name {i views} of the PD type (Listing 1: [purpose1: all,
    purpose2: none, purpose3: ano]); resolving a view name to concrete
    fields is the schema's job (see [Rgpdos_dbfs.Schema]) — the membrane
    only records and evaluates the subject's decisions. *)

type origin =
  | Subject              (** collected directly from the data subject *)
  | Sysadmin             (** entered by the data operator *)
  | Third_party of string  (** received from another data operator *)

type sensitivity = Low | Medium | High

val pp_origin : Format.formatter -> origin -> unit
val pp_sensitivity : Format.formatter -> sensitivity -> unit

(** A subject's decision for one processing purpose. *)
type consent_scope =
  | All                  (** full access to the PD type *)
  | Denied               (** no access at all *)
  | View of string       (** access restricted to the named view *)

val pp_consent_scope : Format.formatter -> consent_scope -> unit

type t = {
  pd_id : string;        (** identifier of the wrapped PD *)
  type_name : string;    (** DBFS table this PD belongs to *)
  subject_id : string;   (** whose PD this is *)
  origin : origin;
  consents : (string * consent_scope) list;  (** purpose -> decision *)
  created_at : Rgpdos_util.Clock.ns;
  ttl : Rgpdos_util.Clock.ns option;  (** lifetime; [None] = no expiry *)
  sensitivity : sensitivity;
  collection : (string * string) list;
      (** collection interfaces, e.g. [("web_form", "user_form.html")] *)
  version : int;  (** bumped on every consent change, for copy consistency *)
  lineage : string;  (** pd_id of the original ancestor; see {!lineage_root} *)
  restricted : bool;
      (** GDPR art. 18 restriction of processing: while set, every purpose
          is refused but the data is retained (unlike erasure) *)
}

val make :
  pd_id:string ->
  type_name:string ->
  subject_id:string ->
  origin:origin ->
  consents:(string * consent_scope) list ->
  created_at:Rgpdos_util.Clock.ns ->
  ?ttl:Rgpdos_util.Clock.ns ->
  ?sensitivity:sensitivity ->
  ?collection:(string * string) list ->
  unit ->
  t
(** Build a membrane.  Defaults: no TTL, [Low] sensitivity, no collection
    interfaces, version 0.
    @raise Invalid_argument if [consents] names the same purpose twice. *)

(** {1 Decisions} *)

type decision =
  | Granted of consent_scope  (** access allowed; scope still applies *)
  | Refused of string         (** human-readable reason *)

val decide : t -> purpose:string -> now:Rgpdos_util.Clock.ns -> decision
(** The core active-data check: is [purpose] allowed to touch this PD right
    now?  Refuses when the TTL has expired, when consent is [Denied], and —
    deny-by-default — when the purpose is not mentioned at all. *)

val expired : t -> now:Rgpdos_util.Clock.ns -> bool

val allows : t -> purpose:string -> now:Rgpdos_util.Clock.ns -> bool
(** [true] iff [decide] grants. *)

(** {1 Consent lifecycle} *)

val set_consent : t -> purpose:string -> consent_scope -> t
(** Add or replace a purpose's consent; bumps [version]. *)

val withdraw : t -> purpose:string -> t
(** GDPR art. 7(3): withdrawal of consent — sets the purpose to [Denied].
    Withdrawal of an unknown purpose still records a [Denied] entry. *)

val withdraw_all : t -> t
(** Set every recorded purpose to [Denied]; bumps [version]. *)

val set_restricted : t -> bool -> t
(** Art. 18: restrict (or lift the restriction of) processing.  A
    restricted membrane refuses every purpose while keeping the data and
    the consent record intact; bumps [version]. *)

val extend_ttl : t -> Rgpdos_util.Clock.ns option -> t

(** {1 Copies} *)

val copy_for : t -> new_pd_id:string -> t
(** Membrane for a copy of the PD (built-in [copy]): all restrictions are
    inherited, only the wrapped PD's identity changes.  The paper requires
    membrane consistency across all copies of the same PD: the [lineage]
    of the copy lets the machine find and update them together.  The
    subject is inherited too, so a lineage never leaves its subject and
    the subject's PDs are every member of the lineages it owns. *)

val lineage_root : t -> string
(** The pd_id of the original ancestor (for copies, the id this membrane
    was first created with; stable across [copy_for]). *)

(** {1 Serialization} *)

val encode : t -> string
val decode : string -> (t, string) result

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
