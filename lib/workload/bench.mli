(** The registry of committed benchmark artifacts ([BENCH_*.json]).

    One {!entry} per artifact names its bench section, file, schema id
    and regeneration command, runs the section, and lists the {!gate}s
    that fail a bench run.  One generic {!validate} and one {!compare}
    check every entry; [bench/main.exe] walks {!registry}, and the test
    suite walks it over the committed files.

    Gates are plain values: an absolute bar on a JSON field, a maximum
    drift in percent from the committed figure, a boolean field that
    must be true, or — for a rule a field path cannot state — a named
    predicate. *)

module Json = Rgpdos_util.Json

(** {1 Field paths} *)

type step =
  | K of string  (** object member *)
  | Each  (** every element of a list *)
  | Where of (string * Json.t) list
      (** the list elements whose members equal all of these *)
  | Max_by of string  (** the list element with the largest such member *)
  | Len  (** the length of a list *)

type path = step list

val resolve : path -> Json.t -> (Json.t list, string) result
(** Every value the path reaches; [Error] names the first missing member
    or non-list. *)

val update : path -> (Json.t -> Json.t) -> Json.t -> Json.t
(** [update path f v] replaces every value [path] reaches by its image
    under [f]; a trailing [Len] hands [f] the list itself.  Tests use it
    to move one field past its gate. *)

(** {1 Gates} *)

type cmp = Ge of float | Gt of float | Le of float | Eq of float
type better = Higher | Lower

type gate =
  | Bar of { name : string; path : path; cmp : cmp }
      (** Every value at [path] is a number satisfying [cmp]; there must
          be at least one. *)
  | Flag of { name : string; path : path }
      (** Every value at [path] is [true]; there must be at least one. *)
  | Drift of {
      name : string;
      path : path;
      per : path option;  (** divide both sides by this field first *)
      better : better;
    }
      (** The fresh figure at [path] is at most {!drift_pct} percent worse
          than the committed one. *)
  | Rule of { name : string; check : Json.t -> (string, string) result }
      (** A named predicate over one report. *)
  | Drift_rule of {
      name : string;
      check : committed:Json.t -> Json.t -> (string, string) result;
    }
      (** A named predicate over the committed and the fresh report. *)

val gate_name : gate -> string

val drift_pct : float
(** 25 — the tolerance of every drift gate, and of each E1 stage. *)

(** {1 Entries} *)

type entry = {
  section : string;  (** bench section name *)
  file : string;  (** committed artifact, e.g. ["BENCH_hotpath.json"] *)
  schema : string;  (** the report's ["schema"] value *)
  regen : string;  (** command that regenerates [file] *)
  run : quick:bool -> Json.t;
      (** run the section, print its tables, return the report *)
  gates : gate list;
}

val validate : entry -> Json.t -> (string list, string list) result
(** Schema id plus every bar, flag and one-report rule.  [Ok] holds one
    line per gate, [Error] one line per failing gate, each starting with
    the gate's name. *)

val compare : entry -> committed:Json.t -> Json.t -> (string list, string list) result
(** [compare e ~committed fresh]: {!validate} on both reports (absolute
    bars hold on both), then every drift gate and drift rule. *)

type micro_row = { name : string; ns_per_op : float; r2 : float }
(** A bechamel micro-benchmark row (host time). *)

val registry : micro:(unit -> micro_row list) -> entry list
(** The ten artifacts, in run order.  [micro] measures the micro rows of
    the hotpath entry (bechamel is linked only by the bench binary). *)

val find : string -> entry
(** The entry of a section, for checking reports (its hotpath [run] has
    no micro rows).  @raise Not_found on an unknown section. *)

val printed : (string * (quick:bool -> unit)) list
(** The print-only sections (Figure 1, E2–E11 apart from E4, A1–A3):
    name and runner. *)

val parse_sections : entry list -> string list -> (string list, string) result
(** The selected section names: all of them when the list is empty.  An
    unknown name is an [Error] that lists the valid ones. *)

(** {1 Encoders} *)

val hotpath_json :
  quick:bool ->
  micro:micro_row list ->
  e1:Experiments.e1_result * float ->
  e4:Experiments.e4_row list * float ->
  Json.t
(** [BENCH_hotpath.json]; each float is the section's host time in ms. *)

val vectored_json :
  scalar:Experiments.e1_result * float ->
  vectored:Experiments.e1_result * float ->
  Json.t
(** [BENCH_vectored_io.json]: E1 with the scalar and with the vectored
    device cost model, and the per-stage [reduction_pct]. *)

(** {1 Helpers} *)

val read_file : string -> (Json.t, string) result
(** [Error] when the file is missing or does not parse. *)

val write_file : string -> Json.t -> unit
