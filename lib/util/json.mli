(** Minimal JSON support for machine-readable benchmark artifacts.

    Deliberately tiny — just enough to emit [BENCH_hotpath.json] and to let
    the test suite parse it back and check its shape.  Not a general JSON
    library: numbers are floats, no unicode escapes beyond [\uXXXX] decoding
    to '?', objects keep insertion order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize.  [indent > 0] pretty-prints with that many spaces per level;
    the default [indent = 2] keeps committed artifacts diff-friendly. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (trailing whitespace allowed). *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] for missing keys or
    non-objects. *)

val int : int -> t
(** [Num] of an integer. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
