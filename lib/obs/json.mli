(** The repository's JSON values: one type, one parser, one printer.

    The repository carries no external JSON dependency.  Every document it
    writes — subsystem metrics envelopes ({!Hector_obs.Metrics}), chrome
    traces, the plan-tuning database, checkpoint headers and the BENCH
    files — is built as a {!t} and printed by {!to_string}; every document
    it reads goes through {!parse} and the field accessors below.  The
    module also supplies the atomic file-write helper the on-disk formats
    share.  [Hector_runtime.Json_lite] is this module under its older
    name. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed
(** Raised by {!parse} and the typed accessors on any structural error. *)

val parse : string -> t
(** Parse a complete JSON document (trailing garbage rejected).  String
    escapes follow RFC 8259: [\uXXXX] (including surrogate pairs) decodes
    to UTF-8.  Raises {!Malformed}. *)

val to_string : t -> string
(** Compact single-line JSON (no whitespace).  Strings and keys go through
    {!escape}; numbers take the shortest of [%.15g], [%.16g] and [%.17g]
    that reads back as the same double, so [parse (to_string v) = v] for
    finite numbers.  JSON has no NaN or infinity: NaN, +Inf and -Inf are
    written as the strings ["NaN"], ["Infinity"] and ["-Infinity"], so the
    document stays valid, and a reader expecting a number ({!num_field})
    raises {!Malformed} on them rather than seeing a finite stand-in. *)

val escape : string -> string
(** Escape a string for embedding between JSON quotes (quotes,
    backslashes, control characters). *)

val int : int -> t
(** [Num (float_of_int n)] — exact for [|n| <= 2^53]. *)

val member : t -> string -> t option
(** Object field lookup ([None] on missing field or non-object). *)

val bool_field : t -> string -> bool -> bool
(** [bool_field o name default] — the boolean field, [default] when
    missing; raises {!Malformed} on a non-boolean value. *)

val num_field : t -> string -> float -> float
val int_field : t -> string -> int -> int

val str_field : t -> string -> string
(** Required string field; raises {!Malformed} when missing. *)

val str_field_opt : t -> string -> string option
(** Optional string field ([Null] and absence both map to [None]). *)

val int_array_field : t -> string -> int array
(** Required array-of-numbers field. *)

val write_atomic : string -> string -> unit
(** [write_atomic path data] writes [data] to a pid-suffixed sibling
    temporary, flushes, closes and renames it onto [path] — a crash at any
    point leaves the previous contents of [path] intact (the temporary is
    removed on a write error). *)

val read_file : string -> string
(** Read a whole file (binary-safe). *)
