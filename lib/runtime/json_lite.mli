(** Minimal JSON values for the repository's flat persistence formats.

    The repository carries no external JSON dependency; the plan-tuning
    database ({!Tuning_db}) and the checkpoint header
    ([Hector_ckpt.Checkpoint]) both serialize small fixed schemas, so a
    ~100-line value parser plus a few field accessors covers every need.
    The writer side stays [Printf]-based at each call site (the schemas are
    flat, and strings go through {!Hector_obs.json_escape}); this module
    supplies the atomic file-write helper both formats share. *)

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
