(** Minimal JSON tree, emitter and parser.

    Every machine-readable artefact is JSON: flow traces and their
    Chrome [trace_event] view ({!Flowtrace.to_chrome_trace}), profile
    snapshots, journals, time series, and the attack, audit and fleet
    reports — plus the parsers that read them back ([analyze],
    [perfdiff], [replay]). The build carries no JSON library, so this
    is a small self-contained implementation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. NaN/infinite floats render as [null]. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

val parse_opt : string -> t option

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] elsewhere. *)

val to_list : t -> t list option

(** {1 Typed field readers}

    [None] when the field is absent or holds another type. *)

val string_member : string -> t -> string option

val int_member : string -> t -> int option
(** [Int] only: a [Float] field is [None]. *)

val bool_member : string -> t -> bool option

val number_member : string -> t -> float option
(** [Int] or [Float], as a float. *)
