(** 32-bit TCP sequence-number arithmetic (RFC 793 comparisons).

    Sequence numbers live in Z/2^32; all comparisons are window-relative
    ("serial number arithmetic") so they stay correct across wrap. *)

type t = int
(** Always in [\[0, 2^32)]. *)

val of_int : int -> t
(** Truncate to 32 bits. *)

val add : t -> int -> t
val sub : t -> t -> int
(** Signed distance [a - b] in [\[-2^31, 2^31)]. *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val between : t -> low:t -> high:t -> bool
(** [low <= x < high] in serial arithmetic. *)

val max : t -> t -> t
