(** Virtual time for the discrete-event simulator.

    Time is an absolute count of nanoseconds since simulation start,
    represented as a non-negative native [int]: unboxed, so reading the
    clock or scheduling an event allocates nothing. At 63 bits it spans
    2{^62} ns, about 146 years; the module fails at initialisation on a
    platform with a narrower [int]. All simulator components (NIC
    serialization, cost model, TCP timers) share this unit. Arithmetic
    and comparisons are compiler primitives, inlined at every call
    site. *)

type t = int

val zero : t

(** Constructors from the usual units. *)

external ns : int -> t = "%identity"
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_float_ns : float -> t
(** Round a float nanosecond count (e.g. a computed serialization delay)
    to the nearest tick. Negative inputs clamp to {!zero}. *)

val of_float_sec : float -> t

external add : t -> t -> t = "%addint"
val sub : t -> t -> t
(** [sub a b] clamps to {!zero} when [b > a]. *)

val diff : t -> t -> t
(** [diff a b] is [abs (a - b)]. *)

external mul : t -> int -> t = "%mulint"
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
val min : t -> t -> t
val max : t -> t -> t
external equal : t -> t -> bool = "%equal"

external to_ns : t -> int = "%identity"
external to_float_ns : t -> float = "%floatofint"
val to_float_us : t -> float
val to_float_ms : t -> float
val to_float_sec : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
