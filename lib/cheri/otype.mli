(** Object types for capability sealing.

    A sealed capability carries an object type (otype); it can only be
    unsealed by a capability whose bounds cover that otype and which
    holds the unseal permission. The Intravisor allocates one otype per
    cVM entry point so trampolines are the only way across compartment
    boundaries. *)

type t = private int

type allocator

val allocator : unit -> allocator
val fresh : allocator -> t
val of_int_exn : int -> t
(** @raise Invalid_argument on negative values. For tests. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
