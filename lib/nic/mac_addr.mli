(** 48-bit Ethernet MAC addresses. *)

type t

val of_bytes_exn : string -> t
(** From 6 raw bytes. @raise Invalid_argument on wrong length. *)

val of_string_exn : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"]. @raise Invalid_argument on syntax. *)

val make : int -> int -> int -> int -> int -> int -> t
val broadcast : t
val zero : t
val is_broadcast : t -> bool
val is_multicast : t -> bool
val to_bytes : t -> string
(** 6 raw bytes, network order. *)

val matches_bytes_at : t -> bytes -> off:int -> bool
(** Does the 6-byte field at [off] equal this address? False when fewer
    than 6 bytes remain. Allocation-free (per-packet RX filtering). *)

val is_multicast_at : bytes -> off:int -> bool
(** Is the I/G bit of the address at [off] set? Broadcast is a multicast
    address, so this also covers it. Allocation-free. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
