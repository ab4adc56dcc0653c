(** IPv4 addresses. *)

type t

val of_int32 : int32 -> t
val to_int32 : t -> int32
val make : int -> int -> int -> int -> t
val of_string_exn : string -> t
(** Parse dotted quad. @raise Invalid_argument on syntax. *)

val any : t  (** 0.0.0.0 *)

val broadcast : t  (** 255.255.255.255 *)

val in_same_subnet : t -> t -> prefix:int -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
