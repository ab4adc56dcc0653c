(** ICMP echo (ping), the only ICMP the stack answers — enough for the
    quickstart example and for liveness probes in tests. *)

type message =
  | Echo_request of { ident : int; seq : int; data : bytes }
  | Echo_reply of { ident : int; seq : int; data : bytes }
  | Other of { typ : int; code : int }

val build : message -> bytes
val parse :
  bytes -> off:int -> len:int -> (message, Dsim.Flowtrace.reason) result
(** Validates the ICMP checksum. Fewer than 8 bytes is [Bad_length]; a
    wrong checksum is [Bad_checksum]. *)

val reply_to : message -> message option
(** The echo reply for a request; [None] for anything else. *)

val pp : Format.formatter -> message -> unit
