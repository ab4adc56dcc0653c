(** UDP (RFC 768). *)

type header = { src_port : int; dst_port : int; length : int }

val header_len : int
(** 8 bytes. *)

val build :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> src_port:int -> dst_port:int ->
  payload:bytes -> bytes
(** Datagram with checksum over the pseudo-header. *)

val write_header :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> src_port:int -> dst_port:int ->
  bytes -> off:int -> payload_len:int -> unit
(** In-place variant: the payload must already sit at
    [off + header_len]; writes the header and checksum where they lie. *)

val parse :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> bytes -> off:int -> len:int ->
  (header * int, Dsim.Flowtrace.reason) result
(** Validates length and (when non-zero) checksum; returns header and
    payload offset. Fewer than 8 bytes, or a length field outside
    [[8, len]], is [Bad_length]; a wrong checksum is [Bad_checksum]. *)
