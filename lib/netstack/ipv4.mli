(** IPv4 (RFC 791): header construction, parsing and validation.

    The stack sends no options and does no fragmentation: it always
    sends DF packets sized to the device MTU, as F-Stack/DPDK data
    paths do. Received options are validated and skipped. *)

type protocol = Icmp | Tcp | Udp | Unknown_proto of int

type header = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  protocol : protocol;
  ttl : int;
  ident : int;
  total_len : int;  (** Header + payload, bytes. *)
}

val header_len : int
(** 20 (no options). *)

val protocol_of_int : int -> protocol

val build_into : header -> bytes -> off:int -> unit
(** Write a 20-byte header (with checksum) at [off]; [total_len] must
    already count the payload that follows. *)

val build : header -> payload:bytes -> bytes

val parse :
  bytes -> off:int -> len:int -> (header * int, Dsim.Flowtrace.reason) result
(** Validates version, header length, checksum and total length against
    [len] available bytes; returns the header and payload offset. The
    drop reason of each check: a truncated header or a total length
    outside [[ihl, len]] is [Bad_length]; a version other than 4 or an
    IHL below 5 is [Parse_error]; options running past [len] are
    [Bad_option]; a wrong checksum is [Bad_checksum]; an option whose
    length is below 2 or runs past the IHL, or whose type byte has no
    length byte after it, is [Bad_option] (RFC 791's walk: EOL, NOP,
    then type-length-data); a fragment is [Frag_unsupported]. *)

val pseudo_header_sum : src:Ipv4_addr.t -> dst:Ipv4_addr.t -> protocol:protocol -> len:int -> int
(** One's-complement sum of the TCP/UDP pseudo-header, for transport
    checksums. *)
