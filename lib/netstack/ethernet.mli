(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Unknown of int

type header = {
  dst : Nic.Mac_addr.t;
  src : Nic.Mac_addr.t;
  ethertype : ethertype;
}

val header_len : int
(** 14 bytes. *)

val ethertype_to_int : ethertype -> int
val ethertype_of_int : int -> ethertype

val build : header -> payload:bytes -> bytes
(** Allocate and fill a full frame. *)

val build_into : header -> bytes -> off:int -> unit
(** Write the 14-byte header at [off] — e.g. into mbuf headroom just
    prepended ahead of an IP packet already in place. *)

val parse : bytes -> (header * int, Dsim.Flowtrace.reason) result
(** Returns the header and the payload offset; a frame shorter than
    {!header_len} is [Parse_error]. *)

val parse_at :
  bytes -> off:int -> len:int -> (header * int, Dsim.Flowtrace.reason) result
(** Parse a frame in place at [off]; the returned payload offset is
    absolute (relative to [b]'s start, like [off]). *)
