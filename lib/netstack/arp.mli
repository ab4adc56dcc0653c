(** ARP for IPv4 over Ethernet (RFC 826). *)

type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Nic.Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Nic.Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

val packet_len : int
(** 28 bytes. *)

val build : packet -> bytes
val parse : bytes -> off:int -> (packet, Dsim.Flowtrace.reason) result
(** Fewer than {!packet_len} bytes from [off] to the end of the buffer,
    a hardware/protocol type other than Ethernet/IPv4, or an unknown op
    are all [Parse_error]. *)

val request : sender_mac:Nic.Mac_addr.t -> sender_ip:Ipv4_addr.t -> target_ip:Ipv4_addr.t -> packet
val reply_to : packet -> mac:Nic.Mac_addr.t -> packet
(** Build the reply to a request aimed at us ([mac] is our address). *)

val pp : Format.formatter -> packet -> unit
