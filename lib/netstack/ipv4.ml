type protocol = Icmp | Tcp | Udp | Unknown_proto of int

type header = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  protocol : protocol;
  ttl : int;
  ident : int;
  total_len : int;
}

let header_len = 20

let protocol_to_int = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Unknown_proto v -> v

let protocol_of_int = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | v -> Unknown_proto v

let set_ip b off ip = Bytes.set_int32_be b off (Ipv4_addr.to_int32 ip)
let get_ip b off = Ipv4_addr.of_int32 (Bytes.get_int32_be b off)

let build_into h b ~off =
  Bytes.set b off '\x45' (* version 4, ihl 5 *);
  Bytes.set b (off + 1) '\000' (* dscp/ecn *);
  Bytes.set_uint16_be b (off + 2) h.total_len;
  Bytes.set_uint16_be b (off + 4) h.ident;
  Bytes.set_uint16_be b (off + 6) 0x4000 (* DF, fragment offset 0 *);
  Bytes.set b (off + 8) (Char.chr (h.ttl land 0xff));
  Bytes.set b (off + 9) (Char.chr (protocol_to_int h.protocol land 0xff));
  Bytes.set_uint16_be b (off + 10) 0 (* checksum placeholder *);
  set_ip b (off + 12) h.src;
  set_ip b (off + 16) h.dst;
  Bytes.set_uint16_be b (off + 10) (Checksum.compute b ~off ~len:header_len)

let build h ~payload =
  let b = Bytes.create (header_len + Bytes.length payload) in
  build_into h b ~off:0;
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  b

(* RFC 791 options between [off] and [limit]: EOL ends the list, NOP
   is one byte, any other option is type, length and data, with a
   length of at least 2 that ends inside the header. A lying length is
   rejected, as [Tcp_wire.parse_options] does: a parser that stops early
   would hide the lie from the drop ledger. *)
let rec options_valid b off limit =
  if off >= limit then true
  else
    match Char.code (Bytes.get b off) with
    | 0 -> true
    | 1 -> options_valid b (off + 1) limit
    | _ ->
      off + 1 < limit
      &&
      let olen = Char.code (Bytes.get b (off + 1)) in
      olen >= 2 && off + olen <= limit && options_valid b (off + olen) limit

let parse b ~off ~len =
  if len < header_len then Error Dsim.Flowtrace.Bad_length
  else begin
    let vihl = Char.code (Bytes.get b off) in
    if vihl lsr 4 <> 4 then Error Dsim.Flowtrace.Parse_error
    else begin
      let ihl = (vihl land 0xf) * 4 in
      if ihl < header_len then Error Dsim.Flowtrace.Parse_error
      else if len < ihl then Error Dsim.Flowtrace.Bad_option
      else if not (Checksum.valid b ~off ~len:ihl) then
        Error Dsim.Flowtrace.Bad_checksum
      else if
        ihl > header_len && not (options_valid b (off + header_len) (off + ihl))
      then Error Dsim.Flowtrace.Bad_option
      else begin
        let total_len = Bytes.get_uint16_be b (off + 2) in
        (* More Fragments set or a non-zero fragment offset: this stack
           does no reassembly, and treating a fragment as a whole
           datagram would hand the upper parser payload bytes that are
           not where its header claims. Typed reject instead. *)
        let frag_field = Bytes.get_uint16_be b (off + 6) in
        if frag_field land 0x3fff <> 0 then
          Error Dsim.Flowtrace.Frag_unsupported
        else if total_len < ihl || total_len > len then
          Error Dsim.Flowtrace.Bad_length
        else
          Ok
            ( {
                src = get_ip b (off + 12);
                dst = get_ip b (off + 16);
                protocol = protocol_of_int (Char.code (Bytes.get b (off + 9)));
                ttl = Char.code (Bytes.get b (off + 8));
                ident = Bytes.get_uint16_be b (off + 4);
                total_len;
              },
              off + ihl )
      end
    end
  end

(* Allocation-free: the 12-byte pseudo-header's one's-complement sum is
   just the 16-bit halves of both addresses plus protocol and length,
   so build the running sum arithmetically instead of staging bytes. *)
let pseudo_header_sum ~src ~dst ~protocol ~len =
  let halves ip =
    let v = Int32.to_int (Ipv4_addr.to_int32 ip) land 0xffffffff in
    (v lsr 16) + (v land 0xffff)
  in
  halves src + halves dst + protocol_to_int protocol + len
