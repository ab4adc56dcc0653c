type header = { src_port : int; dst_port : int; length : int }

let header_len = 8

(* Header at [off], payload already in place at [off + header_len]; the
   in-mbuf TX path uses this after laying the payload down once. *)
let write_header ~src ~dst ~src_port ~dst_port b ~off ~payload_len =
  let len = header_len + payload_len in
  Bytes.set_uint16_be b off src_port;
  Bytes.set_uint16_be b (off + 2) dst_port;
  Bytes.set_uint16_be b (off + 4) len;
  Bytes.set_uint16_be b (off + 6) 0;
  let init = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.Udp ~len in
  let csum = Checksum.compute ~init b ~off ~len in
  (* RFC 768: a computed zero checksum is transmitted as 0xffff. *)
  Bytes.set_uint16_be b (off + 6) (if csum = 0 then 0xffff else csum)

let build ~src ~dst ~src_port ~dst_port ~payload =
  let b = Bytes.create (header_len + Bytes.length payload) in
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  write_header ~src ~dst ~src_port ~dst_port b ~off:0
    ~payload_len:(Bytes.length payload);
  b

let parse ~src ~dst b ~off ~len =
  if len < header_len then Error Dsim.Flowtrace.Bad_length
  else begin
    let length = Bytes.get_uint16_be b (off + 4) in
    if length < header_len || length > len then Error Dsim.Flowtrace.Bad_length
    else begin
      let csum = Bytes.get_uint16_be b (off + 6) in
      let ok =
        csum = 0
        ||
        let init = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.Udp ~len:length in
        Checksum.compute ~init b ~off ~len:length = 0
      in
      if not ok then Error Dsim.Flowtrace.Bad_checksum
      else
        Ok
          ( {
              src_port = Bytes.get_uint16_be b off;
              dst_port = Bytes.get_uint16_be b (off + 2);
              length;
            },
            off + header_len )
    end
  end
