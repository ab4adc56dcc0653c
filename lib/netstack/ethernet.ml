type ethertype = Ipv4 | Arp | Unknown of int

type header = {
  dst : Nic.Mac_addr.t;
  src : Nic.Mac_addr.t;
  ethertype : ethertype;
}

let header_len = 14

let ethertype_to_int = function
  | Ipv4 -> 0x0800
  | Arp -> 0x0806
  | Unknown v -> v

let ethertype_of_int = function
  | 0x0800 -> Ipv4
  | 0x0806 -> Arp
  | v -> Unknown v

let build_into h buf ~off =
  Bytes.blit_string (Nic.Mac_addr.to_bytes h.dst) 0 buf off 6;
  Bytes.blit_string (Nic.Mac_addr.to_bytes h.src) 0 buf (off + 6) 6;
  let et = ethertype_to_int h.ethertype in
  Bytes.set buf (off + 12) (Char.chr (et lsr 8));
  Bytes.set buf (off + 13) (Char.chr (et land 0xff))

let build h ~payload =
  let frame = Bytes.create (header_len + Bytes.length payload) in
  build_into h frame ~off:0;
  Bytes.blit payload 0 frame header_len (Bytes.length payload);
  frame

let parse_at frame ~off ~len =
  if len < header_len then Error Dsim.Flowtrace.Parse_error
  else begin
    let dst = Nic.Mac_addr.of_bytes_exn (Bytes.sub_string frame off 6) in
    let src = Nic.Mac_addr.of_bytes_exn (Bytes.sub_string frame (off + 6) 6) in
    let et =
      (Char.code (Bytes.get frame (off + 12)) lsl 8)
      lor Char.code (Bytes.get frame (off + 13))
    in
    Ok ({ dst; src; ethertype = ethertype_of_int et }, off + header_len)
  end

let parse frame = parse_at frame ~off:0 ~len:(Bytes.length frame)
