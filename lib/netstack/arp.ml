type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Nic.Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Nic.Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

let packet_len = 28

let set_ip b off ip = Bytes.set_int32_be b off (Ipv4_addr.to_int32 ip)
let get_ip b off = Ipv4_addr.of_int32 (Bytes.get_int32_be b off)

let build p =
  let b = Bytes.create packet_len in
  Bytes.set_uint16_be b 0 1 (* htype ethernet *);
  Bytes.set_uint16_be b 2 0x0800 (* ptype ipv4 *);
  Bytes.set b 4 '\006' (* hlen *);
  Bytes.set b 5 '\004' (* plen *);
  Bytes.set_uint16_be b 6 (match p.op with Request -> 1 | Reply -> 2);
  Bytes.blit_string (Nic.Mac_addr.to_bytes p.sender_mac) 0 b 8 6;
  set_ip b 14 p.sender_ip;
  Bytes.blit_string (Nic.Mac_addr.to_bytes p.target_mac) 0 b 18 6;
  set_ip b 24 p.target_ip;
  b

let parse b ~off =
  if Bytes.length b - off < packet_len then Error Dsim.Flowtrace.Parse_error
  else if
    Bytes.get_uint16_be b off <> 1 || Bytes.get_uint16_be b (off + 2) <> 0x0800
  then
    Error Dsim.Flowtrace.Parse_error
  else begin
    match Bytes.get_uint16_be b (off + 6) with
    | (1 | 2) as opv ->
      Ok
        {
          op = (if opv = 1 then Request else Reply);
          sender_mac = Nic.Mac_addr.of_bytes_exn (Bytes.sub_string b (off + 8) 6);
          sender_ip = get_ip b (off + 14);
          target_mac = Nic.Mac_addr.of_bytes_exn (Bytes.sub_string b (off + 18) 6);
          target_ip = get_ip b (off + 24);
        }
    | _ -> Error Dsim.Flowtrace.Parse_error
  end

let request ~sender_mac ~sender_ip ~target_ip =
  {
    op = Request;
    sender_mac;
    sender_ip;
    target_mac = Nic.Mac_addr.zero;
    target_ip;
  }

let reply_to req ~mac =
  {
    op = Reply;
    sender_mac = mac;
    sender_ip = req.target_ip;
    target_mac = req.sender_mac;
    target_ip = req.sender_ip;
  }

let pp fmt p =
  match p.op with
  | Request ->
    Format.fprintf fmt "arp who-has %a tell %a" Ipv4_addr.pp p.target_ip
      Ipv4_addr.pp p.sender_ip
  | Reply ->
    Format.fprintf fmt "arp %a is-at %a" Ipv4_addr.pp p.sender_ip
      Nic.Mac_addr.pp p.sender_mac
