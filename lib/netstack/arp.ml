type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Nic.Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Nic.Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

let packet_len = 28

let set_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let get_u16 b off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let set_ip b off ip =
  let v = Ipv4_addr.to_int32 ip in
  for i = 0 to 3 do
    Bytes.set b (off + i)
      (Char.chr (Int32.to_int (Int32.shift_right_logical v ((3 - i) * 8)) land 0xff))
  done

let get_ip b off =
  let v = ref 0l in
  for i = 0 to 3 do
    v := Int32.logor (Int32.shift_left !v 8) (Int32.of_int (Char.code (Bytes.get b (off + i))))
  done;
  Ipv4_addr.of_int32 !v

let build p =
  let b = Bytes.create packet_len in
  set_u16 b 0 1 (* htype ethernet *);
  set_u16 b 2 0x0800 (* ptype ipv4 *);
  Bytes.set b 4 '\006' (* hlen *);
  Bytes.set b 5 '\004' (* plen *);
  set_u16 b 6 (match p.op with Request -> 1 | Reply -> 2);
  Bytes.blit_string (Nic.Mac_addr.to_bytes p.sender_mac) 0 b 8 6;
  set_ip b 14 p.sender_ip;
  Bytes.blit_string (Nic.Mac_addr.to_bytes p.target_mac) 0 b 18 6;
  set_ip b 24 p.target_ip;
  b

let parse b ~off =
  if Bytes.length b - off < packet_len then Error Dsim.Flowtrace.Parse_error
  else if get_u16 b off <> 1 || get_u16 b (off + 2) <> 0x0800 then
    Error Dsim.Flowtrace.Parse_error
  else begin
    match get_u16 b (off + 6) with
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
