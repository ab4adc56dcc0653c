type message =
  | Echo_request of { ident : int; seq : int; data : bytes }
  | Echo_reply of { ident : int; seq : int; data : bytes }
  | Other of { typ : int; code : int }

let build_echo ~typ ~ident ~seq ~data =
  let b = Bytes.create (8 + Bytes.length data) in
  Bytes.set b 0 (Char.chr typ);
  Bytes.set b 1 '\000' (* code *);
  Bytes.set_uint16_be b 2 0 (* checksum placeholder *);
  Bytes.set_uint16_be b 4 ident;
  Bytes.set_uint16_be b 6 seq;
  Bytes.blit data 0 b 8 (Bytes.length data);
  Bytes.set_uint16_be b 2 (Checksum.compute b ~off:0 ~len:(Bytes.length b));
  b

let build = function
  | Echo_request { ident; seq; data } -> build_echo ~typ:8 ~ident ~seq ~data
  | Echo_reply { ident; seq; data } -> build_echo ~typ:0 ~ident ~seq ~data
  | Other { typ; code } ->
    let b = Bytes.create 8 in
    Bytes.set b 0 (Char.chr typ);
    Bytes.set b 1 (Char.chr code);
    Bytes.set_uint16_be b 2 (Checksum.compute b ~off:0 ~len:8);
    b

let parse b ~off ~len =
  if len < 8 then Error Dsim.Flowtrace.Bad_length
  else if not (Checksum.valid b ~off ~len) then
    Error Dsim.Flowtrace.Bad_checksum
  else begin
    let typ = Char.code (Bytes.get b off) in
    let code = Char.code (Bytes.get b (off + 1)) in
    let ident = Bytes.get_uint16_be b (off + 4)
    and seq = Bytes.get_uint16_be b (off + 6) in
    let data = Bytes.sub b (off + 8) (len - 8) in
    match typ with
    | 8 when code = 0 -> Ok (Echo_request { ident; seq; data })
    | 0 when code = 0 -> Ok (Echo_reply { ident; seq; data })
    | _ -> Ok (Other { typ; code })
  end

let reply_to = function
  | Echo_request { ident; seq; data } -> Some (Echo_reply { ident; seq; data })
  | Echo_reply _ | Other _ -> None

let pp fmt = function
  | Echo_request { ident; seq; data } ->
    Format.fprintf fmt "echo-request id=%d seq=%d len=%d" ident seq (Bytes.length data)
  | Echo_reply { ident; seq; data } ->
    Format.fprintf fmt "echo-reply id=%d seq=%d len=%d" ident seq (Bytes.length data)
  | Other { typ; code } -> Format.fprintf fmt "icmp type=%d code=%d" typ code
