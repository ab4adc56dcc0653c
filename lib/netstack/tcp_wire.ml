type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let flag ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false)
    ?(psh = false) ?(urg = false) () =
  { syn; ack; fin; rst; psh; urg }

type option_ =
  | Mss of int
  | Wscale of int
  | Timestamps of { tsval : int; tsecr : int }
  | Unknown_option of int

type header = {
  src_port : int;
  dst_port : int;
  seq : Tcp_seq.t;
  ack : Tcp_seq.t;
  flags : flags;
  window : int;
  options : option_ list;
}

let base_header_len = 20

let option_encoded_len = function
  | Mss _ -> 4
  | Wscale _ -> 4 (* 3 + 1 NOP *)
  | Timestamps _ -> 12 (* 2 NOP + 10 *)
  | Unknown_option _ -> 0

let options_len options =
  List.fold_left (fun acc o -> acc + option_encoded_len o) 0 options

let header_len h = base_header_len + options_len h.options

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_int v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
    urg = v land 0x20 <> 0;
  }

let write_option b off = function
  | Mss v ->
    Bytes.set b off '\002';
    Bytes.set b (off + 1) '\004';
    Bytes.set_uint16_be b (off + 2) v;
    off + 4
  | Wscale v ->
    Bytes.set b off '\001' (* NOP for alignment *);
    Bytes.set b (off + 1) '\003';
    Bytes.set b (off + 2) '\003';
    Bytes.set b (off + 3) (Char.chr (v land 0xff));
    off + 4
  | Timestamps { tsval; tsecr } ->
    Bytes.set b off '\001';
    Bytes.set b (off + 1) '\001';
    Bytes.set b (off + 2) '\008';
    Bytes.set b (off + 3) '\010';
    set_u32 b (off + 4) tsval;
    set_u32 b (off + 8) tsecr;
    off + 12
  | Unknown_option _ -> off

(* Header written at [off] with the payload already in place at
   [off + header_len h] — the zero-copy TX path lays the payload into
   mbuf headroom first, then prepends this header and checksums the
   whole segment where it sits. Returns the header length. *)
let write_header ~src ~dst h b ~off ~payload_len =
  let hl = header_len h in
  let len = hl + payload_len in
  Bytes.set_uint16_be b off h.src_port;
  Bytes.set_uint16_be b (off + 2) h.dst_port;
  set_u32 b (off + 4) h.seq;
  set_u32 b (off + 8) h.ack;
  Bytes.set b (off + 12) (Char.chr ((hl / 4) lsl 4));
  Bytes.set b (off + 13) (Char.chr (flags_to_int h.flags));
  Bytes.set_uint16_be b (off + 14) (Int.min h.window 0xffff);
  Bytes.set_uint16_be b (off + 16) 0 (* checksum *);
  Bytes.set_uint16_be b (off + 18) 0 (* urgent pointer *);
  let o =
    List.fold_left (fun o opt -> write_option b o opt) (off + base_header_len)
      h.options
  in
  assert (o = off + hl);
  let init = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.Tcp ~len in
  Bytes.set_uint16_be b (off + 16) (Checksum.compute ~init b ~off ~len);
  hl

let build ~src ~dst h ~payload =
  let hl = header_len h in
  let b = Bytes.create (hl + Bytes.length payload) in
  Bytes.blit payload 0 b hl (Bytes.length payload);
  ignore (write_header ~src ~dst h b ~off:0 ~payload_len:(Bytes.length payload));
  b

(* A truncated kind byte, a length < 2 or a length running past the
   option region are hard parse errors, not a best-effort prefix: a
   lying option length is exactly how an attacker smuggles bytes past a
   parser that "stops early", and accepting the prefix hides the lie
   from the drop ledger. *)
let parse_options b ~off ~limit =
  let rec go off acc =
    if off >= limit then Ok (List.rev acc)
    else begin
      match Char.code (Bytes.get b off) with
      | 0 (* EOL *) -> Ok (List.rev acc)
      | 1 (* NOP *) -> go (off + 1) acc
      | kind ->
        if off + 1 >= limit then Error Dsim.Flowtrace.Bad_option
        else begin
          let olen = Char.code (Bytes.get b (off + 1)) in
          if olen < 2 || off + olen > limit then
            Error Dsim.Flowtrace.Bad_option
          else begin
            let opt =
              match kind with
              | 2 when olen = 4 -> Mss (Bytes.get_uint16_be b (off + 2))
              | 3 when olen = 3 -> Wscale (Char.code (Bytes.get b (off + 2)))
              | 8 when olen = 10 ->
                Timestamps { tsval = get_u32 b (off + 2); tsecr = get_u32 b (off + 6) }
              | k -> Unknown_option k
            in
            go (off + olen) (opt :: acc)
          end
        end
    end
  in
  go off []

let parse ~src ~dst b ~off ~len =
  if len < base_header_len then Error Dsim.Flowtrace.Bad_length
  else begin
    let init = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.Tcp ~len in
    if Checksum.compute ~init b ~off ~len <> 0 then
      Error Dsim.Flowtrace.Bad_checksum
    else begin
      let data_off = (Char.code (Bytes.get b (off + 12)) lsr 4) * 4 in
      if data_off < base_header_len || data_off > len then
        Error Dsim.Flowtrace.Parse_error
      else begin
        match
          parse_options b ~off:(off + base_header_len) ~limit:(off + data_off)
        with
        | Error _ as e -> e
        | Ok options ->
          Ok
            ( {
                src_port = Bytes.get_uint16_be b off;
                dst_port = Bytes.get_uint16_be b (off + 2);
                seq = Tcp_seq.of_int (get_u32 b (off + 4));
                ack = Tcp_seq.of_int (get_u32 b (off + 8));
                flags = flags_of_int (Char.code (Bytes.get b (off + 13)));
                window = Bytes.get_uint16_be b (off + 14);
                options;
              },
              off + data_off )
      end
    end
  end

let find_mss h =
  List.find_map (function Mss v -> Some v | _ -> None) h.options

let find_timestamps h =
  List.find_map
    (function Timestamps { tsval; tsecr } -> Some (tsval, tsecr) | _ -> None)
    h.options

let find_wscale h =
  List.find_map (function Wscale v -> Some v | _ -> None) h.options
