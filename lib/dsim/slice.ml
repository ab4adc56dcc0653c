type oob = { raise_oob : 'a. addr:int -> len:int -> detail:string -> 'a }

let default_oob =
  {
    raise_oob =
      (fun ~addr ~len ~detail ->
        invalid_arg
          (Printf.sprintf "Slice: access [%d,+%d) %s" addr len detail));
  }

type t = { base : bytes; off : int; len : int; abs : int; oob : oob }

let make ?(abs = 0) ?(oob = default_oob) base ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length base || len > Bytes.length base - off
  then
    invalid_arg
      (Printf.sprintf "Slice.make: window [%d,+%d) outside 0..%d" off len
         (Bytes.length base));
  { base; off; len; abs; oob }

let of_bytes b = { base = b; off = 0; len = Bytes.length b; abs = 0; oob = default_oob }

let length t = t.len
let base t = t.base
let base_off t = t.off
let absolute t = t.abs

let check t ~off ~len =
  if off < 0 || len < 0 || off > t.len || len > t.len - off then
    t.oob.raise_oob ~addr:(t.abs + off) ~len
      ~detail:(Printf.sprintf "outside slice [0x%x,+0x%x)" t.abs t.len)

let sub t ~off ~len =
  check t ~off ~len;
  { t with off = t.off + off; len; abs = t.abs + off }

let get_u8 t off =
  check t ~off ~len:1;
  Char.code (Bytes.get t.base (t.off + off))

let set_u8 t off v =
  check t ~off ~len:1;
  Bytes.set t.base (t.off + off) (Char.chr (v land 0xff))

let get_u16_be t off =
  check t ~off ~len:2;
  let i = t.off + off in
  (Char.code (Bytes.get t.base i) lsl 8) lor Char.code (Bytes.get t.base (i + 1))

let set_u16_be t off v =
  check t ~off ~len:2;
  let i = t.off + off in
  Bytes.set t.base i (Char.chr ((v lsr 8) land 0xff));
  Bytes.set t.base (i + 1) (Char.chr (v land 0xff))

let get_u32_be t off =
  check t ~off ~len:4;
  let i = t.off + off in
  let b k = Char.code (Bytes.get t.base (i + k)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let to_bytes t = Bytes.sub t.base t.off t.len

let blit_from t ~off ~src ~src_off ~len =
  check t ~off ~len;
  Bytes.blit src src_off t.base (t.off + off) len
