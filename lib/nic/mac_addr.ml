type t = string (* exactly 6 bytes *)

let of_bytes_exn s =
  if String.length s <> 6 then invalid_arg "Mac_addr.of_bytes_exn: need 6 bytes";
  s

let make a b c d e f =
  let byte x =
    if x < 0 || x > 0xff then invalid_arg "Mac_addr.make: byte out of range";
    Char.chr x
  in
  let buf = Bytes.create 6 in
  Bytes.set buf 0 (byte a);
  Bytes.set buf 1 (byte b);
  Bytes.set buf 2 (byte c);
  Bytes.set buf 3 (byte d);
  Bytes.set buf 4 (byte e);
  Bytes.set buf 5 (byte f);
  Bytes.unsafe_to_string buf

let of_string_exn s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let parse x =
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v <= 0xff -> v
      | _ -> invalid_arg ("Mac_addr.of_string_exn: bad octet " ^ x)
    in
    make (parse a) (parse b) (parse c) (parse d) (parse e) (parse f)
  | _ -> invalid_arg ("Mac_addr.of_string_exn: " ^ s)

let broadcast = "\xff\xff\xff\xff\xff\xff"
let zero = "\x00\x00\x00\x00\x00\x00"
let is_broadcast t = String.equal t broadcast
let is_multicast t = Char.code t.[0] land 0x01 = 1
let to_bytes t = t
let equal = String.equal

(* Allocation-free destination-address tests against a frame in place:
   the RX filter runs per packet, so it must not build a [t]. *)
let matches_bytes_at t buf ~off =
  Bytes.length buf - off >= 6
  && Bytes.get buf off = t.[0]
  && Bytes.get buf (off + 1) = t.[1]
  && Bytes.get buf (off + 2) = t.[2]
  && Bytes.get buf (off + 3) = t.[3]
  && Bytes.get buf (off + 4) = t.[4]
  && Bytes.get buf (off + 5) = t.[5]

let is_multicast_at buf ~off =
  Bytes.length buf - off >= 6 && Char.code (Bytes.get buf off) land 0x01 = 1

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (Char.code t.[0])
    (Char.code t.[1]) (Char.code t.[2]) (Char.code t.[3]) (Char.code t.[4])
    (Char.code t.[5])

let pp fmt t = Format.pp_print_string fmt (to_string t)
