type t = int32

let of_int32 v = v
let to_int32 t = t

let make a b c d =
  let octet x =
    if x < 0 || x > 255 then invalid_arg "Ipv4_addr.make: octet out of range";
    Int32.of_int x
  in
  let ( <<< ) v n = Int32.shift_left v n in
  Int32.logor
    (Int32.logor (octet a <<< 24) (octet b <<< 16))
    (Int32.logor (octet c <<< 8) (octet d))

let of_string_exn s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match
      (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d)
    with
    | Some a, Some b, Some c, Some d -> make a b c d
    | _ -> invalid_arg ("Ipv4_addr.of_string_exn: " ^ s))
  | _ -> invalid_arg ("Ipv4_addr.of_string_exn: " ^ s)

let any = 0l
let broadcast = 0xffffffffl

let mask_of_prefix prefix =
  if prefix <= 0 then 0l
  else if prefix >= 32 then 0xffffffffl
  else Int32.shift_left 0xffffffffl (32 - prefix)

let in_same_subnet a b ~prefix =
  let m = mask_of_prefix prefix in
  Int32.equal (Int32.logand a m) (Int32.logand b m)

let equal = Int32.equal

let to_string t =
  let b n = Int32.to_int (Int32.logand (Int32.shift_right_logical t n) 0xffl) in
  Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let pp fmt t = Format.pp_print_string fmt (to_string t)
