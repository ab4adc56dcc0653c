type t = int

let mask = 0xFFFFFFFF
let of_int v = v land mask
let add a n = (a + n) land mask

let sub a b =
  let d = (a - b) land mask in
  if d land 0x80000000 <> 0 then d - 0x100000000 else d

let lt a b = sub a b < 0
let le a b = sub a b <= 0
let gt a b = sub a b > 0
let ge a b = sub a b >= 0
let between x ~low ~high = le low x && lt x high
let max a b = if ge a b then a else b
