type t = int

let () = if Sys.int_size < 63 then failwith "Dsim.Time: needs a 63-bit int"

let zero = 0
external ns : int -> t = "%identity"
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let of_float_ns f = if f <= 0. then 0 else int_of_float (Float.round f)
let of_float_sec f = of_float_ns (f *. 1e9)

external add : t -> t -> t = "%addint"
let sub a b = if b > a then 0 else a - b
let diff a b = abs (a - b)
external mul : t -> int -> t = "%mulint"
external compare : t -> t -> int = "%compare"
external ( < ) : t -> t -> bool = "%lessthan"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( > ) : t -> t -> bool = "%greaterthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
let min a b = if a <= b then a else b
let max a b = if a >= b then a else b
external equal : t -> t -> bool = "%equal"

external to_ns : t -> int = "%identity"
external to_float_ns : t -> float = "%floatofint"
let to_float_us t = to_float_ns t /. 1e3
let to_float_ms t = to_float_ns t /. 1e6
let to_float_sec t = to_float_ns t /. 1e9

let pp fmt t =
  let f = to_float_ns t in
  if Stdlib.( < ) f 1e3 then Format.fprintf fmt "%.0fns" f
  else if Stdlib.( < ) f 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Stdlib.( < ) f 1e9 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
