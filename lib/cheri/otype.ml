type t = int

type allocator = { mutable next : int }

let allocator () = { next = 1 }

let fresh a =
  let v = a.next in
  a.next <- a.next + 1;
  v

let of_int_exn v =
  if v < 0 then invalid_arg "Otype.of_int_exn: negative otype";
  v

let to_int t = t
let equal = Int.equal
let pp fmt t = Format.fprintf fmt "otype:%d" t
