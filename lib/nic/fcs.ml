(* IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8:
   eight 256-entry tables fold eight bytes per step through two 32-bit
   loads, then a byte-at-a-time tail.  Allocation-free per frame, which
   keeps the zero-copy fast path's minor-words budget intact. *)

let t0 =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* Table k is the CRC of a byte followed by k zero bytes: it folds in a
   byte that has k more bytes of its eight-byte step after it. *)
let next prev = Array.map (fun c -> t0.(c land 0xff) lxor (c lsr 8)) prev
let t1 = next t0
let t2 = next t1
let t3 = next t2
let t4 = next t3
let t5 = next t4
let t6 = next t5
let t7 = next t6

let u32_le frame i = Int32.to_int (Bytes.get_int32_le frame i) land 0xFFFFFFFF

let compute frame =
  let len = Bytes.length frame in
  let crc = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= len do
    let a = !crc lxor u32_le frame !i in
    let b = u32_le frame (!i + 4) in
    crc :=
      t7.(a land 0xff)
      lxor t6.((a lsr 8) land 0xff)
      lxor t5.((a lsr 16) land 0xff)
      lxor t4.(a lsr 24)
      lxor t3.(b land 0xff)
      lxor t2.((b lsr 8) land 0xff)
      lxor t1.((b lsr 16) land 0xff)
      lxor t0.(b lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    crc := t0.((!crc lxor Char.code (Bytes.get frame j)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
