(* Big-endian 32-bit words summed into the native int: since
   2^16 = 1 (mod 0xFFFF), [finish] folds this to the same value as the
   RFC 1071 sum of 16-bit words, and a nonzero sum never folds to 0.
   The main loop loads 64 bits at a time and adds both 32-bit halves,
   so the sum is exactly the 32-bit-word sum. *)
let ones_complement_sum ?(init = 0) b ~off ~len =
  let sum = ref init in
  let i = ref off in
  let last = off + len in
  while !i + 7 < last do
    let w = Bytes.get_int64_be b !i in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFFFFFF);
    i := !i + 8
  done;
  if !i + 3 < last then begin
    sum := !sum + (Int32.to_int (Bytes.get_int32_be b !i) land 0xFFFFFFFF);
    i := !i + 4
  end;
  if !i + 1 < last then begin
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  end;
  if !i < last then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  !sum

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let compute ?init b ~off ~len = finish (ones_complement_sum ?init b ~off ~len)

let valid ?init b ~off ~len = compute ?init b ~off ~len = 0
