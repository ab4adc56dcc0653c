(* The word sum is a C kernel (checksum_stubs.c). It reads the window
   it is given without looking at the buffer's length, so the window is
   checked here first, in a form that cannot overflow: [off + len] may
   wrap past [max_int], [Bytes.length b - off] cannot. *)
external sum_words :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "netstack_checksum_sum_byte" "netstack_checksum_sum"
[@@noalloc]

let ones_complement_sum ?(init = 0) b ~off ~len =
  if len <= 0 then init
  else if off >= 0 && len <= Bytes.length b - off then sum_words init b off len
  else invalid_arg "Checksum.ones_complement_sum: window past the buffer"

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let compute ?init b ~off ~len = finish (ones_complement_sum ?init b ~off ~len)

let valid ?init b ~off ~len = compute ?init b ~off ~len = 0
