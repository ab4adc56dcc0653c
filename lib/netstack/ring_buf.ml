type t = {
  data : bytes;
  mutable head : int;  (* index of the first valid byte *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring_buf.create: capacity must be positive";
  { data = Bytes.create capacity; head = 0; len = 0 }

let capacity t = Bytes.length t.data
let length t = t.len
let free_space t = capacity t - t.len
let is_empty t = t.len = 0

let write t src ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length src || len > Bytes.length src - off
  then
    invalid_arg "Ring_buf.write: bad source range";
  let n = Int.min len (free_space t) in
  let cap = capacity t in
  let tail = (t.head + t.len) mod cap in
  let first = Int.min n (cap - tail) in
  Bytes.blit src off t.data tail first;
  if n > first then Bytes.blit src (off + first) t.data 0 (n - first);
  t.len <- t.len + n;
  n

let blit_to t ~off ~len ~dst ~dst_off =
  if off < 0 || len < 0 || off > t.len || len > t.len - off then
    invalid_arg "Ring_buf.blit_to: range exceeds buffered data";
  let cap = capacity t in
  let start = (t.head + off) mod cap in
  let first = Int.min len (cap - start) in
  Bytes.blit t.data start dst dst_off first;
  if len > first then Bytes.blit t.data 0 dst (dst_off + first) (len - first)

let peek t ~off ~len =
  if off < 0 || len < 0 || off > t.len || len > t.len - off then
    invalid_arg "Ring_buf.peek: range exceeds buffered data";
  let dst = Bytes.create len in
  blit_to t ~off ~len ~dst ~dst_off:0;
  dst

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Ring_buf.drop: beyond buffered data";
  t.head <- (t.head + n) mod capacity t;
  t.len <- t.len - n

let read_into t ~dst ~dst_off ~len =
  let n = Int.min len t.len in
  if n > 0 then begin
    blit_to t ~off:0 ~len:n ~dst ~dst_off;
    drop t n
  end;
  n

let clear t =
  t.head <- 0;
  t.len <- 0
