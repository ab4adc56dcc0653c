(** RFC 1071 Internet checksum. *)

val ones_complement_sum : ?init:int -> bytes -> off:int -> len:int -> int
(** One's-complement running sum (not yet complemented or folded to 16
    bits) of [len] bytes of [b] from [off]; chain calls via [init] to
    cover pseudo-headers.

    The sum is [init] plus the big-endian 32-bit words of the window,
    then a 32-, 16- and 8-bit tail (an odd last byte counts as the high
    byte of a 16-bit word). Since 2{^16} = 1 (mod 0xFFFF), {!finish}
    folds it to the same value as the sum of 16-bit words.

    A C kernel adds the words into a 64-bit accumulator and allocates
    nothing. Before calling it, this wrapper returns [init] when
    [len <= 0], and raises [Invalid_argument] unless
    [off >= 0 && len <= Bytes.length b - off] (a check that does not
    overflow, whatever [off] and [len] are), so the kernel never reads
    outside [b]. *)

val finish : int -> int
(** Fold carries and complement; the value to store in a header. *)

val compute : ?init:int -> bytes -> off:int -> len:int -> int
(** [finish (ones_complement_sum ...)]. *)

val valid : ?init:int -> bytes -> off:int -> len:int -> bool
(** True when the region (with its embedded checksum field) sums to
    zero. *)
