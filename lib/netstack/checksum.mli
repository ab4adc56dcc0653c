(** RFC 1071 Internet checksum. *)

val ones_complement_sum : ?init:int -> bytes -> off:int -> len:int -> int
(** One's-complement running sum (not yet complemented or folded to 16
    bits); chain calls via [init] to cover pseudo-headers. [len <= 0]
    returns [init]; a window past [b] raises [Invalid_argument]. *)

val finish : int -> int
(** Fold carries and complement; the value to store in a header. *)

val compute : ?init:int -> bytes -> off:int -> len:int -> int
(** [finish (ones_complement_sum ...)]. *)

val valid : ?init:int -> bytes -> off:int -> len:int -> bool
(** True when the region (with its embedded checksum field) sums to
    zero. *)
