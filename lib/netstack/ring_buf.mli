(** Bounded circular byte buffer.

    Socket send/receive buffers. The send buffer additionally supports
    random-access peeking at an offset from the head, which is how TCP
    retransmission re-reads data between [snd_una] and [snd_nxt] without
    consuming it. *)

type t

val create : capacity:int -> t
val length : t -> int
val free_space : t -> int
val is_empty : t -> bool

val write : t -> bytes -> off:int -> len:int -> int
(** Append up to [len] bytes; returns how many were accepted (short
    write when full — the EAGAIN path of ff_write). *)

val peek : t -> off:int -> len:int -> bytes
(** Copy [len] bytes starting [off] bytes after the head, without
    consuming. @raise Invalid_argument when the range exceeds {!length}. *)

val blit_to : t -> off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Like {!peek} but into a caller buffer (wrap-safe, no allocation) —
    how the zero-copy TX path reads segment payload straight into mbuf
    headroom. @raise Invalid_argument when the range exceeds {!length}. *)

val read_into : t -> dst:bytes -> dst_off:int -> len:int -> int
(** Consume up to [len] bytes from the head into [dst]; returns the
    count actually read. *)

val drop : t -> int -> unit
(** Consume [n] bytes from the head (ACKed data).
    @raise Invalid_argument when [n > length]. *)

val clear : t -> unit
