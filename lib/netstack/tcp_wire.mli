(** TCP segment wire format (RFC 793 + MSS, window-scale and timestamp
    options).

    With the timestamp option on every data segment — as FreeBSD (and
    hence F-Stack) enables by default — the MSS over a 1500-byte MTU is
    1448 bytes, which is what makes 94.1% the theoretical single-port
    efficiency in Table II. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val flag : ?syn:bool -> ?ack:bool -> ?fin:bool -> ?rst:bool -> ?psh:bool -> ?urg:bool -> unit -> flags

type option_ =
  | Mss of int
  | Wscale of int
  | Timestamps of { tsval : int; tsecr : int }
  | Unknown_option of int

type header = {
  src_port : int;
  dst_port : int;
  seq : Tcp_seq.t;
  ack : Tcp_seq.t;
  flags : flags;
  window : int;
  options : option_ list;
}

val header_len : header -> int
(** With options, padded to 4 bytes. *)

val build :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> header -> payload:bytes -> bytes
(** Segment bytes including checksum over the pseudo-header. *)

val write_header :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> header -> bytes -> off:int ->
  payload_len:int -> int
(** In-place variant: the payload must already sit at
    [off + header_len h]; writes the header at [off] and the checksum
    over the whole segment where it lies. Returns the header length. *)

val parse :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> bytes -> off:int -> len:int ->
  (header * int, Dsim.Flowtrace.reason) result
(** Validates the checksum; returns the header and payload offset.
    Fewer than 20 bytes is [Bad_length]; a wrong checksum is
    [Bad_checksum]; a data offset below 20 bytes or past [len] is
    [Parse_error]; an option whose length byte is missing, below 2 or
    runs past the data offset is [Bad_option]. *)

val find_mss : header -> int option
val find_timestamps : header -> (int * int) option
val find_wscale : header -> int option
