(** Receive-side scaling's steering function, as an attacker sees it.

    The 82576 can spread received IPv4 frames across RX queues with a
    Toeplitz hash over (src ip, dst ip, src port, dst port) — or the
    (src ip, dst ip) 2-tuple for non-TCP/UDP traffic and IPv4
    fragments — indexed into a 128-entry indirection table (RETA). The
    modelled device runs one queue per port, as the paper's testbed
    does, so nothing on the data path steers. What stays is the pure
    function: the red-team corpus uses {!probe} to aim frames the way
    an off-path attacker would at a multi-queue port. *)

val hash_input : bytes -> int
(** Raw 32-bit Toeplitz hash of a packed input under the Microsoft
    reference key. *)

val five_tuple : bytes -> bytes option
(** Packed Toeplitz input of an Ethernet frame, [None] if not IPv4:
    12 bytes (src ip, dst ip, src port, dst port) for unfragmented
    TCP/UDP — the standard RSS TCP/IPv4 input, comparable against the
    Microsoft verification vectors — else the 8-byte (src ip, dst ip)
    2-tuple (also used for fragments, so all fragments of a datagram
    steer to one queue). *)

val probe : queues:int -> bytes -> (int * int) option
(** [(hash, queue)] the steering function of a [queues]-queue port at
    its reset RETA (entry [i] points at queue [i mod queues]) assigns
    this frame, [None] if not IPv4. Steering is a pure function of the
    frame bytes, so a crafted 5-tuple can aim a flow at a chosen
    queue. *)
