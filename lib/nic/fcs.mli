(** Ethernet frame check sequence (IEEE 802.3 CRC-32).

    The simulator carries the FCS *alongside* the frame bytes rather
    than appending four bytes to every buffer (the wire-time cost of the
    FCS is already in {!Link.overhead_bytes}).  The transmitting MAC
    computes it, the receiving MAC recomputes and compares — so wire
    corruption injected between the two is detected exactly where real
    hardware detects it. *)

val compute : bytes -> int
(** CRC-32 over the whole frame, slicing-by-8 (eight bytes per step);
    allocation-free. *)
