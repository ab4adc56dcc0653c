(** Ethernet frame check sequence (IEEE 802.3 CRC-32).

    The simulator carries the FCS *alongside* the frame bytes rather
    than appending four bytes to every buffer (the wire-time cost of the
    FCS is already in {!Link}'s 24-byte per-frame overhead).  The
    transmitting MAC computes it, the receiving MAC recomputes and
    compares — so wire corruption injected between the two is detected
    exactly where real hardware detects it. *)

val compute : bytes -> int
(** CRC-32 (reflected polynomial [0xEDB88320], initial value and final
    XOR [0xFFFFFFFF]) over every byte of the frame, as a value in
    [0, 2{^32}).

    A C kernel computes it and allocates nothing. On x86-64 CPUs with
    PCLMULQDQ (asked once, when the module initialises) it folds the
    frame's 16-byte blocks with carry-less multiplies when the frame
    holds at least 64 bytes; slicing-by-8 tables take frames under 64
    bytes, the tail under 16 bytes, and every frame on other CPUs. Both
    paths give the same CRC. The stub reads exactly the frame's bytes,
    so there is no window for the wrapper to check. *)
