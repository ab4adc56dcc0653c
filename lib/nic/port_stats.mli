(** Per-port hardware counters, mirroring the 82576 statistics registers
    the DPDK ethdev stats API reads. *)

type t = {
  mutable tx_packets : int;
  mutable tx_bytes : int;  (** Frame bytes handed to the MAC (no preamble/IFG). *)
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_no_desc : int;  (** Frames dropped: RX ring empty. *)
  mutable rx_filtered : int;  (** Frames dropped by the MAC address filter. *)
  mutable rx_crc_errors : int;  (** Frames dropped: FCS mismatch at the MAC. *)
  mutable rx_dma_errors : int;  (** Frames dropped: RX DMA transfer error. *)
  mutable tx_ring_full : int;  (** Driver enqueue attempts refused. *)
}

val create : unit -> t
