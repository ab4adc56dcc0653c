type t = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_no_desc : int;
  mutable rx_filtered : int;
  mutable rx_crc_errors : int;
  mutable rx_dma_errors : int;
  mutable tx_ring_full : int;
}

let create () =
  {
    tx_packets = 0;
    tx_bytes = 0;
    rx_packets = 0;
    rx_bytes = 0;
    rx_no_desc = 0;
    rx_filtered = 0;
    rx_crc_errors = 0;
    rx_dma_errors = 0;
    tx_ring_full = 0;
  }
