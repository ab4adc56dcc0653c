type direction = To_memory | From_memory

(* One busy horizon per lane (direction): transfers queue FIFO behind
   it. *)
type lane = { bps : float; mutable busy_until : Dsim.Time.t; mutable transfers : int }

type t = { rx : lane; tx : lane; per_transfer_ns : float }

let lane bps = { bps; busy_until = Dsim.Time.zero; transfers = 0 }

let create ?(rx_bps = 1.395e9) ?(tx_bps = 1.609e9) ?(per_transfer_ns = 0.) () =
  { rx = lane rx_bps; tx = lane tx_bps; per_transfer_ns }

let of_cost_model (cm : Dsim.Cost_model.t) =
  create ~rx_bps:cm.pci_rx_bps ~tx_bps:cm.pci_tx_bps
    ~per_transfer_ns:cm.dma_per_packet_ns ()

let lane_of t = function To_memory -> t.rx | From_memory -> t.tx

let reserve t dir ~now ~bytes =
  let l = lane_of t dir in
  let start = Dsim.Time.max now l.busy_until in
  let dur_ns = (float_of_int bytes *. 8. /. l.bps *. 1e9) +. t.per_transfer_ns in
  let fin = Dsim.Time.add start (Dsim.Time.of_float_ns dur_ns) in
  l.busy_until <- fin;
  l.transfers <- l.transfers + 1;
  fin

let busy_until t dir = (lane_of t dir).busy_until
let transfers t dir = (lane_of t dir).transfers
