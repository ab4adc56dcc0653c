(** Simulated Intel 82576-class dual-port Gigabit NIC.

    The device side of the poll-mode driver contract:

    - the driver hands empty receive buffers to a port ({!rx_refill})
      and later collects filled ones ({!rx_burst});
    - the driver enqueues transmit buffers ({!tx_enqueue}, the doorbell)
      and reaps completed ones ({!tx_reap});
    - the device moves packet bytes between simulated tagged memory and
      the wire with DMA transfers that are (a) serialised on the shared
      {!Pci_bus} and (b) authorised by the {e bus-master capability}
      installed at configuration time — the "detach from kernel, map
      with correct permission flags" step the paper implemented for
      DPDK/Morello.

    Each port has one RX/TX descriptor-ring pair, the 82576's reset
    configuration and the one the paper's testbed runs: one DPDK +
    F-Stack instance per port, no receive-side scaling. Ring occupancy
    is bounded like the hardware's descriptor rings; overflow drops
    (RX) or refusals (TX) are counted in {!Port_stats}. Each ring's
    occupancy is a {!Dsim.Metrics} gauge ([nic_tx_ring], [nic_rx_ring])
    with its size as capacity, and each overflow a [ring_full] stall,
    all labelled [port=<MAC>] like the port's DPDK series. The two
    ports share the PCI bus.

    Descriptors move through three timed stages: TX DMA read, TX on the
    wire, RX DMA write. Each stage of a port keeps its in-flight
    descriptors in a FIFO of parallel arrays, completed by one handler
    made at {!create}. This rests on one invariant: completion times
    never decrease per (port, stage), because each PCI lane
    ({!Pci_bus.reserve}) and each wire direction ({!Link.send}) is a
    serial FIFO resource and the engine dispatches equal times in
    schedule order. A completion that finds a different entry at the
    head raises [Invalid_argument]. A frame from the doorbell to its RX
    completion on the peer allocates nothing once the FIFOs and the
    link's frame pool have reached their working depth. *)

type t
type port

val create :
  Dsim.Engine.t ->
  Cheri.Tagged_memory.t ->
  bus:Pci_bus.t ->
  macs:Mac_addr.t list ->
  ?rx_ring_size:int ->
  ?tx_ring_size:int ->
  unit ->
  t
(** One port per MAC in [macs] (the 82576 has two). Default ring sizes
    follow common DPDK igb configuration (512 RX / 1024 TX). *)

val num_ports : t -> int
val port : t -> int -> port
(** @raise Invalid_argument on a bad index. *)

val port_index : port -> int
val engine : port -> Dsim.Engine.t
val mac : port -> Mac_addr.t
val stats : port -> Port_stats.t

val set_dma_cap : port -> Cheri.Capability.t -> unit
(** Install the bus-master window. All DMA is checked against it; DMA
    outside raises {!Cheri.Fault.Capability_fault} at the driver's
    doorbell/refill call site. *)

val set_promisc : port -> bool -> unit

val set_rx_fault : port -> (len:int -> bool) option -> unit
(** Chaos hook consulted per accepted frame; a [true] verdict fails the
    RX DMA transfer: the frame is dropped with an [Rx_dma]/[Dma_error]
    attribution and counted in {!Port_stats.t.rx_dma_errors}. *)

val connect : port -> Link.t -> Link.endpoint -> unit
(** Attach the port to its wire end and install the receive path. *)

val deliver : port -> ?flow:Dsim.Flowtrace.ctx option -> bytes -> unit
(** Frame arriving from the wire, with a valid FCS (exposed so tests
    can inject frames without a link; {!connect}'s handler takes the
    same path). The device works on a copy, so the caller keeps the
    frame. [flow] is the sampled trace context travelling with the
    frame; MAC-filter and no-descriptor drops are attributed to it. *)

(** {1 Driver-facing descriptor operations} *)

val rx_refill : port -> addr:int -> len:int -> bool
(** Give the device an empty buffer; [false] when the RX ring is full. *)

val rx_burst :
  port ->
  max:int ->
  (addr:int -> len:int -> flow:Dsim.Flowtrace.ctx option -> unit) ->
  int
(** Hand up to [max] completed receives to the callback, oldest first,
    and return how many it got. Each is a posted buffer's address, the
    frame length written there and the trace context carried across
    the wire. Completions come in {!rx_refill} order: a dropped frame
    consumes no buffer. A completion leaves the device before the
    callback sees it, so a callback that raises loses only the
    completions not yet handed over. The callback should be a closure
    made once, not per call: then a burst allocates nothing. *)

val rx_pending : port -> int
(** Completed-but-not-collected receives. *)

val rx_free_slots : port -> int

val tx_enqueue :
  port -> ?flow:Dsim.Flowtrace.ctx option -> addr:int -> len:int -> unit -> bool
(** Doorbell: packet at [addr..addr+len) is ready; [false] (and a
    counter bump plus a [Tx_ring]/[Tx_ring_full] drop attribution) when
    the TX ring is full. *)

val tx_reap : port -> max:int -> (int -> unit) -> int
(** Hand up to [max] buffer addresses whose transmission fully completed
    to the callback, in doorbell order, and return how many. The same
    contract as {!rx_burst}: each leaves the device (and the TX ring's
    in-flight count) before the callback sees it. *)

val tx_in_flight : port -> int
