(** Poll-mode ethdev: the rte_eth_rx_burst / rte_eth_tx_burst surface.

    Owns the descriptor-ring bookkeeping for one NIC port: keeps the RX
    ring stocked with mbufs from the port's pool, translates completed
    descriptors back to mbufs, and recycles transmitted buffers. All in
    polling mode — there are no interrupts anywhere, matching DPDK.

    One [t] drives the port's one RX/TX descriptor-ring pair, stocked
    from one mbuf pool. *)

type t

val attach : Eal.t -> Nic.Igb.port -> rx_pool:Mbuf.pool -> t

val start : t -> unit
(** Fill the RX ring from the pool. Must be called once before polling. *)

val port : t -> Nic.Igb.port
val rx_pool : t -> Mbuf.pool

val rx_posted : t -> int
(** RX mbufs posted to the device and not yet returned by {!rx_burst}. *)

val tx_queued : t -> int
(** TX mbufs accepted by {!tx_burst} and not yet recycled. *)

val rx_burst : t -> max:int -> (Mbuf.t -> unit) -> int
(** Hand up to [max] completed receives (data region = the frame) to
    the handler, oldest first, and return how many. Ownership of each
    mbuf moves to the handler, which must {!Mbuf.free} it when done.

    The order of side effects is fixed: reap completed TX buffers
    ({!reap}); take the completions from the device, each matched to
    its ring's head mbuf and collected into a device-owned array;
    restock the RX ring from the pool; count the burst in the metrics;
    and only then call the handler on each mbuf in turn. So the ring is
    restocked before the stack sees a frame, and pool exhaustion
    (handlers sitting on buffers) leaves the ring short — hardware
    back-pressure. The handler must not call [rx_burst] on the same
    device. Made once by the caller (not per call), it lets a burst run
    without allocating. *)

val tx_burst : t -> Mbuf.t list -> Mbuf.t list
(** Enqueue frames for transmission; returns the *rejected* suffix when
    the TX ring fills (caller keeps ownership of those, as in DPDK's
    partial-burst contract). Accepted mbufs are freed automatically once
    the wire is done with them. *)

val reap : t -> unit
(** Recycle completed TX buffers; called internally by both bursts, and
    callable from an idle loop. A completion that is not its ring's head
    raises [Invalid_argument] (RX completions likewise), so a device
    that completes descriptors out of order fails loudly. *)
