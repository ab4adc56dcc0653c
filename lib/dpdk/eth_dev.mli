(** Poll-mode ethdev: the rte_eth_rx_burst / rte_eth_tx_burst surface.

    Owns the descriptor-ring bookkeeping for one NIC port: keeps the RX
    ring stocked with mbufs from the port's pool, translates completed
    descriptors back to mbufs, and recycles transmitted buffers. All in
    polling mode — there are no interrupts anywhere, matching DPDK.

    One [t] binds one {e queue} of a port (default 0): with a
    multi-queue NIC ({!Nic.Igb.create} [?queues]), attach one ethdev
    per queue, each with its own mbuf pool — the
    rte_eth_rx_queue_setup-with-per-queue-mempool configuration.
    Instances on different queues of one port share no mutable state,
    so each can be polled by its own stack loop. *)

type t

val attach :
  Eal.t -> Nic.Igb.port -> ?queue:int -> rx_pool:Mbuf.pool -> unit -> t
(** @raise Invalid_argument when [queue] is out of range for the port. *)

val start : t -> unit
(** Fill the RX ring from the pool. Must be called once before polling. *)

val port : t -> Nic.Igb.port
val queue : t -> int
val rx_pool : t -> Mbuf.pool

val rx_burst : t -> max:int -> Mbuf.t list
(** Completed receives (data region = the frame). Ownership moves to the
    caller, who must {!Mbuf.free} each buffer when done. The ring is
    restocked from the pool on every call; pool exhaustion (caller
    sitting on buffers) leaves the ring short — hardware back-pressure. *)

val tx_burst : t -> Mbuf.t list -> Mbuf.t list
(** Enqueue frames for transmission; returns the *rejected* suffix when
    the TX ring fills (caller keeps ownership of those, as in DPDK's
    partial-burst contract). Accepted mbufs are freed automatically once
    the wire is done with them. *)

val reap : t -> unit
(** Recycle completed TX buffers; called internally by both bursts, and
    callable from an idle loop. *)

val tx_backlog : t -> int
(** Frames enqueued to the device and not yet completed. *)
