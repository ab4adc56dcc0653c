(** Simulated testbed assembly.

    The paper's bench is an Arm Morello (the device under test, running
    CheriBSD + Intravisor) with a dual-port Intel 82576 PCI NIC, cabled
    to a load-generating peer. [node] is one such machine: an address
    space under an Intravisor, a NIC on a PCI bus, and a host OS.
    [netif] is one configured port: DPDK (EAL + mempool + ethdev,
    kernel-detached) plus an F-Stack instance and its ff_* API. *)

type node

val make_node :
  Dsim.Engine.t ->
  name:string ->
  ?cost:Dsim.Cost_model.t ->
  ?generous_pci:bool ->
  ports:int ->
  unit ->
  node
(** A node's address space is 64 MiB. [generous_pci] gives the node a
    10 Gbit/s DMA bus per direction so it can never be the bottleneck —
    used for the load-generator peer, which stands in for the authors'
    test server. Each NIC port has one RX/TX descriptor-ring pair
    ({!Nic.Igb}). *)

val intravisor : node -> Capvm.Intravisor.t
val node_mem : node -> Cheri.Tagged_memory.t
val node_cost : node -> Dsim.Cost_model.t
val nic : node -> Nic.Igb.t
val port : node -> int -> Nic.Igb.port

val link : Dsim.Engine.t -> node -> int -> node -> int -> Nic.Link.t
(** Cable port [i] of one node to port [j] of another with a 1 Gbit/s
    link, the 82576's port rate. *)

type netif = {
  eal : Dpdk.Eal.t;
  pool : Dpdk.Mbuf.pool;
  dev : Dpdk.Eth_dev.t;
  stack : Netstack.Stack.t;
  ff : Netstack.Ff_api.t;
  uio : Dpdk.Igb_uio.binding;
}

val make_netif :
  node ->
  region:Cheri.Capability.t ->
  port_idx:int ->
  ip:Netstack.Ipv4_addr.t ->
  ?stack_tuning:(Netstack.Stack.config -> Netstack.Stack.config) ->
  unit ->
  netif
(** Build the full user-space data path inside [region] (a cVM region
    or, for Baseline, a process heap): EAL, a 4096-mbuf mempool, kernel
    detach of the port with the mempool zone as its one bus-master DMA
    window, poll-mode ethdev, and an F-Stack instance. One netif drives
    one port; a later [make_netif] on the same port rebinds the window
    to its own pool. *)

val default_netif_region_size : int
(** Bytes a [make_netif] region must at least provide. *)
