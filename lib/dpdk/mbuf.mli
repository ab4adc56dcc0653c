(** Packet buffers and their pools (rte_mbuf / rte_mempool).

    Each mbuf owns a fixed-size buffer in simulated memory and a
    capability bounded to exactly that buffer; all payload access goes
    through the capability, so an off-by-one on a packet is a
    capability fault, not a heap overflow — the property the paper's
    port of DPDK establishes by "ensuring that the memory allocations
    ... are performed with the correct permission flags".

    Geometry follows rte_pktmbuf: a headroom gap precedes the data so
    headers can be prepended without copying. *)

type pool
type t

val pool_create : Eal.t -> name:string -> n:int -> buf_len:int -> pool
(** [n] buffers of [buf_len] bytes each, backed by a fresh memzone.
    Each buffer starts with DPDK's 128-byte [RTE_PKTMBUF_HEADROOM],
    included in [buf_len]. The pool's occupancy is the gauge
    [dpdk_mbuf_in_use{pool=name}] with capacity [n], and each refused
    allocation a [pool_exhausted] stall.
    @raise Invalid_argument if a buffer would straddle a
    {!Cheri.Tagged_memory.page_size} page: DPDK mempools never place an
    object across one. *)

val pool_name : pool -> string
val available : pool -> int
val capacity : pool -> int

val alloc : pool -> t option
(** [None] when the pool is exhausted (the poll loops treat this as
    back-pressure, counted — never an exception). Data offset starts at
    the headroom, length 0. *)

val free : t -> unit
(** Return to the owning pool.
    @raise Cheri.Fault.Capability_fault (tag violation) on double free —
    a second free is a use of a revoked reference, and raising it as a
    capability fault lets the supervisor contain it to the offending
    compartment. *)

(** {1 Geometry} *)

val buf_addr : t -> int
val buf_len : t -> int
val data_addr : t -> int
(** Absolute address of the first payload byte. *)

val data_len : t -> int
val headroom : t -> int
val tailroom : t -> int
val cap : t -> Cheri.Capability.t
(** The buffer-bounded capability (read-write over the whole buffer). *)

val reset : t -> unit
(** Restore the freshly-allocated geometry (and clear the flow trace). *)

(** {1 Flow tracing} *)

val flow : t -> Dsim.Flowtrace.ctx option
val set_flow : t -> Dsim.Flowtrace.ctx option -> unit
(** A sampled frame's trace context rides on the mbuf through the
    rx/tx rings, like rte_mbuf's dynamic fields carry per-packet
    metadata; cleared on {!alloc}/{!reset}. *)

val append : t -> int -> int
(** Extend the data region at the tail by [n]; returns the absolute
    address of the new region. @raise Invalid_argument beyond tailroom. *)

val prepend : t -> int -> int
(** Extend at the head into the headroom; returns the new data address. *)

val trim : t -> int -> unit
(** Shrink from the tail. *)

val adj : t -> int -> unit
(** Strip [n] bytes at the head (rte_pktmbuf_adj) — e.g. consume the
    Ethernet header. *)

(** {1 Payload access (capability-checked)} *)

val write : Cheri.Tagged_memory.t -> t -> off:int -> bytes -> unit
(** [off] is relative to {!data_addr}; must be within the data region. *)

val read : Cheri.Tagged_memory.t -> t -> off:int -> len:int -> bytes
val contents : Cheri.Tagged_memory.t -> t -> bytes
(** The whole data region. *)

(** {1 Borrows (zero-copy access)}

    One capability check for the whole region, then in-place access
    through the returned slice — the rte_mbuf discipline, where the
    stack parses and builds frames in the buffer the NIC DMAs from.
    Slice accesses escaping the window raise [Cheri.Fault], see
    {!Cheri.Tagged_memory.borrow}. The slice aliases the buffer: it
    must not be used after {!free}. *)

val borrow : Cheri.Tagged_memory.t -> t -> Dsim.Slice.t
(** Read borrow of the data region (RX parse-in-place). *)

val borrow_frame : Cheri.Tagged_memory.t -> t -> Dsim.Slice.t
(** Write borrow of the {e whole} buffer — headroom included — so TX can
    lay the payload down once and {!prepend} headers in place. Slice
    offsets are buffer-relative: the data region starts at
    {!headroom}. Clears the window's tags, as raw stores would. *)
