(** Environment Abstraction Layer.

    DPDK's EAL owns the hugepage memory out of which every mempool and
    ring is carved. Here it owns a capability to a contiguous region of
    the single address space and hands out named, bounds-narrowed
    memzone capabilities. A cVM embedding DPDK gets its EAL region from
    the Intravisor, so all packet memory is confined to the compartment
    by construction. *)

type t

val create : Cheri.Tagged_memory.t -> region:Cheri.Capability.t -> t
(** [region] is the compartment's DPDK heap (must be read-write). *)

val mem : t -> Cheri.Tagged_memory.t

val memzone_reserve : t -> name:string -> size:int -> Cheri.Capability.t
(** Carve a named zone; the name must be fresh. Its pages are created
    at once ({!Cheri.Tagged_memory.populate}), as the EAL maps
    pre-faulted hugepages, so the packet path never creates one.
    @raise Invalid_argument on duplicates, [Out_of_memory] when full. *)

val memzone_lookup : t -> name:string -> Cheri.Capability.t option
