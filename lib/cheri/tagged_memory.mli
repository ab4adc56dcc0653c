(** The single physical address space with capability tags.

    All compartments, the Intravisor, DPDK memory zones and the NIC DMA
    engine address the same space — exactly the single-address-space
    setting the paper targets. Every access is authorised by a
    capability and checked by {!Capability.check_access}.

    The space is backed by {!page_size} (2 MiB) pages, DPDK's hugepage
    unit, created on first write. A page never written reads as zeros
    and is not created by a read; [Dpdk.Eal] {!populate}s each memzone
    when it reserves it, as the EAL maps pre-faulted hugepages, so the
    packet path never creates a page. Addresses are those of one flat
    space: paging changes no address, fault or provenance string.

    Capabilities stored to memory occupy one 16-byte granule and set
    that granule's tag bit; a page gets its tag bits at the first
    capability store into it. Any raw byte write that touches a tagged
    granule clears its tag, so capabilities cannot be forged by writing
    their bit pattern. *)

type t

val granule : int
(** Tag granularity in bytes (16, a 128-bit Morello capability). *)

val page_size : int
(** Bytes per page (2 MiB). Page [i] covers
    [\[i * page_size, (i+1) * page_size)]; the last is only as long as
    the memory. *)

val create : size:int -> t
(** A [size]-byte space with no page resident yet. *)

val size : t -> int

val populate : t -> addr:int -> len:int -> unit
(** Create every page [\[addr, addr+len)] touches, zero-filled where
    absent; contents are unchanged. Not an access: no capability. *)

val within_page : addr:int -> len:int -> bool
(** Is [\[addr, addr+len)] non-empty and inside one page? *)

val resident_pages : t -> int
(** Pages created so far. For tests/diagnostics. *)

(** {1 Data accesses}

    [addr] is absolute; the capability's cursor is not consulted, only
    its bounds/permissions — this matches hybrid-mode accesses checked
    against DDC. All raise {!Fault.Capability_fault} on check failure.
    Writes create the pages they touch, except that [fill] with
    ['\000'] leaves an absent page absent; reads of an absent page
    return zeros and create nothing. An access may cross pages. *)

val load_bytes : t -> cap:Capability.t -> addr:int -> len:int -> bytes
val store_bytes : t -> cap:Capability.t -> addr:int -> bytes -> unit

val blit_out : t -> cap:Capability.t -> addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_in : t -> cap:Capability.t -> addr:int -> src:bytes -> src_off:int -> len:int -> unit

val get_u8 : t -> cap:Capability.t -> addr:int -> int
val set_u8 : t -> cap:Capability.t -> addr:int -> int -> unit
val get_u16_be : t -> cap:Capability.t -> addr:int -> int
val set_u16_be : t -> cap:Capability.t -> addr:int -> int -> unit
val get_u32_be : t -> cap:Capability.t -> addr:int -> int
val set_u32_be : t -> cap:Capability.t -> addr:int -> int -> unit
val get_u64_le : t -> cap:Capability.t -> addr:int -> int64
val set_u64_le : t -> cap:Capability.t -> addr:int -> int64 -> unit

val fill : t -> cap:Capability.t -> addr:int -> len:int -> char -> unit

(** {1 Capability accesses} *)

val store_cap : t -> cap:Capability.t -> addr:int -> Capability.t -> unit
(** Requires the store_cap permission and 16-byte alignment; tags the
    granule. Storing a local (non-global) capability is refused with a
    permission fault, the classic CHERI confinement rule. *)

val load_cap : t -> cap:Capability.t -> addr:int -> Capability.t
(** Requires load_cap permission and alignment. If the granule tag was
    cleared by an intervening byte write, the loaded capability comes
    back untagged. *)

val tag_at : t -> addr:int -> bool
(** Is the granule containing [addr] tagged? For tests/diagnostics. *)

(** {1 Borrow windows (one check per frame)}

    The zero-copy packet path authorises a whole frame with a single
    {!Capability.check_access}, then reads/writes it in place through a
    {!Dsim.Slice.t} over the bytes of the one page holding the window
    (which the borrow creates if absent). Protection is preserved:
    the check covers exactly the bytes the slice exposes, and any access
    escaping the window raises the same [Fault.Capability_fault]
    (kind [Out_of_bounds], at the offending absolute address) that the
    per-access checks would have raised. *)

val borrow : t -> cap:Capability.t -> addr:int -> len:int -> Dsim.Slice.t
(** Read borrow: one Load check over [\[addr, addr+len)]. A window
    that crosses a page boundary is lent as a copy, with the same
    absolute address and fault handler; only an app buffer handed to
    [ff_write] can straddle a page, and [ff_write] consumes the slice
    before it returns. *)

val borrow_mut : t -> cap:Capability.t -> addr:int -> len:int -> Dsim.Slice.t
(** Write borrow: one Store check, and — like any raw data store — the
    window's capability tags are cleared (eagerly, at borrow time).
    @raise Invalid_argument unless the window is non-empty and
    {!within_page}: its writes must land in memory, and mbuf frames, its
    only users, never straddle a page ([Dpdk.Mbuf.pool_create]). *)

val unchecked_blit_out : t -> addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Physical access without a capability — reserved for the DMA engine,
    which the paper's threat model trusts (the NIC is configured by the
    compartment owning the device capability). Bounds-checked against
    the physical size only. *)

val unchecked_blit_in : t -> addr:int -> src:bytes -> src_off:int -> len:int -> unit
