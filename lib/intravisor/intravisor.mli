(** The Intravisor: the minimal-TCB monitor of the CAP-VM design.

    It boots with the root capability to the single address space,
    carves confined regions for cVMs, distributes their capabilities,
    and is the only component holding the seal/unseal authority — so
    every cross-compartment control transfer (trampoline) and every
    host-OS syscall from a cVM is mediated here.

    Unlike the original CAP-VMs, there is no LKL layer: cVMs run DPDK +
    F-Stack natively in user space (the paper's streamlining), and musl
    syscalls map straight onto CheriBSD through {!syscall}. *)

type t

val create :
  Dsim.Engine.t -> mem_size:int -> cost:Dsim.Cost_model.t -> t

val mem : t -> Cheri.Tagged_memory.t
val host : t -> Host_os.t
val cost_model : t -> Dsim.Cost_model.t

val create_cvm : t -> name:string -> size:int -> Cvm.t
(** Carve a fresh region, mint the cVM's DDC/PCC, allocate its entry
    otype and seal its entry capability. *)

val cvms : t -> Cvm.t list

(** {1 Cross-compartment control transfer} *)

val trampoline :
  t -> ?flow:Dsim.Flowtrace.ctx option -> into:Cvm.t -> (unit -> 'a) -> 'a * float
(** Enter [into] through its sealed entry (really unsealing it — a
    forged or wrong-otype entry faults), run the body, return. The
    float is the modeled CPU cost (two one-way jumps: register spill,
    PCC/DDC install, sealed branch). [flow] gets a [Tramp_in] hop
    stamped at entry. *)

val trampoline_cost_ns : t -> float
(** Round-trip cost without executing anything. *)

val total_trampolines : t -> int

val crossings_from : t -> caller:string -> int
(** Crossings charged to one caller; 0 if it never crossed. *)

(** {1 Syscall proxying} *)

type sys_value = Vtime of Dsim.Time.t | Vint of int | Vunit

val syscall : t -> from:Cvm.t -> Syscall.t -> sys_value * float
(** Full cVM syscall path: trampoline out of the cVM into the
    Intravisor, musl→CheriBSD translation, kernel body, trampoline
    back. Returns the value and total CPU cost in ns. *)

val direct_syscall : t -> Syscall.t -> sys_value * float
(** Baseline (MMU process) path: SVC entry/exit + kernel body, no
    trampolines. *)

(** {1 Verification helpers} *)

val seal_authority : t -> Cheri.Capability.t
(** Exposed (read-only) so tests can verify that cVMs cannot unseal
    entries themselves: deriving an unseal capability from a cVM region
    fails by monotonicity. *)
