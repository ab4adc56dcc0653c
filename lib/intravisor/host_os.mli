(** The CheriBSD host kernel, as seen from user space.

    Provides the two things the evaluation needs from the OS: the
    monotonic raw clock and syscall execution with realistic costs. A
    Baseline process enters via [SVC] (MMU path); a cVM never calls this
    directly — the Intravisor proxies on its behalf. *)

type t

val create : Dsim.Engine.t -> cost:Dsim.Cost_model.t -> t

val clock_monotonic_raw : t -> Dsim.Time.t
(** The timer value CLOCK_MONOTONIC_RAW reads. *)

val syscall_body_ns : t -> Syscall.t -> float
(** Kernel execution cost, excluding entry/exit. *)

val svc_entry_exit_ns : t -> float
(** The Baseline (non-CHERI, MMU) kernel entry + exit cost. *)

val syscalls_served : t -> int
val count_syscall : t -> Syscall.t -> unit
(** Bump the accounting (called by both entry paths). *)
