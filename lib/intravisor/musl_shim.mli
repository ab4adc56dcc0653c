(** The modified musl libc linked into every cVM.

    The paper replaced musl's [SVC] instructions with trampoline calls
    into the Intravisor; this shim is that replacement. Each call
    returns the value plus the CPU nanoseconds the call path consumed
    (trampolines + proxy + kernel), which is what the measurement
    harness charges to the calling thread. *)

type t

val create : Intravisor.t -> Cvm.t -> t

type transient = {
  should_fail : attempt:int -> bool;
      (** Consulted per attempt (0-based) of each logical syscall; [true]
          turns that attempt into an EINTR-class failure. *)
  note_recovery : retries:int -> backoff_ns:float -> unit;
      (** Fired when a call that failed at least once finally succeeds,
          with the retry count and the extra CPU time the retries cost. *)
}

val set_transient : t -> transient option -> unit
(** Install a chaos hook for transient syscall failures. The shim
    retries like musl's [TEMP_FAILURE_RETRY], charging each failed
    attempt a trampoline round trip plus a doubling backoff (500 ns
    base), and gives up injecting after 16 attempts — the call itself
    always succeeds eventually. Retries are counted in the
    [musl_eintr_retries_total] metric, labelled by cVM. *)

val clock_gettime : t -> Dsim.Time.t * float
(** CLOCK_MONOTONIC_RAW through the trampoline path. The cost is the
    reason Scenario 1's measured ff_write is ~125 ns above Baseline's:
    both timestamps of a measurement pay the extra indirection. *)

val getpid : t -> int * float
val futex_wake : t -> float
(** Returns the CPU cost; the actual wake semantics live in {!Umtx}. *)

val write_console : t -> string -> float
val calls : t -> int
