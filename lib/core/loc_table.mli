(** Table I: lines of code added/modified for the CHERI port.

    The paper reports how small the capability adaptation of F-Stack was
    (152 LoC, 0.99% of the library). In this reproduction the analogous
    quantity is the size of the capability-specific integration layer
    relative to each ported library:

    - the [ff_*] API veneer (the [__capability] signature change),
    - the kernel-detach module that installs permission-narrowed DMA
      windows (the paper's DPDK module).

    Counts are taken from the source tree when it is available (running
    from a checkout); otherwise the baked-in release numbers are used. *)

type row = {
  library : string;
  cheri_loc : int;  (** Capability-integration lines. *)
  total_loc : int;  (** Whole library. *)
  pct : float;
}

val compute : unit -> row list
(** Counts the sources under the current directory; falls back to
    recorded counts when they are unreadable. *)

val pp : Format.formatter -> row list -> unit
