(** Discrete-event scheduler.

    The engine owns the virtual clock and one pending-event heap.
    Events are plain closures scheduled at an absolute or relative
    virtual time, each under a mandatory {!Profile} label that names
    the [(component, cvm, stage)] it runs for — the key the profiler
    charges its wall time to and the journal records it under. Ties
    are broken by insertion order — the comparator is the total order [(deadline, schedule seq)], so equal-deadline
    events dispatch FIFO and the simulation is fully deterministic
    ({!Journal} replay depends on this). Components (NIC, TCP timers,
    cVM loops) interact only by scheduling events on a shared engine,
    and one loop dispatches them all on one core.

    Every dispatch is bracketed by the {!Journal} hot path: it receives
    a global sequence number, its causal parent (the dispatch whose
    handler scheduled it), and its {!Rng}-draw count, feeding the
    always-on crash black box and, when armed, journal recording or
    replay verification. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> at:Time.t -> label:Profile.key -> (unit -> unit) -> unit
(** Schedule at an absolute time. Times in the past fire "now" (at the
    current clock value), never before already-pending earlier events.
    When profiling is enabled, the dispatch loop charges the handler's
    wall time to [label]. The label is mandatory, so every dispatch is
    attributed, and non-optional, so no [Some] cell is allocated per
    event; virtual-time behaviour does not depend on it.

    Scheduling returns [unit] and nothing cancels an event: once
    scheduled, it fires. A component that may change its mind keeps a
    deadline or a flag and checks it when the event fires, as the TCP
    timers do (deadlines the stack loop polls). No handle is
    allocated: the pending events live in a heap of ints and a slab of
    closures, so [schedule] plus its dispatch allocate nothing beyond
    the closure the caller passes. *)

val schedule : t -> delay:Time.t -> label:Profile.key -> (unit -> unit) -> unit
(** {!schedule_at} relative to {!now}. *)

val pending_count : t -> int
(** Events scheduled and not yet fired. *)

val events_fired : t -> int
(** Total events executed since {!create} (the fleet report's
    [events_fired]). *)

val step : t -> bool
(** Fire the next event (lowest deadline, FIFO seq tie-break), advancing
    the clock to it. Returns [false] when no event is pending. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain events in time order; without [until] or [max_events], until
    none remains. [until] stops (inclusive) once the next event would
    fire strictly after it, leaving the clock at [until]. [max_events]
    guards against runaway self-rescheduling loops. *)
