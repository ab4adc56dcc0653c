(** Discrete-event scheduler.

    The engine owns the virtual clock and one pending-event heap.
    Events are plain closures scheduled at an absolute or relative
    virtual time, each under a mandatory {!Profile} label that names
    the [(component, cvm, stage)] it runs for — the key the profiler
    charges its wall time to and the journal records it under. Ties
    are broken by insertion order — the comparator
    is the total order [(deadline, schedule seq)], so equal-deadline
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

type handle = int
(** A scheduled event, cancellable until it fires: its schedule seq,
    unique per engine. Scheduling allocates no handle record; the
    pending events live in a heap of ints and a slab of closures, so
    [schedule] plus its dispatch allocate nothing beyond the closure the
    caller passes. *)

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at :
  t -> at:Time.t -> label:Profile.key -> (unit -> unit) -> handle
(** Schedule at an absolute time. Times in the past fire "now" (at the
    current clock value), never before already-pending earlier events.
    When profiling is enabled, the dispatch loop charges the handler's
    wall time to [label]. The label is mandatory, so every dispatch is
    attributed, and non-optional, so no [Some] cell is allocated per
    event; virtual-time behaviour does not depend on it. *)

val schedule :
  t -> delay:Time.t -> label:Profile.key -> (unit -> unit) -> handle
(** {!schedule_at} relative to {!now}. *)

val cancel : t -> handle -> unit
(** Idempotent; cancelling a fired event is a no-op. The event's
    closure is dropped at once, and when cancelled entries come to
    outnumber live ones, the heap is compacted in place, so mass
    cancellation does not keep dead entries until their deadline pops.
    Finds the event by a linear scan of the heap: no library caller
    cancels (TCP timers are deadlines the stack loop polls), only
    tests do. *)

val is_pending : t -> handle -> bool
(** [true] until the event fires or is cancelled; a linear scan of the
    heap, like {!cancel}. *)

val pending_count : t -> int
(** Live (not cancelled, not fired) events. Exact: cancelled events are
    discounted immediately, not lazily at pop time. *)

val heap_size : t -> int
(** Entries physically in the heap, including cancelled ones awaiting
    pop or compaction. For tests/diagnostics;
    [heap_size t >= pending_count t] always holds. *)

val events_fired : t -> int
(** Total events executed since {!create} (the fleet report's
    [events_fired]). *)

val step : t -> bool
(** Fire the next event (lowest deadline, FIFO seq tie-break), advancing
    the clock to it. Returns [false] when no event is pending. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain events in time order. [until] stops (inclusive) once the next
    event would fire strictly after it, leaving the clock at [until].
    [max_events] guards against runaway self-rescheduling loops. *)

val run_until_quiet : t -> unit
(** Run until no events remain. *)
