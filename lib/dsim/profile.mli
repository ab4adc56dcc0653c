(** Wall-clock simulation profiler.

    The engine's virtual clock says nothing about where the {e host's}
    time goes: a run that simulates one second may spend its wall time
    in TCP segmentation, RX DMA completions, or the measurement harness,
    and an aggregate events/sec number cannot tell them apart. This
    module attributes measured wall time to a [(component, cvm, stage)]
    key attached where the event was {e scheduled} ({!Engine.schedule_l}
    / {!Engine.schedule_at_l}): the engine brackets every dispatched
    handler with two monotonic-clock reads and charges the interval to
    the handle's key. Within a
    handler, {!span} pushes a nested key, so a stack iteration can split
    its time into rx/tcp/arp/app phases; self time excludes children,
    cumulative time includes them.

    Like {!Metrics} and {!Flowtrace}, the profiler is process-global
    and off by default: a disabled profiler costs the dispatch loop one
    load and one branch per event, and never perturbs the virtual clock
    — Fig. 4 / Table II outputs are bit-identical with profiling on or
    off (regression-tested).

    Two export formats: a hotspot table ({!render}, {!to_json}) with
    self/cumulative wall time, events fired and ns/event per key, and a
    folded-stack dump ({!folded}) — one [frame;frame;frame self_ns]
    line per observed scheduling-hierarchy path — consumable by
    standard flamegraph tooling ([flamegraph.pl], [inferno], speedscope). *)

type t
(** A profiler registry. The engine dispatch loop and {!span} always
    account into {!default}; independent registries are for tests. *)

type key
(** An interned [(component, cvm, stage)] attribution key holding its
    own accumulators. Create once (at component construction or module
    init), attach at scheduling call sites. Two requests for the same
    triple on the same registry return the same key. *)

val create : ?enabled:bool -> unit -> t

val default : t
(** The process-wide profiler used by {!Engine}. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Zero every key's accumulators and drop the folded-stack tree. Keys
    stay interned — call sites hold references to them. *)

val set_clock : t -> (unit -> int64) -> unit
(** Override the monotonic nanosecond clock (default:
    [Monotonic_clock.now]). Tests install a deterministic counter. *)

val key : t -> component:string -> cvm:string -> stage:string -> key
(** Intern a key. [component] is the layer (["nic"], ["netstack"],
    ["intravisor"], ["measure"], ["chaos"]...), [cvm] the compartment or
    instance (["cVM1"], ["port0"], ["10.0.0.1"], ["-"] when none), and
    [stage] the pipeline step (["rx_dma"], ["loop"], ["wake"]). *)

val unattributed : key
(** Events scheduled through the unlabelled {!Engine.schedule} land
    here; its share is the profiler's blind spot and the
    [netrepro profile] report prints it first when non-zero. *)

val key_id : key -> int
(** Stable small integer identifying the key within its registry
    (interning order). The {!Journal} uses it to intern label records
    once per journal file. *)

val key_triple : key -> string * string * string
(** The [(component, cvm, stage)] triple the key was interned under. *)

(** {1 RNG draw accounting}

    Always-on (independent of {!enabled}): the engine snapshots
    {!Rng.draws} around every dispatched handler and adds the delta to
    the handle's key, so stray RNG use is attributable per scheduling
    label even when no instrument is armed. Zeroed by {!reset}. *)

val add_rng_draws : key -> int -> unit
(** Called by the engine dispatch loop; one unboxed add. *)

val rng_draws : key -> int

val publish_rng_draws : t -> Metrics.t -> unit
(** Mirror draw totals into [rng_draws_total{component,cvm,stage}]
    counters. Delta-based (repeated publishes stay monotone); no-op
    while the registry is disabled; keys with zero draws are skipped. *)

(** {1 Hot path} — used by the engine dispatch loop and instrumented
    handlers; all three account into {!default}. *)

val hot : unit -> bool
(** One load and one branch: is {!default} enabled? *)

val enter_event : key -> unit
val exit_event : unit -> unit
(** Bracket a dispatched handler. Only {!Engine.step} calls these; they
    must nest (the engine uses an exception-safe bracket). Call only
    when {!hot} — they do not re-check the switch. *)

val span : key -> (unit -> 'a) -> 'a
(** [span k f] runs [f] charging its wall time to [k], nested under the
    currently executing event (or at top level outside dispatch). The
    parent's self time excludes the span; exception-safe; when the
    profiler is disabled this is the bare call [f ()]. *)

(** {1 Reporting} *)

type row = {
  r_component : string;
  r_cvm : string;
  r_stage : string;
  r_events : int;  (** Times the key was entered (events + spans). *)
  r_self_ns : float;  (** Wall time excluding nested spans. *)
  r_cum_ns : float;  (** Wall time including nested spans. *)
  r_rng_draws : int;  (** RNG draws during dispatches under this key. *)
}

val rows : t -> row list
(** Keys with at least one entry, largest self time first (ties broken
    by key name, so reports are deterministic under equal clocks). *)

val total_self_ns : t -> float
(** Sum of self time over all keys — everything the profiler measured. *)

val attributed_ns : t -> float
(** {!total_self_ns} minus the {!unattributed} key's share. *)

val attributed_pct : t -> float
(** [100 * attributed / total]; 100 when nothing was measured. *)

val render : t -> string
(** The hotspot table: per-key events, self/cum wall, ns/event and
    share, plus an attribution footer. *)

val folded : t -> string
(** Folded-stack lines ["comp:cvm:stage;comp:cvm:stage self_ns"], one
    per hierarchy path with non-zero self time, sorted. Feed to
    [flamegraph.pl] or speedscope. *)

val to_json : t -> Json.t
(** [{"total_self_wall_ns", "attributed_wall_ns", "attributed_pct",
    "hotspots": [{component, cvm, stage, events, self_wall_ns,
    cum_wall_ns, ns_per_event, share_pct, rng_draws}]}] — the
    [FILE.profile.json] payload [netrepro perfdiff] consumes. *)
