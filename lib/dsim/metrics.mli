(** Per-compartment metrics: counters, gauges and ns-latency histograms
    in a named registry with label support.

    The paper's evaluation is an exercise in counting crossings —
    trampolines, capability faults, mutex waits, ff_write latencies —
    per compartment boundary. Every simulator layer registers its
    instruments here (e.g. [trampoline_crossings_total{cvm="cVM2"}])
    and the CLI exposes the registry as Prometheus text via
    [netrepro ... --metrics FILE].

    Instruments are registered once at construction time (allocation allowed), and
    the hot-path update ([incr], [set], [observe]) is a single flag
    check when the registry is disabled — no allocation, so the
    1M-iteration Fig. 4-6 loops keep their calibrated medians.

    A series is identified by its metric name plus its (sorted) label
    set; re-registering the same pair returns the same instrument, so
    rebuilt topologies keep accumulating into the existing series. *)

type t
(** A registry. *)

type labels = (string * string) list

type counter
type gauge
type histogram

val create : ?enabled:bool -> unit -> t
(** Disabled by default. *)

val default : t
(** The process-wide registry all simulator layers register into.
    Disabled by default; [netrepro --metrics] enables it. Use {!reset}
    (not a fresh registry) to zero it between runs — layer modules hold
    on to instruments registered here. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** {1 Label-cardinality guard}

    The series intern table is bounded (default 8192 series). A
    registration that would create a series past the cap instead
    returns a live but {e unexported} instrument — hot-path updates on
    it remain one branch, it simply never appears in {!snapshot} or
    {!to_prometheus} — and bumps the dropped-series tally, which the
    Prometheus dump surfaces as [metrics_dropped_series_total] when
    non-zero. This keeps a 256-tenant (or adversarially label-happy)
    run from growing the export without bound. *)

val max_series : t -> int
val set_max_series : t -> int -> unit
val dropped_series : t -> int

val reset : t -> unit
(** Zero every instrument, keeping all series registered. *)

(** {1 Registration}

    Get-or-create: the same name and label set yields the same
    instrument. Registering one name with two different instrument
    types raises [Invalid_argument]. *)

val counter : t -> ?help:string -> ?labels:labels -> string -> counter
val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:labels ->
  ?lo:float ->
  ?ratio:float ->
  ?buckets:int ->
  string ->
  histogram
(** Geometric bucket ladder [lo * ratio^i], like {!Histogram}. Defaults:
    lo = 1.0, ratio = 2.0, 40 buckets (1 ns to ~10^12 ns). The last
    bucket absorbs values beyond the ladder. *)

(** {1 Hot-path updates}

    No-ops (one branch, no allocation) while the registry is disabled. *)

val incr : ?by:int -> counter -> unit
val set : gauge -> int -> unit
val add : gauge -> int -> unit
val observe : histogram -> float -> unit

(** {1 Reads} *)

val value : counter -> int
val level : gauge -> int
val observations : histogram -> int
val sum : histogram -> float
val mean : histogram -> float

val percentile : histogram -> float -> float
(** Estimated from the bucket ladder with geometric interpolation:
    accurate to within one bucket ratio of the exact ({!Stats})
    percentile. *)

val find_counter : t -> ?labels:labels -> string -> counter option
val find_gauge : t -> ?labels:labels -> string -> gauge option
val find_histogram : t -> ?labels:labels -> string -> histogram option

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { n : int; sum : float }

val snapshot : t -> (string * labels * value) list
(** Every series in registration order. *)

val series_count : t -> int

val to_prometheus : t -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers, one
    line per series, histograms as cumulative [_bucket{le=...}] plus
    [_sum]/[_count]. *)
