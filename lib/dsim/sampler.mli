(** Periodic time-series sampling of a {!Metrics} registry.

    Once attached to an engine, the sampler snapshots every registered
    series at a fixed virtual-clock interval, producing the time
    dimension the Prometheus dump lacks (that export is one cumulative
    point at end of run). Rows feed the [netrepro analyze] time-series
    view and the bandwidth experiments' ramp diagnostics.

    The recurring event stops rescheduling itself when the registry is
    disabled, when the row capacity is reached, or when it would be the
    only event keeping the simulation alive — so attaching a sampler
    never keeps an unbounded {!Engine.run} from terminating. *)

type t

type row = {
  at_ns : float;  (** Virtual time of the snapshot. *)
  values : (string * Metrics.labels * Metrics.value) list;
}

val create :
  ?enabled:bool -> ?interval:Time.t -> ?capacity:int -> unit -> t
(** Default interval 10 ms of virtual time, capacity 4096 rows. *)

val default : t

val set_enabled : t -> bool -> unit
val clear : t -> unit

val truncated : t -> bool
(** True once the row capacity was reached while samples were still
    due: the recorded series is a prefix, not the whole run. *)

val dropped : t -> int
(** Snapshots that fell past capacity (each would have been a row). *)

val attach : t -> Engine.t -> Metrics.t -> unit
(** Begin sampling [Metrics] rows on [Engine]'s clock. No-op when
    disabled; call after enabling and before the run. *)

val rows : t -> row list
(** Snapshot rows, oldest first. *)

val to_json : t -> Json.t
(** [{"interval_ns", "capacity", "truncated", "dropped_rows",
    "rows": [...]}] — consumers must check [truncated] before treating
    the series as covering the full run. *)
