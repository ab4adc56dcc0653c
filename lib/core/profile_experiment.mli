(** Run one registry entry under the wall-clock profiler.

    [netrepro profile <exp>] dispatches here: the global
    {!Dsim.Profile} and {!Dsim.Metrics} registries are reset and
    enabled around the experiment's normal runner, then rendered into
    the hotspot table, the capacity/stall report (every Metrics gauge
    with its high watermark, then the backpressure stalls), the
    folded dump, and the [FILE.profile.json] snapshot
    [netrepro perfdiff] diffs against a baseline.

    Profiling never touches the virtual clock, so the experiment's own
    output (medians, goldens) is bit-identical to an unprofiled run —
    regression-tested in [test/test_profile.ml]. *)

type report = {
  experiment_text : string;  (** The experiment's normal rendering. *)
  pass : bool;  (** The experiment's own verdict ({!Experiment.outcome}). *)
  hotspot_text : string;  (** {!Dsim.Profile.render} of the run. *)
  watermark_text : string;  (** {!Dsim.Metrics.watermark_table} of the run. *)
  folded : string;  (** One folded line per key, for flamegraph tooling. *)
  json : Dsim.Json.t;
      (** [{"experiment", "schema", ...profile fields...,
          "watermarks"}] — the [.profile.json] payload. *)
}

val run : ?runs:int -> Experiment.t -> Experiment.options -> report
(** Runs any registry entry, gated runs included, at the given
    options. Always disables the profiler and metrics registries again,
    even if the runner raises.

    [runs] (default 1) repeats the profiled run and merges the
    snapshot by per-hotspot {e median} of the wall-time fields
    ([self_wall_ns], [ns_per_event], [total_self_wall_ns]): wall time
    is the one machine-dependent output, and under container CPU
    contention a single run's ns/event drifts by double digits while
    event counts stay bit-identical — the median removes the outlier
    run so
    [netrepro perfdiff] gates on signal. The rendered texts and all
    deterministic fields come from the run whose total wall time is
    closest to the median; a divergence in the experiment's own output
    between runs raises (profiling must never perturb the run). *)
