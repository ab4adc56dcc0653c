(** ff_write() execution-time measurement (Figs. 4, 5, 6).

    Replicates the paper's methodology: a measured application samples
    CLOCK_MONOTONIC_RAW immediately before and after an [ff_write], for
    a configurable number of iterations; ~10% of samples are disturbed
    by system noise and removed with the standard IQR strategy before
    reporting averages, deviations and box plots.

    What the sampled interval contains depends on the configuration:

    - {b Baseline}: both clock reads go through the vDSO fast path, so
      the interval is essentially the ff_write body.
    - {b Scenario 1}: the cVM cannot read the timer directly — each
      clock read is a trampoline into the Intravisor plus the CheriBSD
      syscall, so the interval gains one return path and one entry path
      (~125 ns, Fig. 4).
    - {b Scenario 2}: the ff_write itself crosses into cVM1 and takes
      the shared mutex — uncontended that adds a round trip plus the
      lock (~200 ns over Scenario 1, Fig. 5); contended it adds the
      wait for cVM1's main loop and cVM3 (~19 us, 152x, Fig. 6). *)

type path =
  | Baseline
  | Scenario1
  | Scenario2 of { contended : bool }

val path_label : path -> string

type result = {
  label : string;
  raw : Dsim.Stats.t;  (** All samples, ns. *)
  filtered : Dsim.Stats.t;  (** After IQR outlier removal. *)
  boxplot : Dsim.Stats.boxplot;  (** Of the filtered samples. *)
  iterations : int;
  removed_pct : float;
}

val run :
  ?iterations:int ->
  ?write_size:int ->
  ?interval:Dsim.Time.t ->
  ?seed:int64 ->
  path ->
  result
(** Defaults: 100_000 iterations (the paper uses 1M; pass [~iterations]
    to match), 64-byte writes, 100 us between writes (the "increased
    interval" of Fig. 5 applied uniformly so the socket buffer never
    back-pressures the measurement). *)

val pp_result : Format.formatter -> result -> unit

val setup_connected :
  ?seed:int64 ->
  mode:[ `Direct | `S2 of bool ] ->
  write_size:int ->
  unit ->
  Scenarios.measurement_topology * int * Cheri.Capability.t
(** Build the measurement topology with an Established connection and an
    app-compartment buffer: [(topology, fd, buffer)]. Exposed for
    [edgebench] and the zero-copy allocation test, which drive
    individual API calls on it. *)
