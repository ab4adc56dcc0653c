(** Registry of the paper's experiments: one entry per table/figure,
    plus the ablations. The CLI ([bin/netrepro]), [netrepro profile] and
    [netrepro replay] all dispatch through this module, so every
    artefact regenerates from a single code path.

    Each runner takes a {!profile} so tests can exercise the full
    pipeline in milliseconds while a full run reproduces the paper's
    parameters (the paper's 1M-iteration latency runs are available via
    {!paper_grade}). *)

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;  (** Bandwidth measurement window. *)
  iterations : int;  (** Latency samples per configuration. *)
}

val quick : profile  (** CI-sized: ~100 ms windows, 3k samples. *)

val full : profile  (** Default: 1 s windows, 100k samples. *)

val paper_grade : profile  (** 1M samples, as in the paper. *)

(** {1 Structured results} *)

val table1 : unit -> Loc_table.row list

val table2 :
  ?profile:profile -> unit -> (string * Bandwidth.sample list) list
(** All ten Table II rows, grouped by configuration block. *)

val fig3 : unit -> Attack.report list

val fig4 : ?profile:profile -> unit -> Measurement.result list
(** Baseline vs Scenario 1. *)

val fig5 : ?profile:profile -> unit -> Measurement.result list
(** Baseline vs Scenario 2 (uncontended). *)

val fig6 : ?profile:profile -> unit -> Measurement.result list
(** Scenario 2 uncontended vs contended. *)

val ablation_lock :
  ?profile:profile -> unit -> (string * Bandwidth.sample list) list
(** Barging vs FIFO hand-off under the contended Scenario 2. *)

val ablation_split :
  ?profile:profile -> unit -> (string * Bandwidth.sample list) list
(** Scenario 3 (app / F-Stack / DPDK in three cVMs) vs Scenario 2. *)

val ablation_udp :
  ?profile:profile -> unit -> (string * Bandwidth.sample list) list
(** Offered vs received UDP under increasing load (extension). *)

(** {1 Rendered runners} *)

type spec = {
  id : string;  (** e.g. "table2", "fig4". *)
  title : string;
  paper_ref : string;
  report : profile -> string;
      (** Runs the experiment and renders its table / boxplot text. *)
}

val all : spec list
val find : string -> spec option
val ids : unit -> string list
