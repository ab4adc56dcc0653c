(** Registry of every report the CLI prints: the paper's tables and
    figures plus the ablations ({!paper}), and the gated extension runs
    [attack], [chaos], [audit] and [fleet] ({!all}). The experiment
    commands of [bin/netrepro], [netrepro profile] and [netrepro
    replay] all run entries through this module, so every artefact
    regenerates from a single code path.

    An entry's {!t.run} takes the CLI's {!options}. Paper entries
    render at the {!profile} those options select, so tests can
    exercise the full pipeline in milliseconds while a full run
    reproduces the paper's parameters (its 1M-sample latency runs are
    [--iterations 1000000]). *)

type options = {
  quick : bool;  (** [--quick]: CI-sized profile. *)
  iterations : int option;  (** [--iterations]: latency samples override. *)
  seed : int64;  (** [--seed] of the gated runs. *)
  tenants : int option;  (** [fleet --tenants]. *)
  scaling : bool;  (** [fleet --scaling]: the scaling table instead. *)
  blackbox_dir : string option;  (** [--blackbox-dir] of chaos and attack. *)
}

val defaults : options
(** No flag given: full profile, seed 42. *)

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;  (** Bandwidth measurement window. *)
  iterations : int;  (** Latency samples per configuration. *)
}

val quick : profile  (** CI-sized: ~100 ms windows, 3k samples. *)

val full : profile  (** Default: 1 s windows, 100k samples. *)

val table2 :
  ?profile:profile -> unit -> (string * Bandwidth.sample list) list
(** All ten Table II rows, grouped by configuration block. *)

(** {1 The registry} *)

type outcome = {
  text : string;
      (** The rendered report. A gated runner's final newline is dropped,
          as the CLI follows every report with a blank line. *)
  json : Dsim.Json.t option;  (** What [--json] writes, when the run has it. *)
  pass : bool;  (** The run's gates held; [true] for ungated reports. *)
}

type t = {
  id : string;  (** e.g. "table2", "fig4", "chaos". *)
  title : string;
  paper_ref : string;
  run : options -> outcome;
}

val paper : t list
(** The nine paper entries: what [netrepro run] runs by default, and
    the only ids it accepts. *)

val all : t list
(** {!paper}, then the gated runs: [attack] (the network-borne red-team
    corpus, {!Attack_traffic}), [chaos] ({!Chaos_experiment}), [audit]
    ({!Audit_experiment}) and [fleet] ({!Fleet.run}, or with
    [scaling] {!Fleet.run_scaling}). Each maps [quick] to its own
    quick or full profile and reports its runner's text, JSON and
    verdict. *)

val find : string -> t option
(** Looks in {!all}. *)

val ids : unit -> string list
(** Ids of {!all}, in order. *)

val select : t list -> string list -> (t list, string list) result
(** [select entries ids]: the entries with these ids, in the order
    given, or [Error] with every id not among [entries]. *)
