(** Perf-regression differ over [netrepro profile] snapshots.

    [netrepro perfdiff OLD.json NEW.json] compares two
    [FILE.profile.json] snapshots per (component, cvm, stage) hotspot
    and exits non-zero when any key regressed past the threshold — the
    CI gate run against the checked-in Fig. 4 baseline.

    Event counts are deterministic per seed, so any change beyond the
    threshold flags — it means the simulation did different work, on any
    machine. Wall-time (ns/event) comparisons are gated by noise floors
    (the key must have held ≥ 2% of old total self time {e and} its
    self time must have grown by ≥ 5 ms) so cross-machine jitter in cold
    keys cannot fail CI. A snapshot without a [hotspots] list is
    rejected. *)

type direction = Lower_better | Informational

type delta = {
  d_key : string;  (** [component:cvm:stage/metric]. *)
  d_old : float;
  d_new : float;
  d_pct : float;  (** Signed percentage change, + = increased. *)
  d_dir : direction;
  d_regression : bool;
}

type report = {
  deltas : delta list;  (** Every compared key, worst regression first. *)
  regressions : delta list;
  text : string;  (** Rendered table + verdict. *)
}

val compare_json :
  ?max_regress_pct:float -> Dsim.Json.t -> Dsim.Json.t -> (report, string) result
(** Default threshold 10%. [Error] when either snapshot is not a profile
    snapshot or they share no comparable keys. *)

val compare_files :
  ?max_regress_pct:float -> string -> string -> (report, string) result

val exit_code : report -> int
(** 0 when no regressions, 1 otherwise (2 is reserved for I/O and
    parse errors, reported through [Error]). *)
