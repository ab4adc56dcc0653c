(** Replay verification for recorded journals ([netrepro replay]).

    A [*.journal.jsonl] header written by an experiment command's
    [--journal] ({!header}) carries everything needed to re-execute the
    run: the registry ids, the profile knobs and the seed. Any
    {!Experiment.all} entry replays, the gated runs included; chaos
    journals recorded before the registry, whose header is
    [{"kind": "chaos", "seed", "quick"}], replay as the [chaos] entry.
    {!run} re-executes with {!Dsim.Journal.verify_against} armed, so
    every live dispatch is compared — virtual time, label, causal
    parent, RNG-draw count — against the recording, and the first
    mismatch is reported with a ±K-event context window from the
    journal.

    Replay {e verifies} rather than re-drives: the journal is an
    assertion oracle over a normal re-execution, not a script that
    forces the schedule — so a nondeterminism bug cannot hide by being
    replayed into submission; it surfaces as the first diverging
    dispatch. *)

val header :
  Experiment.t list -> Experiment.options -> (string * Dsim.Json.t) list
(** The journal header of a run of these entries at these options:
    [{"kind": "run", "experiments", "quick", "iterations", "seed"}]. *)

type outcome = {
  path : string;
  kind : string;  (** ["run"], or ["chaos"] for a pre-registry chaos header. *)
  checked : int;  (** Dispatches that matched. *)
  total : int;  (** Dispatches recorded in the journal. *)
  mismatch : Dsim.Journal.mismatch option;
  pass : bool;
  text : string;  (** Deterministic human-readable report. *)
}

val run : ?context:int -> string -> (outcome, string) result
(** [run path] loads, re-executes and verifies. [Error] covers load /
    parse / header problems (exit 2 at the CLI); a divergence is an
    [Ok] outcome with [pass = false]. [context] is the ±K window
    (default 5). *)

val exit_code : outcome -> int
(** 0 when the replay matched, 1 on first divergence. *)
