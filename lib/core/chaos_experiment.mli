(** Blast-radius experiment: the paper's scenarios under deterministic
    fault injection.

    Two phases, each paired with an undisturbed twin run (same topology
    seeds, chaos idle) that provides the goodput reference:

    - {b Phase A} — Scenario 1 dual-port. Port 0 (cVM1) is the victim:
      its wire takes seeded bit flips / drops / dups / reorders, a link
      flap, an mbuf-pool-exhaustion window and RX DMA-descriptor
      errors, and the cVM itself takes injected capability faults under
      the supervisor's restart policy. Port 1 (cVM2) is the untouched
      sibling control.
    - {b Phase B} — Scenario 2 contended. cVM3 takes capability faults
      while holding the shared F-Stack mutex (restart budget 1, so the
      second fault permanently quarantines it) plus transient-EINTR
      syscall failures through the Musl shim; cVM2 is the sibling whose
      goodput must survive.

    Every injected fault is an entry in the {!Dsim.Chaos} engine's
    {!Dsim.Verdict} ledger and must end the run [Recovered] (TTR
    recorded) or [Caught] (attributed to a typed {!Dsim.Flowtrace}
    drop, a hardware counter, or a supervisor verdict). The report
    fails on any pending entry, on attribution below 100%, or on
    sibling goodput (outside the victim's quarantine windows) below
    90% of the undisturbed twin.

    All randomness comes from the one seed; two runs with the same seed
    and profile produce byte-identical reports. *)

type profile = {
  window : Blast_radius.window;  (** Injections land in the measured window. *)
  sample_every : Dsim.Time.t;  (** Goodput sample period. *)
  flap_down : Dsim.Time.t;  (** Link-flap outage length. *)
  mbuf_window : Dsim.Time.t;  (** Pool-exhaustion window length. *)
  eintr_every : Dsim.Time.t;  (** Victim libc heartbeat period. *)
}

val quick : profile
(** CI-sized: ~30 ms virtual measurement windows. *)

val full : profile

type report = {
  seed : int64;
  injected : int;
  recovered : int;
  attributed : int;  (** [Caught] entries. *)
  pending : int;  (** Must be 0 for [pass]. *)
  counts : (Dsim.Chaos.kind * Dsim.Verdict.tally) list;
      (** Kinds never injected are omitted. *)
  phases : Blast_radius.phase list;
  pass : bool;
  text : string;  (** Deterministic rendering of everything above. *)
}

(** Capability faults injected inside a compartment: [ci_arm cvm]
    makes that cVM's next supervised entry raise a capability fault
    through the scenario's [app_hook] ([ci_hook]), recorded as a
    [Cap_fault] chaos injection. [ci_on_transition], installed as the
    supervisor's transition hook, resolves it: recovered with the
    trap-to-recovery time on [Restarting -> Running], caught as
    [supervisor/quarantined] on [Dead]. [ci_set_engine] supplies the
    clock once the scenario is built. *)
type cap_injector = {
  ci_hook : Capvm.Cvm.t -> unit;
  ci_arm : string -> unit;
  ci_on_transition :
    cvm:string -> old_state:Capvm.Supervisor.state -> Capvm.Supervisor.state -> unit;
  ci_set_engine : Dsim.Engine.t -> unit;
}

val cap_injector : Dsim.Chaos.t -> cap_injector

val run : ?profile:profile -> ?blackbox_dir:string -> seed:int64 -> unit -> report
(** [blackbox_dir] arms the supervisors' crash black box: every
    containment writes [DIR/<cvm>.blackbox.json] (the journal's crash
    ring plus verdict and fault cross-references). The dumps do not
    perturb the run — reports stay byte-identical per seed with the
    directory set or not. *)
