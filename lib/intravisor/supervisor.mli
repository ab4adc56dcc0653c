(** Supervised cVM lifecycle: trap boundaries, teardown, restart.

    The CHERI hardware turns a compartment's memory-safety violation
    into a catchable {!Cheri.Fault.Capability_fault}; what the paper's
    Figure 3 leaves implicit is everything that must happen next for
    the fault to stay contained. This module is that machinery: every
    entry into a cVM (trampoline, main-loop iteration) runs under
    {!run}, which catches the fault, attributes it to the faulting cVM,
    runs the cVM's registered cleanups (socket teardown, mbuf returns,
    shared-mutex {!Umtx.force_release} — the Scenario 2 lock must never
    be left held by a dead compartment), and drives the lifecycle

    {v Running -> Trapped -> Quarantined -> (Restarting -> Running)* v}

    under a configurable policy: kill on first fault, or restart with
    exponential backoff and jitter until a restart budget is exhausted,
    after which the cVM is permanently quarantined ([Dead]). Sibling
    cVMs keep serving throughout.

    All timing uses the simulation engine; restart jitter comes from a
    seeded stream, so supervised runs remain deterministic. *)

type state = Running | Trapped | Quarantined | Restarting | Dead

val state_name : state -> string

type policy =
  | Kill  (** First fault permanently quarantines the cVM. *)
  | Restart of {
      budget : int;  (** Restarts allowed before permanent quarantine. *)
      backoff_base : Dsim.Time.t;
      backoff_max : Dsim.Time.t;  (** Cap on the doubling backoff. *)
      jitter_pct : float;  (** +/- fraction applied to each delay. *)
    }

type 'a outcome =
  | Done of 'a  (** The entry completed normally. *)
  | Faulted of Cheri.Fault.t
      (** The entry faulted; containment has already run by the time the
          caller sees this. *)
  | Refused of state
      (** The cVM is not [Running]; the entry was not executed. *)

type t

val create : Dsim.Engine.t -> ?seed:int64 -> ?policy:policy -> unit -> t
(** [policy] defaults to [Restart] with a budget of 3 restarts, 50 us
    base backoff doubling to a 5 ms cap, and 10% jitter. *)

val register : t -> ?policy:policy -> Cvm.t -> unit
(** Place a cVM under supervision ([Running], no-op restart). [policy]
    overrides the supervisor-wide default for this cVM. Idempotent. *)

val add_cleanup : t -> cvm:Cvm.t -> (unit -> unit) -> unit
(** Teardown step run (in registration order, each shielded from the
    others' exceptions) when the cVM traps — release shared locks,
    close sockets, return mbufs. *)

val set_restart : t -> cvm:Cvm.t -> (unit -> unit) -> unit
(** Re-initialisation run on each restart attempt; a capability fault
    inside it re-enters containment (and consumes budget). *)

val run : t -> cvm:Cvm.t -> (unit -> 'a) -> 'a outcome
(** Execute one supervised entry into the cVM: sets the fault-
    attribution context for the duration, catches capability faults,
    and on a fault drives the containment sequence before returning.
    Non-capability exceptions propagate unchanged. *)

val state : t -> cvm:Cvm.t -> state
val faults : t -> cvm:Cvm.t -> int
val restarts : t -> cvm:Cvm.t -> int

val quarantine_windows :
  t -> cvm:Cvm.t -> (Dsim.Time.t * Dsim.Time.t option) list
(** Chronological [(trap_time, recovery_time)] intervals during which
    the cVM was not serving; [None] end = never recovered (or still
    down). The blast-radius report excludes these windows when holding
    sibling goodput to its bound. *)

val set_on_transition :
  t -> (cvm:string -> old_state:state -> state -> unit) option -> unit
(** Observe every lifecycle transition (chaos ledger resolution hooks
    into this). Independently of the callback, every transition is
    annotated into an armed {!Dsim.Journal} recording. *)

(** {1 Crash black box}

    At the end of every containment sequence the supervisor captures
    the {!Dsim.Journal} crash ring — the last N completed dispatch
    records plus the in-flight faulting one — extended with its
    verdict and cross-references: the fault string, the faulting
    dispatch's journal seq, the flow-trace capability-drop total the
    same fault fed, and the provenance revocation count from the
    quarantine teardown. *)

val blackbox : t -> cvm:Cvm.t -> Dsim.Json.t option
(** The dump from the cVM's most recent containment, or [None] if it
    never trapped. Schema ["netrepro-blackbox/1"]: [ring], [in_flight],
    [cvm], [fault], [fault_seq], [verdict], [faults], [restarts],
    [at_ns], [flowtrace_capability_drops], [provenance_revoked],
    [provenance_live]. *)

val set_blackbox_dir : t -> string option -> unit
(** When set, each containment also writes its dump to
    [DIR/<cvm>.blackbox.json] (overwriting any previous dump for that
    cVM). No I/O happens otherwise. *)
