(** Capability audit ledger: typed events and violations.

    The provenance DAG itself lives in [Cheri.Provenance] (this library
    cannot see capabilities); what belongs down here is the part every
    layer shares: a process-wide enable flag, deterministic 1-in-N
    sampling for exercise checks, per-kind event counters, and the
    violation ledger with the same attribution discipline as
    {!Chaos} — every violation carries the compartment it is charged
    to, the faulting address and a typed kind, so the audit report and
    the chaos ledger cross-reference by cVM and kind.

    Updates follow the {!Metrics} discipline: recording is a single
    flag check when the registry is disabled — no allocation, no clock
    reads, no RNG — so enabling the audit cannot perturb virtual-time
    results (Fig. 4 medians are bit-identical with audit on/off). *)

type t

(** Capability life-cycle events, counted by kind. *)
type event =
  | Mint  (** Root capability created (boot path, Intravisor). *)
  | Derive  (** Monotonic narrowing: set_bounds/and_perms/malloc. *)
  | Seal
  | Unseal
  | Grant  (** Handed to a cVM as part of its initial endowment. *)
  | Transfer  (** Cross-boundary: trampoline entry, syscall. *)
  | Exercise  (** A (sampled) dereference through the capability. *)
  | Revoke  (** Free / supervisor teardown. *)
  | Restore  (** Re-grant after a successful supervised restart. *)
  | Chaos_injection  (** A chaos-engine capability fault was armed. *)

type violation_kind =
  | Bounds_widening  (** Child bounds escape the parent's. *)
  | Perm_widening  (** Child holds a permission the parent lacks. *)
  | Revoked_parent
      (** Dereference through a revoked/freed lineage (temporal leak). *)
  | Confinement
      (** Exercised by a compartment with no recorded grant or crossing
          that explains possession. *)
  | Hw_fault
      (** A {!Cheri.Fault.Capability_fault} was raised — recorded for
          cross-referencing with the chaos ledger, not an invariant
          breach of the DAG itself. *)

type violation = {
  v_id : int;
  v_kind : violation_kind;
  v_cvm : string;  (** Compartment the violation is charged to. *)
  v_address : int;
  v_detail : string;
  v_source : string;  (** Recording site: "derive", "exercise", ... *)
}

exception Audit_fault of violation
(** Raised by {!record_violation} in strict mode (invariant kinds
    only — [Hw_fault] is already an in-flight capability fault). *)

val all_events : event list
val event_name : event -> string
val violation_kind_name : violation_kind -> string

val default : t
(** The process-wide ledger every layer records into. Disabled by
    default; [netrepro audit] and the test suite enable it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val clear : t -> unit
(** Zero the counters, drop the violations, reset the sampling phase. *)

val set_strict : t -> bool -> unit
(** In strict mode an invariant violation raises {!Audit_fault} at the
    recording site instead of only being ledgered. *)

val sample_every : t -> int
val set_sample_every : t -> int -> unit

val tick_sample : t -> bool
(** Deterministic counter-based 1-in-N decision for exercise checks —
    no RNG, so audit runs stay bit-identical per seed. Returns [false]
    when the ledger is disabled. *)

(** {1 Recording} *)

val record_event : t -> ?n:int -> event -> unit
(** One branch when disabled. When the {!Metrics} registry is also
    enabled, mirrored into [audit_events_total{kind}]. *)

val record_violation :
  t ->
  kind:violation_kind ->
  cvm:string ->
  address:int ->
  detail:string ->
  source:string ->
  unit
(** Ledger a violation; mirrored into [audit_violations_total{kind,cvm}]
    when metrics are enabled.
    @raise Audit_fault in strict mode for invariant kinds. *)

val set_live_caps : t -> cvm:string -> int -> unit
(** Mirror the per-compartment live-capability count into the
    [audit_live_caps{cvm}] gauge (kept by [Cheri.Provenance]). *)

(** {1 Reads} *)

val event_count : t -> event -> int
val events_total : t -> int

val violations : t -> violation list
(** Chronological. *)

val violation_count : ?kind:violation_kind -> t -> int

val invariant_violations : t -> violation list
(** Violations of the DAG invariants proper — every kind except
    [Hw_fault]. [netrepro audit] gates on this list being empty for the
    stock scenarios. *)
