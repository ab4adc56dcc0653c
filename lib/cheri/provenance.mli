(** Capability provenance DAG and invariant checker.

    Every capability event in the simulator — root minting, monotonic
    derivation, seal/unseal, grant to a cVM, cross-boundary transfer,
    (sampled) dereference, revocation — is recorded here as a node or
    an edge of a process-wide DAG keyed by the capability's value
    (base, length, permissions, otype). On top of the DAG the checker
    enforces the paper's isolation argument as machine-checked
    invariants:

    - {b monotonicity}: a derived node's bounds lie within its parent's
      and its permissions are a subset ([Bounds_widening],
      [Perm_widening] otherwise);
    - {b temporal safety}: no dereference through a lineage containing
      a revoked/freed node ([Revoked_parent]);
    - {b confinement}: a capability minted for cVM A is never exercised
      by cVM B unless a recorded grant or trampoline crossing explains
      the possession ([Confinement]).

    Violations are ledgered in {!Dsim.Audit} with the same attribution
    discipline as chaos injections (charged to the ambient
    {!Fault.current_context} compartment). All recording is gated on
    [Dsim.Audit.enabled Dsim.Audit.default]: when the ledger is off
    every entry point is a single load-and-branch, so the audit is
    zero-cost for the calibrated experiments.

    What this models vs hardware: the DAG is bookkeeping the simulator
    maintains {e beside} the capability values — real CHERI keeps only
    the per-granule tag and the compressed bounds/otype in the value
    itself, and provenance exists only as the inductive property that
    every tagged value came from a legal instruction on another tagged
    value. See DESIGN.md §5. *)

type node = {
  id : int;
  base : int;
  length : int;
  perms : Perms.t;
  otype : int;  (** -1 when unsealed. *)
  label : string;  (** "root", "region", "alloc", "mbuf"... *)
  parent : int;  (** Node id, -1 for roots. *)
  mutable owner : string;  (** Compartment the capability was minted for. *)
  mutable holders : string list;  (** Compartments with a recorded grant. *)
  mutable children : int list;
  mutable revoked : string option;  (** Reason, when revoked. *)
}

(** {1 Recording} — all no-ops while [Dsim.Audit.default] is disabled. *)

val record_mint : Capability.t -> owner:string -> label:string -> unit

val record_derive :
  ?owner:string -> ?label:string -> parent:Capability.t -> Capability.t -> unit
(** Records the child under the parent's node (auto-registering an
    untracked parent), checking monotone narrowing and temporal
    liveness at record time. [owner] defaults to the parent's owner,
    [label] to ["alloc"]. Re-deriving an already-live identical
    capability only counts the event — hot paths that re-derive the
    same view every iteration do not grow the DAG. *)

val record_seal : parent:Capability.t -> Capability.t -> unit
val record_unseal : parent:Capability.t -> Capability.t -> unit

val record_grant : Capability.t -> cvm:string -> unit
(** Adds [cvm] to the node's holders; when the current owner is the
    TCB, ownership follows the grant. *)

val crossing_begin : from_cvm:string -> into:string -> unit
(** A trampoline entered [into] on behalf of [from_cvm]; while the
    crossing is active, exercises by [into] of capabilities held by
    [from_cvm] are explained transfers. Counted as a [Transfer] event
    and a cross-compartment edge. *)

val crossing_end : unit -> unit

val record_transfer : from_cvm:string -> into:string -> unit
(** A non-trampoline boundary transfer (e.g. the Musl syscall shim
    crossing into the Intravisor): event + edge, no DAG node. *)

val record_exercise : Capability.t -> address:int -> unit
(** Sampled 1-in-N ({!Dsim.Audit.set_sample_every}): looks the
    capability up in the DAG and runs the temporal and confinement
    checks against the ambient {!Fault.current_context}. Unknown
    capabilities count as untracked, not as violations. *)

val record_revoke : Capability.t -> reason:string -> unit
(** Revoke the node and its live descendants (freeing an allocation
    revokes every capability derived from it). *)

val revoke_owned : owner:string -> reason:string -> int
(** Revoke every live node owned by [owner] — the supervisor teardown
    storm. Returns how many nodes were revoked. *)

val restore_owned : owner:string -> reason:string -> int
(** Clear revocations recorded with exactly [reason] for [owner] (a
    successful supervised restart re-endows the compartment). Returns
    how many nodes came back. *)

(** {1 Queries} *)

val find : Capability.t -> node option
val node_count : unit -> int
val live_count : ?owner:string -> unit -> int
val untracked_exercises : unit -> int

val check_all : unit -> (Dsim.Audit.violation_kind * string) list
(** Re-validate every live node against its parent (pure — nothing is
    ledgered). Empty on a well-formed DAG. *)

type surface = {
  s_cvm : string;
  s_caps : int;  (** Live tracked capabilities held. *)
  s_reachable_bytes : int;
      (** Interval union of object-level capabilities (allocations,
          mbufs) — the working-set attack surface. *)
  s_region_bytes : int;
      (** Interval union of ambient capabilities (region/DDC/PCC) —
          the address-space ceiling, reported separately. *)
  s_perms : (string * int) list;  (** Permission-string histogram. *)
}

val surfaces : unit -> surface list
(** Per-compartment attack surface, sorted by compartment name. *)

val edges : unit -> (string * string * int) list
(** Cross-compartment edges (from, to, count) observed via crossings
    and explained exercises; sorted. *)

val clear : unit -> unit
(** Drop the DAG, edges, crossings and untracked counter. *)
