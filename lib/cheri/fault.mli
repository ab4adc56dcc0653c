(** Capability fault taxonomy.

    These correspond to the hardware exceptions a Morello core raises
    when a capability check fails; Figure 3 of the paper demonstrates
    the [Out_of_bounds] case ("CAP-out-of-bound exception") killing an
    attacking compartment. *)

type kind =
  | Tag_violation  (** Dereference of an untagged (invalid) capability. *)
  | Out_of_bounds  (** Access outside [base, base+length). *)
  | Permission_violation  (** Missing right (e.g. store via read-only). *)
  | Seal_violation  (** Dereference or mutation of a sealed capability. *)
  | Unseal_violation  (** Unseal with the wrong otype / no authority. *)
  | Monotonicity_violation
      (** Attempt to grow bounds or add permissions during derivation. *)
  | Representability_violation
      (** Cursor moved so far out of bounds the capability cannot be
          represented; the tag would be cleared by hardware. *)

type t = {
  kind : kind;
  address : int;  (** Faulting address (or cursor). *)
  detail : string;
}

exception Capability_fault of t

val raise_fault : kind -> address:int -> detail:string -> 'a
(** Also bumps [capability_faults_total{cvm,kind}] in
    {!Dsim.Metrics.default} (when enabled), attributing the fault to the
    ambient {!current_context}. *)

(** {1 Compartment attribution}

    The capability machinery has no notion of cVMs; the Intravisor
    brackets each trampoline with {!set_context} so faults are
    accounted per-compartment. Defaults to ["host"]. *)

val set_context : string -> unit
val current_context : unit -> string

val register_compartment : string -> unit
(** Pre-register zero-valued [capability_faults_total] series for every
    fault kind under this compartment label. *)

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
