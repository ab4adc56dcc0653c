(** Seeded, deterministic fault-injection engine.

    The chaos engine owns the *policy* of fault injection — which fault,
    when, against what — while the mechanisms stay in the layers that
    model them: the link consults {!frame_opportunity} per delivered
    frame and applies the returned {!frame_action}; the NIC, mbuf pool,
    Musl shim and supervisor inject their faults through closures built
    by the experiment harness and account them here via {!inject}.

    Every injected fault is an entry in a {!Verdict} ledger that must
    end the run [Recovered] (with its time-to-recovery, also observed
    into the [chaos_ttr_ns] metric histogram) or [Caught] (attributed
    to a typed {!Flowtrace} drop or a supervisor verdict). Anything
    left [Pending] fails the blast-radius report — the ledger is the
    proof obligation, not just a log.

    All randomness comes from one {!Rng} seeded at {!create}, and every
    decision point is reached in deterministic event order, so two runs
    with the same seed produce bit-identical schedules and reports. *)

type t

type kind =
  | Wire_bit_flip  (** Corruption on the wire — the FCS must catch it. *)
  | Dma_bit_flip
      (** Corruption after the MAC (FCS recomputed) — the IP/TCP/UDP
          checksum must catch it. *)
  | Frame_drop
  | Frame_dup
  | Frame_reorder
  | Link_flap
  | Mbuf_exhaust
  | Dma_desc_error
  | Syscall_eintr
  | Cap_fault

val all_kinds : kind list
val kind_name : kind -> string

(** Verdict for one delivered frame, applied by {!Nic.Link}. *)
type frame_action =
  | Pass
  | Flip of { byte : int; bit : int; post_fcs : bool }
      (** Flip [bit] of [byte]; [post_fcs] recomputes the FCS after the
          flip (modelling corruption behind the MAC). *)
  | Drop_frame
  | Dup_frame
  | Hold_frame of { extra_ns : float }  (** Reorder by delaying delivery. *)

(** Per-frame probabilities for the wire-level mechanisms. *)
type rates = {
  wire_flip : float;
  dma_flip : float;
  drop : float;
  dup : float;
  reorder : float;
}

val zero_rates : rates
val create : seed:int64 -> t
val set_rates : t -> rates -> unit

val set_armed : t -> bool -> unit
(** Frame-level injection only happens while armed (lets the harness
    spare the warmup). *)

val armed : t -> bool

val ledger : t -> kind Verdict.t
(** Every injection, named by its {!kind_name}. *)

val inject : t -> kind -> at_ns:float -> target:string -> int
(** Record an injection (also noted in the journal and the audit
    ledger); returns its ledger id. *)

val resolve : t -> int -> Verdict.outcome -> unit
(** {!Verdict.resolve}, observing a [Recovered] TTR into
    [chaos_ttr_ns]. *)

val resolve_pending : t -> ?limit:int -> kind -> Verdict.outcome -> unit
(** Resolve the oldest pending injections of [kind], at most [limit] of
    them (default: all) — e.g. matching detector hits against flips,
    or dup/reorder once end-to-end health is verified. *)

val draw : t -> p:float -> bool
(** One Bernoulli draw (non-frame opportunities: EINTR, DMA errors). *)

val frame_opportunity :
  t -> at_ns:float -> ipv4:bool -> len:int -> target:string -> frame_action
(** The per-frame lottery; records the ledger entry on a hit.  DMA
    flips are only aimed at IPv4 frames (payload bytes past the
    version/IHL octet) so a transport/IP checksum is always the
    detector; anything else downgrades to a wire flip caught by FCS. *)
