(** The verdict ledger: every injected fault or launched attack, and the
    typed verdict it ended in.

    The paper's security claim is containment, and both the chaos run
    ({!Chaos}) and the red-team run record it the same way: each entry
    must end the run in exactly one of

    - {b Recovered}: service came back, after the recorded
      time-to-recovery;
    - {b Caught}: a typed check stopped it — a {!Flowtrace} drop
      reason, a hardware counter, or a supervisor verdict on a
      contained capability fault — with the stage and reason recorded;
    - {b Leaked}: it got through silently, with the observed damage
      (the MMU-only baseline's expected result);
    - {b Pending}: not resolved, which fails the report's gate.

    The first verdict wins: an entry caught at one stage is never
    re-labelled by a later, coarser observer. The entry kind is the
    caller's taxonomy (chaos fault kind, attack class). The ledger
    holds no RNG and has no side effects, so keeping one alive changes
    no run. *)

type outcome =
  | Pending
  | Recovered of { ttr_ns : float }
  | Caught of { stage : string; reason : string }
  | Leaked of { detail : string }

type 'k entry = private {
  id : int;
  kind : 'k;
  name : string;  (** E.g. a corpus entry, ["ipv4_lying_total_len"]. *)
  target : string;  (** Victim cVM, link, pool or flow. *)
  at_ns : float;  (** Virtual time of the injection or launch. *)
  mutable outcome : outcome;
  mutable provenance : string option;
      (** What stopped it: a capability or a typed check. *)
  mutable blackbox : string option;
      (** Supervisor black-box file holding the fault snapshot. *)
}

type 'k t

val create : unit -> 'k t

val record : 'k t -> 'k -> name:string -> at_ns:float -> target:string -> int
(** Add a [Pending] entry; returns its id (1, 2, ... in record order). *)

val resolve :
  'k t -> int -> ?provenance:string -> ?blackbox:string -> outcome -> unit
(** Give a pending entry its verdict, with the optional provenance and
    black-box path. No-op on a resolved or unknown id. *)

val find : 'k t -> int -> 'k entry option

val entries : 'k t -> 'k entry list
(** Record order. *)

type tally = {
  total : int;
  recovered : int;
  caught : int;
  leaked : int;
  pending : int;
}

val tally : ?kind:'k -> 'k t -> tally
(** Outcome counts over the entries of [kind], or over every entry. *)
