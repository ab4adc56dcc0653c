(** Compartmentalization verification (Fig. 3).

    The paper verifies isolation by modifying applications "to access
    memory ranges outside their valid boundaries" and observing the
    CAP-out-of-bounds exception while the rest of the system keeps
    serving traffic. This module reproduces that experiment and extends
    it with the other capability attack classes the machine model can
    express. *)

type attack =
  | Overflow_read  (** Read past the end of an owned buffer. *)
  | Overflow_write  (** The CVE-style buffer overflow. *)
  | Ddc_escape
      (** Hybrid-mode access to another cVM's memory (outside DDC). *)
  | Forge_capability
      (** Write a capability's bit pattern as raw bytes, reload, deref:
          the tag is gone. *)
  | Unseal_entry
      (** Unseal another cVM's entry capability without the Intravisor's
          authority. *)
  | Escalate_perms
      (** Derive a writable capability from a read-only one. *)

val all_attacks : attack list
val attack_name : attack -> string
val attack_description : attack -> string

type outcome =
  | Trapped of Cheri.Fault.t
      (** CHERI raised the exception; the compartment is killed. *)
  | Leaked of string  (** The access went through (non-CHERI baseline). *)

val outcome_is_trap : outcome -> bool

type report = {
  attack : attack;
  cheri : outcome;  (** With capability enforcement. *)
  baseline : outcome option;
      (** The same access pattern on the flat (MMU-process) view, where
          expressible — shows what CHERI prevents. *)
  victim_alive : bool;
      (** Did the victim cVM keep serving traffic after the attacker
          trapped? *)
  victim_mbit_before : float;
  victim_mbit_after : float;
}

val run : ?seed:int64 -> attack -> report
(** Build a victim (iperf server under live load in cVM2), an attacker
    cVM3, launch the attack mid-traffic, and measure the victim's
    bandwidth before and after. *)

val run_all : ?seed:int64 -> unit -> report list
val pp_report : Format.formatter -> report -> unit
