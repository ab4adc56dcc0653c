(** Red-team network-borne attack generator with blast-radius gates.

    Drives a seeded attack corpus (one {!Dsim.Rng} stream from the
    seed) against the three reproduction topologies, records every
    launch in a {!Dsim.Verdict} ledger keyed by attack {!cls}, and
    demands a typed verdict for each:

    - {b phase 1}, Baseline dual-port ([cheri:false]): the wire-parser
      subset is caught (those checks are software, common to both
      models), but the memory-shaped attacks — lying-length overread,
      use-after-close write, cross-tenant read — go through the flat
      MMU model silently; the ledger {e records} the corruption/leak.
    - {b phase 2}, Scenario 1 dual-port (CHERI): the full wire corpus
      (14 parser-bounds frames, blind RST/SYN/FIN, SYN/fragment
      floods, a port scan, an mbuf exhaust-and-spray) against port 0,
      with port 1 as the blast-radius control.
    - {b phase 3}, Scenario 2 shared stack (CHERI): cross-tenant
      probes (forged 5-tuples, port scan, probes aimed with the
      82576's reset RSS function for a 4-queue port — the DUT runs one
      queue, so they meet the stack's [No_socket] guard), a
      close-race stale-capability dereference inside the supervised
      [ff_*] boundary (mutex held), a stale-fd epoll probe, and
      floods — the supervisor must contain the fault, release the
      mutex, and the sibling must keep its goodput.

    Attack frames enter via {!Nic.Link.inject} (the tamper hook), so
    they share serialisation, FCS and propagation with legitimate
    traffic and runs stay deterministic per seed. Each phase runs an
    undisturbed twin first (same topology seed, no attacks); the chaos
    run's blast-radius gate ({!Blast_radius}) extends to attacked runs:
    sibling goodput outside quarantine must be >= 0.9x its twin. *)

(** Attack class, the taxonomy axis of the corpus. *)
type cls =
  | Parser_bounds  (** Malformed headers, lying lengths, fragments. *)
  | Temporal  (** Close races: blind RST/FIN/SYN, stale-fd epoll. *)
  | Resource  (** Floods driving pools into typed backpressure. *)
  | Cross_tenant  (** Probes at sibling cVMs through the shared stack. *)

type profile = {
  window : Blast_radius.window;  (** Attacks land in the measured window. *)
  sample_every : Dsim.Time.t;
  exhaust_window : Dsim.Time.t;
      (** How long the mbuf spray holds the pool. *)
}

val quick : profile
(** CI-sized: 6 ms warmup, 30 ms attacked window. *)

val full : profile
(** 20 ms warmup, 120 ms attacked window. *)

type phase = {
  ap_common : Blast_radius.phase;
  ap_ids : int list;  (** Ledger ids launched during this phase. *)
  ap_mutex_free : bool;
      (** Shared mutex not left held by the victim cVM. *)
  ap_pool_recovered : bool;  (** Mbufs available again after the spray. *)
  ap_rst_sent : int;  (** RSTs the stack answered probes with. *)
}

type report = {
  seed : int64;
  launched : int;
  caught : int;
  leaked : int;
  pending : int;
  counts : (cls * Dsim.Verdict.tally) list;  (** Every class. *)
  phases : phase list;
  cheri_caught : int;  (** Caught launches in the CHERI phases. *)
  cheri_launched : int;
  baseline_leaks : int;  (** Leaked launches in the Baseline phase. *)
  pass : bool;
      (** No pending launches, 100% caught-and-attributed in the CHERI
          phases, >= 1 recorded baseline leak, sibling ratio >= 0.9 and
          pools/mutex recovered in every phase. *)
  text : string;
  json : Dsim.Json.t;
}

val run :
  ?profile:profile -> ?blackbox_dir:string -> seed:int64 -> unit -> report
(** Run the three attacked phases (each against its undisturbed twin)
    and assemble the gated report. With [blackbox_dir], supervisor
    containments also write [DIR/<cvm>.blackbox.json] and the report
    links each contained verdict to its dump file. Deterministic:
    the same [seed] yields a byte-identical [text] and [json]. *)
