(** The paper's system configurations (Section III).

    - {b Baseline}: no CHERI; MMU-isolated processes. Two processes
      (one full stack per port) for the dual-port comparison, or a
      single process for the Scenario 2 comparison.
    - {b Scenario 1}: the full stack (iperf + F-Stack + DPDK) replicated
      into two cVMs, one Ethernet port each. Trampolines appear only on
      libc syscalls, so the data path is identical to Baseline.
    - {b Scenario 2}: F-Stack + DPDK in cVM1; application(s) in cVM2
      (and cVM3 when contended). Every ff_* call crosses into cVM1 and
      serialises on the shared umtx-backed mutex with the main loop.
    - {b Scenario 3} (paper future work, implemented as an ablation):
      app, F-Stack and DPDK in three cVMs — each API call and each loop
      iteration pays an extra trampoline round trip.

    Each builder wires DUT and load-generator peer, starts every loop,
    and returns byte-counting flows for the bandwidth harness. *)

type direction =
  | Dut_receives  (** iperf "server mode" rows of Table II. *)
  | Dut_sends  (** "client mode" rows. *)

type flow = {
  label : string;
  take_bytes : unit -> int;
      (** Application-level bytes moved on the DUT side since last call. *)
}

type built = {
  engine : Dsim.Engine.t;
  dut : Topology.node;
  peer : Topology.node;
  flows : flow list;
  mutex : Capvm.Umtx.t option;  (** The Scenario 2 mutex, if any. *)
  links : Nic.Link.t list;
      (** The DUT-peer wires, in flow order — the chaos engine's tamper
          and flap handles. *)
  dut_netifs : Topology.netif list;
      (** DUT-side interfaces in flow order (mbuf pools, devices). *)
  app_cvms : Capvm.Cvm.t list;
      (** DUT-side cVMs a chaos experiment may target, in flow order. *)
  stop : unit -> unit;
}

val ip_peer : int -> Netstack.Ipv4_addr.t
(** 10.0.[subnet].2 — the load-generator side. *)

val build_dual_port :
  ?cheri:bool ->
  ?seed:int64 ->
  ?supervise:(Dsim.Engine.t -> Capvm.Supervisor.t) ->
  ?app_hook:(Capvm.Cvm.t -> unit) ->
  direction:direction ->
  unit ->
  built
(** Baseline-two-processes ([cheri:false]) or Scenario 1
    ([cheri:true], default): one full stack per port, both ports busy.
    Flows: "cVM1" (port 0) and "cVM2" (port 1).

    [supervise] is called with the topology's engine (so supervisor
    restarts run on the run's clock) and places each DUT cVM's loop
    under the returned supervisor's trap boundary (behaviour without it
    is bit-identical to before);
    [app_hook] runs inside the compartment at the top of each
    iteration's application step — the chaos engine's fault-injection
    point. *)

val build_single_baseline :
  ?seed:int64 -> direction:direction -> unit -> built
(** Single process, single port (the Baseline row of the Scenario 2
    table). Flow: "Baseline (cVM2)". *)

val build_scenario2 :
  ?seed:int64 ->
  ?contended:bool ->
  ?lock_policy:Capvm.Umtx.policy ->
  ?supervise:(Dsim.Engine.t -> Capvm.Supervisor.t) ->
  ?app_hook:(Capvm.Cvm.t -> unit) ->
  direction:direction ->
  unit ->
  built
(** cVM1 = F-Stack+DPDK (mutex-guarded loop); cVM2 (+cVM3 when
    [contended]) = iperf apps whose every step trampolines into cVM1
    under the mutex. Flows: "cVM2" (and "cVM3").

    [supervise] wraps each app cVM's steps in the supervisor's trap
    boundary: on a capability fault the shared mutex is force-released,
    the app torn down, and (policy permitting) rebuilt on restart.
    [app_hook] runs at the top of every app window, with the mutex held
    (inside the boundary when supervised) — faulting there reproduces
    the held-mutex crash hazard of Scenario 2. *)

val build_scenario3_split :
  ?seed:int64 -> direction:direction -> unit -> built
(** Ablation: DPDK split from F-Stack as well — one extra trampoline
    round trip on each API call and each loop iteration. *)

(** {1 The Scenario 2 boundary}

    Scenario 2's one mechanism, defined once: every F-Stack API call
    trampolines into the stack cVM and takes the mutex that cVM1's main
    loop also holds. {!build_scenario2}, {!build_scenario3_split}, the
    Fig. 6 background app and every {!Fleet} tenant run on these
    pieces. *)

type single_port = {
  sp_engine : Dsim.Engine.t;
  sp_dut : Topology.node;
  sp_peer : Topology.node;
  sp_stack_cvm : Capvm.Cvm.t;  (** cVM1: the DUT's stack, on port 0. *)
  sp_dnif : Topology.netif;
  sp_pnif : Topology.netif;
  sp_peer_cvm : Capvm.Cvm.t;  (** gen1: the peer's stack. *)
  sp_link : Nic.Link.t;
}

val single_port_base :
  seed:int64 ->
  ?stack_tuning:(Netstack.Stack.config -> Netstack.Stack.config) ->
  unit ->
  single_port
(** A DUT and a load generator joined on port 0, one stack cVM on each
    side. Each stack's RNG is seeded from [seed]; [stack_tuning] then
    adjusts both stacks' configs. Nothing is started. *)

type shared = {
  sh_base : single_port;
  sh_mutex : Capvm.Umtx.t;
      (** The F-Stack mutex, priced by the DUT's cost model. *)
  sh_running : bool ref;
      (** Cleared to stop the stack loop and every app. *)
}

val shared_stack : lock_policy:Capvm.Umtx.policy -> single_port -> shared
(** Put cVM1 behind the shared umtx. *)

val stack_loop : ?sample:(unit -> unit) -> shared -> unit
(** Start cVM1's main loop: each iteration takes the mutex, runs one
    stack poll and holds the mutex for that poll's CPU cost, then waits
    the stack loop gap. [sample] runs right after each poll, with the
    mutex held. *)

type app
(** An application cVM's side of the boundary. *)

val app : shared -> component:string -> Capvm.Cvm.t -> app
(** The cVM's crossing context. Its windows hold the mutex under the
    profile key [component/<cvm>/step_hold]. *)

val app_tx_frames : app -> int
(** Frames the stack sent during this app's windows so far. *)

val crossing : shared -> app -> (unit -> unit) -> (unit -> unit) -> unit
(** [crossing sh app body k] runs one window. It takes the mutex,
    enters the app's fault-attribution context and trampolines into
    cVM1 to run [body]. The mutex stays held for the trampoline round
    trip, the uncontended lock cost, 800 ns of app work and the stack's
    per-packet cost for each frame sent. The window then releases the
    mutex, records the [Tramp_out] hop and calls [k].

    {!build_scenario2}'s apps run the same window with two additions:
    under [supervise] the context switch is [Supervisor.run], and a
    window that faults never calls [k]; [app_hook] runs first in every
    window. {!build_scenario3_split}'s windows also pay two extra
    trampoline round trips. *)

(** {1 Latency-measurement topology (Figs. 4-6)}

    A single-port setup where the measured application on the DUT sends
    to a sink server on the peer. [`Direct] serves both Baseline and
    Scenario 1 (the data path is shared; the paths differ only in how
    the measurement clock is read, which {!Measurement} models).
    [`S2 contended] adds a background full-rate iperf client in cVM3. *)

type measurement_topology = {
  mt_built : built;
  mt_ff : Netstack.Ff_api.t;  (** The DUT stack's API. *)
  mt_stack : Netstack.Stack.t;
  mt_app_cvm : Capvm.Cvm.t;  (** Where the measured app lives. *)
  mt_stack_cvm : Capvm.Cvm.t;  (** cVM1 (stack + DPDK). *)
  mt_sink_port : int;  (** Peer-side sink the measured fd connects to. *)
}

val build_measurement :
  ?seed:int64 ->
  mode:[ `Direct | `S2 of bool ] ->
  unit ->
  measurement_topology

val build_udp_blast : ?seed:int64 -> offered_mbit:float -> unit -> built
(** Extension: a blast of 1472-byte UDP datagrams from the DUT at a
    fixed offered rate, received and counted on the peer. Flows: "offered" (bytes the
    app attempted) and "received" (bytes that made it through) — their
    gap is the loss a protocol without flow control suffers once the
    offered load exceeds the path capacity. *)
