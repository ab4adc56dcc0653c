(** Fleet tenancy observatory: a Scenario-2 shared-stack topology scaled
    to N application cVMs ("tenants"), driven by a seeded
    connection-churn workload, with per-tenant SLO rollups.

    One stack cVM (F-Stack + DPDK under the shared umtx) serves every
    tenant; each tenant is a small cVM whose request/response client
    trampolines into the stack compartment for every ff_* window, FIFO
    on the mutex. The peer node runs an epoll server farm absorbing the
    churn. Flow sizes are heavy-tailed (lognormal RPC/bulk mix), flow
    arrivals Poisson per tenant, all drawn from split {!Dsim.Rng}
    streams — a run is a pure function of (profile, tenants, seed).

    The headline output is the {!Dsim.Tenancy} rollup: per-tenant
    goodput, flow-completion-time percentiles down to p99.9, per-stage
    latency decomposition (stage means telescoping to the end-to-end
    mean), trampoline crossings per packet, drop tables, and the Jain
    fairness index — guarded by SLO gates that fail the run. *)

type profile = {
  p_name : string;
  p_tenants : int;  (** Default tenant count (CLI [--tenants] overrides). *)
  p_duration : Dsim.Time.t;  (** Measured churn window. *)
  p_warmup : Dsim.Time.t;  (** ARP/route warmup before arrivals start. *)
  p_arrival_mean_ns : float;  (** Per-tenant flow inter-arrival mean. *)
  p_poll_interval : Dsim.Time.t;  (** App epoll cadence while flows are live. *)
  p_concurrency : int;  (** Max in-flight flows per tenant. *)
  p_sample_every : int;  (** Flow-trace sampling period. *)
  p_fct_p999_budget_ns : float;  (** SLO: fleet-wide FCT p99.9 ceiling. *)
  p_fairness_floor : float;  (** SLO: minimum Jain index over flows/tenant. *)
}

val quick : profile
(** CI-sized: 64 tenants, short window. *)

val full : profile
(** 256 tenants, long window. *)

type result = {
  r_profile : string;
  r_tenants : int;
  r_seed : int64;
  r_duration_ns : float;
  r_flows : int;  (** Completed request/response flows, fleet-wide. *)
  r_failed : int;  (** Flows that died on a socket error. *)
  r_bytes : int;
  r_goodput_mbit : float;
  r_fct_p50_ns : float;
  r_fct_p90_ns : float;
  r_fct_p99_ns : float;
  r_fct_p999_ns : float;
  r_jain_flows : float;  (** Fairness of completed flows per tenant. *)
  r_jain_goodput : float;  (** Fairness of delivered bytes per tenant. *)
  r_crossings : int;  (** Tenant-attributed trampoline crossings. *)
  r_packets : int;  (** Tenant-attributed TX frames. *)
  r_live_socks_peak : int;  (** Peak live socket count on the DUT stack. *)
  r_events : int;  (** Engine events fired (the scaling curve's cost axis). *)
  r_rollups : Dsim.Tenancy.rollup list;
  r_gates : (string * bool * string) list;  (** (gate, ok, detail). *)
  r_pass : bool;
  r_text : string;
  r_json : Dsim.Json.t;
}

val run : ?profile:profile -> ?tenants:int -> ?seed:int64 -> unit -> result
(** Build the fleet, churn for the profile's window, roll up, gate.
    Deterministic: same (profile, tenants, seed) gives byte-identical
    [r_text]/[r_json]. The default flow-trace registry is cleared,
    enabled for the run, ingested, then disabled and cleared again. *)

val run_scaling : ?seed:int64 -> unit -> string * Dsim.Json.t
(** The Kressel-style scaling table: quick-profile runs at
    N ∈ {8, 64, 256}, one row each — goodput/tenant, crossings/packet,
    FCT p99.9, events fired. *)
