(** The harness the chaos and red-team runners share.

    A phase drives a scenario through a warmup and a measured window,
    sampling every flow's goodput, and compares it against an
    undisturbed twin run (same topology seed, nothing injected) over
    the samples that miss the victim's quarantine windows. The
    blast-radius gate is the sibling keeping >= 0.9x its twin. *)

(** The measured run: [warmup], then [duration] under injection. *)
type window = { warmup : Dsim.Time.t; duration : Dsim.Time.t }

val frac : window -> float -> Dsim.Time.t
(** The virtual time a fraction [f] into the measured window. *)

(** The calling runner's own profile keys for the warmup-arm and
    sample-tick events, so journal labels name the runner. *)
type labels = { arm : Dsim.Profile.key; tick : Dsim.Profile.key }

type samples = (string * (float * float * int) list) list
(** Per flow label, chronological [(t0_ns, t1_ns, bytes)] windows. *)

val drive :
  labels ->
  window ->
  sample_every:Dsim.Time.t ->
  ?on_tick:(now_ns:float -> (string * int) list -> unit) ->
  after_warmup:(unit -> unit) ->
  Scenarios.built ->
  samples
(** Run [built] to the end of the window, then stop it. At the warmup
    mark the byte counters are zeroed and [after_warmup] runs (the
    runner arms its injections); every [sample_every] after that each
    flow's byte delta is sampled and handed to [on_tick]. *)

val twin :
  labels ->
  window ->
  sample_every:Dsim.Time.t ->
  (unit -> Scenarios.built) ->
  samples
(** The undisturbed twin: build and {!drive} with nothing armed, then
    clear the process {!Dsim.Flowtrace} so the attacked run's drop
    table starts empty. *)

val with_flowtrace : (unit -> 'a) -> 'a
(** Run [f] with the process Flowtrace enabled and cleared; clear it
    again afterwards and restore its enable flag. *)

val restart_once : Capvm.Supervisor.policy
(** Restart budget 1: the first fault restarts the cVM, the second
    quarantines it for good — both paths must leave the shared mutex
    free. *)

val supervisor :
  ?policy:Capvm.Supervisor.policy ->
  seed:int64 ->
  unit ->
  (Dsim.Engine.t -> Capvm.Supervisor.t) * Capvm.Supervisor.t option ref
(** A [~supervise] callback for the scenario builders, and the ref it
    fills with the supervisor it creates. *)

val get_sup : Capvm.Supervisor.t option ref -> Capvm.Supervisor.t
(** @raise Invalid_argument if the builder never called [supervise]. *)

(** What every phase reports, whoever injected into it. *)
type phase = {
  title : string;
  victim : string;
  sibling : string;
  drops : ((Dsim.Flowtrace.stage * Dsim.Flowtrace.reason) * int) list;
      (** The phase's typed drop table (attribution evidence). *)
  sibling_rate : float;  (** Gbit/s outside quarantine windows. *)
  sibling_ref : float;  (** Undisturbed twin, same windows. *)
  victim_rate : float;
  victim_ref : float;
}

val measure :
  title:string ->
  victim:string ->
  sibling:string ->
  windows:(Dsim.Time.t * Dsim.Time.t option) list ->
  samples:samples ->
  twin:samples ->
  phase
(** Read the drop table off the process Flowtrace and both flows'
    goodput outside the quarantine [windows], attacked and twin. *)

val ratio : float -> float -> float
(** [ratio rate ref], 1 when there is no reference goodput. *)

val sibling_ok : phase -> bool

val drop_lines : Buffer.t -> phase -> unit
(** The phase's drop-table lines. *)

val goodput_lines : Buffer.t -> phase -> unit
(** The sibling line (with its gate) and the victim line. *)
