(** TCP bandwidth measurement (Table II).

    Runs a built scenario for a warmup (handshakes, ARP, slow start)
    plus a measurement window, and reports per-flow application goodput
    and efficiency against the theoretical port rate — the paper's
    definition: achieved bandwidth over the 1 Gbit/s each port could
    carry (and, for the contended rows, over the fair share). *)

type sample = {
  label : string;
  mbit_s : float;
  efficiency_pct : float;  (** vs [fair_share_mbit]. *)
}

val theoretical_port_mbit : float
(** 1000 Mbit/s per Ethernet port. *)

val run :
  Scenarios.built ->
  ?warmup:Dsim.Time.t ->
  ?duration:Dsim.Time.t ->
  ?fair_share_mbit:float ->
  unit ->
  sample list
(** Defaults: 300 ms warmup, 2 s measurement, fair share =
    {!theoretical_port_mbit}. Stops the scenario afterwards. *)

val pp_sample : Format.formatter -> sample -> unit
