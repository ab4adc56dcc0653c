(** Full-duplex point-to-point Ethernet link.

    Models MAC serialization at line rate plus wire propagation. Each
    direction is independent (full duplex); frames in one direction are
    serialised back to back with the standard 20 bytes of preamble +
    inter-frame gap and 4 bytes of FCS accounted on the wire.

    A link has two endpoints, [A] and [B]; devices attach a delivery
    callback to their end and transmit towards the other.

    The transmitting MAC computes the frame's FCS ({!Fcs.compute}) and
    the receiver gets it alongside the bytes; a chaos tamper hook
    ({!set_tamper}) may corrupt, drop, duplicate or delay each frame
    between the two MACs, which is exactly where wire faults live. *)

type t
type endpoint = A | B

type tamper =
  now:Dsim.Time.t -> ipv4:bool -> len:int -> Dsim.Chaos.frame_action
(** Consulted once per frame at delivery time (down links drop frames
    before the lottery, keeping attribution unambiguous). *)

val overhead_bytes : int
(** Per-frame wire overhead beyond the frame buffer: preamble (8) +
    inter-frame gap (12) + FCS (4) = 24. *)

val create :
  Dsim.Engine.t -> ?bps:float -> ?prop_delay:Dsim.Time.t -> unit -> t

val rent : t -> int -> bytes
(** Rent an exact-[len] frame buffer from the link's recycling pool
    (fresh allocation when the pool is dry). The pool is per-link, not
    process-global: a frame rented by one endpoint's TX DMA is
    {!release}d by the peer endpoint's RX completion. *)

val release : t -> bytes -> unit
(** Return a buffer to the pool (dropped if the pool is at depth). The
    buffer must be dead: the renter overwrites it fully before use. *)

val attach :
  t ->
  endpoint ->
  (flow:Dsim.Flowtrace.ctx option -> fcs:int -> bytes -> unit) ->
  unit
(** Install the receive handler for frames arriving at this end. The
    handler receives the frame's flow-trace context, if sampled, plus
    the FCS computed by the transmitting MAC — the receiving MAC
    recomputes and compares ({!Igb}). *)

val transmit :
  t ->
  ?flow:Dsim.Flowtrace.ctx option ->
  from:endpoint ->
  frame:bytes ->
  unit ->
  Dsim.Time.t
(** Serialise [frame] out of [from]'s MAC starting no earlier than now;
    deliver to the opposite endpoint's handler after propagation.
    Returns the time the last bit leaves the MAC (i.e. when the TX
    descriptor can complete). Frames to an endpoint with no handler, or
    on an administratively-down link, are counted as dropped (and
    attributed [Wire]/[Link_down] in {!Dsim.Flowtrace}). *)

val inject :
  t ->
  ?flow:Dsim.Flowtrace.ctx option ->
  into:endpoint ->
  frame:bytes ->
  unit ->
  Dsim.Time.t
(** Red-team entry point: place a crafted hostile frame on the wire
    towards [into], as if transmitted by the opposite endpoint's MAC.
    The frame shares the legitimate traffic's serialization queue, FCS
    computation, tamper lottery and propagation delay, so attacked runs
    remain deterministic. Counted in {!injected}. *)

val carried_bytes : t -> from:endpoint -> int
(** Wire bytes (incl. overhead) sent from this endpoint; diagnostics. *)

val dropped : t -> int
val tampered : t -> int
(** Frames the tamper hook acted on (any non-[Pass] verdict). *)

val injected : t -> int
(** Frames placed on the wire via {!inject}. *)

val up : t -> bool
val set_up : t -> bool -> unit
(** An administratively-down link drops all frames (fault injection). *)

val set_tamper : t -> tamper option -> unit
