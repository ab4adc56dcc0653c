(** Shared PCI bus bandwidth model.

    The Intel 82576 card in the paper hangs both Gigabit ports off one
    PCI(e) link, and Table II attributes the dual-port efficiency loss
    (65.8% RX / 75.7% TX per port) to exactly this bottleneck. The model
    serialises DMA transfers per direction: a transfer of [bytes]
    occupies the direction for [bytes*8/bps + fixed] and transfers queue
    FIFO behind each other, so with one active port the bus is invisible
    and with two the aggregate plateaus at the direction's ceiling. *)

type t

type direction =
  | To_memory  (** Device writes packet data (receive path). *)
  | From_memory  (** Device reads packet data (transmit path). *)

val create :
  ?rx_bps:float -> ?tx_bps:float -> ?per_transfer_ns:float -> unit -> t
(** Defaults come from {!Dsim.Cost_model.default}'s calibration. *)

val of_cost_model : Dsim.Cost_model.t -> t

val reserve : t -> direction -> now:Dsim.Time.t -> bytes:int -> Dsim.Time.t
(** Book a transfer starting no earlier than [now]; returns its
    completion time and advances the direction's busy horizon. *)

val transfers : t -> direction -> int
(** Number of transfers booked so far (diagnostics). *)
