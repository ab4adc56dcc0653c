(** TCP segment emission.

    [flush] is the single exit point for a connection: it sends as much
    buffered data as the congestion and peer windows allow, appends the
    FIN once the buffer drains, and falls back to a pure ACK when the
    delayed-ACK machinery demands one. The F-Stack main loop calls it
    for every active connection on every poll iteration. *)

val flush : Tcp_cb.t -> Tcp_cb.ctx -> unit

val send_ack : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** Emit an immediate pure ACK (window update / duplicate ACK). *)

val send_syn_ack : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** (Re)send the SYN-ACK of a [Syn_received] connection. *)

val retransmit_head : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** Resend one MSS starting at [snd_una] (fast retransmit / RTO). *)

val send_window_probe : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** One payload byte into a zero window (persist timer). *)

val send_fin : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** Emit the queued FIN at [snd_nxt] and arm the retransmission timer;
    also the persist probe when the FIN is all that is left to send. *)

val send_reset : Tcp_cb.t -> Tcp_cb.ctx -> unit
(** Emit an RST|ACK at [snd_nxt] (abortive close); the caller moves the
    connection to CLOSED. *)

val make_rst :
  to_header:Tcp_wire.header -> payload_len:int -> Tcp_wire.header option
(** The RST answering an unexpected segment (RFC 793 p.36); [None] when
    the offending segment is itself a RST. Stack-level, needs no cb. *)
