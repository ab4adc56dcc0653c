(** TCP control block (the F-Stack/FreeBSD "tcpcb").

    Holds the full per-connection state: RFC 793 state machine
    variables, send/receive ring buffers, congestion control (slow
    start, congestion avoidance, fast retransmit/recovery), Jacobson/
    Karn RTT estimation via the timestamp option, and the delayed-ACK
    machinery. {!Tcp_input}, {!Tcp_output} and {!Tcp_timer} operate on
    this record through a {!ctx} of stack-provided callbacks. *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

val state_to_string : state -> string

type event =
  | Connected  (** Handshake complete. *)
  | Data_readable  (** Fresh bytes appended to the receive buffer. *)
  | Writable  (** Send-buffer space became available. *)
  | Peer_closed  (** FIN consumed: EOF after buffered data. *)
  | Conn_refused
  | Conn_reset
  | Closed_done  (** Reached [Closed]; resources can be reclaimed. *)

(** Notable protocol happenings reported up to the owning stack, which
    mirrors them into its per-host metric counters. [Rx_drop] carries
    the typed reason a received segment (or its tail) was discarded, so
    the stack can attribute the drop to the in-flight flow trace. *)
type stat =
  | Retransmit
  | Delayed_ack
  | Window_stall
  | Rx_drop of Dsim.Flowtrace.reason

(** Where an outgoing segment's payload lives. [Payload_ring] points
    into the send buffer so the emitter can blit it straight into the
    frame under construction (zero-copy TX); [Payload_bytes] is the
    owned-buffer fallback. *)
type payload =
  | Payload_none
  | Payload_bytes of bytes
  | Payload_ring of { ring : Ring_buf.t; off : int; len : int }

val payload_len : payload -> int
val payload_blit : payload -> bytes -> dst_off:int -> unit
val payload_to_bytes : payload -> bytes
(** Materialize a copy (tests, non-performance paths). *)

type ctx = {
  now : unit -> Dsim.Time.t;
  emit : Tcp_wire.header -> payload -> unit;
      (** Hand a segment to the IP layer. *)
  on_event : event -> unit;  (** Socket-layer notification. *)
  stat : stat -> unit;  (** Telemetry notification (may be a no-op). *)
}

type config = {
  mss : int;
  snd_buf_size : int;
  rcv_buf_size : int;
  window_scale : int;  (** RFC 7323 shift we offer in our SYN. *)
  initial_cwnd_segments : int;
  rto_min : Dsim.Time.t;
  rto_max : Dsim.Time.t;
  rto_initial : Dsim.Time.t;
  time_wait_duration : Dsim.Time.t;
  delayed_ack_timeout : Dsim.Time.t;
  ack_every_segments : int;
  max_ooo_segments : int;  (** Reassembly-queue bound (segments). *)
}

val default_config : config
(** MSS 1448 (1500-byte MTU with timestamps), 256 KiB buffers, window
    scale 4, IW10, simulation-friendly 1 ms minimum RTO. *)

type t = {
  config : config;
  local_ip : Ipv4_addr.t;
  mutable local_port : int;
  mutable remote_ip : Ipv4_addr.t;
  mutable remote_port : int;
  mutable state : state;
  (* send sequence space *)
  mutable iss : Tcp_seq.t;
  mutable snd_una : Tcp_seq.t;
  mutable snd_nxt : Tcp_seq.t;
  mutable snd_max : Tcp_seq.t;
      (** Highest sequence ever sent: [snd_nxt] rolls back on RTO
          (go-back-N), [snd_max] never does — ACK validity is judged
          against it. *)
  mutable snd_wnd : int;
  snd_buf : Ring_buf.t;
  mutable snd_buf_seq : Tcp_seq.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* receive sequence space *)
  mutable irs : Tcp_seq.t;
  mutable rcv_nxt : Tcp_seq.t;
  rcv_buf : Ring_buf.t;
  mutable ooo_queue : (Tcp_seq.t * bytes) list;
      (** Out-of-order segments ahead of [rcv_nxt], sorted by sequence,
          bounded by [config.max_ooo_segments] (reassembly queue). *)
  mutable fin_received : bool;
  (* congestion control *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  mutable recover : Tcp_seq.t;
  mutable in_fast_recovery : bool;
  (* RTT estimation *)
  mutable srtt_ns : float;
  mutable rttvar_ns : float;
  mutable rto : Dsim.Time.t;
  mutable rtx_deadline : Dsim.Time.t option;
  mutable rtx_backoff : int;
  (* ACK generation *)
  mutable segs_since_ack : int;
  mutable ack_deadline : Dsim.Time.t option;
  mutable need_ack_now : bool;
  (* timestamps option state *)
  mutable ts_recent : int;
  mutable mss : int;  (** Effective MSS after option negotiation. *)
  mutable snd_wscale : int;  (** Peer's shift (applies to incoming windows). *)
  mutable rcv_wscale : int;  (** Our shift, 0 unless both sides offered. *)
  mutable time_wait_deadline : Dsim.Time.t option;
  (* counters *)
  mutable retransmissions : int;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable tx_traces : (Tcp_seq.t * int) list;
      (** Flow-trace ids of recently transmitted data segments, keyed by
          starting sequence (retransmit lineage; bounded). *)
}

val create :
  ?config:config -> local_ip:Ipv4_addr.t -> local_port:int -> unit -> t

val open_active :
  t -> ctx -> remote_ip:Ipv4_addr.t -> remote_port:int -> iss:Tcp_seq.t -> unit
(** Send the SYN and enter [Syn_sent]. *)

val open_passive : t -> unit
(** Enter [Listen]. *)

val flight_size : t -> int
(** Bytes in flight: [snd_nxt - snd_una]. *)

val send_window : t -> int
(** [min cwnd snd_wnd - flight], clamped at 0. *)

val rcv_window : t -> int
(** Receive window to advertise, in bytes. *)

val rcv_window_field : t -> int
(** The (scaled-down) 16-bit value for a non-SYN header. *)

val readable_bytes : t -> int
val writable_space : t -> int

val ts_now : ctx -> int
(** Timestamp clock value (microseconds, 32-bit wrap). *)

val tx_trace_remember : t -> Tcp_seq.t -> int -> unit
(** Record the flow-trace id of a transmitted data segment. *)

val tx_trace_find : t -> Tcp_seq.t -> int option
(** Trace id of the original transmission starting at this sequence. *)

val enter_time_wait : t -> ctx -> unit
val to_closed : t -> ctx -> unit
(** Transition to [Closed] and fire [Closed_done]. *)
