(** The F-Stack instance: one TCP/IP stack bound to one DPDK port.

    Mirrors F-Stack's architecture: after initialisation, a polling
    main loop (i) drains the DPDK RX ring and feeds frames through
    ARP/IPv4/ICMP/UDP/TCP input, (ii) runs the TCP timers and flushes
    pending output, and (iii) invokes a user-supplied hook — the
    application's loop function, which is where every ff_* call happens
    in Scenario 1 and Baseline.

    The loop can be self-driven ({!start}, which reschedules itself on
    the simulation engine and accounts its CPU cost) or externally
    driven ({!loop_once}) so the Scenario 2 harness can wrap each
    iteration in the Intravisor mutex. *)

type config = {
  ip : Ipv4_addr.t;
  prefix : int;  (** Subnet prefix length. *)
  gateway : Ipv4_addr.t option;
  mtu : int;
  tcp : Tcp_cb.config;
  burst : int;  (** Max frames per RX poll. *)
  loop_gap : Dsim.Time.t;  (** Pause between busy loop iterations. *)
  idle_gap_max : Dsim.Time.t;
      (** Idle polls back off exponentially up to this, so quiet stacks
          do not flood the event queue. *)
  loop_base_ns : float;  (** Fixed CPU cost of a non-empty iteration. *)
  per_packet_ns : float;  (** CPU cost per frame processed. *)
  rng_seed : int64;
  max_fds : int;  (** Socket-table capacity (fd space). *)
}

val default_config : ip:Ipv4_addr.t -> config
(** /24 subnet, no gateway, MTU 1500, calibrated loop costs,
    1024 fds. *)

type t

val create :
  Dsim.Engine.t -> Cheri.Tagged_memory.t -> Dpdk.Eth_dev.t -> config -> t

val engine : t -> Dsim.Engine.t
val ip : t -> Ipv4_addr.t

val config : t -> config

(** {1 Main loop} *)

val set_hook : t -> (t -> unit) option -> unit
(** Install the application loop function (run inside each iteration,
    after packet processing — the F-Stack [loop] callback). *)

val loop_once : t -> float
(** One poll iteration (including the hook); returns the CPU
    nanoseconds it consumed (the Scenario 2 mutex hold time). *)

val start : ?hook:(t -> unit) -> t -> unit
(** Self-driving loop: each iteration is an engine event; the next one
    fires after the iteration's CPU cost plus the (possibly backed-off)
    gap. [hook], when given, replaces any hook set via {!set_hook}. *)

val stop : t -> unit
val loops : t -> int
(** Iterations executed. *)

(** {1 Socket operations (capability-free core)}

    The [ff_*] veneer in {!Ff_api} adds the capability checks; these
    take plain OCaml buffers. All are non-blocking. *)

val socket_stream : t -> (int, Errno.t) result
val bind : t -> int -> port:int -> (unit, Errno.t) result
val listen : t -> int -> backlog:int -> (unit, Errno.t) result

val accept : t -> int -> (int * Ipv4_addr.t * int, Errno.t) result
(** [(fd, peer_ip, peer_port)]; [EAGAIN] when nothing is pending. *)

val connect : t -> int -> ip:Ipv4_addr.t -> port:int -> (unit, Errno.t) result
(** Initiates the handshake; [Error EINPROGRESS] is the non-blocking
    success. Completion is visible as EPOLLOUT. *)

val read : t -> int -> buf:bytes -> off:int -> len:int -> (int, Errno.t) result
(** [Ok 0] is EOF. *)

val write : t -> int -> buf:bytes -> off:int -> len:int -> (int, Errno.t) result
(** Short writes on a full send buffer; [EAGAIN] when full. *)

val close : t -> int -> (unit, Errno.t) result
(** Release an fd. A connected TCP socket sends its FIN after any
    buffered data; one with received data the application never read
    is aborted instead: an RST goes out and the socket is released at
    once. *)

val epoll_create : t -> (int, Errno.t) result
val epoll_ctl :
  t -> epfd:int -> op:[ `Add | `Mod | `Del ] -> fd:int -> Epoll.events ->
  (unit, Errno.t) result
val epoll_wait : t -> epfd:int -> max:int -> ((int * Epoll.events) list, Errno.t) result

val udp_socket : t -> (int, Errno.t) result
val udp_bind : t -> int -> port:int -> (unit, Errno.t) result
val udp_sendto :
  t -> int -> ip:Ipv4_addr.t -> port:int -> buf:bytes -> (unit, Errno.t) result
val udp_recvfrom : t -> int -> ((Ipv4_addr.t * int * bytes) option, Errno.t) result

val ping :
  t -> ip:Ipv4_addr.t -> ident:int -> seq:int -> payload:bytes -> unit
(** Fire an ICMP echo request (quickstart/liveness). Replies are
    recorded; see {!pings_received}. *)

val pings_received : t -> (int * int) list
(** (ident, seq) of echo replies received, newest first. *)

(** {1 Diagnostics} *)

type counters = {
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable rx_dropped : int;  (** Parse errors, no-listener TCP, etc. *)
  mutable tx_no_mbuf : int;
  mutable rst_sent : int;
      (** RSTs answering segments that reached no socket (not the
          abortive close's). *)
  mutable arp_requests : int;
  mutable arp_failures : int;
      (** TX packets dropped because ARP resolution exhausted its retry
          budget (typed [Ip_out]/[Arp_unresolved] in the drop table). *)
}

val counters : t -> counters
val live_sockets : t -> int
val tcp_sock_of_fd : t -> int -> Socket.tcp_sock option
(** For tests and the measurement harness. *)

val set_capture : t -> Capture.t option -> unit
(** Attach/detach a packet capture; every frame sent or received by this
    stack is recorded while attached. *)
