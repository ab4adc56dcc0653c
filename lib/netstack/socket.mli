(** Socket objects and the per-stack file-descriptor table.

    Pure bookkeeping (allocation, readiness, accept queues); all
    wire-facing behaviour lives in {!Stack}, which owns one [table] per
    stack instance, exactly as each F-Stack instance owns its private fd
    space (fds are not shared between cVMs). *)

type tcp_sock = {
  fd : int;
  cb : Tcp_cb.t;
  mutable listening : bool;
  mutable backlog : int;
  accept_q : tcp_sock Queue.t;
  mutable pending_error : Errno.t option;
  mutable connect_started : bool;
  mutable closed_by_app : bool;
  mutable parked_until : Dsim.Time.t;
      (** The 2MSL deadline under which the stack's TIME_WAIT queue
          holds this socket, or [-1] while it is not queued. *)
  mutable armed : bool;
      (** Whether the socket is in the stack's armed-timer set, the
          fd-sorted array its per-loop service pass visits. *)
  mutable ctx : Tcp_cb.ctx option;
      (** The callbacks the stack hands the TCP machinery for this
          socket: made on first use, dropped when the connection reaches
          CLOSED. *)
}

type udp_sock = {
  ufd : int;
  mutable uport : int option;
  rcv_q : (Ipv4_addr.t * int * bytes) Queue.t;
  max_rcv_q : int;
}

type sock =
  | Tcp of tcp_sock
  | Udp of udp_sock
  | Epoll_inst of Epoll.t

type table
(** An array of [first_fd + max_fds] slots indexed by fd, with a count
    of the live ones: lookups hash nothing. *)

val first_fd : int
(** The lowest fd; a table of [max_fds] allocates from [first_fd] to
    [first_fd + max_fds - 1]. *)

val create_table : ?max_fds:int -> unit -> table

val alloc : table -> (int -> sock) -> (int * sock, Errno.t) result
(** Allocate the lowest free fd and install the socket built by the
    callback. [Error EMFILE] when the table is full. *)

val find : table -> int -> sock option
(** [None] for a free slot and for any fd outside the table. *)

val find_tcp : table -> int -> (tcp_sock, Errno.t) result
val find_udp : table -> int -> (udp_sock, Errno.t) result
val find_epoll : table -> int -> (Epoll.t, Errno.t) result
val release : table -> int -> unit
(** Free the fd's slot; a free or out-of-range fd is left alone. *)

val fds : table -> int list
(** The live fds, ascending. *)

val live_count : table -> int

(** {1 Readiness (level-triggered)} *)

val tcp_readiness : tcp_sock -> Epoll.events
val udp_readiness : udp_sock -> Epoll.events
