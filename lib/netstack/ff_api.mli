(** The F-Stack application API, CHERI-adapted.

    This is the layer whose signatures the paper changed, e.g.

    {v
    - ssize_t ff_write(int fd, const void *buf, size_t nbytes);
    + ssize_t ff_write(int fd, const void *__capability buf, size_t nbytes);
    v}

    Buffer arguments are {!Cheri.Capability.t} values instead of raw
    addresses: every byte moved between the application and the socket
    buffers is authorised by the caller's capability. A violation —
    wrong bounds, missing permission, cleared tag — raises
    {!Cheri.Fault.Capability_fault}, i.e. the compartment traps exactly
    as in the paper's Fig. 3; it never becomes a recoverable errno. *)

type t

val attach : Stack.t -> Cheri.Tagged_memory.t -> t
(** Bind the API to a stack instance and the shared address space. *)

val ff_socket : t -> (int, Errno.t) result
(** [socket(AF_INET, SOCK_STREAM, 0)]. *)

val ff_bind : t -> int -> port:int -> (unit, Errno.t) result
val ff_listen : t -> int -> backlog:int -> (unit, Errno.t) result
val ff_accept : t -> int -> (int * Ipv4_addr.t * int, Errno.t) result
val ff_connect : t -> int -> ip:Ipv4_addr.t -> port:int -> (unit, Errno.t) result

val ff_write :
  t -> int -> buf:Cheri.Capability.t -> nbytes:int -> (int, Errno.t) result
(** Copy [nbytes] from the capability's cursor into the socket send
    buffer (short counts on back-pressure). The load through [buf] is
    capability-checked before any stack state changes. *)

val ff_read :
  t -> int -> buf:Cheri.Capability.t -> nbytes:int -> (int, Errno.t) result
(** Fill at most [nbytes] through [buf] (store-checked); [Ok 0] = EOF. *)

val ff_close : t -> int -> (unit, Errno.t) result
val ff_epoll_create : t -> (int, Errno.t) result

val ff_epoll_ctl :
  t -> epfd:int -> op:[ `Add | `Mod | `Del ] -> fd:int -> Epoll.events ->
  (unit, Errno.t) result

val ff_epoll_wait :
  t -> epfd:int -> max:int -> ((int * Epoll.events) list, Errno.t) result
