(** Level-triggered epoll, the readiness mechanism the paper moved
    iperf3 onto ("we replaced the select function with the epoll
    mechanism, which adapts better to F-Stack").

    Each instance keeps a ready list beside its interest set, as
    Linux's [ep_poll_callback] and FreeBSD's knotes do: {!wait}
    evaluates only the fds on that list, so its cost follows the fds
    that may be ready, not the number registered.

    {b The notify contract.} The owner of the fds must call {!notify}
    after any change that can make a registered fd's readiness, masked
    by its interest set plus ERR/HUP, go from empty to non-empty. A
    registration ({!ctl_add}) or interest change ({!ctl_mod}) queues the
    fd by itself. An fd that {!wait} finds idle leaves the list until
    the next notify; one that reports stays on it, since a
    level-triggered fd stays ready until the application drains it.
    Notifying more often than needed costs one readiness evaluation in
    the next {!wait} and changes no result. *)

type events = int
(** Bitmask. *)

val epollin : events
val epollout : events
val epollerr : events
val epollhup : events

val has : events -> events -> bool
(** [has set flag]. *)

type t

val create : unit -> t

val ctl_add : t -> fd:int -> events -> (unit, Errno.t) result
(** [Error EINVAL] if already registered. *)

val ctl_mod : t -> fd:int -> events -> (unit, Errno.t) result
val ctl_del : t -> fd:int -> (unit, Errno.t) result
val forget : t -> fd:int -> unit
(** Silent removal when a registered fd is closed. *)

val notify : t -> fd:int -> unit
(** Queue [fd] on the ready list; a no-op for an fd not registered. *)

val registered : t -> (int * events) list
(** The interest set in ascending fd order. *)

val wait : t -> readiness:(int -> events) -> max:int -> (int * events) list
(** Level-triggered poll: for each registered fd, intersect its interest
    set (plus the always-reported ERR/HUP) with [readiness fd]; report
    up to [max] fds, round-robin-fair across calls. The scan starts at
    rank [r mod n] of the [n] registered fds in ascending order, where
    [r] counts the earlier calls with [n > 0] and [max > 0], and runs
    cyclically in fd order; only fds on the ready list are evaluated. *)

val pp_events : Format.formatter -> events -> unit
