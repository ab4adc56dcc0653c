(** ARP neighbour cache with pending-packet queues and bounded retry.

    While an IP is unresolved, outgoing packets queue here (bounded) and
    flush on the reply. Unanswered requests are retransmitted with a
    capped exponential backoff (doubling from the 100 ms base); after
    [max_attempts] the address goes into a negative cache for
    [negative_lifetime] and the stranded queue is surfaced so the stack
    can drop it with a typed attribution — an unanswered request can no
    longer strand queued TX forever. Entries age out after a
    configurable lifetime, checked lazily on lookup. *)

type t

val create :
  ?entry_lifetime:Dsim.Time.t ->
  ?max_pending_per_ip:int ->
  ?max_attempts:int ->
  ?negative_lifetime:Dsim.Time.t ->
  unit ->
  t

val lookup : t -> now:Dsim.Time.t -> Ipv4_addr.t -> Nic.Mac_addr.t option

val insert : t -> now:Dsim.Time.t -> Ipv4_addr.t -> Nic.Mac_addr.t -> unit
(** Also clears any in-flight resolution state and negative entry. *)

val enqueue_pending : t -> Ipv4_addr.t -> bytes -> bool
(** Queue an IP packet awaiting resolution; [false] (drop) when the
    per-IP queue is full. *)

val take_pending : t -> Ipv4_addr.t -> bytes list
(** Drain the queue for a freshly resolved IP, oldest first. *)

val request_outstanding : t -> now:Dsim.Time.t -> Ipv4_addr.t -> bool
(** True while a resolution is in flight (retries are then driven by
    {!due_retries}); starts one and returns false otherwise. *)

val outstanding : t -> int
(** In-flight resolutions — the fast-path guard for the maintenance
    scan (zero on every iteration of a healthy run). *)

val is_negative : t -> now:Dsim.Time.t -> Ipv4_addr.t -> bool
(** Resolution recently failed: callers should fail fast instead of
    queueing behind a request known to go unanswered. *)

val due_retries : t -> now:Dsim.Time.t -> Ipv4_addr.t list
(** IPs whose retransmit is due; marks each as resent with its next
    backoff. The caller sends the actual requests. *)

val expire_failed : t -> now:Dsim.Time.t -> (Ipv4_addr.t * bytes list) list
(** Resolutions whose final attempt expired unanswered: each enters the
    negative cache and returns its stranded queue for counted drops. *)
