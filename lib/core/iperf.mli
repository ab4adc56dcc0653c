(** iperf3-style bandwidth application, ported to the ff_* API + epoll
    (exactly the adaptation the paper performed on iperf3).

    Both sides call {!Netstack.Ff_api} directly on the handle of the
    stack they run against. The compartment boundary is not this
    module's business: Baseline and Scenario 1 call from inside the
    stack's loop hook, and Scenario 2 runs the whole [*_step] inside
    one trampoline crossing under the shared F-Stack mutex
    ({!Scenarios.crossing}).

    Both sides are non-blocking state machines advanced by [*_step],
    which is called from whatever loop owns the app (the F-Stack loop
    hook, or a dedicated cVM thread). *)

(** {1 Server (receiver)} *)

type server

val server : Netstack.Ff_api.t -> buf:Cheri.Capability.t -> port:int -> server
(** Sets up listen socket + epoll immediately. [buf] is the receive
    staging buffer (an app-compartment capability). *)

val server_step : server -> unit
val server_take_rx : server -> int
(** Bytes received since the previous call (bandwidth windows). *)

val server_stop : server -> unit
(** Close every accepted connection, the listener and the epoll
    instance — the teardown a supervisor runs when the hosting cVM
    dies. Safe to call once per server. *)

(** {1 Client (sender)} *)

type client

val client :
  Netstack.Ff_api.t ->
  buf:Cheri.Capability.t ->
  server_ip:Netstack.Ipv4_addr.t ->
  port:int ->
  ?write_size:int ->
  ?max_writes_per_step:int ->
  unit ->
  client
(** [write_size] defaults to the full buffer capability length. *)

val client_step : client -> unit
val client_take_tx : client -> int
val client_stop : client -> unit
(** Close the connection (FIN). *)
