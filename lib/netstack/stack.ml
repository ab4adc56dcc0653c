type config = {
  ip : Ipv4_addr.t;
  prefix : int;
  gateway : Ipv4_addr.t option;
  mtu : int;
  tcp : Tcp_cb.config;
  burst : int;
  loop_gap : Dsim.Time.t;
  idle_gap_max : Dsim.Time.t;
  loop_base_ns : float;
  per_packet_ns : float;
  rng_seed : int64;
  max_fds : int;
}

let default_config ~ip =
  {
    ip;
    prefix = 24;
    gateway = None;
    mtu = 1500;
    tcp = Tcp_cb.default_config;
    burst = 32;
    loop_gap = Dsim.Time.ns 200;
    idle_gap_max = Dsim.Time.us 10;
    loop_base_ns = 2_000.;
    per_packet_ns = 7_200.;
    rng_seed = 0x5eedL;
    max_fds = 1024;
  }

type counters = {
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable rx_dropped : int;
  mutable tx_no_mbuf : int;
  mutable rst_sent : int;
  mutable arp_requests : int;
  mutable arp_failures : int;
}

(* Connection demux key: remote ip, remote port, local port. Hashed and
   compared field by field, so a lookup on the frame path calls no
   polymorphic hash or compare. *)
module Conn_tbl = Hashtbl.Make (struct
  type t = Ipv4_addr.t * int * int

  let equal ((ip, rp, lp) : t) ((ip', rp', lp') : t) =
    Ipv4_addr.equal ip ip' && Int.equal rp rp' && Int.equal lp lp'

  let hash ((ip, rp, lp) : t) =
    (((Int32.to_int (Ipv4_addr.to_int32 ip) * 65599) + rp) * 65599) + lp
end)

(* Registry instruments, one set per stack, labelled by host IP.  The
   plain [counters] record above stays authoritative for tests; these
   mirror the interesting events into {!Dsim.Metrics.default}. *)
type stack_metrics = {
  m_rx_frames : Dsim.Metrics.counter;
  m_tx_frames : Dsim.Metrics.counter;
  m_rx_bytes : Dsim.Metrics.counter;
  m_tx_bytes : Dsim.Metrics.counter;
  m_rx_dropped : Dsim.Metrics.counter;
  m_rx_csum_errors : Dsim.Metrics.counter;
  m_arp_failures : Dsim.Metrics.counter;
  m_retransmits : Dsim.Metrics.counter;
  m_delayed_acks : Dsim.Metrics.counter;
  m_window_stalls : Dsim.Metrics.counter;
  m_epoll_wakeups : Dsim.Metrics.counter;
  m_sock_read_bytes : Dsim.Metrics.counter;
  m_sock_write_bytes : Dsim.Metrics.counter;
  m_live_sockets : Dsim.Metrics.gauge;
}

let make_metrics ~ip =
  let reg = Dsim.Metrics.default in
  let labels = [ ("host", Ipv4_addr.to_string ip) ] in
  {
    m_rx_frames =
      Dsim.Metrics.counter reg ~help:"Ethernet frames received." ~labels
        "netstack_rx_frames_total";
    m_tx_frames =
      Dsim.Metrics.counter reg ~help:"Ethernet frames transmitted." ~labels
        "netstack_tx_frames_total";
    m_rx_bytes =
      Dsim.Metrics.counter reg ~help:"Frame bytes received." ~labels
        "netstack_rx_bytes_total";
    m_tx_bytes =
      Dsim.Metrics.counter reg ~help:"Frame bytes transmitted." ~labels
        "netstack_tx_bytes_total";
    m_rx_dropped =
      Dsim.Metrics.counter reg ~help:"Received frames dropped by the stack."
        ~labels "netstack_rx_dropped_total";
    m_rx_csum_errors =
      Dsim.Metrics.counter reg
        ~help:"Received packets dropped for a bad IPv4/TCP/UDP checksum."
        ~labels "netstack_rx_csum_errors_total";
    m_arp_failures =
      Dsim.Metrics.counter reg
        ~help:"Outgoing packets dropped because ARP resolution failed."
        ~labels "netstack_arp_failures_total";
    m_retransmits =
      Dsim.Metrics.counter reg ~help:"TCP segments retransmitted." ~labels
        "tcp_retransmits_total";
    m_delayed_acks =
      Dsim.Metrics.counter reg
        ~help:"Pure ACKs sent because the delayed-ack timer expired." ~labels
        "tcp_delayed_acks_total";
    m_window_stalls =
      Dsim.Metrics.counter reg
        ~help:"Times a sender entered zero-window persist." ~labels
        "tcp_window_stalls_total";
    m_epoll_wakeups =
      Dsim.Metrics.counter reg
        ~help:"epoll_wait calls that returned at least one event." ~labels
        "epoll_wakeups_total";
    m_sock_read_bytes =
      Dsim.Metrics.counter reg ~help:"Bytes handed to applications via read."
        ~labels "netstack_sock_read_bytes_total";
    m_sock_write_bytes =
      Dsim.Metrics.counter reg
        ~help:"Bytes accepted from applications via write." ~labels
        "netstack_sock_write_bytes_total";
    m_live_sockets =
      Dsim.Metrics.gauge reg ~help:"Open socket descriptors." ~labels
        "netstack_live_sockets";
  }

type t = {
  engine : Dsim.Engine.t;
  mem : Cheri.Tagged_memory.t;
  dev : Dpdk.Eth_dev.t;
  config : config;
  mac : Nic.Mac_addr.t;
  table : Socket.table;
  listeners : (int, Socket.tcp_sock) Hashtbl.t;
  conns : Socket.tcp_sock Conn_tbl.t;
  udp_binds : (int, Socket.udp_sock) Hashtbl.t;
  (* Local TCP port -> number of live sockets bound to it, so port
     allocation never rescans the socket table. Passive children share
     their listener's port, hence a refcount rather than a set. *)
  bound_ports : (int, int) Hashtbl.t;
  (* TCP sockets with at least one timer deadline armed, the only
     connections the per-tick service pass must visit, sorted by fd in
     [armed.(0 .. armed_n - 1)]; a socket's [Socket.armed] flag says
     whether it is there. Idle established connections cost nothing per
     loop iteration. [pass] is the service pass's copy. *)
  mutable armed : Socket.tcp_sock array;
  mutable armed_n : int;
  mutable pass : Socket.tcp_sock array;
  (* TIME_WAIT sockets whose 2MSL expiry is their only pending work,
     with that deadline, kept out of [armed] until it passes. Every
     socket of a stack shares [config.tcp.time_wait_duration], so the
     FIFO is in deadline order; [time_wait_last] is the deadline pushed
     last, which keeps it so. An entry whose socket's [parked_until]
     no longer matches is stale and skipped. *)
  time_wait : (Dsim.Time.t * Socket.tcp_sock) Queue.t;
  mutable time_wait_last : Dsim.Time.t;
  (* fd -> the epoll instances that registered it: readiness changes
     reach exactly those ready lists, and closing an fd tears out its
     registrations without visiting any other instance. *)
  watchers : Epoll.t list array;
  arp : Arp_cache.t;
  rng : Dsim.Rng.t;
  counters : counters;
  metrics : stack_metrics;
  mutable ident : int;
  mutable ephemeral : int;
  mutable loops : int;
  mutable running : bool;
  mutable idle_streak : int;
  mutable ping_replies : (int * int) list;
  mutable hook : (t -> unit) option;
  mutable capture : Capture.t option;
  (* Flow trace of the frame currently being processed by the rx path,
     so drops detected deep inside the TCP machinery (via [stat]) can
     still be attributed to the sampled frame. *)
  mutable cur_rx_flow : Dsim.Flowtrace.ctx option;
  (* Attribution key for this stack's main loop iterations. *)
  k_loop : Dsim.Profile.key;
  (* The per-frame handler [loop_once] passes to [Dpdk.Eth_dev.rx_burst],
     made once by [create]. *)
  mutable rx_frame : Dpdk.Mbuf.t -> unit;
}

let make engine mem dev config =
  {
    k_loop =
      Dsim.Profile.(key default) ~component:"netstack"
        ~cvm:(Ipv4_addr.to_string config.ip)
        ~stage:"loop";
    engine;
    mem;
    dev;
    config;
    mac = Nic.Igb.mac (Dpdk.Eth_dev.port dev);
    table = Socket.create_table ~max_fds:config.max_fds ();
    listeners = Hashtbl.create 8;
    conns = Conn_tbl.create 64;
    udp_binds = Hashtbl.create 8;
    bound_ports = Hashtbl.create 64;
    armed = [||];
    armed_n = 0;
    pass = [||];
    time_wait = Queue.create ();
    time_wait_last = Dsim.Time.zero;
    watchers = Array.make (Socket.first_fd + config.max_fds) [];
    arp = Arp_cache.create ();
    rng = Dsim.Rng.create ~seed:config.rng_seed;
    metrics = make_metrics ~ip:config.ip;
    counters =
      {
        rx_frames = 0;
        tx_frames = 0;
        rx_dropped = 0;
        tx_no_mbuf = 0;
        rst_sent = 0;
        arp_requests = 0;
        arp_failures = 0;
      };
    ident = 0;
    ephemeral = 49152;
    loops = 0;
    running = false;
    idle_streak = 0;
    ping_replies = [];
    hook = None;
    capture = None;
    cur_rx_flow = None;
    rx_frame = ignore;
  }

let engine t = t.engine
let ip t = t.config.ip
let config t = t.config
let now t = Dsim.Engine.now t.engine
let counters t = t.counters
let loops t = t.loops
let live_sockets t = Socket.live_count t.table

let tcp_sock_of_fd t fd =
  match Socket.find t.table fd with Some (Socket.Tcp s) -> Some s | _ -> None

let set_capture t cap = t.capture <- cap

(* Capture is the only consumer that needs a frame as owned bytes; when
   detached (the common case) the zero-copy paths materialize nothing. *)
let record_tx_mbuf t m =
  match t.capture with
  | Some c ->
    Capture.record c ~at:(Dsim.Engine.now t.engine) Capture.Tx
      (Dpdk.Mbuf.contents t.mem m)
  | None -> ()

let drop_rx ?(flow = None) t stage reason =
  t.counters.rx_dropped <- t.counters.rx_dropped + 1;
  Dsim.Metrics.incr t.metrics.m_rx_dropped;
  (match reason with
  | Dsim.Flowtrace.Bad_checksum ->
    Dsim.Metrics.incr t.metrics.m_rx_csum_errors
  | _ -> ());
  Dsim.Flowtrace.drop Dsim.Flowtrace.default ~flow stage reason

(* An IP packet abandoned on the TX path because its next hop never
   resolved. Distinct from rx_dropped: nothing was received. *)
let drop_arp_unresolved ?(flow = None) t =
  t.counters.arp_failures <- t.counters.arp_failures + 1;
  Dsim.Metrics.incr t.metrics.m_arp_failures;
  Dsim.Flowtrace.(drop default ~flow Ip_out Arp_unresolved)

let port_bound_incr t port =
  if port <> 0 then
    Hashtbl.replace t.bound_ports port
      (match Hashtbl.find_opt t.bound_ports port with
      | Some n -> n + 1
      | None -> 1)

let port_bound_decr t port =
  if port <> 0 then
    match Hashtbl.find_opt t.bound_ports port with
    | Some n when n <= 1 -> Hashtbl.remove t.bound_ports port
    | Some n -> Hashtbl.replace t.bound_ports port (n - 1)
    | None -> ()

let timers_armed (cb : Tcp_cb.t) =
  Option.is_some cb.Tcp_cb.rtx_deadline
  || Option.is_some cb.Tcp_cb.ack_deadline
  || Option.is_some cb.Tcp_cb.time_wait_deadline

(* A TIME_WAIT socket waiting only for 2MSL: no rtx or ack deadline and
   no ACK owed, so [Tcp_output.flush] provably emits nothing for it and
   [Tcp_timer.check] does nothing before the deadline. *)
let time_wait_only (cb : Tcp_cb.t) =
  cb.Tcp_cb.state = Tcp_cb.Time_wait
  && Option.is_none cb.Tcp_cb.rtx_deadline
  && Option.is_none cb.Tcp_cb.ack_deadline
  && (not cb.Tcp_cb.need_ack_now)
  && cb.Tcp_cb.segs_since_ack < cb.Tcp_cb.config.Tcp_cb.ack_every_segments

let not_parked = -1

(* The index in [armed.(lo .. hi - 1)], sorted by fd, of the first
   socket whose fd is not below [fd]. Top-level, so it allocates no
   closure. *)
let rec armed_search (armed : Socket.tcp_sock array) fd lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if armed.(mid).Socket.fd < fd then armed_search armed fd (mid + 1) hi
    else armed_search armed fd lo mid

let arm t (sock : Socket.tcp_sock) =
  if not sock.Socket.armed then begin
    sock.Socket.armed <- true;
    let n = t.armed_n in
    if n = Array.length t.armed then begin
      let bigger = Array.make (max 16 (2 * n)) sock in
      Array.blit t.armed 0 bigger 0 n;
      t.armed <- bigger
    end;
    let i = armed_search t.armed sock.Socket.fd 0 n in
    Array.blit t.armed i t.armed (i + 1) (n - i);
    t.armed.(i) <- sock;
    t.armed_n <- n + 1
  end

let disarm t (sock : Socket.tcp_sock) =
  if sock.Socket.armed then begin
    sock.Socket.armed <- false;
    let i = armed_search t.armed sock.Socket.fd 0 t.armed_n in
    let n = t.armed_n - 1 in
    Array.blit t.armed (i + 1) t.armed i (n - i);
    t.armed_n <- n
  end

(* Re-derive a socket's membership in the armed-timer set, or its place
   in the TIME_WAIT queue. Called after every excursion into the TCP
   machinery (input, timers, user calls) — the deadline fields are
   plain mutables, so membership is recomputed at the call sites that
   can change them. The queue takes no deadline earlier than its tail,
   which keeps it in deadline order; such a socket stays armed. *)
let update_armed t (sock : Socket.tcp_sock) =
  let cb = sock.Socket.cb in
  if cb.Tcp_cb.state = Tcp_cb.Closed || not (timers_armed cb) then begin
    disarm t sock;
    sock.Socket.parked_until <- not_parked
  end
  else
    match cb.Tcp_cb.time_wait_deadline with
    | Some d
      when time_wait_only cb
           && (sock.Socket.parked_until = d || Dsim.Time.(d >= t.time_wait_last))
      ->
      disarm t sock;
      if sock.Socket.parked_until <> d then begin
        Queue.push (d, sock) t.time_wait;
        t.time_wait_last <- d;
        sock.Socket.parked_until <- d
      end
    | _ ->
      arm t sock;
      sock.Socket.parked_until <- not_parked

(* Top-level, so a notify allocates no closure on the frame path. *)
let rec notify_all fd = function
  | [] -> ()
  | ep :: rest ->
    Epoll.notify ep ~fd;
    notify_all fd rest

(* Put [fd] on the ready list of every epoll instance watching it: the
   stack's half of the {!Epoll} notify contract. *)
let notify t fd = notify_all fd t.watchers.(fd)

let unwatch t fd ep = t.watchers.(fd) <- List.filter (fun e -> e != ep) t.watchers.(fd)

(* Closing an fd must also tear it out of every epoll interest set: fd
   numbers are recycled by [Socket.alloc], so a stale registration
   would report a permanent EPOLLERR|EPOLLHUP storm until it aliases a
   future, unrelated socket — exactly the close/epoll race a hostile
   app drives on purpose. Closing an epoll instance drops it from the
   watcher lists of the fds it registered. *)
let release_fd t fd =
  (match Socket.find t.table fd with
  | Some (Socket.Tcp s) ->
    port_bound_decr t s.Socket.cb.Tcp_cb.local_port;
    s.Socket.parked_until <- not_parked;
    disarm t s
  | Some (Socket.Epoll_inst ep) ->
    List.iter (fun (wfd, _) -> unwatch t wfd ep) (Epoll.registered ep)
  | Some (Socket.Udp _) | None -> ());
  List.iter (fun ep -> Epoll.forget ep ~fd) t.watchers.(fd);
  t.watchers.(fd) <- [];
  Socket.release t.table fd

(* ------------------------------------------------------------------ *)
(* Frame transmission                                                   *)
(* ------------------------------------------------------------------ *)

let send_frame t ?(flow = None) ~dst_mac ~ethertype payload =
  let flow =
    (* Frames originated below the IP layer (ARP) start their trace
       here; everything else arrives with the context already open. *)
    match flow with
    | Some _ ->
      Dsim.Flowtrace.hop flow Eth_tx ~at:(now t);
      flow
    | None when Dsim.Flowtrace.(enabled default) ->
      let label =
        if not Dsim.Flowtrace.(next_sampled default) then ""
        else
          match ethertype with
          | Ethernet.Arp -> "arp:" ^ Ipv4_addr.to_string t.config.ip
          | _ -> "eth:" ^ Ipv4_addr.to_string t.config.ip
      in
      Dsim.Flowtrace.origin Dsim.Flowtrace.default ~at:(now t) ~flow:label
        Eth_tx
    | None -> None
  in
  let pool = Dpdk.Eth_dev.rx_pool t.dev in
  match Dpdk.Mbuf.alloc pool with
  | None ->
    t.counters.tx_no_mbuf <- t.counters.tx_no_mbuf + 1;
    Dsim.Flowtrace.(drop default ~flow Eth_tx Mbuf_exhausted)
  | Some m ->
    Dpdk.Mbuf.set_flow m flow;
    let plen = Bytes.length payload in
    let frame_len = Ethernet.header_len + plen in
    (* One Store check for the buffer, then the frame is laid out in
       place — no staging copy. *)
    let fs = Dpdk.Mbuf.borrow_frame t.mem m in
    let b = Dsim.Slice.base fs
    and b0 = Dsim.Slice.base_off fs in
    let off = Dpdk.Mbuf.headroom m in
    ignore (Dpdk.Mbuf.append m frame_len);
    Dsim.Slice.check fs ~off ~len:frame_len;
    Ethernet.build_into { Ethernet.dst = dst_mac; src = t.mac; ethertype } b
      ~off:(b0 + off);
    Bytes.blit payload 0 b (b0 + off + Ethernet.header_len) plen;
    record_tx_mbuf t m;
    (match Dpdk.Eth_dev.tx_burst t.dev [ m ] with
    | [] ->
      t.counters.tx_frames <- t.counters.tx_frames + 1;
      Dsim.Metrics.incr t.metrics.m_tx_frames;
      Dsim.Metrics.incr_by t.metrics.m_tx_bytes frame_len
    | rejected ->
      (* TX-ring-full attribution already happened at the doorbell
         (Igb.tx_enqueue); freeing resets the mbuf's flow field. *)
      List.iter Dpdk.Mbuf.free rejected;
      t.counters.tx_no_mbuf <- t.counters.tx_no_mbuf + 1)

let send_arp t pkt =
  let dst_mac =
    match pkt.Arp.op with
    | Arp.Request -> Nic.Mac_addr.broadcast
    | Arp.Reply -> pkt.Arp.target_mac
  in
  send_frame t ~dst_mac ~ethertype:Ethernet.Arp (Arp.build pkt)

let next_hop t dst =
  if Ipv4_addr.in_same_subnet t.config.ip dst ~prefix:t.config.prefix then dst
  else match t.config.gateway with Some gw -> gw | None -> dst

(* The zero-copy IP transmit path: allocate the frame's mbuf up front,
   let [write_payload] lay the transport segment down once at the given
   backing offset, then prepend the IPv4 and Ethernet headers in place —
   the rte_pktmbuf discipline, replacing the old allocate-and-blit chain
   (segment bytes -> IP packet bytes -> frame bytes -> mbuf).
   [write_payload b off] must fill exactly [payload_len] bytes of [b]
   starting at [off]. *)
let ip_output_into t ?(flow = None) ~dst ~protocol ~payload_len write_payload =
  let flow =
    match flow with
    | Some _ ->
      Dsim.Flowtrace.hop flow Ip_out ~at:(now t);
      flow
    | None when Dsim.Flowtrace.(enabled default) ->
      (* The label is formatted only for an origin the sampler takes. *)
      let label =
        if not Dsim.Flowtrace.(next_sampled default) then ""
        else
          Printf.sprintf "%s>%s:%s"
            (Ipv4_addr.to_string t.config.ip)
            (Ipv4_addr.to_string dst)
            (match protocol with
            | Ipv4.Tcp -> "tcp"
            | Ipv4.Udp -> "udp"
            | Ipv4.Icmp -> "icmp"
            | Ipv4.Unknown_proto n -> string_of_int n)
      in
      Dsim.Flowtrace.origin Dsim.Flowtrace.default ~at:(now t) ~flow:label
        Ip_out
    | None -> None
  in
  t.ident <- (t.ident + 1) land 0xffff;
  let total_len = Ipv4.header_len + payload_len in
  let header =
    { Ipv4.src = t.config.ip; dst; protocol; ttl = 64; ident = t.ident; total_len }
  in
  let hop = next_hop t dst in
  match Arp_cache.lookup t.arp ~now:(now t) hop with
  | Some dst_mac -> (
    Dsim.Flowtrace.hop flow Eth_tx ~at:(now t);
    let pool = Dpdk.Eth_dev.rx_pool t.dev in
    match Dpdk.Mbuf.alloc pool with
    | None ->
      t.counters.tx_no_mbuf <- t.counters.tx_no_mbuf + 1;
      Dsim.Flowtrace.(drop default ~flow Eth_tx Mbuf_exhausted)
    | Some m ->
      Dpdk.Mbuf.set_flow m flow;
      (* One Store check covers the whole buffer; everything below is
         in-place construction through the borrow window. *)
      let fs = Dpdk.Mbuf.borrow_frame t.mem m in
      let b = Dsim.Slice.base fs
      and b0 = Dsim.Slice.base_off fs in
      (* Transport segment once, at the data start... *)
      let seg_off = Dpdk.Mbuf.headroom m in
      ignore (Dpdk.Mbuf.append m payload_len);
      Dsim.Slice.check fs ~off:seg_off ~len:payload_len;
      write_payload b (b0 + seg_off);
      (* ...then each header prepended into the headroom. *)
      ignore (Dpdk.Mbuf.prepend m Ipv4.header_len);
      let ip_off = Dpdk.Mbuf.headroom m in
      Dsim.Slice.check fs ~off:ip_off ~len:Ipv4.header_len;
      Ipv4.build_into header b ~off:(b0 + ip_off);
      ignore (Dpdk.Mbuf.prepend m Ethernet.header_len);
      let eth_off = Dpdk.Mbuf.headroom m in
      Dsim.Slice.check fs ~off:eth_off ~len:Ethernet.header_len;
      Ethernet.build_into
        { Ethernet.dst = dst_mac; src = t.mac; ethertype = Ethernet.Ipv4 }
        b ~off:(b0 + eth_off);
      record_tx_mbuf t m;
      (match Dpdk.Eth_dev.tx_burst t.dev [ m ] with
      | [] ->
        t.counters.tx_frames <- t.counters.tx_frames + 1;
        Dsim.Metrics.incr t.metrics.m_tx_frames;
        Dsim.Metrics.incr_by t.metrics.m_tx_bytes
          (Ethernet.header_len + total_len)
      | rejected ->
        List.iter Dpdk.Mbuf.free rejected;
        t.counters.tx_no_mbuf <- t.counters.tx_no_mbuf + 1))
  | None ->
    if Arp_cache.is_negative t.arp ~now:(now t) hop then
      (* Resolution recently failed its whole retry budget: fail fast
         instead of queueing behind a request known to go unanswered. *)
      drop_arp_unresolved ~flow t
    else begin
      (* Parked awaiting ARP resolution: materialize the packet — the one
         copy on this slow path, since the pending queue outlives any
         frame buffer. The trace ends here (the flushed copy is not a
         drop, but its trace context is not retained). *)
      let packet = Bytes.create total_len in
      Ipv4.build_into header packet ~off:0;
      write_payload packet Ipv4.header_len;
      if not (Arp_cache.enqueue_pending t.arp hop packet) then
        drop_arp_unresolved ~flow t;
      if not (Arp_cache.request_outstanding t.arp ~now:(now t) hop) then begin
        t.counters.arp_requests <- t.counters.arp_requests + 1;
        send_arp t
          (Arp.request ~sender_mac:t.mac ~sender_ip:t.config.ip ~target_ip:hop)
      end
    end

(* Owned-bytes payload (ICMP, parked-packet style callers): one blit
   into the frame under construction. *)
let ip_output t ?(flow = None) ~dst ~protocol payload =
  ip_output_into t ~flow ~dst ~protocol ~payload_len:(Bytes.length payload)
    (fun b off -> Bytes.blit payload 0 b off (Bytes.length payload))

(* ------------------------------------------------------------------ *)
(* TCP plumbing                                                         *)
(* ------------------------------------------------------------------ *)

let conn_key_of (cb : Tcp_cb.t) = (cb.remote_ip, cb.remote_port, cb.local_port)

let emit_tcp t (cb : Tcp_cb.t) header payload =
  let payload_len = Tcp_cb.payload_len payload in
  let ft = Dsim.Flowtrace.default in
  let flow =
    if not (Dsim.Flowtrace.enabled ft) then None
    else if not (Dsim.Flowtrace.next_sampled ft) then
      (* An origin all the same, so the 1-in-N counter advances. *)
      Dsim.Flowtrace.origin ft ~at:(now t) ~flow:"" Tcp_out
    else begin
      let label =
        Printf.sprintf "%s:%d>%s:%d"
          (Ipv4_addr.to_string cb.Tcp_cb.local_ip)
          cb.Tcp_cb.local_port
          (Ipv4_addr.to_string cb.Tcp_cb.remote_ip)
          cb.Tcp_cb.remote_port
      in
      (* A data segment starting below snd_max (the highest sequence
         ever put on the wire) is a retransmission: link it to the
         original transmission's trace. snd_nxt would miss RTO resends,
         which roll snd_nxt back to snd_una before re-flushing. *)
      let is_rtx =
        payload_len > 0 && Tcp_seq.lt header.Tcp_wire.seq cb.Tcp_cb.snd_max
      in
      let parent =
        if is_rtx then Tcp_cb.tx_trace_find cb header.Tcp_wire.seq else None
      in
      let flow =
        Dsim.Flowtrace.origin ft ~at:(now t) ~flow:label ?parent Tcp_out
      in
      (match flow with
      | Some c when payload_len > 0 && not is_rtx ->
        Tcp_cb.tx_trace_remember cb header.Tcp_wire.seq (Dsim.Flowtrace.id c)
      | _ -> ());
      flow
    end
  in
  (* Segment serialized straight into the frame: payload (often directly
     out of the send ring) first, then the TCP header written before it
     and checksummed in place. *)
  let hl = Tcp_wire.header_len header in
  ip_output_into t ~flow ~dst:cb.remote_ip ~protocol:Ipv4.Tcp
    ~payload_len:(hl + payload_len) (fun b off ->
      Tcp_cb.payload_blit payload b ~dst_off:(off + hl);
      ignore
        (Tcp_wire.write_header ~src:cb.local_ip ~dst:cb.remote_ip header b ~off
           ~payload_len))

(* Every TCP event can raise the socket's readiness (data, window,
   FIN, connection, error, close), so each one notifies its epoll
   watchers; a completed handshake also readies the listener. *)
let handle_event t (sock : Socket.tcp_sock) ~parent event =
  (match (event : Tcp_cb.event) with
  | Tcp_cb.Connected -> (
    match parent with
    | Some (listener : Socket.tcp_sock) ->
      if Queue.length listener.Socket.accept_q < listener.Socket.backlog then begin
        Queue.push sock listener.Socket.accept_q;
        notify t listener.Socket.fd
      end
      else begin
        (* Backlog overflow: abort the fresh connection. *)
        sock.Socket.closed_by_app <- true;
        sock.Socket.cb.Tcp_cb.fin_queued <- true;
        sock.Socket.cb.Tcp_cb.state <- Tcp_cb.Fin_wait_1
      end
    | None -> ())
  | Tcp_cb.Conn_refused -> sock.Socket.pending_error <- Some Errno.ECONNREFUSED
  | Tcp_cb.Conn_reset -> sock.Socket.pending_error <- Some Errno.ECONNRESET
  | Tcp_cb.Closed_done ->
    Conn_tbl.remove t.conns (conn_key_of sock.Socket.cb);
    sock.Socket.ctx <- None;
    if sock.Socket.closed_by_app then release_fd t sock.Socket.fd
  | Tcp_cb.Data_readable | Tcp_cb.Writable | Tcp_cb.Peer_closed -> ());
  notify t sock.Socket.fd

let note_stat t (s : Tcp_cb.stat) =
  match s with
  | Tcp_cb.Retransmit -> Dsim.Metrics.incr t.metrics.m_retransmits
  | Tcp_cb.Delayed_ack -> Dsim.Metrics.incr t.metrics.m_delayed_acks
  | Tcp_cb.Window_stall -> Dsim.Metrics.incr t.metrics.m_window_stalls
  | Tcp_cb.Rx_drop reason ->
    Dsim.Flowtrace.drop Dsim.Flowtrace.default ~flow:t.cur_rx_flow
      Dsim.Flowtrace.Tcp_in reason

let make_ctx t sock ~parent : Tcp_cb.ctx =
  {
    Tcp_cb.now = (fun () -> now t);
    emit = (fun header payload -> emit_tcp t sock.Socket.cb header payload);
    on_event = (fun ev -> handle_event t sock ~parent ev);
    stat = (fun s -> note_stat t s);
  }

(* Each TCP socket gets one stable ctx, installed on first use; passive
   children capture their listener in it. *)
let get_ctx t (sock : Socket.tcp_sock) =
  match sock.Socket.ctx with
  | Some c -> c
  | None ->
    let c = make_ctx t sock ~parent:None in
    sock.Socket.ctx <- Some c;
    c

let new_tcp_sock t fd ~local_port : Socket.tcp_sock =
  {
    Socket.fd;
    cb = Tcp_cb.create ~config:t.config.tcp ~local_ip:t.config.ip ~local_port ();
    listening = false;
    backlog = 0;
    accept_q = Queue.create ();
    pending_error = None;
    connect_started = false;
    closed_by_app = false;
    parked_until = not_parked;
    armed = false;
    ctx = None;
  }

let fresh_iss t = Dsim.Rng.int t.rng 0x7FFFFFFF

(* O(1) via the bound-port index: under connection churn the old
   whole-table scan made every ephemeral allocation O(sockets). *)
let port_in_use t port =
  Hashtbl.mem t.listeners port || Hashtbl.mem t.bound_ports port

let ephemeral_port t =
  let rec go attempts =
    if attempts > 16384 then None
    else begin
      let p = t.ephemeral in
      t.ephemeral <- (if p >= 65535 then 49152 else p + 1);
      if port_in_use t p then go (attempts + 1) else Some p
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Input demux                                                          *)
(* ------------------------------------------------------------------ *)

let send_rst t ~(ip_hdr : Ipv4.header) ~(tcp_hdr : Tcp_wire.header) ~payload_len =
  match Tcp_output.make_rst ~to_header:tcp_hdr ~payload_len with
  | None -> ()
  | Some rst ->
    t.counters.rst_sent <- t.counters.rst_sent + 1;
    let hl = Tcp_wire.header_len rst in
    ip_output_into t ~dst:ip_hdr.Ipv4.src ~protocol:Ipv4.Tcp ~payload_len:hl
      (fun b off ->
        ignore
          (Tcp_wire.write_header ~src:t.config.ip ~dst:ip_hdr.Ipv4.src rst b
             ~off ~payload_len:0))

let spawn_passive t listener ~(ip_hdr : Ipv4.header) (hdr : Tcp_wire.header) =
  let build fd =
    let sock = new_tcp_sock t fd ~local_port:hdr.Tcp_wire.dst_port in
    sock.Socket.cb.Tcp_cb.remote_ip <- ip_hdr.Ipv4.src;
    sock.Socket.cb.Tcp_cb.remote_port <- hdr.Tcp_wire.src_port;
    Socket.Tcp sock
  in
  match Socket.alloc t.table build with
  | Error _ -> drop_rx t Dsim.Flowtrace.Tcp_in Dsim.Flowtrace.No_socket
  | Ok (_, Socket.Tcp child) ->
    let ctx = make_ctx t child ~parent:(Some listener) in
    child.Socket.ctx <- Some ctx;
    Conn_tbl.replace t.conns (conn_key_of child.Socket.cb) child;
    port_bound_incr t child.Socket.cb.Tcp_cb.local_port;
    Tcp_input.accept_syn child.Socket.cb ctx hdr ~iss:(fresh_iss t);
    update_armed t child
  | Ok _ -> assert false

let tcp_input t ?(flow = None) ~(ip_hdr : Ipv4.header) buf ~off ~len =
  match Tcp_wire.parse ~src:ip_hdr.Ipv4.src ~dst:ip_hdr.Ipv4.dst buf ~off ~len with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Tcp_in reason
  | Ok (hdr, payload_off) -> (
    Dsim.Flowtrace.hop flow Tcp_in ~at:(now t);
    (* The payload stays a region of the borrowed frame; Tcp_input blits
       in-order data straight into the receive ring and copies only what
       must outlive the frame (reassembly queue). *)
    let payload_len = off + len - payload_off in
    let key = (ip_hdr.Ipv4.src, hdr.Tcp_wire.src_port, hdr.Tcp_wire.dst_port) in
    match Conn_tbl.find_opt t.conns key with
    | Some sock ->
      let ctx = get_ctx t sock in
      let readable_before = Tcp_cb.readable_bytes sock.Socket.cb in
      t.cur_rx_flow <- flow;
      Fun.protect
        ~finally:(fun () -> t.cur_rx_flow <- None)
        (fun () ->
          Tcp_input.process sock.Socket.cb ctx hdr ~buf ~off:payload_off
            ~len:payload_len);
      if Tcp_cb.readable_bytes sock.Socket.cb > readable_before then
        Dsim.Flowtrace.hop flow Sock ~at:(now t);
      if sock.Socket.cb.Tcp_cb.state <> Tcp_cb.Closed then
        Tcp_output.flush sock.Socket.cb ctx;
      update_armed t sock
    | None -> (
      match Hashtbl.find_opt t.listeners hdr.Tcp_wire.dst_port with
      | Some listener
        when hdr.Tcp_wire.flags.Tcp_wire.syn && not hdr.Tcp_wire.flags.Tcp_wire.ack
        -> spawn_passive t listener ~ip_hdr hdr
      | Some _ | None ->
        (* Reset path: the frame itself goes no further (not counted in
           rx_dropped, but the trace records why it ended). *)
        Dsim.Flowtrace.(drop default ~flow Tcp_in No_socket);
        send_rst t ~ip_hdr ~tcp_hdr:hdr ~payload_len))

(* ------------------------------------------------------------------ *)
(* ICMP / UDP input                                                     *)
(* ------------------------------------------------------------------ *)

let icmp_input t ?(flow = None) ~(ip_hdr : Ipv4.header) buf ~off ~len =
  match Icmp.parse buf ~off ~len with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Ip_rx reason
  | Ok msg -> (
    match msg with
    | Icmp.Echo_reply { ident; seq; _ } ->
      t.ping_replies <- (ident, seq) :: t.ping_replies
    | _ -> (
      match Icmp.reply_to msg with
      | Some reply ->
        ip_output t ~dst:ip_hdr.Ipv4.src ~protocol:Ipv4.Icmp (Icmp.build reply)
      | None -> ()))

let udp_input t ?(flow = None) ~(ip_hdr : Ipv4.header) buf ~off ~len =
  match Udp.parse ~src:ip_hdr.Ipv4.src ~dst:ip_hdr.Ipv4.dst buf ~off ~len with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Udp_in reason
  | Ok (hdr, payload_off) -> (
    Dsim.Flowtrace.hop flow Udp_in ~at:(now t);
    match Hashtbl.find_opt t.udp_binds hdr.Udp.dst_port with
    | None -> drop_rx ~flow t Dsim.Flowtrace.Udp_in Dsim.Flowtrace.No_socket
    | Some sock ->
      if Queue.length sock.Socket.rcv_q >= sock.Socket.max_rcv_q then
        drop_rx ~flow t Dsim.Flowtrace.Udp_in Dsim.Flowtrace.Sock_queue_full
      else begin
        let data_len = hdr.Udp.length - Udp.header_len in
        let data = Bytes.sub buf payload_off data_len in
        Queue.push (ip_hdr.Ipv4.src, hdr.Udp.src_port, data) sock.Socket.rcv_q;
        notify t sock.Socket.ufd;
        Dsim.Flowtrace.hop flow Sock ~at:(now t)
      end)

(* ------------------------------------------------------------------ *)
(* Frame input                                                          *)
(* ------------------------------------------------------------------ *)

let arp_input t ?(flow = None) buf ~off ~len =
  (* [Arp.parse] bounds-checks against the backing buffer; on the live RX
     path that is the whole borrowed frame buffer, so enforce the actual
     frame length here. *)
  if len < Arp.packet_len then
    drop_rx ~flow t Dsim.Flowtrace.Eth_rx Dsim.Flowtrace.Bad_length
  else
  match Arp.parse buf ~off with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Eth_rx reason
  | Ok pkt ->
    if Ipv4_addr.equal pkt.Arp.target_ip t.config.ip then begin
      Arp_cache.insert t.arp ~now:(now t) pkt.Arp.sender_ip pkt.Arp.sender_mac;
      (match pkt.Arp.op with
      | Arp.Request -> send_arp t (Arp.reply_to pkt ~mac:t.mac)
      | Arp.Reply -> ());
      List.iter
        (fun packet ->
          send_frame t ~dst_mac:pkt.Arp.sender_mac ~ethertype:Ethernet.Ipv4 packet)
        (Arp_cache.take_pending t.arp pkt.Arp.sender_ip)
    end

let ipv4_input t ?(flow = None) buf ~off ~len =
  match Ipv4.parse buf ~off ~len with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Ip_rx reason
  | Ok (ip_hdr, payload_off) ->
    if
      Ipv4_addr.equal ip_hdr.Ipv4.dst t.config.ip
      || Ipv4_addr.equal ip_hdr.Ipv4.dst Ipv4_addr.broadcast
    then begin
      Dsim.Flowtrace.hop flow Ip_rx ~at:(now t);
      let payload_len = ip_hdr.Ipv4.total_len - (payload_off - off) in
      match ip_hdr.Ipv4.protocol with
      | Ipv4.Tcp -> tcp_input t ~flow ~ip_hdr buf ~off:payload_off ~len:payload_len
      | Ipv4.Icmp -> icmp_input t ~flow ~ip_hdr buf ~off:payload_off ~len:payload_len
      | Ipv4.Udp -> udp_input t ~flow ~ip_hdr buf ~off:payload_off ~len:payload_len
      | Ipv4.Unknown_proto _ ->
        drop_rx ~flow t Dsim.Flowtrace.Ip_rx Dsim.Flowtrace.Unknown_proto
    end

(* One capability check per received frame: the caller hands us a slice
   already validated by [Mbuf.borrow]; every layer then parses in place
   against the slice's backing region — no per-layer copies. *)
let handle_frame t ?(flow = None) (s : Dsim.Slice.t) =
  let len = Dsim.Slice.length s in
  t.counters.rx_frames <- t.counters.rx_frames + 1;
  Dsim.Metrics.incr t.metrics.m_rx_frames;
  Dsim.Metrics.incr_by t.metrics.m_rx_bytes len;
  (match t.capture with
  | Some c ->
    Capture.record c ~at:(Dsim.Engine.now t.engine) Capture.Rx
      (Dsim.Slice.to_bytes s)
  | None -> ());
  Dsim.Slice.check s ~off:0 ~len;
  let buf = Dsim.Slice.base s and off = Dsim.Slice.base_off s in
  match Ethernet.parse_at buf ~off ~len with
  | Error reason -> drop_rx ~flow t Dsim.Flowtrace.Eth_rx reason
  | Ok (eth, payload_off) -> (
    Dsim.Flowtrace.hop flow Eth_rx ~at:(now t);
    let payload_len = off + len - payload_off in
    match eth.Ethernet.ethertype with
    | Ethernet.Arp -> arp_input t ~flow buf ~off:payload_off ~len:payload_len
    | Ethernet.Ipv4 -> ipv4_input t ~flow buf ~off:payload_off ~len:payload_len
    | Ethernet.Unknown _ ->
      drop_rx ~flow t Dsim.Flowtrace.Eth_rx Dsim.Flowtrace.Unknown_proto)

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)
(* ------------------------------------------------------------------ *)

(* Insert [sock] into [pass.(0 .. i - 1)], kept sorted by fd; [pass]
   has room. *)
let rec pass_insert (pass : Socket.tcp_sock array) i (sock : Socket.tcp_sock) =
  if i > 0 && pass.(i - 1).Socket.fd > sock.Socket.fd then begin
    pass.(i) <- pass.(i - 1);
    pass_insert pass (i - 1) sock
  end
  else pass.(i) <- sock

(* Pop the TIME_WAIT queue's entries whose deadline has passed into
   [t.pass] after its first [n] sockets, in fd order, skipping stale
   ones; the new count. *)
let rec expired_time_wait t now_ n =
  if Queue.is_empty t.time_wait then n
  else begin
    let d, (sock : Socket.tcp_sock) = Queue.peek t.time_wait in
    if Dsim.Time.(d > now_) then n
    else begin
      ignore (Queue.pop t.time_wait);
      if sock.Socket.parked_until = d then begin
        sock.Socket.parked_until <- not_parked;
        if n = Array.length t.pass then begin
          let bigger = Array.make (max 16 (2 * n)) sock in
          Array.blit t.pass 0 bigger 0 n;
          t.pass <- bigger
        end;
        pass_insert t.pass n sock;
        expired_time_wait t now_ (n + 1)
      end
      else expired_time_wait t now_ n
    end
  end

let service_one t (sock : Socket.tcp_sock) =
  let ctx = get_ctx t sock in
  Tcp_timer.check sock.Socket.cb ctx;
  if sock.Socket.cb.Tcp_cb.state = Tcp_cb.Closed then
    Conn_tbl.remove t.conns (conn_key_of sock.Socket.cb)
  else Tcp_output.flush sock.Socket.cb ctx;
  update_armed t sock

(* Per-tick TCP servicing visits the armed-timer set and the TIME_WAIT
   sockets whose 2MSL deadline has passed. Every connection with
   pending work holds at least one deadline (data in flight arms the
   rtx timer, zero-window persist arms it explicitly, delayed ACKs arm
   the ack timer), and a queued TIME_WAIT socket neither emits nor
   changes state before its deadline, so the pass emits exactly the
   segments a walk over every socket would, while idle connections and
   TIME_WAIT sockets cost nothing until due. Serviced in fd order so the
   schedule is independent of the order sockets were armed. The pass
   walks a copy of the fd-sorted armed set, into which the expired
   TIME_WAIT sockets (never armed while queued) are merged, because
   servicing a socket re-derives its membership. *)
let service_tcp t =
  let k = t.armed_n in
  if Array.length t.pass < k then
    t.pass <- Array.make (Array.length t.armed) t.armed.(0);
  Array.blit t.armed 0 t.pass 0 k;
  let n = expired_time_wait t (now t) k in
  for i = 0 to n - 1 do
    service_one t t.pass.(i)
  done

(* ARP resolution maintenance: retransmit due requests (the cache applies
   its capped exponential backoff), and for resolutions whose last attempt
   expired unanswered, drop the stranded queue with a typed attribution
   and let the negative cache make subsequent TX fail fast. Free on a
   healthy run: one counter load while nothing is in flight. *)
let service_arp t =
  if Arp_cache.outstanding t.arp > 0 then begin
    let now_ = now t in
    List.iter
      (fun ip ->
        t.counters.arp_requests <- t.counters.arp_requests + 1;
        send_arp t
          (Arp.request ~sender_mac:t.mac ~sender_ip:t.config.ip ~target_ip:ip))
      (Arp_cache.due_retries t.arp ~now:now_);
    List.iter
      (fun (_ip, stranded) -> List.iter (fun _ -> drop_arp_unresolved t) stranded)
      (Arp_cache.expire_failed t.arp ~now:now_)
  end

let set_hook t hook = t.hook <- hook

(* Borrow the frame in place (one capability check), process it, and
   only then return the mbuf to the pool. *)
let rx_frame t m =
  let flow = Dpdk.Mbuf.flow m in
  let s = Dpdk.Mbuf.borrow t.mem m in
  handle_frame t ~flow s;
  Dpdk.Mbuf.free m

let create engine mem dev config =
  let t = make engine mem dev config in
  t.rx_frame <- rx_frame t;
  t

(* CPU cost of one iteration: every frame that crossed the stack during
   the iteration (received bursts, plus transmissions triggered by TCP
   flushes and by the application hook) is charged [per_packet_ns]. In
   Scenario 2 this value is the mutex hold time of the main loop. *)
let loop_once t =
  t.loops <- t.loops + 1;
  Dsim.Metrics.set t.metrics.m_live_sockets (Socket.live_count t.table);
  let tx_before = t.counters.tx_frames in
  let n = Dpdk.Eth_dev.rx_burst t.dev ~max:t.config.burst t.rx_frame in
  service_tcp t;
  service_arp t;
  (match t.hook with Some h -> h t | None -> ());
  let tx_delta = t.counters.tx_frames - tx_before in
  let busy = n + tx_delta in
  if busy > 0 then t.idle_streak <- 0 else t.idle_streak <- t.idle_streak + 1;
  if busy = 0 then t.config.loop_base_ns /. 4.
  else t.config.loop_base_ns +. (t.config.per_packet_ns *. float_of_int busy)

let stop t = t.running <- false

let start ?hook t =
  (match hook with Some _ -> t.hook <- hook | None -> ());
  t.running <- true;
  let rec iterate () =
    if t.running then begin
      let work_ns = loop_once t in
      let gap =
        if t.idle_streak = 0 then t.config.loop_gap
        else begin
          let backoff =
            Dsim.Time.mul t.config.loop_gap (1 lsl min t.idle_streak 6)
          in
          Dsim.Time.min backoff t.config.idle_gap_max
        end
      in
      let delay = Dsim.Time.add (Dsim.Time.of_float_ns work_ns) gap in
      Dsim.Engine.schedule t.engine ~delay ~label:t.k_loop iterate
    end
  in
  iterate ()

(* ------------------------------------------------------------------ *)
(* Socket API                                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let socket_stream t =
  match Socket.alloc t.table (fun fd -> Socket.Tcp (new_tcp_sock t fd ~local_port:0)) with
  | Ok (fd, _) -> Ok fd
  | Error e -> Error e

let bind t fd ~port =
  let* sock = Socket.find_tcp t.table fd in
  if port <= 0 || port > 65535 then Error Errno.EINVAL
  else if port_in_use t port then Error Errno.EADDRINUSE
  else begin
    port_bound_decr t sock.Socket.cb.Tcp_cb.local_port;
    sock.Socket.cb.Tcp_cb.local_port <- port;
    port_bound_incr t port;
    Ok ()
  end

let listen t fd ~backlog =
  let* sock = Socket.find_tcp t.table fd in
  if sock.Socket.cb.Tcp_cb.local_port = 0 then Error Errno.EINVAL
  else begin
    sock.Socket.listening <- true;
    sock.Socket.backlog <- max 1 backlog;
    Tcp_cb.open_passive sock.Socket.cb;
    Hashtbl.replace t.listeners sock.Socket.cb.Tcp_cb.local_port sock;
    Ok ()
  end

let accept t fd =
  let* sock = Socket.find_tcp t.table fd in
  if not sock.Socket.listening then Error Errno.EINVAL
  else if Queue.is_empty sock.Socket.accept_q then Error Errno.EAGAIN
  else begin
    let child = Queue.pop sock.Socket.accept_q in
    Ok
      ( child.Socket.fd,
        child.Socket.cb.Tcp_cb.remote_ip,
        child.Socket.cb.Tcp_cb.remote_port )
  end

let connect t fd ~ip ~port =
  let* sock = Socket.find_tcp t.table fd in
  if sock.Socket.connect_started then
    if sock.Socket.cb.Tcp_cb.state = Tcp_cb.Established then Error Errno.EISCONN
    else Error Errno.EALREADY
  else begin
    (if sock.Socket.cb.Tcp_cb.local_port = 0 then
       match ephemeral_port t with
       | Some p ->
         sock.Socket.cb.Tcp_cb.local_port <- p;
         port_bound_incr t p
       | None -> ());
    if sock.Socket.cb.Tcp_cb.local_port = 0 then Error Errno.EADDRINUSE
    else begin
      sock.Socket.connect_started <- true;
      let ctx = get_ctx t sock in
      Conn_tbl.replace t.conns (ip, port, sock.Socket.cb.Tcp_cb.local_port) sock;
      Tcp_cb.open_active sock.Socket.cb ctx ~remote_ip:ip ~remote_port:port
        ~iss:(fresh_iss t);
      update_armed t sock;
      Error Errno.EINPROGRESS
    end
  end

let read t fd ~buf ~off ~len =
  let* sock = Socket.find_tcp t.table fd in
  if sock.Socket.listening then Error Errno.EOPNOTSUPP
  else begin
    match sock.Socket.pending_error with
    | Some e ->
      sock.Socket.pending_error <- None;
      Error e
    | None ->
      let cb = sock.Socket.cb in
      let n = Ring_buf.read_into cb.Tcp_cb.rcv_buf ~dst:buf ~dst_off:off ~len in
      if n > 0 then begin
        Dsim.Metrics.incr_by t.metrics.m_sock_read_bytes n;
        (* Freed receive space: push a window update if we had been
           sitting on a shrunken advertisement. *)
        if cb.Tcp_cb.segs_since_ack > 0 then begin
          Tcp_output.send_ack cb (get_ctx t sock);
          update_armed t sock
        end;
        (* Drained after the peer's FIN: now it reads as HUP. *)
        if cb.Tcp_cb.fin_received then notify t fd;
        Ok n
      end
      else if cb.Tcp_cb.fin_received then Ok 0
      else begin
        match cb.Tcp_cb.state with
        | Tcp_cb.Closed ->
          if sock.Socket.connect_started then Error Errno.ECONNRESET
          else Error Errno.ENOTCONN
        | Tcp_cb.Listen -> Error Errno.ENOTCONN
        | _ -> Error Errno.EAGAIN
      end
  end

let write t fd ~buf ~off ~len =
  let* sock = Socket.find_tcp t.table fd in
  if sock.Socket.listening then Error Errno.EOPNOTSUPP
  else begin
    match sock.Socket.pending_error with
    | Some e ->
      sock.Socket.pending_error <- None;
      Error e
    | None -> (
      let cb = sock.Socket.cb in
      match cb.Tcp_cb.state with
      | Tcp_cb.Established | Tcp_cb.Close_wait ->
        let n = Ring_buf.write cb.Tcp_cb.snd_buf buf ~off ~len in
        if n = 0 then Error Errno.EAGAIN
        else begin
          Dsim.Metrics.incr_by t.metrics.m_sock_write_bytes n;
          Tcp_output.flush cb (get_ctx t sock);
          update_armed t sock;
          Ok n
        end
      | Tcp_cb.Syn_sent | Tcp_cb.Syn_received -> Error Errno.EAGAIN
      | Tcp_cb.Listen | Tcp_cb.Closed -> Error Errno.ENOTCONN
      | Tcp_cb.Fin_wait_1 | Tcp_cb.Fin_wait_2 | Tcp_cb.Closing
      | Tcp_cb.Last_ack | Tcp_cb.Time_wait -> Error Errno.EPIPE)
  end

let close t fd =
  match Socket.find t.table fd with
  | None -> Error Errno.EBADF
  | Some (Socket.Epoll_inst _) ->
    release_fd t fd;
    Ok ()
  | Some (Socket.Udp u) ->
    (match u.Socket.uport with
    | Some p -> Hashtbl.remove t.udp_binds p
    | None -> ());
    release_fd t fd;
    Ok ()
  | Some (Socket.Tcp sock) ->
    sock.Socket.closed_by_app <- true;
    if sock.Socket.listening then begin
      Hashtbl.remove t.listeners sock.Socket.cb.Tcp_cb.local_port;
      Queue.iter
        (fun (child : Socket.tcp_sock) ->
          child.Socket.closed_by_app <- true;
          child.Socket.cb.Tcp_cb.fin_queued <- true;
          child.Socket.cb.Tcp_cb.state <- Tcp_cb.Fin_wait_1)
        sock.Socket.accept_q;
      Queue.clear sock.Socket.accept_q;
      release_fd t fd;
      Ok ()
    end
    else begin
      let cb = sock.Socket.cb in
      let ctx = get_ctx t sock in
      (match cb.Tcp_cb.state with
      | (Tcp_cb.Established | Tcp_cb.Close_wait)
        when Tcp_cb.readable_bytes cb > 0 ->
        (* Unread data is lost with the socket: abort with an RST, as
           Linux and FreeBSD do (RFC 9293 §3.6.1, RFC 2525 §2.17). A FIN
           would keep the data and advertise a zero window that nothing
           would reopen. *)
        Tcp_output.send_reset cb ctx;
        Tcp_cb.to_closed cb ctx
      | Tcp_cb.Established ->
        cb.Tcp_cb.state <- Tcp_cb.Fin_wait_1;
        cb.Tcp_cb.fin_queued <- true;
        Tcp_output.flush cb ctx
      | Tcp_cb.Close_wait ->
        cb.Tcp_cb.state <- Tcp_cb.Last_ack;
        cb.Tcp_cb.fin_queued <- true;
        Tcp_output.flush cb ctx
      | Tcp_cb.Syn_sent | Tcp_cb.Syn_received | Tcp_cb.Listen | Tcp_cb.Closed ->
        Tcp_cb.to_closed cb ctx
      | Tcp_cb.Fin_wait_1 | Tcp_cb.Fin_wait_2 | Tcp_cb.Closing
      | Tcp_cb.Last_ack | Tcp_cb.Time_wait -> ());
      if cb.Tcp_cb.state = Tcp_cb.Closed then release_fd t fd
      else update_armed t sock;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Epoll                                                                *)
(* ------------------------------------------------------------------ *)

let epoll_create t =
  match Socket.alloc t.table (fun _fd -> Socket.Epoll_inst (Epoll.create ())) with
  | Ok (fd, _) -> Ok fd
  | Error e -> Error e

let epoll_ctl t ~epfd ~op ~fd events =
  let* ep = Socket.find_epoll t.table epfd in
  if Socket.find t.table fd = None then Error Errno.EBADF
  else begin
    match op with
    | `Add ->
      let* () = Epoll.ctl_add ep ~fd events in
      t.watchers.(fd) <- ep :: t.watchers.(fd);
      Ok ()
    | `Mod -> Epoll.ctl_mod ep ~fd events
    | `Del ->
      let* () = Epoll.ctl_del ep ~fd in
      unwatch t fd ep;
      Ok ()
  end

let readiness_of t fd =
  match Socket.find t.table fd with
  | Some (Socket.Tcp s) -> Socket.tcp_readiness s
  | Some (Socket.Udp s) -> Socket.udp_readiness s
  | Some (Socket.Epoll_inst _) -> 0
  | None -> Epoll.epollerr lor Epoll.epollhup

let epoll_wait t ~epfd ~max =
  let* ep = Socket.find_epoll t.table epfd in
  let ready = Epoll.wait ep ~readiness:(readiness_of t) ~max in
  if not (List.is_empty ready) then Dsim.Metrics.incr t.metrics.m_epoll_wakeups;
  Ok ready

(* ------------------------------------------------------------------ *)
(* UDP                                                                  *)
(* ------------------------------------------------------------------ *)

let udp_socket t =
  match
    Socket.alloc t.table (fun fd ->
        Socket.Udp
          { Socket.ufd = fd; uport = None; rcv_q = Queue.create (); max_rcv_q = 256 })
  with
  | Ok (fd, _) -> Ok fd
  | Error e -> Error e

let udp_bind t fd ~port =
  let* sock = Socket.find_udp t.table fd in
  if Hashtbl.mem t.udp_binds port then Error Errno.EADDRINUSE
  else begin
    sock.Socket.uport <- Some port;
    Hashtbl.replace t.udp_binds port sock;
    Ok ()
  end

let udp_sendto t fd ~ip ~port ~buf =
  let* sock = Socket.find_udp t.table fd in
  let src_port =
    match sock.Socket.uport with
    | Some p -> p
    | None -> (
      match ephemeral_port t with
      | Some p ->
        sock.Socket.uport <- Some p;
        Hashtbl.replace t.udp_binds p sock;
        p
      | None -> 0)
  in
  if src_port = 0 then Error Errno.EADDRINUSE
  else if Bytes.length buf + Udp.header_len + Ipv4.header_len > t.config.mtu then
    Error Errno.EMSGSIZE
  else begin
    let blen = Bytes.length buf in
    ip_output_into t ~dst:ip ~protocol:Ipv4.Udp
      ~payload_len:(Udp.header_len + blen) (fun b off ->
        Bytes.blit buf 0 b (off + Udp.header_len) blen;
        Udp.write_header ~src:t.config.ip ~dst:ip ~src_port ~dst_port:port b
          ~off ~payload_len:blen);
    Ok ()
  end

let udp_recvfrom t fd =
  let* sock = Socket.find_udp t.table fd in
  if Queue.is_empty sock.Socket.rcv_q then Ok None
  else Ok (Some (Queue.pop sock.Socket.rcv_q))

(* ------------------------------------------------------------------ *)
(* ICMP convenience                                                     *)
(* ------------------------------------------------------------------ *)

let ping t ~ip ~ident ~seq ~payload =
  let msg = Icmp.Echo_request { ident; seq; data = payload } in
  ip_output t ~dst:ip ~protocol:Ipv4.Icmp (Icmp.build msg)

let pings_received t = t.ping_replies
