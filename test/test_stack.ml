(* Integration tests: two full stacks (DPDK + netstack) over a simulated
   wire — sockets, epoll, ICMP, UDP, data integrity, error paths. *)

open Netstack

type host = { nif : Core.Topology.netif; node : Core.Topology.node }

type world = { engine : Dsim.Engine.t; left : host; right : host }

let ip_left = Ipv4_addr.make 192 168 1 1
let ip_right = Ipv4_addr.make 192 168 1 2

let make_world ?(start = true) () =
  let engine = Dsim.Engine.create () in
  let mk name = Core.Topology.make_node engine ~name ~ports:1 () in
  let left_node = mk "left" and right_node = mk "right" in
  ignore (Core.Topology.link engine left_node 0 right_node 0);
  let netif node ip seed =
    let cvm =
      Capvm.Intravisor.create_cvm
        (Core.Topology.intravisor node)
        ~name:"net" ~size:(12 * 1024 * 1024)
    in
    let region = Capvm.Cvm.sub_region cvm ~size:Core.Topology.default_netif_region_size in
    Core.Topology.make_netif node ~region ~port_idx:0 ~ip
      ~stack_tuning:(fun c -> { c with Stack.rng_seed = seed })
      ()
  in
  let left = { nif = netif left_node ip_left 1L; node = left_node } in
  let right = { nif = netif right_node ip_right 2L; node = right_node } in
  if start then begin
    Stack.start left.nif.Core.Topology.stack;
    Stack.start right.nif.Core.Topology.stack
  end;
  { engine; left; right }

let run_for w d = Dsim.Engine.run w.engine ~until:(Dsim.Time.add (Dsim.Engine.now w.engine) d)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let errno_t = Alcotest.testable (fun fmt e -> Errno.pp fmt e) Errno.equal

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Errno.to_string expected)
  | Error e -> Alcotest.check errno_t "errno" expected e

(* ------------------------------------------------------------------ *)

let ping_works () =
  let w = make_world () in
  Stack.ping w.left.nif.Core.Topology.stack ~ip:ip_right ~ident:7 ~seq:1
    ~payload:(Bytes.of_string "hello?");
  run_for w (Dsim.Time.ms 10);
  Alcotest.(check (list (pair int int))) "echo reply received" [ (7, 1) ]
    (Stack.pings_received w.left.nif.Core.Topology.stack)

let arp_resolution_is_lazy () =
  let w = make_world () in
  Stack.ping w.left.nif.Core.Topology.stack ~ip:ip_right ~ident:1 ~seq:1
    ~payload:Bytes.empty;
  run_for w (Dsim.Time.ms 10);
  let c = Stack.counters w.left.nif.Core.Topology.stack in
  Alcotest.(check int) "one arp request" 1 c.Stack.arp_requests;
  (* Second ping: cache hit, no new request. *)
  Stack.ping w.left.nif.Core.Topology.stack ~ip:ip_right ~ident:1 ~seq:2
    ~payload:Bytes.empty;
  run_for w (Dsim.Time.ms 10);
  Alcotest.(check int) "still one arp request" 1 c.Stack.arp_requests;
  Alcotest.(check int) "both pings answered" 2
    (List.length (Stack.pings_received w.left.nif.Core.Topology.stack))

let tcp_connect_accept () =
  let w = make_world () in
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  expect_err Errno.EINPROGRESS (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  let afd, peer_ip, _peer_port = get (Stack.accept srv lfd) in
  Alcotest.(check bool) "peer ip" true (Ipv4_addr.equal peer_ip ip_left);
  Alcotest.(check bool) "distinct fd" true (afd <> lfd);
  expect_err Errno.EISCONN (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  expect_err Errno.EAGAIN (Stack.accept srv lfd)

let tcp_data_integrity () =
  let w = make_world () in
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  let afd, _, _ = get (Stack.accept srv lfd) in
  (* Stream 200 KB of patterned data; verify every byte. *)
  let total = 200 * 1024 in
  let pattern i = Char.chr ((i * 7) land 0xff) in
  let sent = ref 0 and received = Buffer.create total in
  let chunk = Bytes.create 8192 in
  while Buffer.length received < total do
    if !sent < total then begin
      let n = min 8192 (total - !sent) in
      for i = 0 to n - 1 do
        Bytes.set chunk i (pattern (!sent + i))
      done;
      match Stack.write cli cfd ~buf:chunk ~off:0 ~len:n with
      | Ok accepted -> sent := !sent + accepted
      | Error Errno.EAGAIN -> ()
      | Error e -> Alcotest.failf "write: %s" (Errno.to_string e)
    end;
    run_for w (Dsim.Time.ms 1);
    let rbuf = Bytes.create 16384 in
    (match Stack.read srv afd ~buf:rbuf ~off:0 ~len:16384 with
    | Ok n -> Buffer.add_subbytes received rbuf 0 n
    | Error Errno.EAGAIN -> ()
    | Error e -> Alcotest.failf "read: %s" (Errno.to_string e))
  done;
  let data = Buffer.contents received in
  Alcotest.(check int) "all bytes arrived" total (String.length data);
  let ok = ref true in
  String.iteri (fun i c -> if c <> pattern i then ok := false) data;
  Alcotest.(check bool) "byte-exact stream" true !ok

let tcp_connection_refused () =
  let w = make_world () in
  let cli = w.left.nif.Core.Topology.stack in
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:4444);
  run_for w (Dsim.Time.ms 20);
  let buf = Bytes.create 8 in
  expect_err Errno.ECONNREFUSED (Stack.read cli cfd ~buf ~off:0 ~len:8);
  (* The RST counter on the refusing side moved. *)
  Alcotest.(check bool) "rst sent" true
    ((Stack.counters w.right.nif.Core.Topology.stack).Stack.rst_sent > 0)

let tcp_close_and_eof () =
  let w = make_world () in
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  let afd, _, _ = get (Stack.accept srv lfd) in
  ignore (Stack.write cli cfd ~buf:(Bytes.of_string "bye") ~off:0 ~len:3);
  get (Stack.close cli cfd);
  run_for w (Dsim.Time.ms 30);
  let buf = Bytes.create 16 in
  Alcotest.(check int) "data before eof" 3 (get (Stack.read srv afd ~buf ~off:0 ~len:16));
  Alcotest.(check int) "eof" 0 (get (Stack.read srv afd ~buf ~off:0 ~len:16));
  get (Stack.close srv afd);
  run_for w (Dsim.Time.ms 200);
  (* Both sides fully tear down (TIME_WAIT expires), sockets reclaimed. *)
  Alcotest.(check bool) "client socket gone" true
    (Stack.tcp_sock_of_fd cli cfd = None)

let bind_errors () =
  let w = make_world () in
  let s = w.right.nif.Core.Topology.stack in
  let fd1 = get (Stack.socket_stream s) in
  get (Stack.bind s fd1 ~port:5201);
  let fd2 = get (Stack.socket_stream s) in
  expect_err Errno.EADDRINUSE (Stack.bind s fd2 ~port:5201);
  expect_err Errno.EINVAL (Stack.bind s fd2 ~port:0);
  expect_err Errno.EINVAL (Stack.bind s fd2 ~port:70000);
  expect_err Errno.EBADF (Stack.bind s 999 ~port:1234);
  expect_err Errno.EINVAL (Stack.listen s fd2 ~backlog:4)

let listener_rejects_io () =
  let w = make_world () in
  let s = w.right.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream s) in
  get (Stack.bind s lfd ~port:5201);
  get (Stack.listen s lfd ~backlog:4);
  let buf = Bytes.create 4 in
  expect_err Errno.EOPNOTSUPP (Stack.read s lfd ~buf ~off:0 ~len:4);
  expect_err Errno.EOPNOTSUPP (Stack.write s lfd ~buf ~off:0 ~len:4);
  expect_err Errno.EINVAL (Stack.accept s (get (Stack.socket_stream s)))

let write_before_connect () =
  let w = make_world () in
  let s = w.left.nif.Core.Topology.stack in
  let fd = get (Stack.socket_stream s) in
  let buf = Bytes.of_string "x" in
  expect_err Errno.ENOTCONN (Stack.write s fd ~buf ~off:0 ~len:1);
  expect_err Errno.ENOTCONN (Stack.read s fd ~buf ~off:0 ~len:1)

let epoll_lifecycle () =
  let w = make_world () in
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let epfd = get (Stack.epoll_create srv) in
  get (Stack.epoll_ctl srv ~epfd ~op:`Add ~fd:lfd Epoll.epollin);
  Alcotest.(check (list (pair int int))) "nothing ready" []
    (get (Stack.epoll_wait srv ~epfd ~max:8));
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  (match get (Stack.epoll_wait srv ~epfd ~max:8) with
  | [ (fd, ev) ] ->
    Alcotest.(check int) "listener readable" lfd fd;
    Alcotest.(check bool) "EPOLLIN" true (Epoll.has ev Epoll.epollin)
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  let afd, _, _ = get (Stack.accept srv lfd) in
  get (Stack.epoll_ctl srv ~epfd ~op:`Add ~fd:afd (Epoll.epollin lor Epoll.epollout));
  (match get (Stack.epoll_wait srv ~epfd ~max:8) with
  | [ (fd, ev) ] ->
    Alcotest.(check int) "conn writable" afd fd;
    Alcotest.(check bool) "EPOLLOUT only" true
      (Epoll.has ev Epoll.epollout && not (Epoll.has ev Epoll.epollin))
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  ignore (Stack.write cli cfd ~buf:(Bytes.of_string "wake") ~off:0 ~len:4);
  run_for w (Dsim.Time.ms 10);
  (match get (Stack.epoll_wait srv ~epfd ~max:8) with
  | [ (_, ev) ] -> Alcotest.(check bool) "now readable too" true (Epoll.has ev Epoll.epollin)
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  get (Stack.epoll_ctl srv ~epfd ~op:`Del ~fd:afd 0);
  (match get (Stack.epoll_wait srv ~epfd ~max:8) with
  | [] -> ()
  | _ -> Alcotest.fail "deregistered fd still reported");
  expect_err Errno.EINVAL (Stack.epoll_ctl srv ~epfd ~op:`Mod ~fd:afd Epoll.epollin);
  expect_err Errno.EBADF (Stack.epoll_ctl srv ~epfd ~op:`Add ~fd:999 Epoll.epollin)

let udp_roundtrip () =
  let w = make_world () in
  let l = w.left.nif.Core.Topology.stack in
  let r = w.right.nif.Core.Topology.stack in
  let rfd = get (Stack.udp_socket r) in
  get (Stack.udp_bind r rfd ~port:9999);
  let lfd = get (Stack.udp_socket l) in
  get (Stack.udp_sendto l lfd ~ip:ip_right ~port:9999 ~buf:(Bytes.of_string "datagram"));
  run_for w (Dsim.Time.ms 10);
  (match get (Stack.udp_recvfrom r rfd) with
  | Some (src, _sport, data) ->
    Alcotest.(check bool) "source ip" true (Ipv4_addr.equal src ip_left);
    Alcotest.(check string) "payload" "datagram" (Bytes.to_string data)
  | None -> Alcotest.fail "datagram not delivered");
  Alcotest.(check bool) "queue drained" true (get (Stack.udp_recvfrom r rfd) = None);
  (* Reply flows back using the learned ephemeral port. *)
  expect_err Errno.EMSGSIZE
    (Stack.udp_sendto l lfd ~ip:ip_right ~port:9999 ~buf:(Bytes.create 3000))

let ff_api_capability_checks () =
  let w = make_world () in
  let cli = w.left.nif.Core.Topology.stack in
  let ff = w.left.nif.Core.Topology.ff in
  let srv = w.right.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Ff_api.ff_socket ff) in
  ignore (Ff_api.ff_connect ff cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  ignore cli;
  (* A valid buffer capability works... *)
  let mem = Core.Topology.node_mem w.left.node in
  let region = Cheri.Capability.root ~base:0x3f00000 ~length:4096 ~perms:Cheri.Perms.data in
  Cheri.Tagged_memory.store_bytes mem ~cap:region ~addr:0x3f00000 (Bytes.of_string "capdata!");
  Alcotest.(check int) "capability write" 8
    (get (Ff_api.ff_write ff cfd ~buf:region ~nbytes:8));
  (* ...while an overlong nbytes traps as a capability fault, exactly
     like Fig. 3 — it never becomes an errno. *)
  Alcotest.(check bool) "overflow traps" true
    (match Ff_api.ff_write ff cfd ~buf:region ~nbytes:5000 with
    | _ -> false
    | exception Cheri.Fault.Capability_fault f ->
      f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds);
  (* Read path store-checks the buffer before consuming any data. *)
  let ro = Cheri.Capability.and_perms region Cheri.Perms.read_only in
  Alcotest.(check bool) "read into ro buffer traps" true
    (match Ff_api.ff_read ff cfd ~buf:ro ~nbytes:16 with
    | _ -> false
    | exception Cheri.Fault.Capability_fault f ->
      f.Cheri.Fault.kind = Cheri.Fault.Permission_violation)

(* ff_read lands data through one staging buffer per handle: each read
   writes exactly its [n] bytes into the window, never stale bytes of an
   earlier, longer read, clears tags only on the granules it writes, and
   a rogue buffer faults before any byte moves. *)
let ff_read_memory_semantics () =
  let w = make_world () in
  let ff = w.left.nif.Core.Topology.ff in
  let srv = w.right.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Ff_api.ff_socket ff) in
  ignore (Ff_api.ff_connect ff cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  let afd, _, _ = get (Stack.accept srv lfd) in
  let send c n =
    Alcotest.(check int) "sent" n
      (get (Stack.write srv afd ~buf:(Bytes.make n c) ~off:0 ~len:n));
    run_for w (Dsim.Time.ms 5)
  in
  let mem = Core.Topology.node_mem w.left.node in
  let base = 0x3f00000 and nbytes = 256 in
  let region =
    Cheri.Capability.root ~base ~length:4096 ~perms:Cheri.Perms.read_write
  in
  let reset () = Cheri.Tagged_memory.fill mem ~cap:region ~addr:base ~len:nbytes '.' in
  let window () =
    Bytes.to_string (Cheri.Tagged_memory.load_bytes mem ~cap:region ~addr:base ~len:nbytes)
  in
  let expect what filled c =
    Alcotest.(check string) what
      (String.make filled c ^ String.make (nbytes - filled) '.')
      (window ())
  in
  reset ();
  send 'A' 200;
  Alcotest.(check int) "long read" 200 (get (Ff_api.ff_read ff cfd ~buf:region ~nbytes));
  expect "exactly n bytes written" 200 'A';
  reset ();
  send 'B' 40;
  Alcotest.(check int) "short read" 40 (get (Ff_api.ff_read ff cfd ~buf:region ~nbytes));
  expect "no stale staging bytes past n" 40 'B';
  (* Granules [0,16) and [32,48) sit below n = 48; [48,64) starts at n. *)
  reset ();
  List.iter
    (fun off -> Cheri.Tagged_memory.store_cap mem ~cap:region ~addr:(base + off) region)
    [ 0; 32; 48; 64 ];
  send 'C' 48;
  Alcotest.(check int) "tag read" 48 (get (Ff_api.ff_read ff cfd ~buf:region ~nbytes));
  List.iter
    (fun (off, tagged) ->
      Alcotest.(check bool)
        (Printf.sprintf "granule at +%d tagged" off)
        tagged
        (Cheri.Tagged_memory.tag_at mem ~addr:(base + off)))
    [ (0, false); (32, false); (48, true); (64, true) ];
  (* A rogue nbytes: the store check faults with the API-boundary drop
     recorded, before the socket gives up a byte or the window changes. *)
  reset ();
  send 'D' 16;
  let ft = Dsim.Flowtrace.default in
  let was = Dsim.Flowtrace.enabled ft in
  Dsim.Flowtrace.set_enabled ft true;
  Dsim.Flowtrace.clear ft;
  let drops =
    Fun.protect
      ~finally:(fun () ->
        Dsim.Flowtrace.set_enabled ft was;
        Dsim.Flowtrace.clear ft)
      (fun () ->
        Alcotest.(check bool) "rogue nbytes traps" true
          (match Ff_api.ff_read ff cfd ~buf:region ~nbytes:5000 with
          | _ -> false
          | exception Cheri.Fault.Capability_fault f ->
            f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds);
        Dsim.Flowtrace.drop_table ft)
  in
  Alcotest.(check bool) "ff_api drop recorded" true
    (drops = [ ((Dsim.Flowtrace.Ff_api, Dsim.Flowtrace.Capability_fault), 1) ]);
  expect "window untouched by the fault" 0 '.';
  Alcotest.(check int) "pending data still readable" 16
    (get (Ff_api.ff_read ff cfd ~buf:region ~nbytes));
  expect "then delivered" 16 'D'

(* An [nbytes] past [max_int - addr] wraps [addr + nbytes] negative; a
   bounds check that forms the sum would queue memory from outside the
   64-byte measurement buffer. It must trap at the API boundary, with
   the drop recorded and nothing queued. *)
let ff_write_overflowing_nbytes () =
  let mt, fd, buf =
    Core.Measurement.setup_connected ~seed:52L ~mode:`Direct ~write_size:64 ()
  in
  let ff = mt.Core.Scenarios.mt_ff and stack = mt.Core.Scenarios.mt_stack in
  let queued () =
    match Stack.tcp_sock_of_fd stack fd with
    | Some s -> Ring_buf.length s.Socket.cb.Tcp_cb.snd_buf
    | None -> Alcotest.fail "measurement socket vanished"
  in
  let addr = Cheri.Capability.cursor buf in
  let ft = Dsim.Flowtrace.default in
  let was = Dsim.Flowtrace.enabled ft in
  Dsim.Flowtrace.set_enabled ft true;
  Dsim.Flowtrace.clear ft;
  let drops =
    Fun.protect
      ~finally:(fun () ->
        Dsim.Flowtrace.set_enabled ft was;
        Dsim.Flowtrace.clear ft;
        mt.Core.Scenarios.mt_built.Core.Scenarios.stop ())
      (fun () ->
        List.iter
          (fun nbytes ->
            Alcotest.(check bool)
              (Printf.sprintf "nbytes 0x%x traps" nbytes)
              true
              (match Ff_api.ff_write ff fd ~buf ~nbytes with
              | _ -> false
              | exception Cheri.Fault.Capability_fault f ->
                f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds))
          [ max_int; max_int - addr + 1 ];
        Dsim.Flowtrace.drop_table ft)
  in
  Alcotest.(check bool) "ff_api drops recorded" true
    (drops = [ ((Dsim.Flowtrace.Ff_api, Dsim.Flowtrace.Capability_fault), 2) ]);
  Alcotest.(check int) "nothing queued" 0 (queued ())

let loop_accounting () =
  let w = make_world () in
  run_for w (Dsim.Time.ms 5);
  let loops = Stack.loops w.left.nif.Core.Topology.stack in
  Alcotest.(check bool) "loop is polling" true (loops > 10);
  Stack.stop w.left.nif.Core.Topology.stack;
  run_for w (Dsim.Time.ms 5);
  let after = Stack.loops w.left.nif.Core.Topology.stack in
  run_for w (Dsim.Time.ms 5);
  Alcotest.(check int) "stopped loop stays stopped" after
    (Stack.loops w.left.nif.Core.Topology.stack)

let suite =
  [
    Alcotest.test_case "icmp ping over the wire" `Quick ping_works;
    Alcotest.test_case "arp: lazy resolution + caching" `Quick arp_resolution_is_lazy;
    Alcotest.test_case "tcp: connect/accept" `Quick tcp_connect_accept;
    Alcotest.test_case "tcp: 200KB byte-exact stream" `Quick tcp_data_integrity;
    Alcotest.test_case "tcp: connection refused" `Quick tcp_connection_refused;
    Alcotest.test_case "tcp: close and EOF" `Quick tcp_close_and_eof;
    Alcotest.test_case "bind/listen error paths" `Quick bind_errors;
    Alcotest.test_case "listener rejects read/write" `Quick listener_rejects_io;
    Alcotest.test_case "io before connect" `Quick write_before_connect;
    Alcotest.test_case "epoll lifecycle" `Quick epoll_lifecycle;
    Alcotest.test_case "udp roundtrip + EMSGSIZE" `Quick udp_roundtrip;
    Alcotest.test_case "ff_api capability enforcement" `Quick ff_api_capability_checks;
    Alcotest.test_case "ff_read memory semantics" `Quick ff_read_memory_semantics;
    Alcotest.test_case "ff_write overflowing nbytes traps" `Quick
      ff_write_overflowing_nbytes;
    Alcotest.test_case "poll loop accounting" `Quick loop_accounting;
  ]

(* ------------------------------------------------------------------ *)
(* Packet capture                                                       *)
(* ------------------------------------------------------------------ *)

let capture_sees_handshake () =
  let w = make_world () in
  let cap = Capture.create () in
  Stack.set_capture w.left.nif.Core.Topology.stack (Some cap);
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port:5201);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port:5201);
  run_for w (Dsim.Time.ms 20);
  (* ARP exchange + three-way handshake, both visible from the client. *)
  Alcotest.(check bool) "arp request captured" true
    (Capture.matching cap "ARP, arp who-has" <> []);
  Alcotest.(check bool) "SYN captured" true (Capture.matching cap "Flags [S]" <> []);
  Alcotest.(check bool) "SYN-ACK captured" true (Capture.matching cap "Flags [S.]" <> []);
  (* Directions recorded. *)
  let dirs = List.map (fun e -> e.Capture.dir) (Capture.entries cap) in
  Alcotest.(check bool) "both directions" true
    (List.mem Capture.Rx dirs && List.mem Capture.Tx dirs);
  (* Detach: no further recording. *)
  let n = Capture.count cap in
  Stack.set_capture cli None;
  Stack.ping cli ~ip:ip_right ~ident:9 ~seq:9 ~payload:Bytes.empty;
  run_for w (Dsim.Time.ms 5);
  Alcotest.(check int) "detached capture frozen" n (Capture.count cap)

let capture_summaries () =
  let w = make_world () in
  let cap = Capture.create () in
  Stack.set_capture w.left.nif.Core.Topology.stack (Some cap);
  Stack.ping w.left.nif.Core.Topology.stack ~ip:ip_right ~ident:3 ~seq:1
    ~payload:(Bytes.of_string "x");
  let l = w.left.nif.Core.Topology.stack in
  let ufd = get (Stack.udp_socket l) in
  ignore (Stack.udp_sendto l ufd ~ip:ip_right ~port:5353 ~buf:(Bytes.of_string "mdns?"));
  run_for w (Dsim.Time.ms 10);
  Alcotest.(check bool) "icmp summary" true
    (Capture.matching cap "ICMP echo-request" <> []);
  Alcotest.(check bool) "udp summary" true
    (Capture.matching cap "UDP, length 5" <> []);
  (* Never raises on garbage. *)
  Alcotest.(check bool) "garbage is summarized, not crashed" true
    (String.length (Capture.summarize (Bytes.make 3 '\xFF')) > 0)

let capture_limit () =
  let cap = Capture.create ~limit:2 () in
  for i = 1 to 5 do
    Capture.record cap ~at:(Dsim.Time.ns i) Capture.Rx (Bytes.create 20)
  done;
  Alcotest.(check int) "all counted" 5 (Capture.count cap);
  Alcotest.(check int) "only limit stored" 2 (List.length (Capture.entries cap));
  Capture.clear cap;
  Alcotest.(check int) "cleared" 0 (Capture.count cap)


let suite =
  suite
  @ [
      Alcotest.test_case "capture: handshake visible" `Quick capture_sees_handshake;
      Alcotest.test_case "capture: protocol summaries" `Quick capture_summaries;
      Alcotest.test_case "capture: bounded storage" `Quick capture_limit;
    ]

(* ------------------------------------------------------------------ *)
(* Teardown corner cases                                                *)
(* ------------------------------------------------------------------ *)

(* A connection between the two stacks: [(cli, cfd, srv, afd)], the
   client on the left, the accepted socket on the right. *)
let connected_pair w ~port =
  let srv = w.right.nif.Core.Topology.stack in
  let cli = w.left.nif.Core.Topology.stack in
  let lfd = get (Stack.socket_stream srv) in
  get (Stack.bind srv lfd ~port);
  get (Stack.listen srv lfd ~backlog:4);
  let cfd = get (Stack.socket_stream cli) in
  ignore (Stack.connect cli cfd ~ip:ip_right ~port);
  run_for w (Dsim.Time.ms 20);
  let afd, _, _ = get (Stack.accept srv lfd) in
  (cli, cfd, srv, afd)

let tcp_state stack fd =
  match Stack.tcp_sock_of_fd stack fd with
  | Some s -> s.Socket.cb
  | None -> Alcotest.failf "fd %d is not a TCP socket" fd

(* As much as a sender can be sure to put into the peer's untouched
   receive buffer: the window is advertised in 16-byte units (scale 4),
   so the last 15 bytes of the buffer are never offered, and once these
   bytes are in, the advertised window is zero. *)
let fill_bytes = Tcp_cb.default_config.Tcp_cb.rcv_buf_size - 15

(* Write [total] bytes from [cli]'s [cfd], running the engine while the
   send buffer is full; the receiver does not read. *)
let write_unread w cli cfd ~total =
  let chunk = Bytes.make 8192 'u' in
  let sent = ref 0 in
  while !sent < total do
    (match Stack.write cli cfd ~buf:chunk ~off:0 ~len:(min 8192 (total - !sent)) with
    | Ok n -> sent := !sent + n
    | Error Errno.EAGAIN -> run_for w (Dsim.Time.ms 1)
    | Error e -> Alcotest.failf "write: %s" (Errno.to_string e))
  done;
  run_for w (Dsim.Time.ms 10)

(* Closing a socket with unread data aborts the connection (RFC 9293
   §3.6.1, RFC 2525 §2.17): an RST instead of a FIN, so neither end is
   left behind a zero window that nothing reopens. *)
let tcp_close_with_unread_data_resets () =
  let w = make_world () in
  let cli, cfd, srv, afd = connected_pair w ~port:5301 in
  let cap = Capture.create () in
  Stack.set_capture srv (Some cap);
  write_unread w cli cfd ~total:fill_bytes;
  let reader = tcp_state srv afd and writer = tcp_state cli cfd in
  Alcotest.(check int) "256 KB unread" fill_bytes (Tcp_cb.readable_bytes reader);
  let live = Stack.live_sockets srv in
  get (Stack.close srv afd);
  Alcotest.(check bool) "reader CLOSED at once" true
    (reader.Tcp_cb.state = Tcp_cb.Closed);
  Alcotest.(check bool) "fd released" true (Stack.tcp_sock_of_fd srv afd = None);
  Alcotest.(check int) "one socket fewer" (live - 1) (Stack.live_sockets srv);
  Alcotest.(check bool) "RST sent" true (Capture.matching cap "Flags [R.]" <> []);
  Alcotest.(check bool) "no FIN sent" true (Capture.matching cap "Flags [F" = []);
  run_for w (Dsim.Time.ms 5);
  Alcotest.(check bool) "writer CLOSED" true (writer.Tcp_cb.state = Tcp_cb.Closed);
  expect_err Errno.ECONNRESET
    (Stack.write cli cfd ~buf:(Bytes.make 1 'x') ~off:0 ~len:1)

(* A FIN queued behind a zero window with nothing in flight arms the
   persist timer, and the probe it sends is the FIN itself: a receiver
   that drains its buffer without sending a window update still gets
   the FIN within one persist interval, and both ends finish. *)
let tcp_fin_behind_zero_window () =
  let w = make_world () in
  let cli, cfd, srv, afd = connected_pair w ~port:5302 in
  write_unread w cli cfd ~total:fill_bytes;
  let reader = tcp_state srv afd and writer = tcp_state cli cfd in
  Alcotest.(check int) "receive buffer full" fill_bytes (Tcp_cb.readable_bytes reader);
  Alcotest.(check int) "zero window" 0 writer.Tcp_cb.snd_wnd;
  Alcotest.(check int) "nothing in flight" 0 (Tcp_cb.flight_size writer);
  get (Stack.close cli cfd);
  Alcotest.(check bool) "FIN held by the window" false writer.Tcp_cb.fin_sent;
  (* The reader drains everything and sends nothing. *)
  let tx_before = (Stack.counters srv).Stack.tx_frames in
  let buf = Bytes.create 65536 in
  let rec drain n =
    match Stack.read srv afd ~buf ~off:0 ~len:65536 with
    | Ok k -> drain (n + k)
    | Error Errno.EAGAIN -> n
    | Error e -> Alcotest.failf "read: %s" (Errno.to_string e)
  in
  Alcotest.(check int) "drained" fill_bytes (drain 0);
  Alcotest.(check int) "no window update" tx_before
    (Stack.counters srv).Stack.tx_frames;
  run_for w (Dsim.Time.add writer.Tcp_cb.rto (Dsim.Time.us 100));
  Alcotest.(check bool) "FIN arrived within one persist interval" true
    reader.Tcp_cb.fin_received;
  get (Stack.close srv afd);
  run_for w (Dsim.Time.ms 200);
  Alcotest.(check bool) "reader CLOSED" true (reader.Tcp_cb.state = Tcp_cb.Closed);
  Alcotest.(check bool) "writer CLOSED" true (writer.Tcp_cb.state = Tcp_cb.Closed);
  Alcotest.(check bool) "both fds released" true
    (Stack.tcp_sock_of_fd cli cfd = None && Stack.tcp_sock_of_fd srv afd = None)

let suite =
  suite
  @ [
      Alcotest.test_case "tcp: close with unread data sends RST" `Quick
        tcp_close_with_unread_data_resets;
      Alcotest.test_case "tcp: FIN behind a zero window is probed" `Quick
        tcp_fin_behind_zero_window;
    ]
