(* Fleet tenancy observatory: the Jain index, the Tenancy rollup
   engine (arithmetic, trace ingestion, telescoping decomposition,
   drop attribution), determinism of the full fleet run, and the
   stack-level scaling fixes the fleet leans on (port index, epoll
   ready lists, the TIME_WAIT queue). *)

open Netstack

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Jain's fairness index                                                *)
(* ------------------------------------------------------------------ *)

let jain_vectors () =
  feq "empty allocation is fair" 1.0 (Dsim.Tenancy.jain []);
  feq "all-zero allocation is fair" 1.0 (Dsim.Tenancy.jain [ 0.; 0.; 0. ]);
  feq "uniform allocation is fair" 1.0 (Dsim.Tenancy.jain [ 5.; 5.; 5.; 5. ]);
  feq "one-hot collapses to 1/n" 0.25 (Dsim.Tenancy.jain [ 9.; 0.; 0.; 0. ]);
  (* (1+2+3)^2 / (3 * (1+4+9)) = 36/42 *)
  feq "known mixed vector" (36. /. 42.) (Dsim.Tenancy.jain [ 1.; 2.; 3. ]);
  (* Scale invariance. *)
  feq "scale invariant"
    (Dsim.Tenancy.jain [ 1.; 2.; 3. ])
    (Dsim.Tenancy.jain [ 10.; 20.; 30. ])

(* ------------------------------------------------------------------ *)
(* Rollup arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let rollup_arithmetic () =
  let t = Dsim.Tenancy.create () in
  (* Two tenants, deliberately registered out of name order. *)
  Dsim.Tenancy.note_flow t ~tenant:"t001" ~bytes:1000 ~fct_ns:2000.;
  Dsim.Tenancy.note_flow t ~tenant:"t000" ~bytes:3000 ~fct_ns:1000.;
  Dsim.Tenancy.note_flow t ~tenant:"t000" ~bytes:1000 ~fct_ns:3000.;
  Dsim.Tenancy.note_packets t ~tenant:"t000" 10;
  Dsim.Tenancy.note_crossings t ~tenant:"t000" 25;
  let rollups = Dsim.Tenancy.rollup t ~duration_ns:1.0e6 in
  Alcotest.(check int) "one row per tenant" 2 (List.length rollups);
  let r0 = List.nth rollups 0 and r1 = List.nth rollups 1 in
  Alcotest.(check string) "sorted by name" "t000" r0.Dsim.Tenancy.r_tenant;
  Alcotest.(check string) "sorted by name" "t001" r1.Dsim.Tenancy.r_tenant;
  Alcotest.(check int) "flows" 2 r0.Dsim.Tenancy.r_flows;
  Alcotest.(check int) "bytes" 4000 r0.Dsim.Tenancy.r_bytes;
  (* 4000 B over 1 ms = 32 Mbit/s. *)
  feq "goodput" 32.0 r0.Dsim.Tenancy.r_goodput_mbit;
  feq "crossings/packet" 2.5 r0.Dsim.Tenancy.r_crossings_per_packet;
  feq "no packets, no ratio" 0.0 r1.Dsim.Tenancy.r_crossings_per_packet;
  Alcotest.(check bool) "p50 within observed fct" true
    (r0.Dsim.Tenancy.r_fct_p50_ns >= 1000.
    && r0.Dsim.Tenancy.r_fct_p50_ns <= 3000.)

(* ------------------------------------------------------------------ *)
(* Trace ingestion: telescoping and attribution                         *)
(* ------------------------------------------------------------------ *)

let ingest_telescoping () =
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:1 () in
  let trace ~flow ~hops_ns =
    let ctx =
      Dsim.Flowtrace.origin ft ~at:Dsim.Time.zero ~flow Dsim.Flowtrace.App
    in
    List.iter
      (fun (stage, at_ns) ->
        Dsim.Flowtrace.hop ctx stage ~at:(Dsim.Time.of_float_ns at_ns))
      hops_ns;
    ctx
  in
  ignore
    (trace ~flow:"t000"
       ~hops_ns:
         [ (Dsim.Flowtrace.Tramp_in, 100.); (Dsim.Flowtrace.Tramp_out, 300.) ]);
  ignore
    (trace ~flow:"t000"
       ~hops_ns:
         [ (Dsim.Flowtrace.Tramp_in, 40.); (Dsim.Flowtrace.Tramp_out, 140.) ]);
  ignore
    (trace ~flow:"mystery"
       ~hops_ns:[ (Dsim.Flowtrace.Tramp_in, 10.) ]);
  Dsim.Flowtrace.drop ft Dsim.Flowtrace.Tcp_in Dsim.Flowtrace.Dup_segment;
  let t = Dsim.Tenancy.create () in
  let tenant_of = function "t000" -> Some "t000" | _ -> None in
  Dsim.Tenancy.ingest t ~tenant_of ft;
  Alcotest.(check int) "unattributed counted, not lost" 1
    (Dsim.Tenancy.unattributed_traces t);
  Alcotest.(check int) "drops carried over" 1 (Dsim.Tenancy.dropped_frames t);
  Alcotest.(check int) "drops fully attributed" 1
    (Dsim.Tenancy.attributed_drops t);
  (match Dsim.Tenancy.drop_table t with
  | [ ("tcp_in", "dup_segment", 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected drop table (%d rows)" (List.length other));
  match Dsim.Tenancy.rollup t ~duration_ns:1.0e6 with
  | [ r ] ->
    Alcotest.(check int) "two sampled traces" 2 r.Dsim.Tenancy.r_traces;
    (* The origin hop anchors each trace at t=0, so the e2e means are
       (300 + 140)/2 = 220; the per-stage means must telescope to that
       exactly — the identity behind the fleet's stage-telescoping SLO
       gate. *)
    feq "e2e mean" 220. r.Dsim.Tenancy.r_e2e_mean_ns;
    feq "stage means telescope to e2e" r.Dsim.Tenancy.r_e2e_mean_ns
      r.Dsim.Tenancy.r_stage_mean_sum_ns
  | rs -> Alcotest.failf "expected one rollup, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* The fleet run                                                        *)
(* ------------------------------------------------------------------ *)

let tiny =
  {
    Core.Fleet.quick with
    Core.Fleet.p_name = "tiny";
    p_tenants = 8;
    p_duration = Dsim.Time.ms 40;
  }

let fleet_deterministic () =
  let a = Core.Fleet.run ~profile:tiny ~seed:42L () in
  let b = Core.Fleet.run ~profile:tiny ~seed:42L () in
  Alcotest.(check string) "text byte-identical across runs"
    a.Core.Fleet.r_text b.Core.Fleet.r_text;
  Alcotest.(check string) "json byte-identical across runs"
    (Dsim.Json.to_string a.Core.Fleet.r_json)
    (Dsim.Json.to_string b.Core.Fleet.r_json);
  (* Two equal runs can still both drift: pin the bytes themselves. *)
  Golden_file.check "fleet.tiny.seed42.txt" a.Core.Fleet.r_text;
  Golden_file.check "fleet.tiny.seed42.json"
    (Dsim.Json.to_string a.Core.Fleet.r_json);
  let c = Core.Fleet.run ~profile:tiny ~seed:7L () in
  Alcotest.(check bool) "seed steers the workload" false
    (String.equal a.Core.Fleet.r_text c.Core.Fleet.r_text)

let fleet_gates_pass () =
  let r = Core.Fleet.run ~profile:tiny ~seed:42L () in
  Alcotest.(check bool) "flows completed" true (r.Core.Fleet.r_flows > 0);
  Alcotest.(check int) "no failed flows" 0 r.Core.Fleet.r_failed;
  Alcotest.(check int) "one rollup per tenant" 8
    (List.length r.Core.Fleet.r_rollups);
  List.iter
    (fun (gate, ok, detail) ->
      Alcotest.(check bool) (gate ^ ": " ^ detail) true ok)
    r.Core.Fleet.r_gates;
  Alcotest.(check bool) "verdict" true r.Core.Fleet.r_pass;
  (* Every tenant crossed into the stack compartment and was billed. *)
  List.iter
    (fun ru ->
      Alcotest.(check bool)
        (ru.Dsim.Tenancy.r_tenant ^ " billed crossings")
        true
        (ru.Dsim.Tenancy.r_crossings > 0))
    r.Core.Fleet.r_rollups

(* The CLI's `fleet --quick` run (64 tenants, seed 42): byte-identical
   text and JSON across two runs in one process, and exactly its four
   SLO gates, all passing. *)
let fleet_quick_gates () =
  let a = Core.Fleet.run ~profile:Core.Fleet.quick ~seed:42L () in
  let b = Core.Fleet.run ~profile:Core.Fleet.quick ~seed:42L () in
  Alcotest.(check string) "text byte-identical across runs"
    a.Core.Fleet.r_text b.Core.Fleet.r_text;
  Alcotest.(check string) "json byte-identical across runs"
    (Dsim.Json.to_string a.Core.Fleet.r_json)
    (Dsim.Json.to_string b.Core.Fleet.r_json);
  Alcotest.(check (list string)) "the four SLO gates"
    [ "jain-fairness"; "fct-p99.9"; "drop-attribution"; "stage-telescoping" ]
    (List.map (fun (gate, _, _) -> gate) a.Core.Fleet.r_gates);
  List.iter
    (fun (gate, ok, detail) ->
      Alcotest.(check bool) (gate ^ ": " ^ detail) true ok)
    a.Core.Fleet.r_gates;
  Alcotest.(check bool) "verdict" true a.Core.Fleet.r_pass

let fleet_restores_tracing () =
  let ft = Dsim.Flowtrace.default in
  (* The suite runs with default tracing off; a fleet run borrows the
     default registry and must put every knob back, or the Fig. 4/Table
     II goldens regenerated later in the binary's lifetime would see
     sampling they did not ask for. *)
  Alcotest.(check bool) "precondition: default tracing off" false
    (Dsim.Flowtrace.enabled ft);
  let before_sample = Dsim.Flowtrace.sample_every ft in
  ignore (Core.Fleet.run ~profile:tiny ~seed:42L ());
  Alcotest.(check bool) "tracing restored to off" false
    (Dsim.Flowtrace.enabled ft);
  Alcotest.(check int) "sampling period restored" before_sample
    (Dsim.Flowtrace.sample_every ft);
  Alcotest.(check int) "no traces left behind" 0
    (List.length (Dsim.Flowtrace.traces ft))

(* ------------------------------------------------------------------ *)
(* Stack-level churn mechanics the fleet depends on                     *)
(* ------------------------------------------------------------------ *)

let ip_left = Ipv4_addr.make 192 168 9 1
let ip_right = Ipv4_addr.make 192 168 9 2

let make_world () =
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
    let region =
      Capvm.Cvm.sub_region cvm ~size:Core.Topology.default_netif_region_size
    in
    Core.Topology.make_netif node ~region ~port_idx:0 ~ip
      ~stack_tuning:(fun c -> { c with Stack.rng_seed = seed })
      ()
  in
  let left = netif left_node ip_left 1L in
  let right = netif right_node ip_right 2L in
  Stack.start left.Core.Topology.stack;
  Stack.start right.Core.Topology.stack;
  (engine, left.Core.Topology.stack, right.Core.Topology.stack)

let run_for engine d =
  Dsim.Engine.run engine ~until:(Dsim.Time.add (Dsim.Engine.now engine) d)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let connect_to stack fd ~port =
  match Stack.connect stack fd ~ip:ip_left ~port with
  | Ok () | Error Errno.EINPROGRESS -> ()
  | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e)

(* The fds [epoll_wait] reports, each with whether it carries [flag]. *)
let reported stack ~epfd flag =
  List.map
    (fun (fd, ev) -> (fd, Epoll.has ev flag))
    (get (Stack.epoll_wait stack ~epfd ~max:512))

let fd_flags = Alcotest.(list (pair int bool))

(* A farm of listeners: the port index must answer port_in_use without
   scanning every socket, bind collisions must still be detected, and
   one epoll instance over hundreds of registrations must report
   exactly the ready fd. Every readiness change the stack makes reaches
   the epoll ready lists: an accept, data to read, send space freed by
   ACKs, the peer's FIN, a close, an RST and an RTO give-up. *)
let listener_farm () =
  let engine, left, right = make_world () in
  let n = 200 in
  let epfd = get (Stack.epoll_create left) in
  for i = 0 to n - 1 do
    let fd = get (Stack.socket_stream left) in
    get (Stack.bind left fd ~port:(6000 + i));
    get (Stack.listen left fd ~backlog:4);
    get (Stack.epoll_ctl left ~epfd ~op:`Add ~fd Epoll.epollin)
  done;
  (* Collision on a bound port is still caught. *)
  let dup = get (Stack.socket_stream left) in
  (match Stack.bind left dup ~port:6123 with
  | Error Errno.EADDRINUSE -> ()
  | Ok () -> Alcotest.fail "duplicate bind accepted"
  | Error e -> Alcotest.failf "expected EADDRINUSE, got %s" (Errno.to_string e));
  get (Stack.close left dup);
  (* Idle farm: nothing ready. *)
  Alcotest.(check int) "idle farm reports nothing" 0
    (List.length (get (Stack.epoll_wait left ~epfd ~max:512)));
  (* One connection lands on one port; exactly one fd becomes ready. *)
  let cfd = get (Stack.socket_stream right) in
  (match Stack.connect right cfd ~ip:ip_left ~port:6123 with
  | Ok () | Error Errno.EINPROGRESS -> ()
  | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  run_for engine (Dsim.Time.ms 50);
  let lfd =
    match get (Stack.epoll_wait left ~epfd ~max:512) with
    | [ (lfd, ev) ] ->
      Alcotest.(check bool) "the one ready fd is readable" true
        (Epoll.has ev Epoll.epollin);
      lfd
    | evs -> Alcotest.failf "expected one ready fd, got %d" (List.length evs)
  in
  let afd, _, _ = get (Stack.accept left lfd) in
  Alcotest.check fd_flags "accepted: listener idle again" []
    (reported left ~epfd Epoll.epollin);
  get (Stack.epoll_ctl left ~epfd ~op:`Add ~fd:afd Epoll.epollin);
  Alcotest.check fd_flags "fresh connection idle" []
    (reported left ~epfd Epoll.epollin);
  (* Read: the peer's bytes make it readable, draining them does not. *)
  let msg = Bytes.of_string "hello" in
  ignore (get (Stack.write right cfd ~buf:msg ~off:0 ~len:5));
  run_for engine (Dsim.Time.ms 5);
  Alcotest.check fd_flags "data readable" [ (afd, true) ]
    (reported left ~epfd Epoll.epollin);
  let buf = Bytes.create 4096 in
  Alcotest.(check int) "read it" 5
    (get (Stack.read left afd ~buf ~off:0 ~len:4096));
  Alcotest.check fd_flags "drained" [] (reported left ~epfd Epoll.epollin);
  (* Write: a full send buffer is not writable until ACKs free it. *)
  get (Stack.epoll_ctl left ~epfd ~op:`Mod ~fd:afd Epoll.epollout);
  Alcotest.check fd_flags "writable" [ (afd, true) ]
    (reported left ~epfd Epoll.epollout);
  let rec fill () =
    match Stack.write left afd ~buf ~off:0 ~len:4096 with
    | Ok _ -> fill ()
    | Error Errno.EAGAIN -> ()
    | Error e -> Alcotest.failf "write: %s" (Errno.to_string e)
  in
  fill ();
  Alcotest.check fd_flags "send buffer full" []
    (reported left ~epfd Epoll.epollout);
  run_for engine (Dsim.Time.ms 5);
  Alcotest.check fd_flags "ACKs free the buffer" [ (afd, true) ]
    (reported left ~epfd Epoll.epollout);
  (* The peer reads it all, to EAGAIN with nothing more in flight, so
     its close below is a FIN: a close with unread data would be an
     RST. *)
  let rec drain_peer ~settled =
    match Stack.read right cfd ~buf ~off:0 ~len:4096 with
    | Ok _ -> drain_peer ~settled:false
    | Error Errno.EAGAIN ->
      if not settled then begin
        run_for engine (Dsim.Time.us 200);
        drain_peer ~settled:true
      end
    | Error e -> Alcotest.failf "peer read: %s" (Errno.to_string e)
  in
  drain_peer ~settled:false;
  (* Peer FIN: EOF reads as IN|HUP. *)
  get (Stack.epoll_ctl left ~epfd ~op:`Mod ~fd:afd Epoll.epollin);
  Alcotest.check fd_flags "idle for IN" [] (reported left ~epfd Epoll.epollin);
  get (Stack.close right cfd);
  run_for engine (Dsim.Time.ms 5);
  Alcotest.check fd_flags "peer FIN" [ (afd, true) ]
    (reported left ~epfd Epoll.epollhup);
  (* Close: the registration goes when the socket is released. *)
  get (Stack.close left afd);
  run_for engine (Dsim.Time.ms 5);
  Alcotest.(check (option int)) "closed fd unregistered" None
    (Option.map (fun _ -> 0)
       (List.assoc_opt afd (get (Stack.epoll_wait left ~epfd ~max:512))));
  Alcotest.check fd_flags "farm idle after the close" []
    (reported left ~epfd Epoll.epollin);
  (* RST: a SYN to a port nobody listens on is refused. *)
  let repfd = get (Stack.epoll_create right) in
  let rfd = get (Stack.socket_stream right) in
  get (Stack.epoll_ctl right ~epfd:repfd ~op:`Add ~fd:rfd Epoll.epollout);
  connect_to right rfd ~port:5999;
  Alcotest.check fd_flags "connecting" [] (reported right ~epfd:repfd Epoll.epollerr);
  run_for engine (Dsim.Time.ms 5);
  Alcotest.check fd_flags "refused by RST" [ (rfd, true) ]
    (reported right ~epfd:repfd Epoll.epollerr);
  get (Stack.close right rfd);
  (* RTO give-up: the peer stops answering while data is in flight. *)
  let gfd = get (Stack.socket_stream right) in
  connect_to right gfd ~port:6007;
  run_for engine (Dsim.Time.ms 5);
  get (Stack.epoll_ctl right ~epfd:repfd ~op:`Add ~fd:gfd Epoll.epollin);
  Alcotest.check fd_flags "established, idle" []
    (reported right ~epfd:repfd Epoll.epollerr);
  Stack.stop left;
  ignore (get (Stack.write right gfd ~buf:msg ~off:0 ~len:5));
  run_for engine (Dsim.Time.sec 2);
  Alcotest.check fd_flags "retransmissions given up" [ (gfd, true) ]
    (reported right ~epfd:repfd Epoll.epollerr)

(* Ephemeral allocation under churn: closed-and-released ports must be
   reusable and fresh connections must keep finding free ports. *)
let ephemeral_churn () =
  let engine, left, right = make_world () in
  let lfd = get (Stack.socket_stream left) in
  get (Stack.bind left lfd ~port:7000);
  get (Stack.listen left lfd ~backlog:64);
  for _round = 1 to 3 do
    let fds =
      List.init 40 (fun _ ->
          let fd = get (Stack.socket_stream right) in
          (match Stack.connect right fd ~ip:ip_left ~port:7000 with
          | Ok () | Error Errno.EINPROGRESS -> ()
          | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
          fd)
    in
    run_for engine (Dsim.Time.ms 60);
    (* Server side drains its accept queue and closes; client side
       closes too — both directions of FIN flow, then TIME_WAIT
       (50 ms) expires and ports recycle. *)
    let rec drain () =
      match Stack.accept left lfd with
      | Ok (afd, _, _) ->
        get (Stack.close left afd);
        drain ()
      | Error _ -> ()
    in
    drain ();
    List.iter (fun fd -> get (Stack.close right fd)) fds;
    run_for engine (Dsim.Time.ms 150)
  done;
  Alcotest.(check bool) "client sockets drained after churn" true
    (Stack.live_sockets right <= 2);
  Alcotest.(check bool) "server sockets drained after churn" true
    (Stack.live_sockets left <= 2)

(* The TIME_WAIT queue under the armed-set walk: a 2MSL expiry far in
   the future must still fire when the socket waits outside the armed
   set through thousands of ticks. *)
let time_wait_expires () =
  let engine, left, right = make_world () in
  let lfd = get (Stack.socket_stream left) in
  get (Stack.bind left lfd ~port:7100);
  get (Stack.listen left lfd ~backlog:4);
  let cfd = get (Stack.socket_stream right) in
  (match Stack.connect right cfd ~ip:ip_left ~port:7100 with
  | Ok () | Error Errno.EINPROGRESS -> ()
  | Error e -> Alcotest.failf "connect: %s" (Errno.to_string e));
  run_for engine (Dsim.Time.ms 40);
  let afd, _, _ = get (Stack.accept left lfd) in
  let live_before = Stack.live_sockets right in
  (* Active close on the right, passive close on the left: the right
     socket enters TIME_WAIT and is held there... *)
  get (Stack.close right cfd);
  run_for engine (Dsim.Time.ms 5);
  get (Stack.close left afd);
  run_for engine (Dsim.Time.ms 10);
  Alcotest.(check bool) "socket held during TIME_WAIT" true
    (Stack.live_sockets right >= live_before);
  (* ...until the 50 ms armed timer fires and reclaims it. *)
  run_for engine (Dsim.Time.ms 200);
  Alcotest.(check bool) "TIME_WAIT timer fired and reclaimed" true
    (Stack.live_sockets right < live_before)

(* TIME_WAIT sockets cost nothing until they expire: with 300 of them
   on one otherwise idle stack, a loop iteration allocates next to
   nothing (a pass over each of them would cons and sort all 300), and
   2MSL still reclaims every one. *)
let time_wait_costs_nothing () =
  let engine, left, right = make_world () in
  let n = 300 in
  let lfd = get (Stack.socket_stream left) in
  get (Stack.bind left lfd ~port:7200);
  get (Stack.listen left lfd ~backlog:n);
  (* Batches of 10 stay inside the ARP queue while the first resolves. *)
  let cfds =
    List.concat
      (List.init (n / 10) (fun _ ->
           let batch =
             List.init 10 (fun _ ->
                 let fd = get (Stack.socket_stream right) in
                 connect_to right fd ~port:7200;
                 fd)
           in
           run_for engine (Dsim.Time.ms 1);
           batch))
  in
  run_for engine (Dsim.Time.ms 30);
  let rec accept_all acc =
    match Stack.accept left lfd with
    | Ok (afd, _, _) -> accept_all (afd :: acc)
    | Error _ -> acc
  in
  let afds = accept_all [] in
  Alcotest.(check int) "all accepted" n (List.length afds);
  (* Active close on the right: its sockets end in TIME_WAIT. A loop
     iteration takes 32 frames, so each burst of 300 FINs needs a few
     milliseconds to drain. *)
  List.iter (fun fd -> get (Stack.close right fd)) cfds;
  run_for engine (Dsim.Time.ms 20);
  List.iter (fun fd -> get (Stack.close left fd)) afds;
  run_for engine (Dsim.Time.ms 20);
  let in_time_wait () =
    List.length
      (List.filter
         (fun fd ->
           match Stack.tcp_sock_of_fd right fd with
           | Some s -> s.Socket.cb.Tcp_cb.state = Tcp_cb.Time_wait
           | None -> false)
         cfds)
  in
  Alcotest.(check int) "all in TIME_WAIT" n (in_time_wait ());
  let base =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let words = ref 0. in
  for _ = 1 to 10 do
    let a = Gc.minor_words () in
    ignore (Stack.loop_once right);
    words := !words +. (Gc.minor_words () -. a -. base)
  done;
  (* About 30 words an iteration, none of them per socket; consing the
     300 sockets alone would take 900. *)
  let budget = 10. *. 64. in
  if !words > budget then
    Alcotest.failf "10 idle loop iterations allocated %.0f minor words (budget %.0f)"
      !words budget;
  (* Each goes at its own 2MSL deadline, within one idle loop gap. *)
  let deadlines =
    List.filter_map
      (fun fd ->
        Option.bind (Stack.tcp_sock_of_fd right fd) (fun s ->
            s.Socket.cb.Tcp_cb.time_wait_deadline))
      cfds
  in
  let first = List.fold_left Dsim.Time.min max_int deadlines
  and last = List.fold_left Dsim.Time.max Dsim.Time.zero deadlines in
  Dsim.Engine.run engine ~until:(Dsim.Time.sub first (Dsim.Time.ns 1));
  Alcotest.(check int) "held until the first deadline" n (in_time_wait ());
  Dsim.Engine.run engine ~until:(Dsim.Time.add last (Dsim.Time.us 20));
  Alcotest.(check int) "2MSL reclaimed every one" 0 (in_time_wait ());
  Alcotest.(check int) "sockets released" 0 (Stack.live_sockets right)

let suite =
  [
    Alcotest.test_case "jain fairness vectors" `Quick jain_vectors;
    Alcotest.test_case "rollup arithmetic" `Quick rollup_arithmetic;
    Alcotest.test_case "ingest: telescoping + attribution" `Quick
      ingest_telescoping;
    Alcotest.test_case "fleet run is deterministic" `Quick fleet_deterministic;
    Alcotest.test_case "fleet SLO gates pass" `Quick fleet_gates_pass;
    Alcotest.test_case "fleet --quick: deterministic, four gates pass" `Slow
      fleet_quick_gates;
    Alcotest.test_case "fleet restores default tracing" `Quick
      fleet_restores_tracing;
    Alcotest.test_case "listener farm: port index + epoll cache" `Quick
      listener_farm;
    Alcotest.test_case "ephemeral churn recycles ports" `Quick ephemeral_churn;
    Alcotest.test_case "TIME_WAIT expiry via armed timers" `Quick
      time_wait_expires;
    Alcotest.test_case "TIME_WAIT sockets cost nothing until they expire"
      `Quick time_wait_costs_nothing;
  ]
