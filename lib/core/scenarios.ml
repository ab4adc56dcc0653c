type direction = Dut_receives | Dut_sends

type flow = { label : string; take_bytes : unit -> int }

type built = {
  engine : Dsim.Engine.t;
  dut : Topology.node;
  peer : Topology.node;
  flows : flow list;
  mutex : Capvm.Umtx.t option;
  links : Nic.Link.t list;
  dut_netifs : Topology.netif list;
  app_cvms : Capvm.Cvm.t list;
  stop : unit -> unit;
}

let app_buffer_size = 128 * 1024
let cvm_size = 12 * 1024 * 1024
let iperf_port = 5201

let ip_dut subnet = Netstack.Ipv4_addr.make 10 0 subnet 1
let ip_peer subnet = Netstack.Ipv4_addr.make 10 0 subnet 2

(* One cVM hosting a full network stack on [port_idx]. *)
let cvm_netif node ~name ~port_idx ~ip ?stack_tuning () =
  let cvm =
    Capvm.Intravisor.create_cvm (Topology.intravisor node) ~name ~size:cvm_size
  in
  let region = Capvm.Cvm.sub_region cvm ~size:Topology.default_netif_region_size in
  let nif = Topology.make_netif node ~region ~port_idx ~ip ?stack_tuning () in
  (cvm, nif)

let app_buf cvm mem = Capvm.Cvm.calloc cvm mem app_buffer_size

let seed_plus seed i = Int64.add seed (Int64.of_int i)

(* Supervised replacement for [Stack.start]: the same loop, but every
   iteration enters the cVM through the supervisor's trap boundary, so a
   capability fault raised anywhere inside it (frame processing, TCP
   machinery, the application hook) quarantines that cVM while the rest
   of the topology keeps running. While the cVM is down the driver polls
   its state; it resumes looping on recovery and dies with the cVM.
   Uses a constant gap (no idle backoff): supervised runs are the chaos
   runs, where calibrated idle behaviour is not at stake. *)
let supervised_stack_loop sup ~cvm ~running stack =
  let engine = Netstack.Stack.engine stack in
  let gap = (Netstack.Stack.config stack).Netstack.Stack.loop_gap in
  let down_poll = Dsim.Time.us 20 in
  let cvm_name = Capvm.Cvm.name cvm in
  let k_loop =
    Dsim.Profile.(key default) ~component:"netstack" ~cvm:cvm_name ~stage:"loop"
  in
  let k_poll =
    Dsim.Profile.(key default) ~component:"netstack" ~cvm:cvm_name
      ~stage:"down_poll"
  in
  Capvm.Supervisor.register sup cvm;
  let rec iter () =
    if !running then
      match Capvm.Supervisor.state sup ~cvm with
      | Capvm.Supervisor.Dead -> ()
      | Capvm.Supervisor.Running -> (
        match
          Capvm.Supervisor.run sup ~cvm (fun () ->
              Netstack.Stack.loop_once stack)
        with
        | Capvm.Supervisor.Done work_ns ->
          ignore
            (Dsim.Engine.schedule_l engine
               ~delay:(Dsim.Time.add (Dsim.Time.of_float_ns work_ns) gap)
               ~label:k_loop iter)
        | Capvm.Supervisor.Faulted _ | Capvm.Supervisor.Refused _ ->
          ignore (Dsim.Engine.schedule_l engine ~delay:down_poll ~label:k_poll iter))
      | _ ->
        ignore (Dsim.Engine.schedule_l engine ~delay:down_poll ~label:k_poll iter)
  in
  iter ()

(* --------------------------------------------------------------- *)
(* Dual-port: Baseline (two processes) and Scenario 1               *)
(* --------------------------------------------------------------- *)

let build_dual_port ?(cheri = true) ?(seed = 42L) ?supervise ?app_hook
    ~direction () =
  (* The bandwidth data path is identical with and without CHERI — the
     paper's Table II shows exactly that (Baseline and Scenario 1 rows
     match) — so [cheri] only affects the latency harness, not this
     topology. *)
  ignore cheri;
  let engine = Dsim.Engine.create () in
  let supervise = Option.map (fun f -> f engine) supervise in
  let dut = Topology.make_node engine ~name:"morello" ~ports:2 () in
  let peer =
    Topology.make_node engine ~name:"loadgen" ~generous_pci:true ~ports:2 ()
  in
  let running = ref true in
  let flows = ref [] and stoppers = ref [] in
  let links = ref [] and netifs = ref [] and cvms = ref [] in
  (* Identical to [Stack.start ~hook] when unsupervised; otherwise every
     iteration of this cVM's loop runs under the trap boundary, and the
     chaos hook gets a point inside the compartment to raise faults
     from. *)
  let start_dut_stack cvm nif hook =
    let hook =
      match app_hook with
      | None -> hook
      | Some inject ->
        fun s ->
          inject cvm;
          hook s
    in
    match supervise with
    | None -> Netstack.Stack.start ~hook nif.Topology.stack
    | Some sup ->
      Netstack.Stack.set_hook nif.Topology.stack (Some hook);
      supervised_stack_loop sup ~cvm ~running nif.Topology.stack
  in
  List.iter
    (fun i ->
      links := Topology.link engine dut i peer i :: !links;
      let subnet = i in
      let tune s cfg = { cfg with Netstack.Stack.rng_seed = seed_plus seed s } in
      let dcvm, dnif =
        cvm_netif dut
          ~name:(Printf.sprintf "cVM%d" (i + 1))
          ~port_idx:i ~ip:(ip_dut subnet) ~stack_tuning:(tune (i * 2)) ()
      in
      let pcvm, pnif =
        cvm_netif peer
          ~name:(Printf.sprintf "gen%d" (i + 1))
          ~port_idx:i ~ip:(ip_peer subnet)
          ~stack_tuning:(tune ((i * 2) + 1))
          ()
      in
      let dut_buf = app_buf dcvm (Topology.node_mem dut) in
      let peer_buf = app_buf pcvm (Topology.node_mem peer) in
      let dut_api = Iperf.api_of_ff dnif.Topology.ff in
      let peer_api = Iperf.api_of_ff pnif.Topology.ff in
      let label = Printf.sprintf "cVM%d" (i + 1) in
      netifs := dnif :: !netifs;
      cvms := dcvm :: !cvms;
      (match direction with
      | Dut_receives ->
        let srv = Iperf.server dut_api ~buf:dut_buf ~port:iperf_port in
        let cli =
          Iperf.client peer_api ~buf:peer_buf ~server_ip:(ip_dut subnet)
            ~port:iperf_port ()
        in
        start_dut_stack dcvm dnif (fun _ -> Iperf.server_step srv);
        Netstack.Stack.start
          ~hook:(fun _ -> Iperf.client_step cli)
          pnif.Topology.stack;
        flows :=
          { label; take_bytes = (fun () -> Iperf.server_take_rx srv) } :: !flows
      | Dut_sends ->
        let srv = Iperf.server peer_api ~buf:peer_buf ~port:iperf_port in
        let cli =
          Iperf.client dut_api ~buf:dut_buf ~server_ip:(ip_peer subnet)
            ~port:iperf_port ()
        in
        start_dut_stack dcvm dnif (fun _ -> Iperf.client_step cli);
        Netstack.Stack.start
          ~hook:(fun _ -> Iperf.server_step srv)
          pnif.Topology.stack;
        flows :=
          { label; take_bytes = (fun () -> Iperf.client_take_tx cli) } :: !flows);
      stoppers :=
        (fun () ->
          Netstack.Stack.stop dnif.Topology.stack;
          Netstack.Stack.stop pnif.Topology.stack)
        :: !stoppers)
    [ 0; 1 ];
  {
    engine;
    dut;
    peer;
    flows = List.rev !flows;
    mutex = None;
    links = List.rev !links;
    dut_netifs = List.rev !netifs;
    app_cvms = List.rev !cvms;
    stop =
      (fun () ->
        running := false;
        List.iter (fun f -> f ()) !stoppers);
  }

(* --------------------------------------------------------------- *)
(* Single-port topologies (Baseline-single, Scenario 2, Scenario 3) *)
(* --------------------------------------------------------------- *)

type single_port = {
  sp_engine : Dsim.Engine.t;
  sp_dut : Topology.node;
  sp_peer : Topology.node;
  sp_stack_cvm : Capvm.Cvm.t;
  sp_dnif : Topology.netif;
  sp_pnif : Topology.netif;
  sp_peer_cvm : Capvm.Cvm.t;
  sp_link : Nic.Link.t;
}

let single_port_base ~seed () =
  let engine = Dsim.Engine.create () in
  let dut = Topology.make_node engine ~name:"morello" ~ports:2 () in
  let peer =
    Topology.make_node engine ~name:"loadgen" ~generous_pci:true ~ports:2 ()
  in
  let link = Topology.link engine dut 0 peer 0 in
  let tune s cfg = { cfg with Netstack.Stack.rng_seed = seed_plus seed s } in
  let stack_cvm, dnif =
    cvm_netif dut ~name:"cVM1" ~port_idx:0 ~ip:(ip_dut 0)
      ~stack_tuning:(tune 0) ()
  in
  let peer_cvm, pnif =
    cvm_netif peer ~name:"gen1" ~port_idx:0 ~ip:(ip_peer 0)
      ~stack_tuning:(tune 1) ()
  in
  {
    sp_engine = engine;
    sp_dut = dut;
    sp_peer = peer;
    sp_stack_cvm = stack_cvm;
    sp_dnif = dnif;
    sp_pnif = pnif;
    sp_peer_cvm = peer_cvm;
    sp_link = link;
  }

(* The peer side of [n] flows: servers when the DUT sends, clients when
   the DUT receives. All peer apps share the peer stack's loop hook. *)
let peer_apps sp ~direction ~n =
  let api = Iperf.api_of_ff sp.sp_pnif.Topology.ff in
  let mem = Topology.node_mem sp.sp_peer in
  let steps =
    List.init n (fun i ->
        let buf = app_buf sp.sp_peer_cvm mem in
        match direction with
        | Dut_sends ->
          let srv = Iperf.server api ~buf ~port:(iperf_port + i) in
          fun () -> Iperf.server_step srv
        | Dut_receives ->
          let cli =
            Iperf.client api ~buf ~server_ip:(ip_dut 0) ~port:(iperf_port + i)
              ()
          in
          fun () -> Iperf.client_step cli)
  in
  Netstack.Stack.start
    ~hook:(fun _ -> List.iter (fun step -> step ()) steps)
    sp.sp_pnif.Topology.stack

(* A DUT-side app for flow [i]; returns (step, take_bytes, stop) —
   [stop] is the teardown a supervisor runs if the hosting cVM dies.

   [throttled] models the contended client-mode unfairness of Table II:
   the paper attributes the cVM2/cVM3 imbalance to the absence of any
   fairness control on the shared mutex, i.e. the losing thread gets
   fewer useful API slots per lock hand-off. We reproduce that by
   capping the throttled app to one small write per acquisition. *)
let dut_app sp ~direction ~flow_idx ~app_cvm ?(throttled = false) () =
  let api = Iperf.api_of_ff sp.sp_dnif.Topology.ff in
  let buf = app_buf app_cvm (Topology.node_mem sp.sp_dut) in
  match direction with
  | Dut_receives ->
    let srv = Iperf.server api ~buf ~port:(iperf_port + flow_idx) in
    ( (fun () -> Iperf.server_step srv),
      (fun () -> Iperf.server_take_rx srv),
      fun () -> Iperf.server_stop srv )
  | Dut_sends ->
    let write_size = if throttled then 8192 else app_buffer_size in
    let max_writes_per_step = if throttled then 1 else 16 in
    let cli =
      Iperf.client api ~buf ~server_ip:(ip_peer 0) ~port:(iperf_port + flow_idx)
        ~write_size ~max_writes_per_step ()
    in
    ( (fun () -> Iperf.client_step cli),
      (fun () -> Iperf.client_take_tx cli),
      fun () -> Iperf.client_stop cli )

let build_single_baseline ?(seed = 43L) ~direction () =
  let sp = single_port_base ~seed () in
  (* Single process: the app runs inside the stack loop, directly. *)
  let app_cvm =
    Capvm.Intravisor.create_cvm
      (Topology.intravisor sp.sp_dut)
      ~name:"proc" ~size:cvm_size
  in
  let step, take, _stop = dut_app sp ~direction ~flow_idx:0 ~app_cvm () in
  Netstack.Stack.start ~hook:(fun _ -> step ()) sp.sp_dnif.Topology.stack;
  peer_apps sp ~direction ~n:1;
  {
    engine = sp.sp_engine;
    dut = sp.sp_dut;
    peer = sp.sp_peer;
    flows = [ { label = "Baseline (cVM2)"; take_bytes = take } ];
    mutex = None;
    links = [ sp.sp_link ];
    dut_netifs = [ sp.sp_dnif ];
    app_cvms = [ app_cvm ];
    stop =
      (fun () ->
        Netstack.Stack.stop sp.sp_dnif.Topology.stack;
        Netstack.Stack.stop sp.sp_pnif.Topology.stack);
  }

(* Scenario 2 main-loop driver: each iteration runs under the mutex and
   holds it for the iteration's CPU cost. *)
let s2_stack_driver sp mu ~running =
  let engine = sp.sp_engine in
  let cost = Topology.node_cost sp.sp_dut in
  let gap = Dsim.Time.of_float_ns cost.Dsim.Cost_model.stack_loop_gap_ns in
  let k_hold =
    Dsim.Profile.(key default) ~component:"netstack" ~cvm:"cVM1"
      ~stage:"loop_hold"
  in
  let k_gap =
    Dsim.Profile.(key default) ~component:"netstack" ~cvm:"cVM1"
      ~stage:"loop_gap"
  in
  let rec iter () =
    if !running then
      Capvm.Umtx.acquire mu ~owner:"cVM1-loop" (fun ~wait_ns:_ ->
          let work_ns = Netstack.Stack.loop_once sp.sp_dnif.Topology.stack in
          ignore
            (Dsim.Engine.schedule_l engine
               ~delay:(Dsim.Time.of_float_ns work_ns) ~label:k_hold
               (fun () ->
                 Capvm.Umtx.release mu;
                 ignore (Dsim.Engine.schedule_l engine ~delay:gap ~label:k_gap iter))))
  in
  iter ()

(* Scenario 2 application driver: a separate cVM thread; each step
   trampolines into cVM1 under the mutex.

   [extra_tramp] models Scenario 3's additional F-Stack/DPDK split. *)
let s2_app_driver sp mu ~running ~app_cvm ~interval ~extra_tramp step =
  let engine = sp.sp_engine in
  let iv = Topology.intravisor sp.sp_dut in
  let cost = Topology.node_cost sp.sp_dut in
  let stack_counters = Netstack.Stack.counters sp.sp_dnif.Topology.stack in
  let per_seg =
    (Netstack.Stack.config sp.sp_dnif.Topology.stack).Netstack.Stack.per_packet_ns
  in
  let app_base_ns = 800. in
  let k_hold =
    Dsim.Profile.(key default) ~component:"app"
      ~cvm:(Capvm.Cvm.name app_cvm) ~stage:"step_hold"
  in
  let k_iter =
    Dsim.Profile.(key default) ~component:"app"
      ~cvm:(Capvm.Cvm.name app_cvm) ~stage:"step"
  in
  let rec iter () =
    if !running then begin
      (* One trace per app step: App origin, then the umtx wait and the
         trampoline into cVM1 show up as stages. *)
      let flow =
        Dsim.Flowtrace.origin Dsim.Flowtrace.default
          ~at:(Dsim.Engine.now engine)
          ~flow:(Capvm.Cvm.name app_cvm) App
      in
      Capvm.Umtx.acquire mu ~flow ~owner:(Capvm.Cvm.name app_cvm) (fun ~wait_ns:_ ->
          (* The app step belongs to the app cVM: set the attribution
             context for the synchronous part so the trampoline records
             an appN -> cVM1 crossing (not host -> cVM1) and the audit's
             cross-compartment edges match the paper's topology. *)
          let saved_ctx = Cheri.Fault.current_context () in
          Cheri.Fault.set_context (Capvm.Cvm.name app_cvm);
          let tx0 = stack_counters.Netstack.Stack.tx_frames in
          let (), tramp_ns =
            Fun.protect
              ~finally:(fun () -> Cheri.Fault.set_context saved_ctx)
              (fun () ->
                Capvm.Intravisor.trampoline iv ~flow ~into:sp.sp_stack_cvm step)
          in
          let tx_delta = stack_counters.Netstack.Stack.tx_frames - tx0 in
          let work_ns =
            tramp_ns
            +. (float_of_int extra_tramp *. Capvm.Intravisor.trampoline_cost_ns iv)
            +. cost.Dsim.Cost_model.mutex_uncontended_ns
            +. app_base_ns
            +. (per_seg *. float_of_int tx_delta)
          in
          ignore
            (Dsim.Engine.schedule_l engine
               ~delay:(Dsim.Time.of_float_ns work_ns) ~label:k_hold
               (fun () ->
                 Capvm.Umtx.release mu;
                 Dsim.Flowtrace.hop flow Tramp_out
                   ~at:(Dsim.Engine.now engine);
                 ignore
                   (Dsim.Engine.schedule_l engine ~delay:interval ~label:k_iter
                      iter))))
    end
  in
  iter ()

(* Supervised variant of [s2_app_driver]. Differences: the app object is
   rebuilt on restart (its connection died with the cVM), every entry
   that runs compartment code goes through the supervisor's trap
   boundary, and containment force-releases the shared mutex — the
   Scenario 2 hazard is precisely a dead app cVM leaving the F-Stack
   mutex held, deadlocking cVM1's main loop and every sibling. *)
let s2_app_driver_supervised sp mu sup ~running ~app_cvm ~interval ~extra_tramp
    ~app_hook make_app =
  let engine = sp.sp_engine in
  let iv = Topology.intravisor sp.sp_dut in
  let cost = Topology.node_cost sp.sp_dut in
  let stack_counters = Netstack.Stack.counters sp.sp_dnif.Topology.stack in
  let per_seg =
    (Netstack.Stack.config sp.sp_dnif.Topology.stack).Netstack.Stack.per_packet_ns
  in
  let app_base_ns = 800. in
  let name = Capvm.Cvm.name app_cvm in
  let k_hold =
    Dsim.Profile.(key default) ~component:"app" ~cvm:name ~stage:"step_hold"
  in
  let k_iter =
    Dsim.Profile.(key default) ~component:"app" ~cvm:name ~stage:"step"
  in
  let cur = ref (make_app ()) in
  let iter_ref = ref (fun () -> ()) in
  let resched () =
    ignore
      (Dsim.Engine.schedule_l engine ~delay:interval ~label:k_iter (fun () ->
           !iter_ref ()))
  in
  Capvm.Supervisor.register sup app_cvm;
  Capvm.Supervisor.add_cleanup sup ~cvm:app_cvm (fun () ->
      ignore (Capvm.Umtx.force_release mu ~owner:name);
      let _, _, stop = !cur in
      stop ());
  Capvm.Supervisor.set_restart sup ~cvm:app_cvm (fun () ->
      cur := make_app ();
      resched ());
  (* Runs with the mutex held, inside the trap boundary; a fault here
     (e.g. injected by [app_hook]) is the held-mutex crash scenario. *)
  let body flow =
    (match app_hook with Some inject -> inject app_cvm | None -> ());
    let step, _, _ = !cur in
    let tx0 = stack_counters.Netstack.Stack.tx_frames in
    let (), tramp_ns =
      Capvm.Intravisor.trampoline iv ~flow ~into:sp.sp_stack_cvm step
    in
    let tx_delta = stack_counters.Netstack.Stack.tx_frames - tx0 in
    let work_ns =
      tramp_ns
      +. (float_of_int extra_tramp *. Capvm.Intravisor.trampoline_cost_ns iv)
      +. cost.Dsim.Cost_model.mutex_uncontended_ns
      +. app_base_ns
      +. (per_seg *. float_of_int tx_delta)
    in
    ignore
      (Dsim.Engine.schedule_l engine
         ~delay:(Dsim.Time.of_float_ns work_ns) ~label:k_hold
         (fun () ->
           Capvm.Umtx.release mu;
           Dsim.Flowtrace.hop flow Tramp_out ~at:(Dsim.Engine.now engine);
           resched ()))
  in
  let iter () =
    if !running then
      match Capvm.Supervisor.state sup ~cvm:app_cvm with
      | Capvm.Supervisor.Dead -> ()
      | Capvm.Supervisor.Running ->
        let flow =
          Dsim.Flowtrace.origin Dsim.Flowtrace.default
            ~at:(Dsim.Engine.now engine) ~flow:name App
        in
        Capvm.Umtx.acquire mu ~flow ~owner:name (fun ~wait_ns:_ ->
            match
              Capvm.Supervisor.run sup ~cvm:app_cvm (fun () -> body flow)
            with
            | Capvm.Supervisor.Done () -> ()
            | Capvm.Supervisor.Faulted _ ->
              (* Containment force-released the mutex; the restart (if
                 any) re-arms the loop. *)
              ()
            | Capvm.Supervisor.Refused _ ->
              (* A wake already in flight when the cVM trapped; the
                 cleanup broke the hold, nothing runs. *)
              ())
      | _ -> resched ()
  in
  iter_ref := iter;
  iter ()

let build_s2_like ?(seed = 44L) ?(contended = false)
    ?(lock_policy = Capvm.Umtx.Barging) ?(app_interval = Dsim.Time.us 2)
    ?supervise ?app_hook ~extra_tramp ~direction () =
  let sp = single_port_base ~seed () in
  let engine = sp.sp_engine in
  let supervise = Option.map (fun f -> f engine) supervise in
  let cost = Topology.node_cost sp.sp_dut in
  let mu =
    Capvm.Umtx.create engine ~policy:lock_policy
      ~uncontended_ns:cost.Dsim.Cost_model.mutex_uncontended_ns
      ~wake_ns:cost.Dsim.Cost_model.umtx_wake_ns ()
  in
  let running = ref true in
  let napps = if contended then 2 else 1 in
  let cvms = ref [] in
  let flows =
    List.init napps (fun i ->
        let app_cvm =
          Capvm.Intravisor.create_cvm
            (Topology.intravisor sp.sp_dut)
            ~name:(Printf.sprintf "cVM%d" (i + 2))
            ~size:cvm_size
        in
        cvms := app_cvm :: !cvms;
        let throttled = contended && i = 1 && direction = Dut_sends in
        let interval =
          if throttled then Dsim.Time.mul app_interval 33 else app_interval
        in
        let label = Printf.sprintf "cVM%d" (i + 2) in
        match supervise with
        | None ->
          let step, take, _stop =
            dut_app sp ~direction ~flow_idx:i ~app_cvm ~throttled ()
          in
          s2_app_driver sp mu ~running ~app_cvm ~interval ~extra_tramp step;
          { label; take_bytes = take }
        | Some sup ->
          (* The app is rebuilt on restart; route take_bytes through the
             current incarnation. *)
          let cur_take = ref (fun () -> 0) in
          let make_app () =
            let ((_, take, _) as app) =
              dut_app sp ~direction ~flow_idx:i ~app_cvm ~throttled ()
            in
            cur_take := take;
            app
          in
          s2_app_driver_supervised sp mu sup ~running ~app_cvm ~interval
            ~extra_tramp ~app_hook make_app;
          { label; take_bytes = (fun () -> !cur_take ()) })
  in
  s2_stack_driver sp mu ~running;
  peer_apps sp ~direction ~n:napps;
  {
    engine;
    dut = sp.sp_dut;
    peer = sp.sp_peer;
    flows;
    mutex = Some mu;
    links = [ sp.sp_link ];
    dut_netifs = [ sp.sp_dnif ];
    app_cvms = List.rev !cvms;
    stop =
      (fun () ->
        running := false;
        Netstack.Stack.stop sp.sp_pnif.Topology.stack);
  }

let build_scenario2 ?seed ?contended ?lock_policy ?app_interval ?supervise
    ?app_hook ~direction () =
  build_s2_like ?seed ?contended ?lock_policy ?app_interval ?supervise
    ?app_hook ~extra_tramp:0 ~direction ()

let build_scenario3_split ?seed ~direction () =
  build_s2_like ?seed ~contended:false ~extra_tramp:2 ~direction ()

(* --------------------------------------------------------------- *)
(* Latency-measurement topology (Figs. 4-6)                         *)
(* --------------------------------------------------------------- *)

type measurement_topology = {
  mt_built : built;
  mt_ff : Netstack.Ff_api.t;
  mt_stack : Netstack.Stack.t;
  mt_app_cvm : Capvm.Cvm.t;
  mt_stack_cvm : Capvm.Cvm.t;
  mt_sink_port : int;
}

let build_measurement ?(seed = 45L) ~mode () =
  let sp = single_port_base ~seed () in
  let app_cvm =
    Capvm.Intravisor.create_cvm
      (Topology.intravisor sp.sp_dut)
      ~name:"cVM2" ~size:cvm_size
  in
  let running = ref true in
  let mu_ref = ref None in
  (match mode with
  | `Direct ->
    (* Baseline / Scenario 1: the stack loop drives itself, the measured
       app issues ff_write from its own thread (no mutex involved). *)
    Netstack.Stack.start sp.sp_dnif.Topology.stack;
    peer_apps sp ~direction:Dut_sends ~n:1
  | `S2 contended ->
    let cost = Topology.node_cost sp.sp_dut in
    let mu =
      Capvm.Umtx.create sp.sp_engine ~policy:Capvm.Umtx.Barging
        ~uncontended_ns:cost.Dsim.Cost_model.mutex_uncontended_ns
        ~wake_ns:cost.Dsim.Cost_model.umtx_wake_ns ()
    in
    mu_ref := Some mu;
    s2_stack_driver sp mu ~running;
    if contended then begin
      (* Background cVM3: a full-rate iperf client keeping the main loop
         and the mutex busy, as in the contended Fig. 6 runs. *)
      let bg_cvm =
        Capvm.Intravisor.create_cvm
          (Topology.intravisor sp.sp_dut)
          ~name:"cVM3" ~size:cvm_size
      in
      let step, _take, _stop =
        dut_app sp ~direction:Dut_sends ~flow_idx:1 ~app_cvm:bg_cvm ()
      in
      s2_app_driver sp mu ~running ~app_cvm:bg_cvm ~interval:(Dsim.Time.us 2)
        ~extra_tramp:0 step;
      peer_apps sp ~direction:Dut_sends ~n:2
    end
    else peer_apps sp ~direction:Dut_sends ~n:1);
  {
    mt_built =
      {
        engine = sp.sp_engine;
        dut = sp.sp_dut;
        peer = sp.sp_peer;
        flows = [];
        mutex = !mu_ref;
        links = [ sp.sp_link ];
        dut_netifs = [ sp.sp_dnif ];
        app_cvms = [ app_cvm ];
        stop =
          (fun () ->
            running := false;
            Netstack.Stack.stop sp.sp_dnif.Topology.stack;
            Netstack.Stack.stop sp.sp_pnif.Topology.stack);
      };
    mt_ff = sp.sp_dnif.Topology.ff;
    mt_stack = sp.sp_dnif.Topology.stack;
    mt_app_cvm = app_cvm;
    mt_stack_cvm = sp.sp_stack_cvm;
    mt_sink_port = iperf_port;
  }

(* --------------------------------------------------------------- *)
(* Extension: UDP blast (no flow control)                           *)
(* --------------------------------------------------------------- *)

let build_udp_blast ?(seed = 47L) ?(payload = 1472) ~offered_mbit () =
  let sp = single_port_base ~seed () in
  let engine = sp.sp_engine in
  let dut_stack = sp.sp_dnif.Topology.stack in
  let peer_stack = sp.sp_pnif.Topology.stack in
  let port = 5400 in
  let running = ref true in
  (* Receiver: drain and count in the peer's loop hook. *)
  let received = ref 0 and received_mark = ref 0 in
  let rfd =
    match Netstack.Stack.udp_socket peer_stack with
    | Ok fd -> fd
    | Error e -> invalid_arg (Netstack.Errno.to_string e)
  in
  (match Netstack.Stack.udp_bind peer_stack rfd ~port with
  | Ok () -> ()
  | Error e -> invalid_arg (Netstack.Errno.to_string e));
  let drain _ =
    let rec go () =
      match Netstack.Stack.udp_recvfrom peer_stack rfd with
      | Ok (Some (_, _, data)) ->
        received := !received + Bytes.length data;
        go ()
      | Ok None | Error _ -> ()
    in
    go ()
  in
  Netstack.Stack.start ~hook:drain peer_stack;
  Netstack.Stack.start dut_stack;
  (* Sender: one datagram per tick at the offered rate. *)
  let offered = ref 0 and offered_mark = ref 0 in
  let sfd =
    match Netstack.Stack.udp_socket dut_stack with
    | Ok fd -> fd
    | Error e -> invalid_arg (Netstack.Errno.to_string e)
  in
  let interval =
    Dsim.Time.of_float_ns (float_of_int payload *. 8. /. (offered_mbit *. 1e6) *. 1e9)
  in
  let datagram = Bytes.make payload 'u' in
  let k_tick =
    Dsim.Profile.(key default) ~component:"app" ~cvm:"udp_source"
      ~stage:"tick"
  in
  let rec tick () =
    if !running then begin
      offered := !offered + payload;
      (match
         Netstack.Stack.udp_sendto dut_stack sfd ~ip:(ip_peer 0) ~port
           ~buf:datagram
       with
      | Ok () | Error _ -> ());
      ignore (Dsim.Engine.schedule_l engine ~delay:interval ~label:k_tick tick)
    end
  in
  tick ();
  let take counter mark () =
    let d = !counter - !mark in
    mark := !counter;
    d
  in
  {
    engine;
    dut = sp.sp_dut;
    peer = sp.sp_peer;
    flows =
      [ { label = "offered"; take_bytes = take offered offered_mark };
        { label = "received"; take_bytes = take received received_mark } ];
    mutex = None;
    links = [ sp.sp_link ];
    dut_netifs = [ sp.sp_dnif ];
    app_cvms = [];
    stop =
      (fun () ->
        running := false;
        Netstack.Stack.stop dut_stack;
        Netstack.Stack.stop peer_stack);
  }
