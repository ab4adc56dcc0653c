(* Fleet tenancy observatory (extension beyond the paper's two-app
   Scenario 2): one stack cVM shared by N tenant cVMs over the umtx,
   each tenant churning request/response flows against an epoll server
   farm on the peer. The interesting output is not a bandwidth number
   but the per-tenant rollup: who got what, at which percentile, paid
   for by how many compartment crossings. *)

type profile = {
  p_name : string;
  p_tenants : int;
  p_duration : Dsim.Time.t;
  p_warmup : Dsim.Time.t;
  p_arrival_mean_ns : float;
  p_poll_interval : Dsim.Time.t;
  p_concurrency : int;
  p_sample_every : int;
  p_fct_p999_budget_ns : float;
  p_fairness_floor : float;
}

let quick =
  {
    p_name = "quick";
    p_tenants = 64;
    p_duration = Dsim.Time.ms 120;
    p_warmup = Dsim.Time.ms 2;
    p_arrival_mean_ns = 16.0e6;
    p_poll_interval = Dsim.Time.us 20;
    p_concurrency = 2;
    p_sample_every = 32;
    p_fct_p999_budget_ns = 60.0e6;
    p_fairness_floor = 0.9;
  }

let full =
  {
    quick with
    p_name = "full";
    p_tenants = 256;
    p_duration = Dsim.Time.ms 400;
    p_arrival_mean_ns = 48.0e6;
    p_fct_p999_budget_ns = 120.0e6;
  }

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                        *)
(* ------------------------------------------------------------------ *)

(* A flow is one connection carrying [req] bytes client->server (the
   first 8 encoding the request and response lengths, both int32 BE)
   answered by [resp] bytes server->client; the client then closes.
   Flow completion time is arrival -> last response byte read, so it
   includes queueing for the tenant's mutex slot — the multi-tenancy
   cost the observatory exists to expose. *)
let header_len = 8
let port_base = 6000
let tenant_buf_size = 8 * 1024
let server_buf_size = 16 * 1024
let tenant_cvm_size = 64 * 1024

let encode_header ~req ~resp =
  let b = Bytes.create header_len in
  Bytes.set_int32_be b 0 (Int32.of_int req);
  Bytes.set_int32_be b 4 (Int32.of_int resp);
  b

let tenant_name i = Printf.sprintf "t%03d" i

(* Heavy-tailed size mix: mostly short RPCs, a bulk tail. Sizes are
   clamped so even the tail stays finite and the minimum always covers
   the header. *)
let draw_flow rng =
  let clamp lo hi x = Float.max lo (Float.min hi x) in
  if Dsim.Rng.float rng 1.0 < 0.9 then
    let req =
      64 + int_of_float (clamp 8. 8000. (Dsim.Rng.lognormal rng ~mu:6.2 ~sigma:0.8))
    in
    let resp =
      64 + int_of_float (clamp 8. 16000. (Dsim.Rng.lognormal rng ~mu:6.9 ~sigma:0.7))
    in
    (req, resp)
  else
    let resp =
      int_of_float
        (clamp 16384. 262144. (Dsim.Rng.lognormal rng ~mu:11.3 ~sigma:0.6))
    in
    (256, resp)

(* ------------------------------------------------------------------ *)
(* Peer-side server farm                                                *)
(* ------------------------------------------------------------------ *)

type srv_conn = {
  sc_fd : int;
  sc_hdr : Bytes.t;
  mutable sc_rcvd : int;  (* request bytes received, header included *)
  mutable sc_req : int;  (* total request length; -1 until parsed *)
  mutable sc_resp_left : int;
  mutable sc_writing : bool;  (* EPOLLOUT armed for response backlog *)
}

type server = {
  sv_api : Iperf.api;
  sv_mem : Cheri.Tagged_memory.t;
  sv_rbuf : Cheri.Capability.t;
  sv_wbuf : Cheri.Capability.t;
  sv_epfd : int;
  sv_listeners : (int, unit) Hashtbl.t;
  sv_conns : (int, srv_conn) Hashtbl.t;
}

let sv_get = function
  | Ok v -> v
  | Error e -> invalid_arg ("fleet server setup: " ^ Netstack.Errno.to_string e)

let make_server api ~mem ~rbuf ~wbuf ~tenants =
  let epfd = sv_get (api.Iperf.epoll_create ()) in
  let listeners = Hashtbl.create (2 * tenants) in
  for i = 0 to tenants - 1 do
    let lfd = sv_get (api.Iperf.socket ()) in
    sv_get (api.Iperf.bind lfd ~port:(port_base + i));
    sv_get (api.Iperf.listen lfd ~backlog:8);
    sv_get (api.Iperf.epoll_ctl ~epfd ~op:`Add ~fd:lfd Netstack.Epoll.epollin);
    Hashtbl.replace listeners lfd ()
  done;
  {
    sv_api = api;
    sv_mem = mem;
    sv_rbuf = rbuf;
    sv_wbuf = wbuf;
    sv_epfd = epfd;
    sv_listeners = listeners;
    sv_conns = Hashtbl.create (4 * tenants);
  }

let server_drop sv c =
  ignore (sv.sv_api.Iperf.epoll_ctl ~epfd:sv.sv_epfd ~op:`Del ~fd:c.sc_fd 0);
  ignore (sv.sv_api.Iperf.close c.sc_fd);
  Hashtbl.remove sv.sv_conns c.sc_fd

(* Push response bytes; on backpressure leave EPOLLOUT armed and come
   back on the next readiness report. *)
let server_write sv c =
  let wlen = Cheri.Capability.length sv.sv_wbuf in
  let rec go n =
    if c.sc_resp_left > 0 && n < 32 then begin
      let nbytes = min wlen c.sc_resp_left in
      match sv.sv_api.Iperf.write c.sc_fd ~buf:sv.sv_wbuf ~nbytes with
      | Ok sent ->
        c.sc_resp_left <- c.sc_resp_left - sent;
        if sent = nbytes then go (n + 1) else arm ()
      | Error Netstack.Errno.EAGAIN -> arm ()
      | Error _ -> server_drop sv c
    end
    else if c.sc_resp_left = 0 && c.sc_writing then begin
      c.sc_writing <- false;
      ignore
        (sv.sv_api.Iperf.epoll_ctl ~epfd:sv.sv_epfd ~op:`Mod ~fd:c.sc_fd
           Netstack.Epoll.epollin)
    end
  and arm () =
    if not c.sc_writing then begin
      c.sc_writing <- true;
      ignore
        (sv.sv_api.Iperf.epoll_ctl ~epfd:sv.sv_epfd ~op:`Mod ~fd:c.sc_fd
           Netstack.Epoll.(epollin lor epollout))
    end
  in
  go 0

let server_feed sv c got =
  (* Stream bytes [sc_rcvd, sc_rcvd+got) just landed at the read
     buffer's base; the first 8 stream bytes are the header. *)
  (if c.sc_rcvd < header_len then begin
     let need = min got (header_len - c.sc_rcvd) in
     let piece =
       Cheri.Tagged_memory.load_bytes sv.sv_mem ~cap:sv.sv_rbuf
         ~addr:(Cheri.Capability.base sv.sv_rbuf)
         ~len:need
     in
     Bytes.blit piece 0 c.sc_hdr c.sc_rcvd need
   end);
  c.sc_rcvd <- c.sc_rcvd + got;
  if c.sc_req < 0 && c.sc_rcvd >= header_len then begin
    c.sc_req <- Int32.to_int (Bytes.get_int32_be c.sc_hdr 0);
    c.sc_resp_left <- Int32.to_int (Bytes.get_int32_be c.sc_hdr 4)
  end;
  if c.sc_req >= 0 && c.sc_rcvd >= c.sc_req then server_write sv c

let server_read sv c =
  let nbytes = Cheri.Capability.length sv.sv_rbuf in
  let rec go n =
    if n < 32 then
      match sv.sv_api.Iperf.read c.sc_fd ~buf:sv.sv_rbuf ~nbytes with
      | Ok 0 -> server_drop sv c
      | Ok got ->
        server_feed sv c got;
        if Hashtbl.mem sv.sv_conns c.sc_fd then go (n + 1)
      | Error Netstack.Errno.EAGAIN -> ()
      | Error _ -> server_drop sv c
  in
  go 0

let server_step sv =
  match sv.sv_api.Iperf.epoll_wait ~epfd:sv.sv_epfd ~max:64 with
  | Error _ -> ()
  | Ok events ->
    List.iter
      (fun (fd, ev) ->
        if Hashtbl.mem sv.sv_listeners fd then begin
          let rec accept_all () =
            match sv.sv_api.Iperf.accept fd with
            | Ok (cfd, _ip, _port) ->
              ignore
                (sv.sv_api.Iperf.epoll_ctl ~epfd:sv.sv_epfd ~op:`Add ~fd:cfd
                   Netstack.Epoll.epollin);
              Hashtbl.replace sv.sv_conns cfd
                {
                  sc_fd = cfd;
                  sc_hdr = Bytes.create header_len;
                  sc_rcvd = 0;
                  sc_req = -1;
                  sc_resp_left = 0;
                  sc_writing = false;
                };
              accept_all ()
            | Error _ -> ()
          in
          accept_all ()
        end
        else
          match Hashtbl.find_opt sv.sv_conns fd with
          | None -> ()
          | Some c ->
            if
              Netstack.Epoll.has ev Netstack.Epoll.epollerr
              || Netstack.Epoll.has ev Netstack.Epoll.epollhup
            then server_drop sv c
            else begin
              if Netstack.Epoll.has ev Netstack.Epoll.epollout then
                server_write sv c;
              if
                Hashtbl.mem sv.sv_conns fd
                && Netstack.Epoll.has ev Netstack.Epoll.epollin
              then server_read sv c
            end)
      events

(* ------------------------------------------------------------------ *)
(* Tenant clients (DUT side)                                            *)
(* ------------------------------------------------------------------ *)

type flow_spec = { fs_req : int; fs_resp : int; fs_arrived : Dsim.Time.t }

type active_flow = {
  af_fd : int;
  af_spec : flow_spec;
  af_hdr : Bytes.t;
  mutable af_sent : int;
  mutable af_rcvd : int;
  mutable af_sending : bool;  (* still interested in EPOLLOUT *)
}

type tenant = {
  tn_idx : int;
  tn_name : string;
  tn_buf : Cheri.Capability.t;
  tn_rng : Dsim.Rng.t;
  tn_epfd : int;
  tn_queue : flow_spec Queue.t;
  mutable tn_active : active_flow list;
  mutable tn_polling : bool;
  mutable tn_backoff : int;  (* poll-interval multiplier, power of two *)
  mutable tn_arrivals : int;
  mutable tn_flows : int;
  mutable tn_failed : int;
  mutable tn_bytes : int;
  mutable tn_tx_frames : int;
}

type fleet = {
  f_engine : Dsim.Engine.t;
  f_dut : Topology.node;
  f_peer : Topology.node;
  f_stack_cvm : Capvm.Cvm.t;
  f_dnif : Topology.netif;
  f_pnif : Topology.netif;
  f_mutex : Capvm.Umtx.t;
  f_tenants : tenant array;
  f_obs : Dsim.Tenancy.t;
  f_fct : Dsim.Stats.t;  (* fleet-wide FCT buffer for the p99.9 gate *)
  f_running : bool ref;
  mutable f_socks_peak : int;
}

let cl_get = function
  | Ok v -> v
  | Error e -> invalid_arg ("fleet client: " ^ Netstack.Errno.to_string e)

let client_drop f tn af ~failed =
  ignore
    ((Iperf.api_of_ff f.f_dnif.Topology.ff).Iperf.epoll_ctl ~epfd:tn.tn_epfd
       ~op:`Del ~fd:af.af_fd 0);
  ignore ((Iperf.api_of_ff f.f_dnif.Topology.ff).Iperf.close af.af_fd);
  tn.tn_active <- List.filter (fun a -> a.af_fd <> af.af_fd) tn.tn_active;
  if failed then tn.tn_failed <- tn.tn_failed + 1

(* Send request bytes. The header prefix must survive short writes, so
   while [af_sent < header_len] each write re-stages the unsent header
   remainder at the buffer base (body bytes are arbitrary padding). *)
let client_send f api tn af =
  let mem = Topology.node_mem f.f_dut in
  let blen = Cheri.Capability.length tn.tn_buf in
  let base = Cheri.Capability.base tn.tn_buf in
  let rec go n =
    if af.af_sent < af.af_spec.fs_req && n < 16 then begin
      if af.af_sent < header_len then
        Cheri.Tagged_memory.store_bytes mem ~cap:tn.tn_buf ~addr:base
          (Bytes.sub af.af_hdr af.af_sent (header_len - af.af_sent));
      let nbytes = min blen (af.af_spec.fs_req - af.af_sent) in
      match api.Iperf.write af.af_fd ~buf:tn.tn_buf ~nbytes with
      | Ok sent ->
        af.af_sent <- af.af_sent + sent;
        if sent = nbytes then go (n + 1)
      | Error Netstack.Errno.EAGAIN -> ()
      | Error _ -> client_drop f tn af ~failed:true
    end
  in
  go 0;
  if
    af.af_sending
    && af.af_sent >= af.af_spec.fs_req
    && List.memq af (List.filter (fun a -> a.af_fd = af.af_fd) tn.tn_active)
  then begin
    af.af_sending <- false;
    ignore
      (api.Iperf.epoll_ctl ~epfd:tn.tn_epfd ~op:`Mod ~fd:af.af_fd
         Netstack.Epoll.epollin)
  end

let client_complete f tn af =
  let now = Dsim.Engine.now f.f_engine in
  let fct_ns =
    Dsim.Time.to_float_ns (Dsim.Time.sub now af.af_spec.fs_arrived)
  in
  let bytes = af.af_spec.fs_req + af.af_spec.fs_resp in
  tn.tn_flows <- tn.tn_flows + 1;
  tn.tn_bytes <- tn.tn_bytes + bytes;
  Dsim.Stats.add f.f_fct fct_ns;
  Dsim.Tenancy.note_flow f.f_obs ~tenant:tn.tn_name ~bytes ~fct_ns;
  client_drop f tn af ~failed:false

let client_recv f api tn af =
  let nbytes = Cheri.Capability.length tn.tn_buf in
  let rec go n =
    if n < 16 then
      match api.Iperf.read af.af_fd ~buf:tn.tn_buf ~nbytes with
      | Ok 0 -> client_drop f tn af ~failed:true
      | Ok got ->
        af.af_rcvd <- af.af_rcvd + got;
        if af.af_rcvd >= af.af_spec.fs_resp then client_complete f tn af
        else go (n + 1)
      | Error Netstack.Errno.EAGAIN -> ()
      | Error _ -> client_drop f tn af ~failed:true
  in
  go 0

(* One mutex-held, trampolined application window: admit queued flows up
   to the concurrency cap, then service whatever epoll reports. Returns
   whether the window made progress, which drives the poll backoff. *)
let tenant_body f ~conc api tn =
  let peer_ip = Netstack.Stack.ip f.f_pnif.Topology.stack in
  let started = ref false in
  while
    List.length tn.tn_active < conc && not (Queue.is_empty tn.tn_queue)
  do
    started := true;
    let spec = Queue.pop tn.tn_queue in
    let fd = cl_get (api.Iperf.socket ()) in
    (match
       api.Iperf.connect fd ~ip:peer_ip ~port:(port_base + tn.tn_idx)
     with
    | Ok () | Error Netstack.Errno.EINPROGRESS -> ()
    | Error _ -> ());
    cl_get
      (api.Iperf.epoll_ctl ~epfd:tn.tn_epfd ~op:`Add ~fd
         Netstack.Epoll.epollout);
    tn.tn_active <-
      tn.tn_active
      @ [
          {
            af_fd = fd;
            af_spec = spec;
            af_hdr = encode_header ~req:spec.fs_req ~resp:spec.fs_resp;
            af_sent = 0;
            af_rcvd = 0;
            af_sending = true;
          };
        ]
  done;
  match api.Iperf.epoll_wait ~epfd:tn.tn_epfd ~max:(2 * conc) with
  | Error _ -> !started
  | Ok events ->
    List.iter
      (fun (fd, ev) ->
        match List.find_opt (fun a -> a.af_fd = fd) tn.tn_active with
        | None -> ()
        | Some af ->
          if
            Netstack.Epoll.has ev Netstack.Epoll.epollerr
            || Netstack.Epoll.has ev Netstack.Epoll.epollhup
          then client_drop f tn af ~failed:true
          else begin
            if Netstack.Epoll.has ev Netstack.Epoll.epollout then
              client_send f api tn af;
            if
              Netstack.Epoll.has ev Netstack.Epoll.epollin
              && List.memq af tn.tn_active
            then client_recv f api tn af
          end)
      events;
    !started || events <> []

(* The s2-style app driver, generalised to N tenants: while a tenant
   has work it polls under the mutex at [poll_interval]; when idle it
   parks and the next arrival restarts it. Every window is charged the
   trampoline round trip, the uncontended lock cost, a fixed app cost
   and the per-frame TX cost — and attributed to the tenant's fault
   context so {!Capvm.Intravisor.crossings_from} can bill it later.

   Polling backs off exponentially (x2 per empty window, capped) and
   snaps back on progress: with hundreds of tenants FIFO-queued on one
   mutex, blind fixed-cadence polling collapses the fleet — every
   response wait burns thousands of crossings that queue ahead of
   useful windows. *)
let backoff_cap = 32
let tenant_driver f ~profile tn =
  let engine = f.f_engine in
  let iv = Topology.intravisor f.f_dut in
  let cost = Topology.node_cost f.f_dut in
  let api = Iperf.api_of_ff f.f_dnif.Topology.ff in
  let stack_counters = Netstack.Stack.counters f.f_dnif.Topology.stack in
  let per_seg =
    (Netstack.Stack.config f.f_dnif.Topology.stack).Netstack.Stack.per_packet_ns
  in
  let app_base_ns = 800. in
  let k_hold =
    Dsim.Profile.(key default) ~component:"fleet" ~cvm:tn.tn_name
      ~stage:"step_hold"
  in
  let k_step =
    Dsim.Profile.(key default) ~component:"fleet" ~cvm:tn.tn_name ~stage:"step"
  in
  let rec step () =
    if not !(f.f_running) then tn.tn_polling <- false
    else if tn.tn_active = [] && Queue.is_empty tn.tn_queue then
      tn.tn_polling <- false
    else
      let flow =
        Dsim.Flowtrace.origin Dsim.Flowtrace.default
          ~at:(Dsim.Engine.now engine) ~flow:tn.tn_name App
      in
      Capvm.Umtx.acquire f.f_mutex ~flow ~owner:tn.tn_name (fun ~wait_ns:_ ->
          let saved_ctx = Cheri.Fault.current_context () in
          Cheri.Fault.set_context tn.tn_name;
          let tx0 = stack_counters.Netstack.Stack.tx_frames in
          let progress, tramp_ns =
            Fun.protect
              ~finally:(fun () -> Cheri.Fault.set_context saved_ctx)
              (fun () ->
                Capvm.Intravisor.trampoline iv ~flow ~into:f.f_stack_cvm
                  (fun () -> tenant_body f ~conc:profile.p_concurrency api tn))
          in
          let tx_delta = stack_counters.Netstack.Stack.tx_frames - tx0 in
          tn.tn_tx_frames <- tn.tn_tx_frames + tx_delta;
          tn.tn_backoff <-
            (if progress then 1 else min backoff_cap (2 * tn.tn_backoff));
          let work_ns =
            tramp_ns
            +. cost.Dsim.Cost_model.mutex_uncontended_ns
            +. app_base_ns
            +. (per_seg *. float_of_int tx_delta)
          in
          ignore
            (Dsim.Engine.schedule_l engine
               ~delay:(Dsim.Time.of_float_ns work_ns) ~label:k_hold
               (fun () ->
                 Capvm.Umtx.release f.f_mutex;
                 Dsim.Flowtrace.hop flow Tramp_out
                   ~at:(Dsim.Engine.now engine);
                 ignore
                   (Dsim.Engine.schedule_l engine
                      ~delay:
                        (Dsim.Time.of_float_ns
                           (Dsim.Time.to_float_ns profile.p_poll_interval
                           *. float_of_int tn.tn_backoff))
                      ~label:k_step step))))
  in
  let k_arrival =
    Dsim.Profile.(key default) ~component:"fleet" ~cvm:tn.tn_name
      ~stage:"arrival"
  in
  let rec arrival () =
    if !(f.f_running) then begin
      let req, resp = draw_flow tn.tn_rng in
      tn.tn_arrivals <- tn.tn_arrivals + 1;
      Queue.add
        {
          fs_req = req;
          fs_resp = resp;
          fs_arrived = Dsim.Engine.now engine;
        }
        tn.tn_queue;
      if not tn.tn_polling then begin
        tn.tn_polling <- true;
        ignore
          (Dsim.Engine.schedule_l engine ~delay:Dsim.Time.zero ~label:k_step
             step)
      end;
      ignore
        (Dsim.Engine.schedule_l engine
           ~delay:
             (Dsim.Time.of_float_ns
                (Dsim.Rng.exponential tn.tn_rng
                   ~mean:profile.p_arrival_mean_ns))
           ~label:k_arrival arrival)
    end
  in
  (* First arrival after one exponential gap, so the fleet's opening
     burst is already Poisson-spread instead of synchronized at t0. *)
  ignore
    (Dsim.Engine.schedule_l engine
       ~delay:
         (Dsim.Time.of_float_ns
            (Dsim.Rng.exponential tn.tn_rng ~mean:profile.p_arrival_mean_ns))
       ~label:k_arrival arrival)

(* Stack cVM driver: identical discipline to Scenario 2's main loop —
   each iteration runs under the mutex and holds it for its CPU cost.
   Also the sampling point for the live-socket high-water mark. *)
let stack_driver f =
  let engine = f.f_engine in
  let cost = Topology.node_cost f.f_dut in
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
    if !(f.f_running) then
      Capvm.Umtx.acquire f.f_mutex ~owner:"cVM1-loop" (fun ~wait_ns:_ ->
          let work_ns = Netstack.Stack.loop_once f.f_dnif.Topology.stack in
          let live = Netstack.Stack.live_sockets f.f_dnif.Topology.stack in
          if live > f.f_socks_peak then f.f_socks_peak <- live;
          ignore
            (Dsim.Engine.schedule_l engine
               ~delay:(Dsim.Time.of_float_ns work_ns) ~label:k_hold
               (fun () ->
                 Capvm.Umtx.release f.f_mutex;
                 ignore
                   (Dsim.Engine.schedule_l engine ~delay:gap ~label:k_gap iter))))
  in
  iter ()

(* ------------------------------------------------------------------ *)
(* Topology                                                             *)
(* ------------------------------------------------------------------ *)

let build ~profile ~tenants ~seed =
  let engine = Dsim.Engine.create () in
  let dut = Topology.make_node engine ~name:"morello" ~ports:2 () in
  let peer =
    Topology.make_node engine ~name:"loadgen" ~generous_pci:true ~ports:2 ()
  in
  ignore (Topology.link engine dut 0 peer 0 : Nic.Link.t);
  (* Churn sizing: TIME_WAIT holds an fd for 50 ms per completed flow,
     so the fd space must cover the live window plus the churn backlog;
     socket buffers shrink so thousands of concurrent connections don't
     dominate memory. *)
  let tune extra s cfg =
    {
      cfg with
      Netstack.Stack.rng_seed = Scenarios.seed_plus seed s;
      max_fds = 16384;
      tcp =
        {
          cfg.Netstack.Stack.tcp with
          Netstack.Tcp_cb.snd_buf_size = 16 * 1024;
          rcv_buf_size = 16 * 1024;
          (* Under FIFO rotation across hundreds of tenants the
             effective RTT is tens of ms; the stock 10 ms initial RTO
             would fire spuriously and feed the congestion back. *)
          rto_initial = Dsim.Time.ms 80;
        };
    }
    |> extra
  in
  let stack_cvm, dnif =
    Scenarios.cvm_netif dut ~name:"cVM1" ~port_idx:0
      ~ip:(Scenarios.ip_dut 0)
      ~stack_tuning:(tune Fun.id 0) ()
  in
  let peer_cvm, pnif =
    Scenarios.cvm_netif peer ~name:"gen1" ~port_idx:0
      ~ip:(Scenarios.ip_peer 0)
      ~stack_tuning:(tune Fun.id 1) ()
  in
  let cost = Topology.node_cost dut in
  let mutex =
    Capvm.Umtx.create engine ~policy:Capvm.Umtx.Fifo
      ~uncontended_ns:cost.Dsim.Cost_model.mutex_uncontended_ns
      ~wake_ns:cost.Dsim.Cost_model.umtx_wake_ns ()
  in
  let iv = Topology.intravisor dut in
  let dut_api = Iperf.api_of_ff dnif.Topology.ff in
  let root_rng = Dsim.Rng.create ~seed in
  let tenant_arr =
    Array.init tenants (fun i ->
        let cvm =
          Capvm.Intravisor.create_cvm iv ~name:(tenant_name i)
            ~size:tenant_cvm_size
        in
        let buf =
          Capvm.Cvm.calloc cvm (Topology.node_mem dut) tenant_buf_size
        in
        {
          tn_idx = i;
          tn_name = Capvm.Cvm.name cvm;
          tn_buf = buf;
          tn_rng = Dsim.Rng.split root_rng;
          tn_epfd = cl_get (dut_api.Iperf.epoll_create ());
          tn_queue = Queue.create ();
          tn_active = [];
          tn_polling = false;
          tn_backoff = 1;
          tn_arrivals = 0;
          tn_flows = 0;
          tn_failed = 0;
          tn_bytes = 0;
          tn_tx_frames = 0;
        })
  in
  let f =
    {
      f_engine = engine;
      f_dut = dut;
      f_peer = peer;
      f_stack_cvm = stack_cvm;
      f_dnif = dnif;
      f_pnif = pnif;
      f_mutex = mutex;
      f_tenants = tenant_arr;
      f_obs = Dsim.Tenancy.create ();
      f_fct = Dsim.Stats.create ();
      f_running = ref true;
      f_socks_peak = 0;
    }
  in
  (* Peer: server farm inside the load generator's stack loop. *)
  let peer_api = Iperf.api_of_ff pnif.Topology.ff in
  let peer_mem = Topology.node_mem peer in
  let sv =
    make_server peer_api ~mem:peer_mem
      ~rbuf:(Capvm.Cvm.calloc peer_cvm peer_mem server_buf_size)
      ~wbuf:(Capvm.Cvm.calloc peer_cvm peer_mem server_buf_size)
      ~tenants
  in
  Netstack.Stack.start ~hook:(fun _ -> server_step sv) pnif.Topology.stack;
  stack_driver f;
  Array.iter (fun tn -> tenant_driver f ~profile tn) tenant_arr;
  f

(* ------------------------------------------------------------------ *)
(* Attribution                                                          *)
(* ------------------------------------------------------------------ *)

(* Map a flow label to its tenant: app-step traces carry the tenant cVM
   name directly; packet traces carry "ip:port>ip:port" where the
   server-side port (either end, depending on direction) identifies the
   tenant. ARP/ethernet traces attribute to no one. *)
let tenant_of_label ~tenants label =
  let of_port p =
    if p >= port_base && p < port_base + tenants then
      Some (tenant_name (p - port_base))
    else None
  in
  let port_after_colon s =
    match String.rindex_opt s ':' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
  in
  if String.length label = 4 && label.[0] = 't' then
    match int_of_string_opt (String.sub label 1 3) with
    | Some i when i >= 0 && i < tenants -> Some label
    | _ -> None
  else
    match String.index_opt label '>' with
    | None -> None
    | Some i ->
      let left = String.sub label 0 i in
      let right = String.sub label (i + 1) (String.length label - i - 1) in
      let attr side =
        match port_after_colon side with
        | Some p -> of_port p
        | None -> None
      in
      (match attr right with Some t -> Some t | None -> attr left)

(* ------------------------------------------------------------------ *)
(* Run + report                                                         *)
(* ------------------------------------------------------------------ *)

type result = {
  r_profile : string;
  r_tenants : int;
  r_seed : int64;
  r_duration_ns : float;
  r_flows : int;
  r_failed : int;
  r_bytes : int;
  r_goodput_mbit : float;
  r_fct_p50_ns : float;
  r_fct_p90_ns : float;
  r_fct_p99_ns : float;
  r_fct_p999_ns : float;
  r_jain_flows : float;
  r_jain_goodput : float;
  r_crossings : int;
  r_packets : int;
  r_live_socks_peak : int;
  r_events : int;
  r_rollups : Dsim.Tenancy.rollup list;
  r_gates : (string * bool * string) list;
  r_pass : bool;
  r_text : string;
  r_json : Dsim.Json.t;
}

let ms_of_ns ns = ns /. 1.0e6
let pct_stats s p = if Dsim.Stats.is_empty s then 0. else Dsim.Stats.percentile s p

let fmt_ns ns =
  if ns >= 1.0e6 then Printf.sprintf "%.2fms" (ns /. 1.0e6)
  else if ns >= 1.0e3 then Printf.sprintf "%.1fus" (ns /. 1.0e3)
  else Printf.sprintf "%.0fns" ns

let rollup_json (r : Dsim.Tenancy.rollup) =
  Dsim.Json.Obj
    [
      ("tenant", Dsim.Json.String r.Dsim.Tenancy.r_tenant);
      ("flows", Dsim.Json.Int r.Dsim.Tenancy.r_flows);
      ("bytes", Dsim.Json.Int r.Dsim.Tenancy.r_bytes);
      ("goodput_mbit_s", Dsim.Json.Float r.Dsim.Tenancy.r_goodput_mbit);
      ("fct_p50_ns", Dsim.Json.Float r.Dsim.Tenancy.r_fct_p50_ns);
      ("fct_p90_ns", Dsim.Json.Float r.Dsim.Tenancy.r_fct_p90_ns);
      ("fct_p99_ns", Dsim.Json.Float r.Dsim.Tenancy.r_fct_p99_ns);
      ("fct_p999_ns", Dsim.Json.Float r.Dsim.Tenancy.r_fct_p999_ns);
      ("traces", Dsim.Json.Int r.Dsim.Tenancy.r_traces);
      ( "stage_p50_ns",
        Dsim.Json.Obj
          (List.map
             (fun (s, v) -> (s, Dsim.Json.Float v))
             r.Dsim.Tenancy.r_stage_p50_ns) );
      ("stage_mean_sum_ns", Dsim.Json.Float r.Dsim.Tenancy.r_stage_mean_sum_ns);
      ("e2e_mean_ns", Dsim.Json.Float r.Dsim.Tenancy.r_e2e_mean_ns);
      ("crossings", Dsim.Json.Int r.Dsim.Tenancy.r_crossings);
      ("tx_frames", Dsim.Json.Int r.Dsim.Tenancy.r_packets);
      ( "crossings_per_packet",
        Dsim.Json.Float r.Dsim.Tenancy.r_crossings_per_packet );
      ( "drops",
        Dsim.Json.List
          (List.map
             (fun (s, rn, n) ->
               Dsim.Json.Obj
                 [
                   ("stage", Dsim.Json.String s);
                   ("reason", Dsim.Json.String rn);
                   ("count", Dsim.Json.Int n);
                 ])
             r.Dsim.Tenancy.r_drops) );
    ]

let run ?(profile = quick) ?tenants ?(seed = 42L) () =
  let tenants = match tenants with Some n -> n | None -> profile.p_tenants in
  if tenants < 1 then invalid_arg "fleet: tenants must be >= 1";
  if tenants > 1000 then invalid_arg "fleet: tenants must be <= 1000";
  let ft = Dsim.Flowtrace.default in
  let was_enabled = Dsim.Flowtrace.enabled ft in
  let old_sample = Dsim.Flowtrace.sample_every ft in
  let f = build ~profile ~tenants ~seed in
  let engine = f.f_engine in
  (* Warmup: resolve ARP both ways before the first SYN, so the opening
     flows don't eat an ARP-retry timeout into their completion times. *)
  Netstack.Stack.ping f.f_dnif.Topology.stack
    ~ip:(Scenarios.ip_peer 0) ~ident:1 ~seq:1 ~payload:(Bytes.create 8);
  Dsim.Engine.run engine ~until:profile.p_warmup;
  Dsim.Flowtrace.clear ft;
  Dsim.Flowtrace.set_sample_every ft profile.p_sample_every;
  Dsim.Flowtrace.set_enabled ft true;
  let t0 = Dsim.Engine.now engine in
  let t_end = Dsim.Time.add t0 profile.p_duration in
  Dsim.Engine.run engine ~until:t_end;
  f.f_running := false;
  Netstack.Stack.stop f.f_pnif.Topology.stack;
  let duration_ns = Dsim.Time.to_float_ns profile.p_duration in
  (* Fold the collected streams into the observatory. *)
  let iv = Topology.intravisor f.f_dut in
  Array.iter
    (fun tn ->
      Dsim.Tenancy.note_packets f.f_obs ~tenant:tn.tn_name tn.tn_tx_frames;
      Dsim.Tenancy.note_crossings f.f_obs ~tenant:tn.tn_name
        (Capvm.Intravisor.crossings_from iv ~caller:tn.tn_name))
    f.f_tenants;
  Dsim.Tenancy.ingest f.f_obs ~tenant_of:(tenant_of_label ~tenants) ft;
  Dsim.Flowtrace.set_enabled ft was_enabled;
  Dsim.Flowtrace.set_sample_every ft old_sample;
  Dsim.Flowtrace.clear ft;
  let rollups = Dsim.Tenancy.rollup f.f_obs ~duration_ns in
  let flows = Array.fold_left (fun a tn -> a + tn.tn_flows) 0 f.f_tenants in
  let failed = Array.fold_left (fun a tn -> a + tn.tn_failed) 0 f.f_tenants in
  let bytes = Array.fold_left (fun a tn -> a + tn.tn_bytes) 0 f.f_tenants in
  let crossings =
    Array.fold_left
      (fun a tn -> a + Capvm.Intravisor.crossings_from iv ~caller:tn.tn_name)
      0 f.f_tenants
  in
  let packets =
    Array.fold_left (fun a tn -> a + tn.tn_tx_frames) 0 f.f_tenants
  in
  let goodput_mbit = float_of_int bytes *. 8000. /. duration_ns in
  let per_tenant sel = Array.to_list (Array.map sel f.f_tenants) in
  let jain_flows =
    Dsim.Tenancy.jain (per_tenant (fun tn -> float_of_int tn.tn_flows))
  in
  let jain_goodput =
    Dsim.Tenancy.jain (per_tenant (fun tn -> float_of_int tn.tn_bytes))
  in
  (* The fairness gate judges completion ratio, not raw counts: with a
     finite window the per-tenant flow counts carry Poisson noise
     (E[jain] ~ lambda/(lambda+1)) that says nothing about the system,
     whereas completed/arrived exposes actual starvation. *)
  let jain_service =
    Dsim.Tenancy.jain
      (per_tenant (fun tn ->
           if tn.tn_arrivals = 0 then 1.
           else float_of_int tn.tn_flows /. float_of_int tn.tn_arrivals))
  in
  let p999 = pct_stats f.f_fct 99.9 in
  (* SLO gates. *)
  let dropped = Dsim.Tenancy.dropped_frames f.f_obs in
  let attributed = Dsim.Tenancy.attributed_drops f.f_obs in
  let worst_telescope =
    List.fold_left
      (fun acc (r : Dsim.Tenancy.rollup) ->
        if r.Dsim.Tenancy.r_traces = 0 || r.Dsim.Tenancy.r_e2e_mean_ns <= 0.
        then acc
        else
          let d =
            Float.abs
              (r.Dsim.Tenancy.r_stage_mean_sum_ns
              -. r.Dsim.Tenancy.r_e2e_mean_ns)
            /. r.Dsim.Tenancy.r_e2e_mean_ns
          in
          Float.max acc d)
      0. rollups
  in
  let gates =
    [
      ( "jain-fairness",
        jain_service >= profile.p_fairness_floor,
        Printf.sprintf "jain(completed/arrived) %.3f >= %.2f" jain_service
          profile.p_fairness_floor );
      ( "fct-p99.9",
        flows > 0 && p999 <= profile.p_fct_p999_budget_ns,
        Printf.sprintf "p99.9 %s <= %s budget" (fmt_ns p999)
          (fmt_ns profile.p_fct_p999_budget_ns) );
      ( "drop-attribution",
        attributed = dropped,
        Printf.sprintf "%d of %d drops attributed" attributed dropped );
      ( "stage-telescoping",
        worst_telescope <= 0.01,
        Printf.sprintf "worst tenant stage-sum vs e2e delta %.3f%% <= 1%%"
          (100. *. worst_telescope) );
    ]
  in
  let pass = List.for_all (fun (_, ok, _) -> ok) gates in
  (* Text report. *)
  let b = Buffer.create 8192 in
  Printf.bprintf b "fleet tenancy observatory\n";
  Printf.bprintf b "=========================\n";
  Printf.bprintf b "profile: %s   tenants: %d   seed: %Ld\n" profile.p_name
    tenants seed;
  Printf.bprintf b
    "window: %.1f ms virtual (after %.1f ms warmup)   arrivals: poisson mean \
     %.1f ms/tenant   mix: 90%% rpc / 10%% bulk   <=%d flows in flight/tenant\n"
    (ms_of_ns duration_ns)
    (Dsim.Time.to_float_ms profile.p_warmup)
    (ms_of_ns profile.p_arrival_mean_ns)
    profile.p_concurrency;
  Printf.bprintf b "\nfleet totals:\n";
  Printf.bprintf b
    "  flows completed: %d (%d failed)   goodput: %.1f Mbit/s   peak live \
     sockets: %d\n"
    flows failed goodput_mbit f.f_socks_peak;
  Printf.bprintf b
    "  fct p50 %s   p90 %s   p99 %s   p99.9 %s\n"
    (fmt_ns (pct_stats f.f_fct 50.))
    (fmt_ns (pct_stats f.f_fct 90.))
    (fmt_ns (pct_stats f.f_fct 99.))
    (fmt_ns p999);
  Printf.bprintf b
    "  tenant crossings: %d   tenant tx frames: %d   crossings/packet: %.2f\n"
    crossings packets
    (if packets = 0 then 0. else float_of_int crossings /. float_of_int packets);
  Printf.bprintf b "  traces: %d sampled of %d origins   unattributed: %d\n"
    (Dsim.Tenancy.sampled f.f_obs)
    (Dsim.Tenancy.origins f.f_obs)
    (Dsim.Tenancy.unattributed_traces f.f_obs);
  Printf.bprintf b "  drops: %d (%d attributed)\n" dropped attributed;
  (match Dsim.Tenancy.drop_table f.f_obs with
  | [] -> ()
  | table ->
    List.iter
      (fun (s, rn, n) -> Printf.bprintf b "    %-10s %-16s %d\n" s rn n)
      table);
  let shown = min 8 (List.length rollups) in
  Printf.bprintf b "\nper-tenant rollups (%d of %d shown; all in --json):\n"
    shown (List.length rollups);
  Printf.bprintf b
    "  tenant  flows  goodput      fct p50     p99      p99.9     tramp/pkt\n";
  List.iteri
    (fun i (r : Dsim.Tenancy.rollup) ->
      if i < shown then
        Printf.bprintf b "  %-6s  %5d  %7.2f Mb/s  %8s  %8s  %8s  %.2f\n"
          r.Dsim.Tenancy.r_tenant r.Dsim.Tenancy.r_flows
          r.Dsim.Tenancy.r_goodput_mbit
          (fmt_ns r.Dsim.Tenancy.r_fct_p50_ns)
          (fmt_ns r.Dsim.Tenancy.r_fct_p99_ns)
          (fmt_ns r.Dsim.Tenancy.r_fct_p999_ns)
          r.Dsim.Tenancy.r_crossings_per_packet)
    rollups;
  Printf.bprintf b "\nfairness:\n";
  Printf.bprintf b "  jain(completed/arrived): %.3f   (the gate)\n" jain_service;
  Printf.bprintf b "  jain(flows/tenant):      %.3f\n" jain_flows;
  Printf.bprintf b "  jain(goodput/tenant):    %.3f\n" jain_goodput;
  (* Fleet-wide stage decomposition: the per-tenant buffers of the first
     tenant with traces give the shape; the full tables are in JSON. *)
  Printf.bprintf b "\nSLO gates:\n";
  List.iter
    (fun (name, ok, detail) ->
      Printf.bprintf b "  [%s] %s: %s\n" (if ok then "PASS" else "FAIL") name
        detail)
    gates;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  let text = Buffer.contents b in
  let json =
    Dsim.Json.Obj
      [
        ("id", Dsim.Json.String "fleet");
        ("profile", Dsim.Json.String profile.p_name);
        ("tenants", Dsim.Json.Int tenants);
        ("seed", Dsim.Json.Int (Int64.to_int seed));
        ("duration_ns", Dsim.Json.Float duration_ns);
        ("flows", Dsim.Json.Int flows);
        ("failed_flows", Dsim.Json.Int failed);
        ("bytes", Dsim.Json.Int bytes);
        ("goodput_mbit_s", Dsim.Json.Float goodput_mbit);
        ("fct_p50_ns", Dsim.Json.Float (pct_stats f.f_fct 50.));
        ("fct_p90_ns", Dsim.Json.Float (pct_stats f.f_fct 90.));
        ("fct_p99_ns", Dsim.Json.Float (pct_stats f.f_fct 99.));
        ("fct_p999_ns", Dsim.Json.Float p999);
        ("jain_service", Dsim.Json.Float jain_service);
        ("jain_flows", Dsim.Json.Float jain_flows);
        ("jain_goodput", Dsim.Json.Float jain_goodput);
        ("crossings", Dsim.Json.Int crossings);
        ("tx_frames", Dsim.Json.Int packets);
        ("live_sockets_peak", Dsim.Json.Int f.f_socks_peak);
        ("events_fired", Dsim.Json.Int (Dsim.Engine.events_fired engine));
        ("origins", Dsim.Json.Int (Dsim.Tenancy.origins f.f_obs));
        ("sampled", Dsim.Json.Int (Dsim.Tenancy.sampled f.f_obs));
        ( "unattributed_traces",
          Dsim.Json.Int (Dsim.Tenancy.unattributed_traces f.f_obs) );
        ("drops", Dsim.Json.Int dropped);
        ("drops_attributed", Dsim.Json.Int attributed);
        ( "drop_table",
          Dsim.Json.List
            (List.map
               (fun (s, rn, n) ->
                 Dsim.Json.Obj
                   [
                     ("stage", Dsim.Json.String s);
                     ("reason", Dsim.Json.String rn);
                     ("count", Dsim.Json.Int n);
                   ])
               (Dsim.Tenancy.drop_table f.f_obs)) );
        ( "gates",
          Dsim.Json.List
            (List.map
               (fun (name, ok, detail) ->
                 Dsim.Json.Obj
                   [
                     ("gate", Dsim.Json.String name);
                     ("pass", Dsim.Json.Bool ok);
                     ("detail", Dsim.Json.String detail);
                   ])
               gates) );
        ("pass", Dsim.Json.Bool pass);
        ("rollups", Dsim.Json.List (List.map rollup_json rollups));
      ]
  in
  {
    r_profile = profile.p_name;
    r_tenants = tenants;
    r_seed = seed;
    r_duration_ns = duration_ns;
    r_flows = flows;
    r_failed = failed;
    r_bytes = bytes;
    r_goodput_mbit = goodput_mbit;
    r_fct_p50_ns = pct_stats f.f_fct 50.;
    r_fct_p90_ns = pct_stats f.f_fct 90.;
    r_fct_p99_ns = pct_stats f.f_fct 99.;
    r_fct_p999_ns = p999;
    r_jain_flows = jain_flows;
    r_jain_goodput = jain_goodput;
    r_crossings = crossings;
    r_packets = packets;
    r_live_socks_peak = f.f_socks_peak;
    r_events = Dsim.Engine.events_fired engine;
    r_rollups = rollups;
    r_gates = gates;
    r_pass = pass;
    r_text = text;
    r_json = json;
  }

let run_scaling ?(seed = 42L) () =
  let rows =
    List.map
      (fun n ->
        let r = run ~profile:quick ~tenants:n ~seed () in
        (n, r))
      [ 8; 64; 256 ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "fleet scaling (quick profile, seed %Ld):\n" seed;
  Printf.bprintf b
    "  tenants  flows  goodput/tenant  crossings/pkt  fct p99.9   events\n";
  List.iter
    (fun (n, r) ->
      Printf.bprintf b "  %7d  %5d  %9.2f Mb/s  %13.2f  %9s  %7d\n" n r.r_flows
        (r.r_goodput_mbit /. float_of_int n)
        (if r.r_packets = 0 then 0.
         else float_of_int r.r_crossings /. float_of_int r.r_packets)
        (fmt_ns r.r_fct_p999_ns) r.r_events)
    rows;
  let json =
    Dsim.Json.Obj
      [
        ("id", Dsim.Json.String "fleet-scaling");
        ("seed", Dsim.Json.Int (Int64.to_int seed));
        ( "rows",
          Dsim.Json.List
            (List.map
               (fun (n, r) ->
                 Dsim.Json.Obj
                   [
                     ("tenants", Dsim.Json.Int n);
                     ("flows", Dsim.Json.Int r.r_flows);
                     ( "goodput_per_tenant_mbit_s",
                       Dsim.Json.Float (r.r_goodput_mbit /. float_of_int n) );
                     ( "crossings_per_packet",
                       Dsim.Json.Float
                         (if r.r_packets = 0 then 0.
                          else
                            float_of_int r.r_crossings
                            /. float_of_int r.r_packets) );
                     ("fct_p999_ns", Dsim.Json.Float r.r_fct_p999_ns);
                     ("events_fired", Dsim.Json.Int r.r_events);
                     ("pass", Dsim.Json.Bool r.r_pass);
                   ])
               rows) );
      ]
  in
  (Buffer.contents b, json)
