type path = Baseline | Scenario1 | Scenario2 of { contended : bool }

let path_label = function
  | Baseline -> "Baseline"
  | Scenario1 -> "Scenario 1"
  | Scenario2 { contended = false } -> "Scenario 2 (uncontended)"
  | Scenario2 { contended = true } -> "Scenario 2 (contended)"

type result = {
  label : string;
  raw : Dsim.Stats.t;
  filtered : Dsim.Stats.t;
  boxplot : Dsim.Stats.boxplot;
  iterations : int;
  removed_pct : float;
}

let get = function
  | Ok v -> v
  | Error e -> invalid_arg ("measurement setup: " ^ Netstack.Errno.to_string e)

(* Build the topology, open the measured socket towards the peer sink,
   drive the simulation until the handshake completes, and allocate the
   app-compartment write buffer. *)
let setup_connected ?(seed = 45L) ~mode ~write_size () =
  let mt = Scenarios.build_measurement ~seed ~mode () in
  let built = mt.Scenarios.mt_built in
  let engine = built.Scenarios.engine in
  let mem = Topology.node_mem built.Scenarios.dut in
  let buf = Capvm.Cvm.calloc mt.Scenarios.mt_app_cvm mem (max write_size 64) in
  let stack = mt.Scenarios.mt_stack in
  let fd = get (Netstack.Stack.socket_stream stack) in
  (match
     Netstack.Stack.connect stack fd
       ~ip:(Netstack.Ipv4_addr.make 10 0 0 2)
       ~port:mt.Scenarios.mt_sink_port
   with
  | Ok () | Error Netstack.Errno.EINPROGRESS -> ()
  | Error e -> invalid_arg ("measurement connect: " ^ Netstack.Errno.to_string e));
  let connected () =
    match Netstack.Stack.tcp_sock_of_fd stack fd with
    | Some s -> s.Netstack.Socket.cb.Netstack.Tcp_cb.state = Netstack.Tcp_cb.Established
    | None -> false
  in
  let deadline = Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.sec 2) in
  while (not (connected ())) && Dsim.Time.(Dsim.Engine.now engine < deadline) do
    Dsim.Engine.run engine
      ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.ms 1))
  done;
  if not (connected ()) then invalid_arg "measurement: connection never established";
  (* Let any contended background flow ramp up. *)
  Dsim.Engine.run engine
    ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.ms 100));
  (mt, fd, buf)

let run ?(iterations = 100_000) ?(write_size = 64) ?(interval = Dsim.Time.us 100)
    ?(seed = 45L) path =
  let mode =
    match path with
    | Baseline | Scenario1 -> `Direct
    | Scenario2 { contended } -> `S2 contended
  in
  let label = path_label path in
  let latency_metric =
    Dsim.Metrics.histogram Dsim.Metrics.default
      ~help:"ff_write latency samples (pre-IQR-filter), in nanoseconds."
      ~labels:[ ("path", label) ]
      ~lo:50. ~ratio:1.3 ~buckets:48 "ff_write_latency_ns"
  in
  (* Fig. 4's wall time flows through these handlers: each scheduling
     point in the measured ff_write round trip carries its own stage
     key so the profiler can split the path. *)
  let mk stage = Dsim.Profile.(key default) ~component:"measure" ~cvm:label ~stage in
  let k_clock_ret = mk "clock_ret" in
  let k_ff_done = mk "ff_write_done" in
  let k_tramp_in = mk "tramp_in" in
  let k_hold = mk "hold" in
  let k_tramp_out = mk "tramp_out" in
  let k_next = mk "next_iter" in
  let mt, fd, buf = setup_connected ~seed ~mode ~write_size () in
  let built = mt.Scenarios.mt_built in
  let engine = built.Scenarios.engine in
  Dsim.Sampler.attach Dsim.Sampler.default engine Dsim.Metrics.default;
  let iv = Topology.intravisor built.Scenarios.dut in
  let cm = Topology.node_cost built.Scenarios.dut in
  let rng = Dsim.Rng.create ~seed:(Int64.add seed 0x6d65L) in
  let shim = Capvm.Musl_shim.create iv mt.Scenarios.mt_app_cvm in
  let ff = mt.Scenarios.mt_ff in

  (* Clock read: returns (value_ns, total_cost_ns). The value is taken
     [read_offset] into the call — the remainder is the return path that
     lands inside a measured interval. *)
  let clock () =
    match path with
    | Baseline ->
      (* vDSO fast path: no kernel entry. *)
      ( Dsim.Time.to_float_ns (Dsim.Engine.now engine) +. cm.Dsim.Cost_model.vdso_clock_read_ns,
        cm.Dsim.Cost_model.vdso_clock_total_ns )
    | Scenario1 | Scenario2 _ ->
      (* Trampoline into the Intravisor + CheriBSD clock_gettime. *)
      let value, cost = Capvm.Musl_shim.clock_gettime shim in
      let read_offset = cm.Dsim.Cost_model.tramp_oneway_ns +. cm.Dsim.Cost_model.syscall_ns in
      (Dsim.Time.to_float_ns value +. read_offset, cost)
  in
  let ff_write_model_ns =
    cm.Dsim.Cost_model.ff_write_fixed_ns
    +. (cm.Dsim.Cost_model.ff_write_per_byte_ns *. float_of_int write_size)
  in
  let raw = Dsim.Stats.create ~capacity:iterations () in
  let record v1 v2 =
    let sample = v2 -. v1 in
    (* Measurement noise: multiplicative lognormal jitter plus the ~10%
       of iterations the paper discards by IQR (IRQs, cache pollution,
       scheduler preemption). *)
    let jittered =
      sample *. Dsim.Rng.lognormal rng ~mu:0. ~sigma:cm.Dsim.Cost_model.jitter_sigma
    in
    let final =
      if Dsim.Rng.float rng 1.0 < cm.Dsim.Cost_model.outlier_prob then
        jittered
        +. (sample
           *. Dsim.Rng.exponential rng ~mean:cm.Dsim.Cost_model.outlier_scale_mean)
      else jittered
    in
    Dsim.Stats.add raw final;
    Dsim.Metrics.observe latency_metric final
  in
  let done_flag = ref false in
  let do_ff_write flow k =
    match (path, built.Scenarios.mutex) with
    | (Baseline | Scenario1), _ | Scenario2 _, None ->
      (* Same protection domain as the stack: plain call. *)
      ignore (Netstack.Ff_api.ff_write ff fd ~buf ~nbytes:write_size);
      Dsim.Engine.schedule engine
        ~delay:(Dsim.Time.of_float_ns ff_write_model_ns) ~label:k_ff_done
        (fun () ->
          Dsim.Flowtrace.hop flow Ff_write ~at:(Dsim.Engine.now engine);
          k ())
    | Scenario2 _, Some mu ->
      (* Cross into cVM1, take the shared mutex, run the real ff_write
         (whose TCP output work extends the hold), come back. *)
      Dsim.Engine.schedule engine
        ~delay:(Dsim.Time.of_float_ns cm.Dsim.Cost_model.tramp_oneway_ns)
        ~label:k_tramp_in
        (fun () ->
          Dsim.Flowtrace.hop flow Tramp_in ~at:(Dsim.Engine.now engine);
          Capvm.Umtx.acquire mu ~flow ~owner:"cVM2-measured"
            (fun ~wait_ns:_ ->
              let write_result, _tramp_ns =
                Capvm.Intravisor.trampoline iv ~into:mt.Scenarios.mt_stack_cvm
                  (fun () -> Netstack.Ff_api.ff_write ff fd ~buf ~nbytes:write_size)
              in
              ignore (write_result : (int, Netstack.Errno.t) Stdlib.result);
              (* ff_write itself only appends to the socket buffer:
                 the segmentation it may trigger is main-loop work
                 (charged there), not part of the API call's hold. *)
              let hold_ns =
                cm.Dsim.Cost_model.mutex_uncontended_ns +. ff_write_model_ns
              in
              Dsim.Engine.schedule engine
                ~delay:(Dsim.Time.of_float_ns hold_ns) ~label:k_hold
                (fun () ->
                  Dsim.Flowtrace.hop flow Ff_write
                    ~at:(Dsim.Engine.now engine);
                  Capvm.Umtx.release mu;
                  Dsim.Engine.schedule engine
                    ~delay:
                      (Dsim.Time.of_float_ns
                         cm.Dsim.Cost_model.tramp_oneway_ns)
                    ~label:k_tramp_out
                    (fun () ->
                      Dsim.Flowtrace.hop flow Tramp_out
                        ~at:(Dsim.Engine.now engine);
                      k ()))))
  in
  let rec iterate remaining =
    if remaining = 0 then done_flag := true
    else begin
      let v1, c1 = clock () in
      (* One trace per sampled iteration: its stage intervals telescope
         to exactly [v2 - v1], the pre-jitter end-to-end sample. *)
      let flow =
        Dsim.Flowtrace.origin_ns Dsim.Flowtrace.default ~at_ns:v1 ~flow:label
          App
      in
      Dsim.Engine.schedule engine ~delay:(Dsim.Time.of_float_ns c1)
        ~label:k_clock_ret (fun () ->
          Dsim.Flowtrace.hop flow Clock_ret ~at:(Dsim.Engine.now engine);
          do_ff_write flow (fun () ->
              let v2, c2 = clock () in
              Dsim.Flowtrace.hop_ns flow Clock_entry ~at_ns:v2;
              record v1 v2;
              Dsim.Engine.schedule engine
                ~delay:(Dsim.Time.add interval (Dsim.Time.of_float_ns c2))
                ~label:k_next
                (fun () -> iterate (remaining - 1))))
    end
  in
  iterate iterations;
  while not !done_flag do
    Dsim.Engine.run engine
      ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.ms 50))
  done;
  built.Scenarios.stop ();
  let filtered = Dsim.Stats.iqr_filter raw in
  {
    label = path_label path;
    raw;
    filtered;
    boxplot = Dsim.Stats.boxplot filtered;
    iterations;
    removed_pct =
      100.
      *. float_of_int (Dsim.Stats.count raw - Dsim.Stats.count filtered)
      /. float_of_int (max 1 (Dsim.Stats.count raw));
  }

let pp_result fmt r =
  Format.fprintf fmt "%-26s median=%8.0f ns  mean=%8.0f ns  sd=%7.0f ns  (n=%d, IQR removed %.1f%%)"
    r.label r.boxplot.Dsim.Stats.median r.boxplot.Dsim.Stats.mean
    r.boxplot.Dsim.Stats.stddev
    (Dsim.Stats.count r.filtered)
    r.removed_pct
