(* Edge-stack benchmark: runs one workload in this process and prints its
   metrics, then one JSON result line.

     main.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
              [--scale F]

   A run is R replicas of the workload, R = round(seconds / nominal
   replica seconds). Replica r uses seed S*1000+r, so a (workload, seed,
   seconds) triple always simulates exactly the same thing. Every
   replica builds its topology afresh; its build and warmup are timed as
   set-up, separately from the measured window.

   --trace 0 prints the end-to-end metrics. Virtual-time metrics are
   means over replicas (they are deterministic); wall-clock metrics are
   medians over replicas.

   --trace 1 runs every replica twice, untraced then traced with
   Dsim.Profile, Dsim.Metrics and Dsim.Flowtrace on, checks that the
   traced copy reproduces every virtual-time metric exactly, and prints
   the per-layer metrics. It also times six primitives in isolation and
   writes the benchmark's own spans to BENCH_trace.<workload>.json.

   --scale shrinks every window and warmup (the smoke test uses 0.05).
   The process exits 1 when any correctness check fails. *)

(* ------------------------------------------------------------------ *)
(* Wall clock and bench-owned spans                                     *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) /. 1e9

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_t0 : int;
  mutable sp_t1 : int;
}

(* Spans stay in memory until exit; a traced run records one per call
   into the simulator (build, warmup, window, each library run and each
   micro-benchmark), nested under the replica that made it. *)
let spans_on = ref false
let spans : span list ref = ref []
let span_parents = ref [ 0 ]
let next_span_id = ref 1

let span name f =
  if not !spans_on then f ()
  else begin
    let sp =
      {
        sp_id = !next_span_id;
        sp_parent = List.hd !span_parents;
        sp_name = name;
        sp_t0 = now_ns ();
        sp_t1 = 0;
      }
    in
    incr next_span_id;
    spans := sp :: !spans;
    span_parents := sp.sp_id :: !span_parents;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_t1 <- now_ns ();
        span_parents := List.tl !span_parents)
      f
  end

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing). Each
   span carries its parent and its self time: duration minus the part
   its children cover. *)
let spans_json () =
  let all = List.rev !spans in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let d = sp.sp_t1 - sp.sp_t0 in
      Hashtbl.replace child_ns sp.sp_parent
        (d + Option.value ~default:0 (Hashtbl.find_opt child_ns sp.sp_parent)))
    all;
  let origin = match all with [] -> 0 | sp :: _ -> sp.sp_t0 in
  let us ns = Dsim.Json.Float (float_of_int ns /. 1e3) in
  Dsim.Json.Obj
    [
      ( "traceEvents",
        Dsim.Json.List
          (List.map
             (fun sp ->
               let dur = sp.sp_t1 - sp.sp_t0 in
               let kids =
                 Option.value ~default:0 (Hashtbl.find_opt child_ns sp.sp_id)
               in
               Dsim.Json.Obj
                 [
                   ("name", Dsim.Json.String sp.sp_name);
                   ("ph", Dsim.Json.String "X");
                   ("pid", Dsim.Json.Int 1);
                   ("tid", Dsim.Json.Int 1);
                   ("ts", us (sp.sp_t0 - origin));
                   ("dur", us dur);
                   ( "args",
                     Dsim.Json.Obj
                       [
                         ("id", Dsim.Json.Int sp.sp_id);
                         ("parent", Dsim.Json.Int sp.sp_parent);
                         ("self_us", us (dur - kids));
                       ] );
                 ])
             all) );
      ("displayTimeUnit", Dsim.Json.String "ms");
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Small statistics                                                     *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let pct s p = if Dsim.Stats.is_empty s then 0. else Dsim.Stats.percentile s p

(* ------------------------------------------------------------------ *)
(* Instruments                                                          *)
(* ------------------------------------------------------------------ *)

let set_instruments on =
  Dsim.Profile.set_enabled Dsim.Profile.default on;
  Dsim.Metrics.set_enabled Dsim.Metrics.default on;
  Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default on

let reset_instruments () =
  Dsim.Profile.reset Dsim.Profile.default;
  Dsim.Metrics.reset Dsim.Metrics.default;
  Dsim.Flowtrace.clear Dsim.Flowtrace.default

(* Engine dispatches so far, across every engine in the process: the
   crash black box numbers dispatches globally, so this counts events
   even inside library calls that keep their engine private. *)
let dispatches () =
  match List.rev (Dsim.Journal.blackbox ()) with
  | [] -> 0
  | d :: _ -> d.Dsim.Journal.d_seq + 1

(* Host-side cost of one measured interval. *)
type cost = {
  c_wall_s : float;
  c_words : float;  (** Minor-heap words allocated. *)
  c_majors : int;  (** Major collections. *)
  c_events : int;  (** Engine dispatches. *)
}

let measure f =
  let t0 = now_ns () and w0 = Gc.minor_words () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections and e0 = dispatches () in
  let x = f () in
  let c =
    {
      c_wall_s = since t0;
      c_words = Gc.minor_words () -. w0;
      c_majors = (Gc.quick_stat ()).Gc.major_collections - m0;
      c_events = dispatches () - e0;
    }
  in
  (x, c)

(* [c] less the set-up [s] that ran inside it. *)
let minus c s =
  {
    c_wall_s = c.c_wall_s -. s.c_wall_s;
    c_words = c.c_words -. s.c_words;
    c_majors = c.c_majors - s.c_majors;
    c_events = c.c_events - s.c_events;
  }

(* ------------------------------------------------------------------ *)
(* One replica                                                          *)
(* ------------------------------------------------------------------ *)

(* The layers each flow-trace stage belongs to (Dsim.Flowtrace stage
   names); stage latency is the hop-to-hop interval ending at the hop. *)
let nic_stages = [ "tx_dma"; "wire"; "rx_dma" ]
let dpdk_stages = [ "tx_ring"; "rx_ring" ]

let netstack_stages =
  [ "ff_api"; "tcp_out"; "ip_out"; "eth_tx"; "eth_rx"; "ip_rx"; "tcp_in";
    "udp_in"; "sock" ]

type rep = {
  setup_s : float;  (** Build + warmup wall seconds. *)
  window : cost;  (** The measured window, set-up excluded. *)
  cover : cost;
      (** The interval the traced counters cover: the window for the TCP
          workloads, the whole library calls (their own set-up included)
          for the ffwrite and fleet workloads. *)
  sim_vs : float;  (** Virtual seconds the window simulates. *)
  ops : float;  (** Operations completed (TCP: whole and part messages). *)
  op_vs : float;  (** Virtual seconds those operations took to complete. *)
  payload_bits : float;  (** Application payload the operations moved. *)
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  attempted : int;
  failed : int;
  flows : int;  (** Connections or flows, for per-flow ratios. *)
  live_peak : int;  (** DUT live sockets high-water mark. *)
  path_p50_ns : float array;  (** ffwrite: Baseline, S1, S2u, S2c medians. *)
  stage_vns : (string * float) list;  (** Traced: median ns per stage. *)
  checks : (string * bool) list;
}

(* The virtual-time outputs a traced replica must reproduce exactly. *)
let virtual_outputs r =
  ( r.ops,
    r.op_vs,
    r.payload_bits,
    (r.p50_ns, r.p99_ns, r.p999_ns),
    (r.attempted, r.failed, r.flows),
    r.path_p50_ns )

let flowtrace_stage_vns () =
  let by_stage = Hashtbl.create 32 in
  List.iter
    (fun c ->
      let rec go = function
        | (_, t0) :: ((st, t1) :: _ as rest) ->
          let name = Dsim.Flowtrace.stage_name st in
          Hashtbl.replace by_stage name
            ((t1 -. t0)
            :: Option.value ~default:[] (Hashtbl.find_opt by_stage name));
          go rest
        | _ -> ()
      in
      go (Dsim.Flowtrace.hops c))
    (Dsim.Flowtrace.traces Dsim.Flowtrace.default);
  Hashtbl.fold (fun k v acc -> (k, median v) :: acc) by_stage []

let scaled t scale = Dsim.Time.of_float_ns (Dsim.Time.to_float_ns t *. scale)

(* --- TCP bulk (Table II) ------------------------------------------- *)

(* One operation is one 128 KiB application message (iperf's buffer
   size) on a flow's byte stream, counted in closed form from the bytes
   each flow delivered in the window: a flow completes bytes / 128 KiB
   messages, each taking the time the flow needs to deliver 128 KiB at
   its window goodput. On these workloads ops_per_s and the op latency
   percentiles therefore restate goodput, per message and per flow. *)
let message_bytes = 128 * 1024

let port_stats (b : Core.Scenarios.built) =
  List.concat_map
    (fun node ->
      let nic = Core.Topology.nic node in
      List.init (Nic.Igb.num_ports nic) (fun i ->
          Nic.Igb.stats (Nic.Igb.port nic i)))
    [ b.Core.Scenarios.dut; b.Core.Scenarios.peer ]

let dut_packets b =
  let nic = Core.Topology.nic b.Core.Scenarios.dut in
  List.init (Nic.Igb.num_ports nic) (fun i ->
      let s = Nic.Igb.stats (Nic.Igb.port nic i) in
      s.Nic.Port_stats.tx_packets + s.Nic.Port_stats.rx_packets)
  |> List.fold_left ( + ) 0

let dropped b =
  let ports =
    List.fold_left
      (fun acc (s : Nic.Port_stats.t) ->
        acc + s.rx_no_desc + s.rx_filtered + s.rx_crc_errors + s.rx_dma_errors
        + s.tx_ring_full)
      0 (port_stats b)
  in
  List.fold_left
    (fun acc nif ->
      acc
      + (Netstack.Stack.counters nif.Core.Topology.stack).Netstack.Stack
          .rx_dropped)
    ports b.Core.Scenarios.dut_netifs

let live_sockets b =
  List.fold_left
    (fun acc nif -> acc + Netstack.Stack.live_sockets nif.Core.Topology.stack)
    0 b.Core.Scenarios.dut_netifs

let tcp_rep ~build ~window ~ports ~seed ~scale ~traced =
  let rng = Dsim.Rng.create ~seed in
  (* The seed also places the window: warmup is 150 ms plus a uniform
     phase in [0, 1) ms, so replicas sample different points of the
     steady state. *)
  let warmup =
    scaled (Dsim.Time.of_float_ns (150e6 +. Dsim.Rng.float rng 1e6)) scale
  in
  let window = scaled window scale in
  let t0 = now_ns () in
  let b = span "build" (fun () -> build seed) in
  let e = b.Core.Scenarios.engine in
  span "warmup" (fun () -> Dsim.Engine.run e ~until:warmup);
  List.iter (fun f -> ignore (f.Core.Scenarios.take_bytes ())) b.flows;
  let setup_s = since t0 in
  if traced then reset_instruments ();
  let pkts0 = dut_packets b and drops0 = dropped b in
  let (), window_cost =
    measure (fun () ->
        span "window" (fun () ->
            Dsim.Engine.run e ~until:(Dsim.Time.add warmup window)))
  in
  let moved = List.map (fun f -> f.Core.Scenarios.take_bytes ()) b.flows in
  let stage_vns = if traced then flowtrace_stage_vns () else [] in
  let window_vs = Dsim.Time.to_float_sec window in
  let lat = Dsim.Stats.create () in
  List.iter
    (fun n ->
      if n > 0 then
        Dsim.Stats.add lat
          (float_of_int message_bytes /. float_of_int n *. window_vs *. 1e9))
    moved;
  let total = List.fold_left ( + ) 0 moved in
  let goodput = float_of_int total *. 8. /. window_vs /. 1e6 in
  let r =
    {
      setup_s;
      window = window_cost;
      cover = window_cost;
      sim_vs = window_vs;
      ops = float_of_int total /. float_of_int message_bytes;
      op_vs = window_vs;
      payload_bits = float_of_int total *. 8.;
      p50_ns = pct lat 50.;
      p99_ns = pct lat 99.;
      p999_ns = pct lat 99.9;
      attempted = dut_packets b - pkts0;
      failed = dropped b - drops0;
      flows = List.length moved;
      live_peak = live_sockets b;
      path_p50_ns = [||];
      stage_vns;
      checks =
        [
          ("every flow moved data", List.for_all (fun n -> n > 0) moved);
          ( "goodput within port capacity",
            goodput
            <= float_of_int ports *. Core.Bandwidth.theoretical_port_mbit );
        ];
    }
  in
  b.Core.Scenarios.stop ();
  r

(* --- ff_write latency (Figs. 4-6) ---------------------------------- *)

let paths =
  Core.Measurement.
    [ Baseline; Scenario1; Scenario2 { contended = false };
      Scenario2 { contended = true } ]

let path_mode = function
  | Core.Measurement.Baseline | Scenario1 -> `Direct
  | Scenario2 { contended } -> `S2 contended

let think_ns = 100e3

(* One operation is one 64-byte ff_write on the Scenario-2 contended
   path, the paper's worst case; the other three paths run alongside
   for the per-layer crossing deltas. Core.Measurement.run keeps its
   engine private, so set-up is timed by building each path's topology
   once more on its own, and subtracted from the runs. *)
let ffwrite_rep ~samples ~seed ~scale ~traced =
  let n = max 50 (int_of_float (float_of_int samples *. scale)) in
  let (), setup =
    measure (fun () ->
        List.iter
          (fun p ->
            span "setup_connected" (fun () ->
                let mt, _, _ =
                  Core.Measurement.setup_connected ~seed ~mode:(path_mode p)
                    ~write_size:64 ()
                in
                mt.Core.Scenarios.mt_built.Core.Scenarios.stop ()))
          paths)
  in
  if traced then reset_instruments ();
  let results, calls =
    measure (fun () ->
        List.map
          (fun p ->
            span
              ("measurement_run " ^ Core.Measurement.path_label p)
              (fun () -> Core.Measurement.run ~iterations:n ~seed p))
          paths)
  in
  let stage_vns = if traced then flowtrace_stage_vns () else [] in
  let live_peak =
    if traced then
      match
        Dsim.Metrics.find_gauge Dsim.Metrics.default
          ~labels:[ ("host", "10.0.0.1") ]
          "netstack_live_sockets"
      with
      | Some g -> Dsim.Metrics.level g
      | None -> 0
    else 0
  in
  let raw = List.map (fun r -> r.Core.Measurement.raw) results in
  let p50s = Array.of_list (List.map (fun s -> pct s 50.) raw) in
  let s2c = List.nth raw 3 in
  let busy =
    Array.fold_left (fun acc x -> acc +. think_ns +. x) 0.
      (Dsim.Stats.to_array s2c)
  in
  let got = List.fold_left (fun acc s -> acc + Dsim.Stats.count s) 0 raw in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a < b && ordered rest
    | _ -> true
  in
  {
    setup_s = setup.c_wall_s;
    window = minus calls setup;
    cover = calls;
    sim_vs = float_of_int (4 * n) *. think_ns /. 1e9;
    ops = float_of_int (Dsim.Stats.count s2c);
    op_vs = busy /. 1e9;
    payload_bits = float_of_int (64 * 8 * Dsim.Stats.count s2c);
    p50_ns = p50s.(3);
    p99_ns = pct s2c 99.;
    p999_ns = pct s2c 99.9;
    attempted = 4 * n;
    failed = (4 * n) - got;
    flows = 4;
    live_peak;
    path_p50_ns = p50s;
    stage_vns;
    checks =
      [
        ("every sample collected", got = 4 * n);
        ( "medians ordered Baseline < S1 < S2u < S2c",
          ordered (Array.to_list p50s) );
      ];
  }

(* --- Fleet churn (open loop) ---------------------------------------- *)

(* Each fleet workload offers a fixed rate below the capacity of 256
   tenants (about 5,500 flows/s, past which the backlog grows): 2,000
   flows/s from 64 tenants, a light load, and 3,000 flows/s from 256
   tenants, where the shared umtx is busier. The backlog stays bounded,
   so the window measures a steady state: flow completion times repeat
   across window lengths (p99 a few ms against a 400-600 ms window).
   Past capacity an open loop's queues grow without bound, and FCT
   would measure only how long the window ran.

   Core.Fleet.run builds, warms up, runs and rolls up in one call. A
   second run of the same seed with a zero-length window repeats the
   first one's set-up exactly: it times set-up, and its counts (the
   flows that finished during warmup) are subtracted, so flow and byte
   counts cover the window alone. The FCT percentiles come from the
   library and also hold those warmup flows, about 5% of the samples.
   Fleet.run owns the flow-trace registry and clears it on return: the
   traced stage latencies come from its per-tenant rollups instead
   (trace-weighted mean of the tenants' stage medians). *)
let fleet_warmup = Dsim.Time.ms 20

let fleet_rep ~tenants ~flows_per_s ~window ~seed ~scale ~traced =
  let profile =
    {
      Core.Fleet.quick with
      Core.Fleet.p_warmup = scaled fleet_warmup scale;
      p_duration = scaled window scale;
      p_arrival_mean_ns = float_of_int tenants /. flows_per_s *. 1e9;
    }
  in
  if traced then reset_instruments ();
  let r, calls =
    measure (fun () ->
        span "fleet_run" (fun () -> Core.Fleet.run ~profile ~tenants ~seed ()))
  in
  let stage_vns =
    let acc = Hashtbl.create 32 and weight = ref 0 in
    List.iter
      (fun (t : Dsim.Tenancy.rollup) ->
        let w = t.Dsim.Tenancy.r_traces in
        if w > 0 then begin
          weight := !weight + w;
          List.iter
            (fun (st, v) ->
              Hashtbl.replace acc st
                ((v *. float_of_int w)
                +. Option.value ~default:0. (Hashtbl.find_opt acc st)))
            t.Dsim.Tenancy.r_stage_p50_ns
        end)
      r.Core.Fleet.r_rollups;
    Hashtbl.fold
      (fun st v l -> (st, v /. float_of_int (max 1 !weight)) :: l)
      acc []
  in
  (* Set-up runs after the measured run so it cannot inflate the heap
     high-water mark the first replica reports, and uninstrumented so the
     traced counters cover the measured run alone. *)
  set_instruments false;
  let zero = { profile with Core.Fleet.p_duration = Dsim.Time.zero } in
  let z, setup =
    measure (fun () ->
        span "fleet_run (zero window)" (fun () ->
            Core.Fleet.run ~profile:zero ~tenants ~seed ()))
  in
  let window_vs = Dsim.Time.to_float_sec profile.Core.Fleet.p_duration in
  let flows = r.Core.Fleet.r_flows - z.Core.Fleet.r_flows in
  let failed = r.Core.Fleet.r_failed - z.Core.Fleet.r_failed in
  {
    setup_s = setup.c_wall_s;
    window = minus calls setup;
    cover = calls;
    sim_vs = window_vs;
    ops = float_of_int flows;
    op_vs = window_vs;
    payload_bits =
      float_of_int (r.Core.Fleet.r_bytes - z.Core.Fleet.r_bytes) *. 8.;
    p50_ns = r.Core.Fleet.r_fct_p50_ns;
    p99_ns = r.Core.Fleet.r_fct_p99_ns;
    p999_ns = r.Core.Fleet.r_fct_p999_ns;
    attempted = flows + failed;
    failed;
    flows = flows + failed;
    live_peak = r.Core.Fleet.r_live_socks_peak;
    path_p50_ns = [||];
    stage_vns;
    checks =
      ("flows completed in the window", flows > 0)
      :: List.map
           (fun (g, ok, _) -> ("fleet gate " ^ g, ok))
           r.Core.Fleet.r_gates;
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  rep_s : float;
      (** Nominal wall seconds of one replica on the reference 2-core
          machine: it sets how many replicas fill --seconds. *)
  run : seed:int64 -> scale:float -> traced:bool -> rep;
}

let workloads =
  [
    {
      w_name = "tcp_rx_s1";
      rep_s = 1.75;
      run =
        tcp_rep ~ports:2 ~window:(Dsim.Time.ms 200) ~build:(fun seed ->
            Core.Scenarios.build_dual_port ~cheri:true ~seed
              ~direction:Core.Scenarios.Dut_receives ());
    };
    {
      w_name = "tcp_tx_s2c";
      rep_s = 1.45;
      run =
        tcp_rep ~ports:1 ~window:(Dsim.Time.ms 400) ~build:(fun seed ->
            Core.Scenarios.build_scenario2 ~contended:true ~seed
              ~direction:Core.Scenarios.Dut_sends ());
    };
    { w_name = "ffwrite_64b"; rep_s = 3.0; run = ffwrite_rep ~samples:3000 };
    {
      w_name = "fleet_64";
      rep_s = 1.45;
      run =
        fleet_rep ~tenants:64 ~flows_per_s:2000. ~window:(Dsim.Time.ms 600);
    };
    {
      w_name = "fleet_256";
      rep_s = 1.7;
      run =
        fleet_rep ~tenants:256 ~flows_per_s:3000. ~window:(Dsim.Time.ms 400);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks and crossing deltas (traced runs)                   *)
(* ------------------------------------------------------------------ *)

(* Six primitives timed in isolation give the host cost per call of the
   layers Profile cannot separate: cheri and dpdk run inside
   netstack:loop. They do not depend on the workload, but a wall-clock
   reading only means something when it is measured, so every traced
   run times them. Five are also subjects of bench/main.ml's bechamel
   micro-benchmarks; this copy keeps the benchmark in one directory. *)

(* ns per call of the fastest of fifteen timed batches, the one the rest
   of the machine disturbed least; the batch is doubled until one takes
   [batch_ns]. *)
let micro ~batch_ns name f =
  span ("micro " ^ name) (fun () ->
      let time k =
        let t0 = now_ns () in
        for _ = 1 to k do
          f ()
        done;
        now_ns () - t0
      in
      let rec size k =
        if k >= 1 lsl 22 || time k >= batch_ns then k else size (2 * k)
      in
      let k = size 16 in
      List.init 15 (fun _ -> float_of_int (time k) /. float_of_int k)
      |> List.fold_left Float.min infinity)

let micros ~scale =
  let batch_ns = max 100_000 (int_of_float (4e6 *. scale)) in
  let micro = micro ~batch_ns in
  let cap =
    Cheri.Capability.root ~base:0x1000 ~length:4096 ~perms:Cheri.Perms.data
  in
  let mem = Cheri.Tagged_memory.create ~size:(1 lsl 16) in
  let check =
    micro "check_access" (fun () ->
        Cheri.Capability.check_access cap Cheri.Capability.Load ~addr:0x1000
          ~len:16)
  in
  let borrow =
    micro "borrow" (fun () ->
        ignore
          (Sys.opaque_identity
             (Cheri.Tagged_memory.borrow mem ~cap ~addr:0x1000 ~len:1514)))
  in
  let loop_once =
    let mt, _, _ =
      Core.Measurement.setup_connected ~mode:`Direct ~write_size:64 ()
    in
    mt.Core.Scenarios.mt_built.Core.Scenarios.stop ();
    micro "loop_once" (fun () ->
        ignore (Netstack.Stack.loop_once mt.Core.Scenarios.mt_stack))
  in
  (* The peer window is forced shut so no segment leaves; the send
     buffer is drained by hand, standing in for the ACK clock. *)
  let ff_write =
    let mt, fd, buf =
      Core.Measurement.setup_connected ~seed:52L ~mode:`Direct ~write_size:64 ()
    in
    mt.Core.Scenarios.mt_built.Core.Scenarios.stop ();
    let sock =
      Option.get (Netstack.Stack.tcp_sock_of_fd mt.Core.Scenarios.mt_stack fd)
    in
    let cb = sock.Netstack.Socket.cb in
    cb.Netstack.Tcp_cb.snd_wnd <- 0;
    let ff = mt.Core.Scenarios.mt_ff in
    micro "ff_write" (fun () ->
        match Netstack.Ff_api.ff_write ff fd ~buf ~nbytes:64 with
        | Ok n -> Netstack.Ring_buf.drop cb.Netstack.Tcp_cb.snd_buf n
        | Error _ -> ())
  in
  let engine = Dsim.Engine.create () in
  let trampoline =
    let iv =
      Capvm.Intravisor.create engine ~mem_size:(1 lsl 20)
        ~cost:Dsim.Cost_model.default
    in
    let cvm = Capvm.Intravisor.create_cvm iv ~name:"bench" ~size:(1 lsl 16) in
    micro "trampoline" (fun () ->
        ignore (Capvm.Intravisor.trampoline iv ~into:cvm (fun () -> ())))
  in
  let umtx =
    let mu = Capvm.Umtx.create engine () in
    micro "umtx" (fun () ->
        Capvm.Umtx.acquire mu ~owner:"bench" (fun ~wait_ns:_ -> ());
        Capvm.Umtx.release mu)
  in
  [
    ("cheri.check_ns", check);
    ("cheri.borrow_ns", borrow);
    ("netstack.loop_once_ns", loop_once);
    ("netstack.ff_write_ns", ff_write);
    ("intravisor.trampoline_ns", trampoline);
    ("intravisor.umtx_ns", umtx);
  ]

(* Figs. 4-6 as layer costs: the median ff_write delta that each
   configuration step adds, from the ffwrite workload's own samples.
   They depend on the seed alone, not on the workload, so the other
   workloads, which make no ff_write samples, report 0. *)
let crossing_deltas (reps : rep list) =
  let p50 i =
    match (List.hd reps).path_p50_ns with
    | [||] -> 0.
    | _ -> mean (List.map (fun r -> r.path_p50_ns.(i)) reps)
  in
  [
    ("intravisor.clock_tramp_vns", p50 1 -. p50 0);
    ("intravisor.crossing_vns", p50 2 -. p50 1);
    ("intravisor.contention_vns", p50 3 -. p50 2);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one traced replica                              *)
(* ------------------------------------------------------------------ *)

let series_sum ?(where = fun _ -> true) series name =
  List.fold_left
    (fun acc (n, labels, v) ->
      if n <> name || not (where labels) then acc
      else
        match v with
        | Dsim.Metrics.Counter_value c | Dsim.Metrics.Gauge_value c ->
          acc +. float_of_int c
        | Dsim.Metrics.Histogram_value { sum; _ } -> acc +. sum)
    0. series

let hist_count series name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with
      | Dsim.Metrics.Histogram_value { n = k; _ } when n = name ->
        acc +. float_of_int k
      | _ -> acc)
    0. series

(* [u] is the untraced replica, [t] its traced twin: wall-clock and GC
   figures come from [u], counts from the instruments. *)
let layer_values ~(u : rep) ~(t : rep) =
  let series = Dsim.Metrics.snapshot Dsim.Metrics.default in
  let sum ?where name = series_sum ?where series name in
  let dir d labels = List.mem ("dir", d) labels in
  let rows = Dsim.Profile.rows Dsim.Profile.default in
  let self comps =
    List.fold_left
      (fun acc (r : Dsim.Profile.row) ->
        if List.mem r.r_component comps then acc +. r.r_self_ns else acc)
      0. rows
  in
  let total_self = Dsim.Profile.total_self_ns Dsim.Profile.default in
  let loops =
    List.fold_left
      (fun acc (r : Dsim.Profile.row) ->
        match (r.r_component, r.r_stage) with
        | "netstack", ("loop" | "loop_hold") -> acc +. float_of_int r.r_events
        | _ -> acc)
      0. rows
  in
  let pkts = sum "dpdk_packets_total" in
  let rx_bursts = sum ~where:(dir "rx") "dpdk_bursts_total" in
  let tx_bursts = sum ~where:(dir "tx") "dpdk_bursts_total" in
  let crossings = sum "trampoline_crossings_total" in
  let acquisitions = sum "umtx_acquisitions_total" in
  let stages names =
    List.fold_left
      (fun acc st ->
        acc +. Option.value ~default:0. (List.assoc_opt st t.stage_vns))
      0. names
  in
  let per_pkt x = ratio x pkts in
  [
    ("dsim.events_per_pkt", per_pkt (float_of_int u.cover.c_events));
    ( "dsim.wall_ns_per_event",
      ratio (u.cover.c_wall_s *. 1e9) (float_of_int u.cover.c_events) );
    ("dsim.major_gcs", float_of_int u.cover.c_majors);
    ( "dsim.tracing_overhead_pct",
      100. *. (ratio t.cover.c_wall_s u.cover.c_wall_s -. 1.) );
    ("cheri.tag_writes_per_pkt", per_pkt (sum "cheri_tag_writes_total"));
    ("cheri.faults", sum "capability_faults_total");
    ("nic.host_ns_per_pkt", per_pkt (self [ "nic" ]));
    ("nic.vns_per_pkt", stages nic_stages);
    ("nic.dma_bytes_per_pkt", per_pkt (sum "nic_dma_bytes_total"));
    ("nic.drops", sum "nic_drops");
    ( "dpdk.rx_pkts_per_burst",
      ratio (sum ~where:(dir "rx") "dpdk_packets_total") rx_bursts );
    ( "dpdk.tx_pkts_per_burst",
      ratio (sum ~where:(dir "tx") "dpdk_packets_total") tx_bursts );
    ("dpdk.empty_poll_pct", 100. *. ratio (loops -. rx_bursts) loops);
    ("dpdk.vns_per_pkt", stages dpdk_stages);
    ("dpdk.mbuf_alloc_failures", sum "dpdk_mbuf_alloc_failures_total");
    ("netstack.host_ns_per_pkt", per_pkt (self [ "netstack" ]));
    ("netstack.loops_per_pkt", per_pkt loops);
    ("netstack.vns_per_pkt", stages netstack_stages);
    ("netstack.retransmits", sum "tcp_retransmits_total");
    ("netstack.window_stalls", sum "tcp_window_stalls_total");
    ( "netstack.epoll_wakeups_per_flow",
      ratio (sum "epoll_wakeups_total") (float_of_int t.flows) );
    ("netstack.rx_dropped", sum "netstack_rx_dropped_total");
    ("netstack.live_sockets_peak", float_of_int t.live_peak);
    ("intravisor.crossings_per_pkt", per_pkt crossings);
    ( "intravisor.umtx_contended_pct",
      100. *. ratio (sum "umtx_contended_total") acquisitions );
    ( "intravisor.umtx_wait_vns",
      ratio (sum "umtx_wait_ns") (hist_count series "umtx_wait_ns") );
    ( "intravisor.host_ns_per_crossing",
      ratio (self [ "intravisor" ]) crossings );
    ( "core.harness_share_pct",
      100. *. ratio (self [ "app"; "measure"; "fleet" ]) total_self );
  ]

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_speed", "vs/s");
    ("heap_peak_mb", "MB");
    ("alloc_words_per_op", "words");
    ("goodput_mbit", "Mbit/s");
    ("ops_per_s", "1/vs");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
  ]

let per_layer =
  [
    ("dsim.events_per_pkt", "1/pkt");
    ("dsim.wall_ns_per_event", "ns");
    ("dsim.major_gcs", "count");
    ("dsim.tracing_overhead_pct", "%");
    ("cheri.check_ns", "ns");
    ("cheri.borrow_ns", "ns");
    ("cheri.tag_writes_per_pkt", "1/pkt");
    ("cheri.faults", "count");
    ("nic.host_ns_per_pkt", "ns");
    ("nic.vns_per_pkt", "vns");
    ("nic.dma_bytes_per_pkt", "B");
    ("nic.drops", "count");
    ("dpdk.rx_pkts_per_burst", "pkts");
    ("dpdk.tx_pkts_per_burst", "pkts");
    ("dpdk.empty_poll_pct", "%");
    ("dpdk.vns_per_pkt", "vns");
    ("dpdk.mbuf_alloc_failures", "count");
    ("netstack.host_ns_per_pkt", "ns");
    ("netstack.loop_once_ns", "ns");
    ("netstack.ff_write_ns", "ns");
    ("netstack.loops_per_pkt", "1/pkt");
    ("netstack.vns_per_pkt", "vns");
    ("netstack.retransmits", "count");
    ("netstack.window_stalls", "count");
    ("netstack.epoll_wakeups_per_flow", "1/flow");
    ("netstack.rx_dropped", "count");
    ("netstack.live_sockets_peak", "count");
    ("intravisor.crossings_per_pkt", "1/pkt");
    ("intravisor.umtx_contended_pct", "%");
    ("intravisor.umtx_wait_vns", "vns");
    ("intravisor.clock_tramp_vns", "vns");
    ("intravisor.crossing_vns", "vns");
    ("intravisor.contention_vns", "vns");
    ("intravisor.trampoline_ns", "ns");
    ("intravisor.umtx_ns", "ns");
    ("intravisor.host_ns_per_crossing", "ns");
    ("core.harness_share_pct", "%");
  ]

(* Virtual-time metrics are means over replicas (each replica is
   deterministic); wall-clock ones are medians. Latency percentiles are
   each replica's own, averaged: the fleet runs report percentiles, not
   samples. *)
let end_to_end_values ~heap_words (reps : rep list) =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reps in
  let ops = sum (fun r -> r.ops) in
  let op_vs = sum (fun r -> r.op_vs) in
  [
    ("setup_s", median (List.map (fun r -> r.setup_s) reps));
    ( "sim_speed",
      median (List.map (fun r -> r.sim_vs /. r.window.c_wall_s) reps) );
    ("heap_peak_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
    ("alloc_words_per_op", ratio (sum (fun r -> r.window.c_words)) ops);
    ("goodput_mbit", ratio (sum (fun r -> r.payload_bits)) op_vs /. 1e6);
    ("ops_per_s", ratio ops op_vs);
    ("op_p50_us", mean (List.map (fun r -> r.p50_ns /. 1e3) reps));
    ("op_p99_us", mean (List.map (fun r -> r.p99_ns /. 1e3) reps));
  ]

(* ------------------------------------------------------------------ *)
(* Run                                                                  *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  scale : float;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed S] [--seconds N] [--trace 0|1] \
     [--scale F]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.w_name) workloads));
  exit 2

let parse_args () =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: s :: rest -> go { o with seed = Int64.of_string s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      go { o with trace = t = "1" } rest
    | "--scale" :: s :: rest -> go { o with scale = float_of_string s } rest
    | _ -> usage ()
  in
  match
    go
      { workload = ""; seed = 42L; seconds = 10.; trace = false; scale = 1. }
      (List.tl (Array.to_list Sys.argv))
  with
  | o when o.scale > 0. && o.seconds > 0. -> o
  | _ -> usage ()
  | exception Failure _ -> usage ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics units =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
              (json_number (List.assoc name metrics))
              unit)
          units))

let print_metrics title metrics units =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-34s %16.6g %s\n" name (List.assoc name metrics) unit)
    units

let () =
  let o = parse_args () in
  let w =
    match List.find_opt (fun w -> w.w_name = o.workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let reps =
    if o.scale < 1. then 1
    else max 1 (int_of_float (Float.round (o.seconds /. w.rep_s)))
  in
  Printf.printf "edgebench %s seed=%Ld replicas=%d trace=%d scale=%g\n%!"
    w.w_name o.seed reps (if o.trace then 1 else 0) o.scale;
  spans_on := o.trace;
  let heap_words = ref 0 in
  let replica r ~traced =
    Gc.full_major ();
    set_instruments traced;
    let seed = Int64.add (Int64.mul o.seed 1000L) (Int64.of_int r) in
    let x =
      Fun.protect
        ~finally:(fun () -> set_instruments false)
        (fun () ->
          span
            (Printf.sprintf "replica %d%s" r (if traced then " traced" else ""))
            (fun () -> w.run ~seed ~scale:o.scale ~traced))
    in
    if r = 0 && not traced then
      heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    x
  in
  (* Untraced and traced twins alternate, so host noise hits both alike. *)
  let pairs =
    List.init reps (fun r ->
        let u = replica r ~traced:false in
        if o.trace then
          let t = replica r ~traced:true in
          (u, Some (t, layer_values ~u ~t))
        else (u, None))
  in
  let untraced = List.map fst pairs in
  let twins =
    List.filter_map
      (fun (u, t) -> Option.map (fun (t, layer) -> (u, t, layer)) t)
      pairs
  in
  let e2e = end_to_end_values ~heap_words:!heap_words untraced in
  print_metrics "end-to-end:" e2e end_to_end;
  Printf.printf "  %-34s %16.6g us (not gated: under 10 samples beyond it \
                 per replica)\n"
    "op_p999_us"
    (mean (List.map (fun r -> r.p999_ns /. 1e3) untraced));
  let layers =
    if not o.trace then []
    else begin
      let per_rep = List.map (fun (_, _, layer) -> layer) twins in
      let averaged =
        List.map
          (fun (name, _) -> (name, mean (List.map (List.assoc name) per_rep)))
          (List.hd per_rep)
      in
      let layers =
        averaged @ crossing_deltas untraced @ micros ~scale:o.scale
      in
      print_metrics "per-layer:" layers per_layer;
      layers
    end
  in
  let checks =
    List.concat_map (fun r -> r.checks) untraced
    @ List.map
        (fun (u, t, _) ->
          ( "traced replica reproduces every virtual-time output",
            virtual_outputs u = virtual_outputs t ))
        twins
    @
    if o.trace then
      [ ("no capability faults", List.assoc "cheri.faults" layers = 0.) ]
    else []
  in
  Printf.printf "checks:\n";
  List.iter
    (fun (name, ok) ->
      Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    (List.sort_uniq compare checks);
  let correct = List.for_all snd checks in
  if o.trace then
    write_file
      (Printf.sprintf "BENCH_trace.%s.json" w.w_name)
      (Dsim.Json.to_string (spans_json ()));
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 untraced in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 untraced in
  let metrics, units =
    if o.trace then (layers, per_layer) else (e2e, end_to_end)
  in
  print_endline (result_line ~correct ~attempted ~failed metrics units);
  exit (if correct then 0 else 1)
