module Ch = Dsim.Chaos
module V = Dsim.Verdict
module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor
module Br = Blast_radius

let k_chaos stage =
  Dsim.Profile.(key default) ~component:"chaos" ~cvm:"-" ~stage

let labels = { Br.arm = k_chaos "warmup_arm"; tick = k_chaos "sample_tick" }
let k_inject = k_chaos "inject"
let k_heartbeat = k_chaos "heartbeat"

type profile = {
  window : Br.window;
  sample_every : Dsim.Time.t;
  flap_down : Dsim.Time.t;
  mbuf_window : Dsim.Time.t;
  eintr_every : Dsim.Time.t;
}

let quick =
  {
    window = { warmup = Time.ms 6; duration = Time.ms 30 };
    sample_every = Time.ms 1;
    flap_down = Time.us 400;
    mbuf_window = Time.us 300;
    eintr_every = Time.us 200;
  }

let full =
  {
    window = { warmup = Time.ms 20; duration = Time.ms 120 };
    sample_every = Time.ms 2;
    flap_down = Time.us 600;
    mbuf_window = Time.us 400;
    eintr_every = Time.us 200;
  }

type report = {
  seed : int64;
  injected : int;
  recovered : int;
  attributed : int;
  pending : int;
  counts : (Ch.kind * V.tally) list;
  phases : Br.phase list;
  pass : bool;
  text : string;
}

(* ------------------------------------------------------------------ *)
(* Injected capability faults                                          *)
(* ------------------------------------------------------------------ *)

type cap_injector = {
  ci_hook : Capvm.Cvm.t -> unit;
  ci_arm : string -> unit;
  ci_on_transition : cvm:string -> old_state:Sup.state -> Sup.state -> unit;
  ci_set_engine : Engine.t -> unit;
}

let cap_injector ch =
  let engine_ref = ref None in
  let due : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let open_faults : (string, (int * float) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let now_ns () =
    match !engine_ref with
    | Some e -> Time.to_float_ns (Engine.now e)
    | None -> 0.
  in
  let hook cvm =
    let name = Capvm.Cvm.name cvm in
    if Hashtbl.mem due name then begin
      Hashtbl.remove due name;
      let at_ns = now_ns () in
      let id = Ch.inject ch Ch.Cap_fault ~at_ns ~target:name in
      let r =
        match Hashtbl.find_opt open_faults name with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace open_faults name r;
          r
      in
      r := (id, at_ns) :: !r;
      Cheri.Fault.raise_fault Cheri.Fault.Tag_violation ~address:0
        ~detail:"chaos: injected capability fault"
    end
  in
  let resolve name f =
    match Hashtbl.find_opt open_faults name with
    | Some r ->
      List.iter f !r;
      r := []
    | None -> ()
  in
  let on_transition ~cvm ~old_state st =
    match (old_state, st) with
    | Sup.Restarting, Sup.Running ->
      let now = now_ns () in
      resolve cvm (fun (id, at) ->
          Ch.resolve ch id (V.Recovered { ttr_ns = now -. at }))
    | _, Sup.Dead ->
      resolve cvm (fun (id, _) ->
          Ch.resolve ch id
            (V.Caught { stage = "supervisor"; reason = "quarantined" }))
    | _ -> ()
  in
  {
    ci_hook = hook;
    ci_arm = (fun name -> Hashtbl.replace due name ());
    ci_on_transition = on_transition;
    ci_set_engine = (fun e -> engine_ref := Some e);
  }

(* Did the victim still move bytes in the last few sample windows?
   (End-to-end health check gating the bulk dup/reorder resolution.) *)
let tail_healthy samples label =
  match List.assoc_opt label samples with
  | None | Some [] -> false
  | Some l ->
    let n = List.length l in
    List.exists
      (fun (_, _, d) -> d > 0)
      (List.filteri (fun i _ -> i >= n - 3) l)

(* ------------------------------------------------------------------ *)
(* Phase A: Scenario 1 dual-port, victim port 0                        *)
(* ------------------------------------------------------------------ *)

let phase_a ch profile ~seed ~blackbox_dir =
  let topo_seed = Int64.add seed 1L in
  let direction = Scenarios.Dut_receives in
  let victim = "cVM1" and sibling = "cVM2" in
  let w = profile.window and sample_every = profile.sample_every in
  let twin =
    Br.twin labels w ~sample_every (fun () ->
        Scenarios.build_dual_port ~seed:topo_seed ~direction ())
  in
  let ci = cap_injector ch in
  let supervise, sup_ref = Br.supervisor ~seed:(Int64.add seed 101L) () in
  let built =
    Scenarios.build_dual_port ~seed:topo_seed ~supervise ~app_hook:ci.ci_hook
      ~direction ()
  in
  let engine = built.Scenarios.engine in
  ci.ci_set_engine engine;
  let sup = Br.get_sup sup_ref in
  Sup.set_on_transition sup (Some ci.ci_on_transition);
  Sup.set_blackbox_dir sup blackbox_dir;
  (* Wire chaos on the victim's link only; port 1 is the control. *)
  let link0 = List.hd built.Scenarios.links in
  Nic.Link.set_tamper link0
    (Some
       (fun ~now ~ipv4 ~len ->
         Ch.frame_opportunity ch ~at_ns:(Time.to_float_ns now) ~ipv4 ~len
           ~target:"link0"));
  Ch.set_rates ch
    { Ch.wire_flip = 1.5e-3; dma_flip = 1.5e-3; drop = 1.5e-3; dup = 8e-4;
      reorder = 8e-4 };
  (* RX DMA-descriptor errors on the victim port. The device attributes
     the drop (Rx_dma/Dma_error + rx_dma_errors) synchronously, so the
     ledger entry resolves immediately. *)
  let p0 = Topology.port built.Scenarios.dut 0 in
  Nic.Igb.set_rx_fault p0
    (Some
       (fun ~len:_ ->
         if Ch.armed ch && Ch.draw ch ~p:4e-4 then begin
           let at_ns = Time.to_float_ns (Engine.now engine) in
           let id = Ch.inject ch Ch.Dma_desc_error ~at_ns ~target:"morello/port0" in
           Ch.resolve ch id
             (V.Caught { stage = "rx_dma"; reason = "dma_error" });
           true
         end
         else false));
  (* Singular scheduled faults. *)
  let flap = ref None and mbuf = ref None in
  let pool = (List.hd built.Scenarios.dut_netifs).Topology.pool in
  let stolen = ref [] in
  Engine.schedule_at engine ~at:(Br.frac w 0.30) ~label:k_inject (fun () ->
      let at_ns = Time.to_float_ns (Engine.now engine) in
      flap := Some (Ch.inject ch Ch.Link_flap ~at_ns ~target:"link0", at_ns);
      Nic.Link.set_up link0 false;
      Engine.schedule engine ~delay:profile.flap_down ~label:k_inject (fun () ->
          Nic.Link.set_up link0 true));
  Engine.schedule_at engine ~at:(Br.frac w 0.55) ~label:k_inject (fun () ->
      let at_ns = Time.to_float_ns (Engine.now engine) in
      let id =
        Ch.inject ch Ch.Mbuf_exhaust ~at_ns
          ~target:(Dpdk.Mbuf.pool_name pool)
      in
      let rec steal () =
        match Dpdk.Mbuf.alloc pool with
        | Some m ->
          stolen := m :: !stolen;
          steal ()
        | None -> ()
      in
      steal ();
      Engine.schedule engine ~delay:profile.mbuf_window ~label:k_inject (fun () ->
          List.iter Dpdk.Mbuf.free !stolen;
          stolen := [];
          (* Only now can the watcher call it recovered. *)
          mbuf := Some (id, at_ns)));
  Engine.schedule_at engine ~at:(Br.frac w 0.18) ~label:k_inject (fun () ->
      ci.ci_arm victim);
  Engine.schedule_at engine ~at:(Br.frac w 0.45) ~label:k_inject (fun () ->
      ci.ci_arm victim);
  Engine.schedule_at engine ~at:(Br.frac w 0.80) ~label:k_inject (fun () ->
      Ch.set_armed ch false);
  (* Flap and exhaustion count as recovered when the victim moves
     application bytes again after the outage ends. *)
  let on_tick ~now_ns deltas =
    let vdelta =
      match List.assoc_opt victim deltas with Some d -> d | None -> 0
    in
    if vdelta > 0 then begin
      (match !flap with
      | Some (id, at) when Nic.Link.up link0 ->
        Ch.resolve ch id (V.Recovered { ttr_ns = now_ns -. at });
        flap := None
      | _ -> ());
      match !mbuf with
      | Some (id, at) ->
        Ch.resolve ch id (V.Recovered { ttr_ns = now_ns -. at });
        mbuf := None
      | None -> ()
    end
  in
  let samples =
    Br.drive labels w ~sample_every ~on_tick
      ~after_warmup:(fun () -> Ch.set_armed ch true)
      built
  in
  Ch.set_armed ch false;
  Nic.Igb.set_rx_fault p0 None;
  Nic.Link.set_tamper link0 None;
  Ch.set_rates ch Ch.zero_rates;
  let phase =
    Br.measure
      ~title:"phase A: scenario 1 dual-port, wire+NIC+cVM chaos on port 0"
      ~victim ~sibling
      ~windows:
        (Sup.quarantine_windows sup ~cvm:(List.hd built.Scenarios.app_cvms))
      ~samples ~twin
  in
  (* Attribution reconciliation against the detectors' own counters. *)
  let crc_observed =
    let s0 = Nic.Igb.stats (Topology.port built.Scenarios.dut 0) in
    let s1 = Nic.Igb.stats (Topology.port built.Scenarios.peer 0) in
    s0.Nic.Port_stats.rx_crc_errors + s1.Nic.Port_stats.rx_crc_errors
  in
  Ch.resolve_pending ch ~limit:crc_observed Ch.Wire_bit_flip
    (V.Caught { stage = "rx_dma"; reason = "fcs_error" });
  let csum_observed =
    List.fold_left
      (fun acc ((_, r), n) ->
        (* Any typed parse reject can be the surface symptom of a
           flipped DMA byte — a corrupted length field lands on
           Bad_length, a corrupted fragment word on Frag_unsupported. *)
        match r with
        | Ft.Bad_checksum | Ft.Parse_error | Ft.Bad_length | Ft.Bad_option
        | Ft.Frag_unsupported ->
          acc + n
        | _ -> acc)
      0 phase.Br.drops
  in
  Ch.resolve_pending ch ~limit:csum_observed Ch.Dma_bit_flip
    (V.Caught { stage = "ip_rx"; reason = "bad_checksum" });
  (* Dups and reorders are absorbed by TCP sequencing; once end-to-end
     health is verified they are recovered with no measurable TTR. *)
  if tail_healthy samples victim then begin
    Ch.resolve_pending ch Ch.Frame_dup (V.Recovered { ttr_ns = 0. });
    Ch.resolve_pending ch Ch.Frame_reorder (V.Recovered { ttr_ns = 0. })
  end;
  phase

(* ------------------------------------------------------------------ *)
(* Phase B: Scenario 2 contended, victim cVM3                          *)
(* ------------------------------------------------------------------ *)

let phase_b ch profile ~seed ~blackbox_dir =
  let topo_seed = Int64.add seed 2L in
  let direction = Scenarios.Dut_sends in
  let victim = "cVM3" and sibling = "cVM2" in
  let w = profile.window and sample_every = profile.sample_every in
  (* FIFO lock hand-off: under the default barging policy the throttled
     cVM3 can be starved of the mutex for tens of milliseconds (the
     paper's Table II unfairness), which would push the injected fault
     schedule past the run's end. The twin uses the same policy. *)
  let build ?supervise ?app_hook () =
    Scenarios.build_scenario2 ~seed:topo_seed ~contended:true
      ~lock_policy:Capvm.Umtx.Fifo ?supervise ?app_hook ~direction ()
  in
  let twin = Br.twin labels w ~sample_every build in
  let ci = cap_injector ch in
  let supervise, sup_ref =
    Br.supervisor ~policy:Br.restart_once ~seed:(Int64.add seed 102L) ()
  in
  let built = build ~supervise ~app_hook:ci.ci_hook () in
  let engine = built.Scenarios.engine in
  ci.ci_set_engine engine;
  let sup = Br.get_sup sup_ref in
  Sup.set_on_transition sup (Some ci.ci_on_transition);
  Sup.set_blackbox_dir sup blackbox_dir;
  let victim_cvm = List.nth built.Scenarios.app_cvms 1 in
  (* Transient-EINTR chaos through the victim's libc: a heartbeat
     syscall stream whose attempts fail with probability 0.25 while
     armed; the shim's TEMP_FAILURE_RETRY loop recovers every one and
     reports the retry cost, which is the injection's TTR. *)
  let shim =
    Capvm.Musl_shim.create (Topology.intravisor built.Scenarios.dut) victim_cvm
  in
  let eintr_open = ref [] in
  Capvm.Musl_shim.set_transient shim
    (Some
       {
         Capvm.Musl_shim.should_fail =
           (fun ~attempt ->
             if attempt = 0 && Ch.armed ch && Ch.draw ch ~p:0.25 then begin
               let at_ns = Time.to_float_ns (Engine.now engine) in
               eintr_open :=
                 Ch.inject ch Ch.Syscall_eintr ~at_ns ~target:victim
                 :: !eintr_open;
               true
             end
             else false);
         note_recovery =
           (fun ~retries:_ ~backoff_ns ->
             List.iter
               (fun id ->
                 Ch.resolve ch id (V.Recovered { ttr_ns = backoff_ns }))
               !eintr_open;
             eintr_open := []);
       });
  let t_end = Time.add w.warmup w.duration in
  let rec heartbeat () =
    if Ch.armed ch && Sup.state sup ~cvm:victim_cvm = Sup.Running then
      ignore (Capvm.Musl_shim.clock_gettime shim);
    if Time.(Engine.now engine < t_end) then
      Engine.schedule engine ~delay:profile.eintr_every ~label:k_heartbeat heartbeat
  in
  Engine.schedule_at engine ~at:w.warmup ~label:k_heartbeat heartbeat;
  Engine.schedule_at engine ~at:(Br.frac w 0.25) ~label:k_inject (fun () ->
      ci.ci_arm victim);
  Engine.schedule_at engine ~at:(Br.frac w 0.60) ~label:k_inject (fun () ->
      ci.ci_arm victim);
  Engine.schedule_at engine ~at:(Br.frac w 0.80) ~label:k_inject (fun () ->
      Ch.set_armed ch false);
  let samples =
    Br.drive labels w ~sample_every
      ~after_warmup:(fun () -> Ch.set_armed ch true)
      built
  in
  Ch.set_armed ch false;
  Capvm.Musl_shim.set_transient shim None;
  Br.measure
    ~title:"phase B: scenario 2 contended, cap faults under the shared mutex"
    ~victim ~sibling
    ~windows:(Sup.quarantine_windows sup ~cvm:victim_cvm)
    ~samples ~twin

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let fmt_ns ns =
  if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let ttr_line b ledger kind =
  let ttrs =
    List.filter_map
      (fun e ->
        match e.V.outcome with
        | V.Recovered { ttr_ns } when e.V.kind = kind -> Some ttr_ns
        | _ -> None)
      (V.entries ledger)
  in
  match List.sort compare ttrs with
  | [] -> ()
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    Printf.bprintf b "  %-16s n=%-4d min=%-10s p50=%-10s max=%s\n"
      (Ch.kind_name kind) n (fmt_ns (nth 0))
      (fmt_ns (nth (n / 2)))
      (fmt_ns (nth (n - 1)))

let phase_section b p =
  Printf.bprintf b "-- %s --\n" p.Br.title;
  Br.drop_lines b p;
  Br.goodput_lines b p

let run ?(profile = quick) ?blackbox_dir ~seed () =
  let ch = Ch.create ~seed in
  let phases =
    Br.with_flowtrace (fun () ->
        let pa = phase_a ch profile ~seed ~blackbox_dir in
        let pb = phase_b ch profile ~seed ~blackbox_dir in
        [ pa; pb ])
  in
  let ledger = Ch.ledger ch in
  let counts =
    List.filter_map
      (fun k ->
        let t = V.tally ~kind:k ledger in
        if t.V.total = 0 then None else Some (k, t))
      Ch.all_kinds
  in
  let { V.total = injected; recovered; caught = attributed; pending; _ } =
    V.tally ledger
  in
  let pass = pending = 0 && injected > 0 && List.for_all Br.sibling_ok phases in
  let b = Buffer.create 4096 in
  Printf.bprintf b "=== chaos blast-radius report (seed %Ld) ===\n" seed;
  Printf.bprintf b "-- fault ledger --\n";
  Printf.bprintf b "  %-16s %9s %9s %10s %8s\n" "kind" "injected" "recovered"
    "attributed" "pending";
  List.iter
    (fun (k, t) ->
      Printf.bprintf b "  %-16s %9d %9d %10d %8d\n" (Ch.kind_name k)
        t.V.total t.V.recovered t.V.caught t.V.pending)
    counts;
  Printf.bprintf b "-- time to recovery --\n";
  List.iter (ttr_line b ledger) Ch.all_kinds;
  List.iter (phase_section b) phases;
  Printf.bprintf b "fault attribution: %.1f%% (%d/%d)\n"
    (if injected = 0 then 0.
     else 100. *. float_of_int (recovered + attributed) /. float_of_int injected)
    (recovered + attributed) injected;
  Printf.bprintf b "unrecovered faults: %d\n" pending;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  {
    seed;
    injected;
    recovered;
    attributed;
    pending;
    counts;
    phases;
    pass;
    text = Buffer.contents b;
  }
