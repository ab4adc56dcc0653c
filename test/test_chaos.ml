(* Fault containment and recovery: the chaos ledger's determinism, the
   supervised cVM lifecycle, and the blast radius of injected faults. *)

let time =
  Alcotest.testable
    (fun ppf t -> Fmt.pf ppf "%gns" (Dsim.Time.to_float_ns t))
    ( = )

(* ------------------------------------------------------------------ *)
(* Chaos ledger                                                        *)

let rates =
  {
    Dsim.Chaos.wire_flip = 0.05;
    dma_flip = 0.05;
    drop = 0.05;
    dup = 0.02;
    reorder = 0.02;
  }

let lottery seed =
  let ch = Dsim.Chaos.create ~seed in
  Dsim.Chaos.set_rates ch rates;
  Dsim.Chaos.set_armed ch true;
  let actions = ref [] in
  for i = 0 to 499 do
    let a =
      Dsim.Chaos.frame_opportunity ch
        ~at_ns:(float_of_int (i * 1200))
        ~ipv4:(i mod 7 <> 0) ~len:1514 ~target:"link0"
    in
    actions := a :: !actions
  done;
  ( !actions,
    List.map
      (fun (e : Dsim.Chaos.kind Dsim.Verdict.entry) -> (e.kind, e.at_ns))
      (Dsim.Verdict.entries (Dsim.Chaos.ledger ch)) )

let ledger_determinism () =
  let a1, inj1 = lottery 7L and a2, inj2 = lottery 7L in
  Alcotest.(check bool) "same frame verdict sequence" true (a1 = a2);
  Alcotest.(check bool) "same ledger" true (inj1 = inj2);
  Alcotest.(check bool) "lottery actually fired" true (inj1 <> []);
  let _, inj3 = lottery 8L in
  Alcotest.(check bool) "different seed, different schedule" true
    (inj1 <> inj3)

let ledger_resolution () =
  let module Ch = Dsim.Chaos in
  let module V = Dsim.Verdict in
  let ch = Ch.create ~seed:1L in
  let a = Ch.inject ch Ch.Link_flap ~at_ns:10. ~target:"l" in
  let b = Ch.inject ch Ch.Cap_fault ~at_ns:20. ~target:"c" in
  ignore (Ch.inject ch Ch.Frame_dup ~at_ns:30. ~target:"l");
  let f1 = Ch.inject ch Ch.Wire_bit_flip ~at_ns:40. ~target:"l" in
  ignore (Ch.inject ch Ch.Wire_bit_flip ~at_ns:50. ~target:"l");
  let pending () = (V.tally (Ch.ledger ch)).V.pending in
  Alcotest.(check int) "all pending" 5 (pending ());
  Ch.resolve ch a (V.Recovered { ttr_ns = 500. });
  Ch.resolve ch b (V.Caught { stage = "supervisor"; reason = "quarantined" });
  (* First verdict wins. *)
  Ch.resolve ch a (V.Caught { stage = "late"; reason = "ignored" });
  Alcotest.(check int) "three left" 3 (pending ());
  Ch.resolve_pending ch Ch.Frame_dup (V.Recovered { ttr_ns = 0. });
  Alcotest.(check int) "bulk resolve" 1
    (V.tally ~kind:Ch.Frame_dup (Ch.ledger ch)).V.recovered;
  (* One detector hit marks the oldest pending flip only. *)
  Ch.resolve_pending ch ~limit:1 Ch.Wire_bit_flip
    (V.Caught { stage = "rx_dma"; reason = "fcs_error" });
  (match V.find (Ch.ledger ch) f1 with
  | Some { V.outcome = V.Caught _; _ } -> ()
  | _ -> Alcotest.fail "oldest flip not matched first");
  Alcotest.(check int) "one flip left" 1 (pending ());
  Ch.resolve_pending ch Ch.Wire_bit_flip
    (V.Caught { stage = "rx_dma"; reason = "fcs_error" });
  Alcotest.(check int) "ledger clean" 0 (pending ());
  match V.find (Ch.ledger ch) a with
  | Some { V.outcome = V.Recovered { ttr_ns }; _ } ->
    Alcotest.(check (float 0.)) "ttr recorded" 500. ttr_ns
  | _ -> Alcotest.fail "first verdict overwritten"

(* ------------------------------------------------------------------ *)
(* Wire corruption vs the FCS                                          *)

let wire_flip_caught_by_fcs () =
  let engine = Dsim.Engine.create () in
  let link = Nic.Link.create engine () in
  let got = ref None in
  Nic.Link.attach link Nic.Link.B (fun ~flow:_ ~fcs frame ->
      got := Some (fcs, Bytes.copy frame));
  Nic.Link.set_tamper link
    (Some
       (fun ~now:_ ~ipv4:_ ~len:_ ->
         Dsim.Chaos.Flip { byte = 0; bit = 3; post_fcs = false }));
  let frame = Bytes.make 64 '\x2a' in
  let pristine = Bytes.copy frame in
  ignore (Nic.Link.send link ~flow:None ~from:Nic.Link.A frame);
  Dsim.Engine.run engine;
  match !got with
  | None -> Alcotest.fail "frame not delivered"
  | Some (fcs, delivered) ->
    Alcotest.(check bool) "payload corrupted" false
      (Bytes.equal pristine delivered);
    (* The transmitting MAC computed the FCS over the clean frame; the
       receiver recomputing over the flipped bytes must mismatch. *)
    Alcotest.(check bool) "FCS catches the flip" true
      (Nic.Fcs.compute delivered <> fcs);
    Alcotest.(check int) "tamper counted" 1 (Nic.Link.tampered link)

(* ------------------------------------------------------------------ *)
(* Supervisor lifecycle                                                *)

let mk_cvm () =
  let engine = Dsim.Engine.create () in
  let iv =
    Capvm.Intravisor.create engine ~mem_size:(1 lsl 20)
      ~cost:Dsim.Cost_model.default
  in
  (engine, iv, Capvm.Intravisor.create_cvm iv ~name:"victim" ~size:(1 lsl 16))

let boom () =
  Cheri.Fault.raise_fault Cheri.Fault.Tag_violation ~address:0xdead
    ~detail:"test: injected"

let supervisor_restart_recovers () =
  let engine, _iv, cvm = mk_cvm () in
  let sup = Capvm.Supervisor.create engine ~seed:3L () in
  Capvm.Supervisor.register sup cvm;
  (match Capvm.Supervisor.run sup ~cvm (fun () -> 41 + 1) with
  | Capvm.Supervisor.Done v -> Alcotest.(check int) "normal entry" 42 v
  | _ -> Alcotest.fail "healthy entry refused");
  (match Capvm.Supervisor.run sup ~cvm boom with
  | Capvm.Supervisor.Faulted f ->
    Alcotest.(check bool) "fault surfaced" true
      (f.Cheri.Fault.kind = Cheri.Fault.Tag_violation)
  | _ -> Alcotest.fail "fault not caught");
  Alcotest.(check bool) "quarantined while backoff pends" true
    (Capvm.Supervisor.state sup ~cvm = Capvm.Supervisor.Quarantined);
  (match Capvm.Supervisor.run sup ~cvm (fun () -> 0) with
  | Capvm.Supervisor.Refused _ -> ()
  | _ -> Alcotest.fail "quarantined cVM accepted an entry");
  Dsim.Engine.run engine;
  Alcotest.(check bool) "running again after backoff" true
    (Capvm.Supervisor.state sup ~cvm = Capvm.Supervisor.Running);
  Alcotest.(check int) "one fault" 1 (Capvm.Supervisor.faults sup ~cvm);
  Alcotest.(check int) "one restart" 1 (Capvm.Supervisor.restarts sup ~cvm);
  match Capvm.Supervisor.quarantine_windows sup ~cvm with
  | [ (t0, Some t1) ] ->
    Alcotest.(check bool) "window closed forward in time" true (t1 > t0)
  | w ->
    Alcotest.failf "expected one closed quarantine window, got %d" (List.length w)

let supervisor_budget_exhaustion () =
  let engine, _iv, cvm = mk_cvm () in
  let policy =
    Capvm.Supervisor.Restart
      {
        budget = 1;
        backoff_base = Dsim.Time.us 50;
        backoff_max = Dsim.Time.ms 1;
        jitter_pct = 0.1;
      }
  in
  let sup = Capvm.Supervisor.create engine ~seed:3L ~policy () in
  Capvm.Supervisor.register sup cvm;
  let transitions = ref [] in
  Capvm.Supervisor.set_on_transition sup
    (Some (fun ~cvm:_ ~old_state:_ st -> transitions := st :: !transitions));
  ignore (Capvm.Supervisor.run sup ~cvm boom);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "budget 1: first fault survives" true
    (Capvm.Supervisor.state sup ~cvm = Capvm.Supervisor.Running);
  ignore (Capvm.Supervisor.run sup ~cvm boom);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "second fault exhausts the budget" true
    (Capvm.Supervisor.state sup ~cvm = Capvm.Supervisor.Dead);
  (match Capvm.Supervisor.run sup ~cvm (fun () -> 0) with
  | Capvm.Supervisor.Refused Capvm.Supervisor.Dead -> ()
  | _ -> Alcotest.fail "dead cVM accepted an entry");
  let seen st = List.mem st !transitions in
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Printf.sprintf "transition through %s observed"
           (Capvm.Supervisor.state_name st))
        true (seen st))
    Capvm.Supervisor.
      [ Trapped; Quarantined; Restarting; Running; Dead ];
  match List.rev (Capvm.Supervisor.quarantine_windows sup ~cvm) with
  | (_, None) :: _ -> ()
  | _ -> Alcotest.fail "permanent quarantine window should never close"

let supervisor_kill_policy () =
  let engine, _iv, cvm = mk_cvm () in
  let sup =
    Capvm.Supervisor.create engine ~seed:3L ~policy:Capvm.Supervisor.Kill ()
  in
  Capvm.Supervisor.register sup cvm;
  let released = ref false in
  Capvm.Supervisor.add_cleanup sup ~cvm (fun () -> released := true);
  ignore (Capvm.Supervisor.run sup ~cvm boom);
  Dsim.Engine.run engine;
  Alcotest.(check bool) "killed on first fault" true
    (Capvm.Supervisor.state sup ~cvm = Capvm.Supervisor.Dead);
  Alcotest.(check int) "no restart attempted" 0
    (Capvm.Supervisor.restarts sup ~cvm);
  Alcotest.(check bool) "cleanup ran" true !released

let supervisor_backoff_deterministic () =
  let windows seed =
    let engine, _iv, cvm = mk_cvm () in
    let sup = Capvm.Supervisor.create engine ~seed () in
    Capvm.Supervisor.register sup cvm;
    ignore (Capvm.Supervisor.run sup ~cvm boom);
    Dsim.Engine.run engine;
    ignore (Capvm.Supervisor.run sup ~cvm boom);
    Dsim.Engine.run engine;
    Capvm.Supervisor.quarantine_windows sup ~cvm
  in
  let w1 = windows 11L and w2 = windows 11L and w3 = windows 12L in
  Alcotest.(check (list (pair time (option time))))
    "same seed, same jittered windows" w1 w2;
  Alcotest.(check bool) "different seed, different jitter" true (w1 <> w3);
  match w1 with
  | [ (a0, Some a1); (b0, Some b1) ] ->
    (* Doubling backoff: the second outage must outlast the first even
       against 10% jitter. *)
    Alcotest.(check bool) "exponential backoff grows" true
      (Dsim.Time.to_float_ns b1 -. Dsim.Time.to_float_ns b0
      > Dsim.Time.to_float_ns a1 -. Dsim.Time.to_float_ns a0)
  | _ -> Alcotest.fail "expected two closed quarantine windows"

(* ------------------------------------------------------------------ *)
(* Scenario 2 survives an app-cVM kill with the shared mutex released  *)

let s2_survives_app_kill () =
  let sup_ref = ref None in
  let engine_ref = ref None in
  let killed = ref false in
  let built =
    Core.Scenarios.build_scenario2 ~contended:true
      ~lock_policy:Capvm.Umtx.Fifo
      ~supervise:(fun engine ->
        let s =
          Capvm.Supervisor.create engine ~seed:9L
            ~policy:Capvm.Supervisor.Kill ()
        in
        sup_ref := Some s;
        engine_ref := Some engine;
        s)
      ~app_hook:(fun cvm ->
        (* Crash cVM3 once, mid-run, while it holds the shared mutex. *)
        let engine = Option.get !engine_ref in
        if
          (not !killed)
          && Capvm.Cvm.name cvm = "cVM3"
          && Dsim.Engine.now engine >= Dsim.Time.ms 4
        then begin
          killed := true;
          Cheri.Fault.raise_fault Cheri.Fault.Tag_violation ~address:0
            ~detail:"test: crash while holding the mutex"
        end)
      ~direction:Core.Scenarios.Dut_sends ()
  in
  let sup = Option.get !sup_ref in
  let victim =
    List.find
      (fun c -> Capvm.Cvm.name c = "cVM3")
      built.Core.Scenarios.app_cvms
  in
  let sibling_bytes label =
    let f =
      List.find
        (fun f -> f.Core.Scenarios.label = label)
        built.Core.Scenarios.flows
    in
    f.Core.Scenarios.take_bytes ()
  in
  Dsim.Engine.run ~until:(Dsim.Time.ms 6) built.Core.Scenarios.engine;
  Alcotest.(check bool) "fault actually injected" true !killed;
  Alcotest.(check bool) "victim permanently quarantined" true
    (Capvm.Supervisor.state sup ~cvm:victim = Capvm.Supervisor.Dead);
  let mutex = Option.get built.Core.Scenarios.mutex in
  Alcotest.(check bool) "dead compartment does not hold the mutex" true
    (Capvm.Umtx.holder mutex <> Some "cVM3");
  ignore (sibling_bytes "cVM2");
  Dsim.Engine.run ~until:(Dsim.Time.ms 12) built.Core.Scenarios.engine;
  Alcotest.(check bool) "sibling keeps serving after the kill" true
    (sibling_bytes "cVM2" > 0);
  built.Core.Scenarios.stop ()

(* ------------------------------------------------------------------ *)
(* EINTR retry through the Musl shim                                   *)

let eintr_retry_backoff () =
  let engine, iv, cvm = mk_cvm () in
  ignore engine;
  let shim = Capvm.Musl_shim.create iv cvm in
  let _, clean_cost = Capvm.Musl_shim.getpid shim in
  let recovered = ref None in
  Capvm.Musl_shim.set_transient shim
    (Some
       {
         Capvm.Musl_shim.should_fail = (fun ~attempt -> attempt < 2);
         note_recovery =
           (fun ~retries ~backoff_ns -> recovered := Some (retries, backoff_ns));
       });
  let pid, faulted_cost = Capvm.Musl_shim.getpid shim in
  Alcotest.(check bool) "call still succeeds" true (pid > 0);
  (match !recovered with
  | Some (retries, backoff_ns) ->
    Alcotest.(check int) "two retries" 2 retries;
    Alcotest.(check bool) "backoff charged" true (backoff_ns > 0.)
  | None -> Alcotest.fail "recovery hook did not fire");
  Alcotest.(check bool) "retries cost CPU time" true
    (faulted_cost > clean_cost);
  Capvm.Musl_shim.set_transient shim None;
  let _, cost_again = Capvm.Musl_shim.getpid shim in
  Alcotest.(check (float 0.)) "clean again once disarmed" clean_cost cost_again

(* ------------------------------------------------------------------ *)
(* ARP retry, negative cache                                           *)

let arp_negative_cache () =
  let c =
    Netstack.Arp_cache.create ~max_attempts:2 ~negative_lifetime:(Dsim.Time.ms 500)
      ()
  in
  let ip = Netstack.Ipv4_addr.of_string_exn "10.0.0.9" in
  Alcotest.(check bool) "first ask starts resolution" false
    (Netstack.Arp_cache.request_outstanding c ~now:Dsim.Time.zero ip);
  Alcotest.(check bool) "queued while unresolved" true
    (Netstack.Arp_cache.enqueue_pending c ip (Bytes.create 40));
  Alcotest.(check int) "retry due after backoff" 1
    (List.length (Netstack.Arp_cache.due_retries c ~now:(Dsim.Time.ms 150)));
  (* max_attempts exhausted and the last backoff elapsed: the address
     goes negative and the stranded queue surfaces for attributed drops. *)
  (match Netstack.Arp_cache.expire_failed c ~now:(Dsim.Time.ms 900) with
  | [ (failed_ip, stranded) ] ->
    Alcotest.(check bool) "right address failed" true (failed_ip = ip);
    Alcotest.(check int) "stranded queue surfaced" 1 (List.length stranded)
  | l -> Alcotest.failf "expected one failed resolution, got %d" (List.length l));
  Alcotest.(check bool) "negative-cached" true
    (Netstack.Arp_cache.is_negative c ~now:(Dsim.Time.ms 1000) ip);
  Alcotest.(check bool) "negative entry expires" false
    (Netstack.Arp_cache.is_negative c ~now:(Dsim.Time.ms 1500) ip);
  Alcotest.(check bool) "resolution can start afresh" false
    (Netstack.Arp_cache.request_outstanding c ~now:(Dsim.Time.ms 1500) ip)

(* ------------------------------------------------------------------ *)
(* Goldens: chaos machinery present but idle changes nothing           *)

let run_dual_port_bytes ~with_idle_chaos =
  let built =
    Core.Scenarios.build_dual_port ~direction:Core.Scenarios.Dut_receives ()
  in
  if with_idle_chaos then begin
    let ch = Dsim.Chaos.create ~seed:42L in
    (* Rates zero and disarmed: every lottery must return Pass. *)
    List.iter
      (fun link ->
        Nic.Link.set_tamper link
          (Some
             (fun ~now ~ipv4 ~len ->
               Dsim.Chaos.frame_opportunity ch
                 ~at_ns:(Dsim.Time.to_float_ns now)
                 ~ipv4 ~len ~target:"idle")))
      built.Core.Scenarios.links
  end;
  Dsim.Engine.run ~until:(Dsim.Time.ms 10) built.Core.Scenarios.engine;
  let bytes =
    List.map
      (fun f -> (f.Core.Scenarios.label, f.Core.Scenarios.take_bytes ()))
      built.Core.Scenarios.flows
  in
  built.Core.Scenarios.stop ();
  bytes

let idle_chaos_bit_identical () =
  let was = Dsim.Flowtrace.enabled Dsim.Flowtrace.default in
  Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default false;
  Fun.protect
    ~finally:(fun () -> Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default was)
    (fun () ->
      let plain = run_dual_port_bytes ~with_idle_chaos:false in
      let idle = run_dual_port_bytes ~with_idle_chaos:true in
      Alcotest.(check (list (pair string int)))
        "per-flow bytes unchanged by idle chaos" plain idle;
      List.iter
        (fun (_, b) ->
          Alcotest.(check bool) "flows actually ran" true (b > 0))
        plain)

(* ------------------------------------------------------------------ *)
(* The blast-radius experiment end to end                              *)

let blast_radius_quick () =
  let r1 = Core.Chaos_experiment.run ~seed:42L () in
  let r2 = Core.Chaos_experiment.run ~seed:42L () in
  Alcotest.(check string) "byte-identical report for the same seed"
    r1.Core.Chaos_experiment.text r2.Core.Chaos_experiment.text;
  Golden_file.check "chaos.seed42.quick.txt" r1.Core.Chaos_experiment.text;
  Alcotest.(check bool) "faults were injected" true
    (r1.Core.Chaos_experiment.injected > 0);
  Alcotest.(check int) "ledger fully resolved" 0
    r1.Core.Chaos_experiment.pending;
  Alcotest.(check int) "100% accounted" r1.Core.Chaos_experiment.injected
    (r1.Core.Chaos_experiment.recovered + r1.Core.Chaos_experiment.attributed);
  Alcotest.(check bool) "verdict PASS" true r1.Core.Chaos_experiment.pass

let suite =
  [
    Alcotest.test_case "chaos ledger: seeded lottery deterministic" `Quick
      ledger_determinism;
    Alcotest.test_case "chaos ledger: resolution bookkeeping" `Quick
      ledger_resolution;
    Alcotest.test_case "wire bit flip is caught by the FCS" `Quick
      wire_flip_caught_by_fcs;
    Alcotest.test_case "supervisor: trap, quarantine, restart, recover" `Quick
      supervisor_restart_recovers;
    Alcotest.test_case "supervisor: restart budget exhaustion -> Dead" `Quick
      supervisor_budget_exhaustion;
    Alcotest.test_case "supervisor: kill policy runs cleanups" `Quick
      supervisor_kill_policy;
    Alcotest.test_case "supervisor: seeded backoff deterministic, doubling"
      `Quick supervisor_backoff_deterministic;
    Alcotest.test_case "S2: sibling survives app-cVM kill, mutex released"
      `Slow s2_survives_app_kill;
    Alcotest.test_case "musl shim: EINTR retry with backoff" `Quick
      eintr_retry_backoff;
    Alcotest.test_case "ARP: bounded retry then negative cache" `Quick
      arp_negative_cache;
    Alcotest.test_case "idle chaos leaves goldens bit-identical" `Slow
      idle_chaos_bit_identical;
    Alcotest.test_case "blast radius: deterministic, fully attributed" `Slow
      blast_radius_quick;
  ]
