(* Tests for the capability provenance DAG and audit ledger: DAG shape,
   the three invariants (monotone narrowing, temporal safety,
   confinement), strict mode, the zero-cost-when-disabled gate, the
   published figures staying bit-identical with the audit enabled, and
   the determinism of the attack-surface report. *)

module Au = Dsim.Audit
module Pv = Cheri.Provenance

(* Run [f] against a fresh enabled ledger and DAG, restoring the
   process-wide state (other suites rely on the ledger being off). *)
let with_audit ?(sample = 1) f =
  let au = Au.default in
  let was = Au.enabled au and was_sample = Au.sample_every au in
  Au.clear au;
  Pv.clear ();
  Au.set_enabled au true;
  Au.set_strict au false;
  Au.set_sample_every au sample;
  Fun.protect
    ~finally:(fun () ->
      Au.set_strict au false;
      Au.set_enabled au was;
      Au.set_sample_every au was_sample;
      Au.clear au;
      Pv.clear ();
      Cheri.Fault.set_context "host")
    (fun () -> f au)

let mk_root ?(base = 0x4000) ?(length = 0x1000) ?(perms = Cheri.Perms.data)
    ~owner () =
  let cap = Cheri.Capability.root ~base ~length ~perms in
  Pv.record_mint cap ~owner ~label:"root";
  cap

(* ------------------------------------------------------------------ *)
(* DAG shape                                                           *)
(* ------------------------------------------------------------------ *)

let dag_shape () =
  with_audit (fun au ->
      let root = mk_root ~owner:"cVMa" () in
      let child =
        Cheri.Capability.derive root ~offset:0x100 ~length:0x100
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~label:"alloc" ~parent:root child;
      Pv.record_grant child ~cvm:"cVMa";
      Alcotest.(check int) "two nodes" 2 (Pv.node_count ());
      let cn = Option.get (Pv.find child) in
      let rn = Option.get (Pv.find root) in
      Alcotest.(check int) "child links to parent" rn.Pv.id cn.Pv.parent;
      Alcotest.(check bool) "parent lists child" true
        (List.mem cn.Pv.id rn.Pv.children);
      Alcotest.(check string) "owner inherited" "cVMa" cn.Pv.owner;
      Alcotest.(check bool) "grant recorded" true
        (List.mem "cVMa" cn.Pv.holders);
      Alcotest.(check int) "mint counted" 1 (Au.event_count au Au.Mint);
      Alcotest.(check int) "derive counted" 1 (Au.event_count au Au.Derive);
      Alcotest.(check int) "grant counted" 1 (Au.event_count au Au.Grant);
      (* Hot paths re-derive the same live view every iteration: the
         event counts, the DAG does not grow. *)
      Pv.record_derive ~label:"alloc" ~parent:root child;
      Alcotest.(check int) "re-derive memoized" 2 (Pv.node_count ());
      Alcotest.(check int) "but still counted" 2 (Au.event_count au Au.Derive);
      Alcotest.(check int) "live per owner" 2 (Pv.live_count ~owner:"cVMa" ()))

(* ------------------------------------------------------------------ *)
(* Monotonicity                                                        *)
(* ------------------------------------------------------------------ *)

let widening_detected () =
  with_audit (fun au ->
      let parent = mk_root ~base:0x1000 ~length:0x100 ~owner:"cVMa" () in
      (* A forged child whose bounds escape the parent: the capability
         API cannot build one (derive is monotonic by construction), so
         fabricate it as a root value and claim the derivation. *)
      let wide =
        Cheri.Capability.root ~base:0x1000 ~length:0x200
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~parent wide;
      Alcotest.(check int) "bounds widening ledgered" 1
        (Au.violation_count ~kind:Au.Bounds_widening au);
      let lifted =
        Cheri.Capability.root ~base:0x1000 ~length:0x100
          ~perms:Cheri.Perms.all
      in
      Pv.record_derive ~parent lifted;
      Alcotest.(check int) "permission widening ledgered" 1
        (Au.violation_count ~kind:Au.Perm_widening au);
      let v = List.hd (Au.violations au) in
      Alcotest.(check string) "charged to ambient context" "host" v.Au.v_cvm;
      Alcotest.(check string) "recorded at the derive site" "derive"
        v.Au.v_source)

(* ------------------------------------------------------------------ *)
(* Temporal safety                                                     *)
(* ------------------------------------------------------------------ *)

let revoked_parent_detected () =
  with_audit (fun au ->
      let root = mk_root ~base:0x8000 ~owner:"cVMa" () in
      let buf =
        Cheri.Capability.derive root ~offset:0 ~length:0x80
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~parent:root buf;
      Pv.record_grant buf ~cvm:"cVMa";
      Cheri.Fault.set_context "cVMa";
      Pv.record_exercise buf ~address:0x8000;
      Alcotest.(check int) "live dereference is clean" 0
        (Au.violation_count au);
      Pv.record_revoke buf ~reason:"free";
      Pv.record_exercise buf ~address:0x8000;
      Alcotest.(check int) "revoked dereference caught" 1
        (Au.violation_count ~kind:Au.Revoked_parent au);
      Alcotest.(check int) "revocation counted" 1
        (Au.event_count au Au.Revoke))

let free_revokes_through_alloc () =
  with_audit (fun au ->
      let region = mk_root ~base:0 ~length:0x10000 ~owner:"cVMa" () in
      let alloc = Cheri.Alloc.create ~region () in
      let cap = Cheri.Alloc.malloc alloc 64 in
      let sub =
        Cheri.Capability.derive cap ~offset:0 ~length:16
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~parent:cap sub;
      Cheri.Alloc.free alloc cap;
      Cheri.Fault.set_context "cVMa";
      Pv.record_exercise sub ~address:(Cheri.Capability.base sub);
      (* Freeing the allocation revoked the whole subtree, so the
         still-held narrower view is a temporal leak too. *)
      Alcotest.(check int) "free revokes descendants" 1
        (Au.violation_count ~kind:Au.Revoked_parent au);
      ignore au)

(* ------------------------------------------------------------------ *)
(* Confinement                                                         *)
(* ------------------------------------------------------------------ *)

let confinement_detected_and_explained () =
  with_audit (fun au ->
      let root = mk_root ~base:0x4000 ~owner:"cVMa" () in
      let buf =
        Cheri.Capability.derive root ~offset:0 ~length:0x100
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~parent:root buf;
      Pv.record_grant buf ~cvm:"cVMa";
      Cheri.Fault.set_context "cVMb";
      Pv.record_exercise buf ~address:0x4000;
      Alcotest.(check int) "foreign exercise flagged" 1
        (Au.violation_count ~kind:Au.Confinement au);
      (* An active trampoline crossing from the holder explains it. *)
      Pv.crossing_begin ~from_cvm:"cVMa" ~into:"cVMb";
      Pv.record_exercise buf ~address:0x4000;
      Pv.crossing_end ();
      Alcotest.(check int) "crossing explains possession" 1
        (Au.violation_count ~kind:Au.Confinement au);
      Alcotest.(check bool) "crossing leaves an edge" true
        (List.exists
           (fun (f, t, _) -> f = "cVMa" && t = "cVMb")
           (Pv.edges ())))

let strict_mode_raises () =
  with_audit (fun au ->
      Au.set_strict au true;
      let root = mk_root ~base:0x4000 ~owner:"cVMa" () in
      let buf =
        Cheri.Capability.derive root ~offset:0 ~length:0x100
          ~perms:Cheri.Perms.data
      in
      Pv.record_derive ~parent:root buf;
      Cheri.Fault.set_context "cVMb";
      match Pv.record_exercise buf ~address:0x4000 with
      | () -> Alcotest.fail "strict mode did not raise"
      | exception Au.Audit_fault v ->
        Alcotest.(check string) "typed and attributed" "cVMb" v.Au.v_cvm;
        Alcotest.(check bool) "confinement kind" true
          (v.Au.v_kind = Au.Confinement))

(* ------------------------------------------------------------------ *)
(* Disabled = no-op                                                    *)
(* ------------------------------------------------------------------ *)

let disabled_records_nothing () =
  let au = Au.default in
  Alcotest.(check bool) "ledger off by default" false (Au.enabled au);
  let root =
    Cheri.Capability.root ~base:0x4000 ~length:0x100 ~perms:Cheri.Perms.data
  in
  Pv.record_mint root ~owner:"cVMa" ~label:"root";
  Pv.record_exercise root ~address:0x4000;
  Alcotest.(check int) "no nodes" 0 (Pv.node_count ());
  Alcotest.(check int) "no events" 0 (Au.events_total au);
  Alcotest.(check bool) "sampling declines" false (Au.tick_sample au)

let sampling_is_deterministic () =
  with_audit ~sample:3 (fun au ->
      let hits = List.init 9 (fun _ -> Au.tick_sample au) in
      Alcotest.(check (list bool))
        "1-in-3 counter phase"
        [ false; false; true; false; false; true; false; false; true ]
        hits)

let counters_mirrored_into_metrics () =
  let reg = Dsim.Metrics.default in
  let was_metrics = Dsim.Metrics.enabled reg in
  Dsim.Metrics.set_enabled reg true;
  Fun.protect
    ~finally:(fun () -> Dsim.Metrics.set_enabled reg was_metrics)
    (fun () ->
      with_audit (fun au ->
          let root = mk_root ~owner:"cVMa" () in
          Cheri.Fault.set_context "cVMa";
          Pv.record_exercise root ~address:0x4000;
          Au.record_violation au ~kind:Au.Confinement ~cvm:"cVMa"
            ~address:0x4000 ~detail:"test" ~source:"test";
          let dump = Dsim.Metrics.to_prometheus reg in
          let contains sub =
            let n = String.length dump and m = String.length sub in
            let rec go i =
              i + m <= n && (String.sub dump i m = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "event counter exported" true
            (contains "audit_events_total");
          Alcotest.(check bool) "violation counter exported" true
            (contains "audit_violations_total");
          Alcotest.(check bool) "attributed to the cVM" true
            (contains "cvm=\"cVMa\"")))

(* ------------------------------------------------------------------ *)
(* Published figures unchanged with the audit on                       *)
(* ------------------------------------------------------------------ *)

let float_exact = Alcotest.testable Fmt.float (fun a b -> a = b)

(* Same goldens as test_zero_copy, but with the ledger enabled: the
   audit paths use no RNG, no clock reads and no engine scheduling, so
   turning them on cannot move a single virtual-time result. *)
let golden_fig4 =
  [
    (Core.Measurement.Baseline, 128.14924632342786);
    (Core.Measurement.Scenario1, 253.29499468615037);
  ]

let fig4_bit_identical_with_audit () =
  with_audit ~sample:8 (fun _ ->
      let p = Core.Experiment.quick in
      List.iter
        (fun (path, expected) ->
          let r =
            Core.Measurement.run ~iterations:p.Core.Experiment.iterations path
          in
          Alcotest.check float_exact "median unchanged by audit"
            expected r.Core.Measurement.boxplot.Dsim.Stats.median)
        golden_fig4)

let bandwidth_bit_identical_with_audit () =
  with_audit ~sample:8 (fun au ->
      let p = Core.Experiment.quick in
      let run built =
        Core.Bandwidth.run built ~warmup:p.Core.Experiment.warmup
          ~duration:p.Core.Experiment.duration ()
        |> List.map (fun s -> s.Core.Bandwidth.mbit_s)
      in
      Alcotest.(check (list float_exact))
        "scenario1 receive goodputs under audit"
        [ 658.00981333333334; 658.04842666666673 ]
        (run
           (Core.Scenarios.build_dual_port ~cheri:true
              ~direction:Core.Scenarios.Dut_receives ()));
      Alcotest.(check (list float_exact))
        "contended scenario2 send goodputs under audit"
        [ 532.90261333333342; 408.07082666666668 ]
        (run
           (Core.Scenarios.build_scenario2 ~contended:true
              ~direction:Core.Scenarios.Dut_sends ()));
      (* And the runs themselves audit clean. *)
      Alcotest.(check int) "no invariant violations" 0
        (List.length (Au.invariant_violations au)))

(* ------------------------------------------------------------------ *)
(* The attack-surface report                                           *)
(* ------------------------------------------------------------------ *)

let report_deterministic_and_passing () =
  let run () =
    Core.Audit_experiment.run ~profile:Core.Audit_experiment.quick ~seed:42L ()
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check string)
    "same seed, byte-identical report"
    r1.Core.Audit_experiment.text r2.Core.Audit_experiment.text;
  Alcotest.(check bool) "verdict PASS" true r1.Core.Audit_experiment.pass;
  Alcotest.(check int) "stock scenarios audit clean" 0
    r1.Core.Audit_experiment.invariant_stock;
  Alcotest.(check bool)
    "scenario 2 app surface strictly smaller than the replicated stack" true
    (r1.Core.Audit_experiment.surface_s2_app
    < r1.Core.Audit_experiment.surface_s1);
  Alcotest.(check bool) "chaos cap fault attributed" true
    (r1.Core.Audit_experiment.chaos.Core.Audit_experiment.ca_attributed >= 1)

let suite =
  [
    Alcotest.test_case "dag: mint/derive/grant shape" `Quick dag_shape;
    Alcotest.test_case "invariant: widening detected" `Quick widening_detected;
    Alcotest.test_case "invariant: revoked-parent dereference" `Quick
      revoked_parent_detected;
    Alcotest.test_case "invariant: free revokes the subtree" `Quick
      free_revokes_through_alloc;
    Alcotest.test_case "invariant: confinement and its explanations" `Quick
      confinement_detected_and_explained;
    Alcotest.test_case "strict mode raises a typed audit fault" `Quick
      strict_mode_raises;
    Alcotest.test_case "disabled ledger records nothing" `Quick
      disabled_records_nothing;
    Alcotest.test_case "exercise sampling is counter-based" `Quick
      sampling_is_deterministic;
    Alcotest.test_case "counters mirrored into the Prometheus export" `Quick
      counters_mirrored_into_metrics;
    Alcotest.test_case "determinism: Fig.4 medians bit-identical under audit"
      `Slow fig4_bit_identical_with_audit;
    Alcotest.test_case
      "determinism: bandwidth samples bit-identical under audit" `Slow
      bandwidth_bit_identical_with_audit;
    Alcotest.test_case "audit report deterministic per seed and passing" `Slow
      report_deterministic_and_passing;
  ]
