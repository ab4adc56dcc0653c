(* End-to-end tests of the paper-reproduction layer: scenarios,
   bandwidth, latency measurement, attacks, LoC table, registry. *)

let quick = Core.Experiment.quick

(* ------------------------------------------------------------------ *)
(* Bandwidth scenarios                                                  *)
(* ------------------------------------------------------------------ *)

let within name lo hi v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f in [%.0f, %.0f]" name v lo hi)
    true
    (v >= lo && v <= hi)

let bw_single_baseline () =
  let built = Core.Scenarios.build_single_baseline ~direction:Core.Scenarios.Dut_receives () in
  match Core.Bandwidth.run built ~warmup:quick.Core.Experiment.warmup
          ~duration:quick.Core.Experiment.duration () with
  | [ s ] ->
    (* Short windows are noisier than the bench's 2s runs. *)
    within "single-port goodput ~941" 920. 955. s.Core.Bandwidth.mbit_s;
    within "efficiency ~94.1%" 92. 95.5 s.Core.Bandwidth.efficiency_pct
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l)

let bw_dual_port () =
  let built = Core.Scenarios.build_dual_port ~direction:Core.Scenarios.Dut_receives () in
  let samples =
    Core.Bandwidth.run built ~warmup:quick.Core.Experiment.warmup
      ~duration:quick.Core.Experiment.duration ()
  in
  Alcotest.(check int) "two flows" 2 (List.length samples);
  List.iter
    (fun s ->
      (* PCI-bottlenecked: ~658 Mbit/s per port, paper Table II. *)
      within (s.Core.Bandwidth.label ^ " ~658") 600. 700. s.Core.Bandwidth.mbit_s)
    samples;
  (* Both ports get the same share. *)
  (match samples with
  | [ a; b ] ->
    Alcotest.(check bool) "balanced" true
      (Float.abs (a.Core.Bandwidth.mbit_s -. b.Core.Bandwidth.mbit_s) < 30.)
  | _ -> ())

let bw_scenario2_uncontended () =
  let built = Core.Scenarios.build_scenario2 ~direction:Core.Scenarios.Dut_sends () in
  match Core.Bandwidth.run built ~warmup:quick.Core.Experiment.warmup
          ~duration:quick.Core.Experiment.duration () with
  | [ s ] -> within "S2 still reaches line rate" 910. 955. s.Core.Bandwidth.mbit_s
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l)

let bw_scenario2_contended () =
  let built =
    Core.Scenarios.build_scenario2 ~contended:true ~direction:Core.Scenarios.Dut_receives ()
  in
  match Core.Bandwidth.run built ~warmup:quick.Core.Experiment.warmup
          ~duration:quick.Core.Experiment.duration ~fair_share_mbit:500. () with
  | [ a; b ] ->
    let sum = a.Core.Bandwidth.mbit_s +. b.Core.Bandwidth.mbit_s in
    within "two flows share the port" 900. 960. sum;
    (* Server mode is the balanced case in the paper (470/470). *)
    Alcotest.(check bool) "roughly balanced" true
      (Float.abs (a.Core.Bandwidth.mbit_s -. b.Core.Bandwidth.mbit_s) < 60.)
  | l -> Alcotest.failf "expected two flows, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Latency measurement                                                  *)
(* ------------------------------------------------------------------ *)

let measurement_shape () =
  let run p = Core.Measurement.run ~iterations:2_000 p in
  let baseline = run Core.Measurement.Baseline in
  let s1 = run Core.Measurement.Scenario1 in
  let s2u = run (Core.Measurement.Scenario2 { contended = false }) in
  let med (r : Core.Measurement.result) = r.Core.Measurement.boxplot.Dsim.Stats.median in
  (* Absolute calibration targets from the paper. *)
  within "baseline ~125ns" 115. 140. (med baseline);
  within "S1 = baseline + ~125ns" 110. 140. (med s1 -. med baseline);
  within "S2 uncontended = S1 + ~200ns" 180. 220. (med s2u -. med s1);
  (* Methodology: ~10% of samples removed by IQR. *)
  within "IQR removal near 10%" 5. 15. baseline.Core.Measurement.removed_pct;
  Alcotest.(check int) "all iterations sampled" 2_000
    (Dsim.Stats.count baseline.Core.Measurement.raw)

let measurement_contended () =
  let r =
    Core.Measurement.run ~iterations:2_000 (Core.Measurement.Scenario2 { contended = true })
  in
  let med = r.Core.Measurement.boxplot.Dsim.Stats.median in
  (* The paper reports ~19us (152x); accept the right order of magnitude
     with a short run. *)
  within "contended median is tens of microseconds" 8_000. 40_000. med;
  Alcotest.(check bool) "spread is wide" true
    (r.Core.Measurement.boxplot.Dsim.Stats.stddev > 1_000.)

(* ------------------------------------------------------------------ *)
(* Attacks (Fig. 3)                                                     *)
(* ------------------------------------------------------------------ *)

let attack_overflow () =
  let r = Core.Attack.run Core.Attack.Overflow_write in
  Alcotest.(check bool) "CHERI traps" true (Core.Attack.outcome_is_trap r.Core.Attack.cheri);
  (match r.Core.Attack.cheri with
  | Core.Attack.Trapped f ->
    Alcotest.(check bool) "out-of-bounds fault" true
      (f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds)
  | Core.Attack.Leaked _ -> Alcotest.fail "leaked under CHERI");
  (match r.Core.Attack.baseline with
  | Some (Core.Attack.Leaked _) -> ()
  | _ -> Alcotest.fail "baseline should leak");
  Alcotest.(check bool) "victim alive" true r.Core.Attack.victim_alive;
  within "victim at line rate" 900. 960. r.Core.Attack.victim_mbit_after

let attack_forge () =
  let r = Core.Attack.run Core.Attack.Forge_capability in
  (match r.Core.Attack.cheri with
  | Core.Attack.Trapped f ->
    Alcotest.(check bool) "tag violation" true
      (f.Cheri.Fault.kind = Cheri.Fault.Tag_violation)
  | Core.Attack.Leaked _ -> Alcotest.fail "forged capability dereferenced");
  Alcotest.(check bool) "no baseline analogue" true (r.Core.Attack.baseline = None)

let attack_metadata () =
  Alcotest.(check int) "six attack classes" 6 (List.length Core.Attack.all_attacks);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        ("has name+description: " ^ Core.Attack.attack_name a)
        true
        (String.length (Core.Attack.attack_name a) > 0
        && String.length (Core.Attack.attack_description a) > 0))
    Core.Attack.all_attacks

(* ------------------------------------------------------------------ *)
(* Table I, registry, report                                            *)
(* ------------------------------------------------------------------ *)

let loc_table () =
  let rows = Core.Loc_table.compute () in
  Alcotest.(check int) "two libraries" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Core.Loc_table.library ^ " counts sane") true
        (r.Core.Loc_table.cheri_loc > 0
        && r.Core.Loc_table.total_loc > r.Core.Loc_table.cheri_loc
        && r.Core.Loc_table.pct > 0.
        && r.Core.Loc_table.pct < 100.))
    rows;
  (* The headline property of Table I: the CHERI adaptation is a small
     fraction of the library. *)
  (match rows with
  | fstack :: _ ->
    Alcotest.(check bool) "F-Stack adaptation under 10%" true
      (fstack.Core.Loc_table.pct < 10.)
  | [] -> Alcotest.fail "no rows")

let experiment_registry () =
  let ids = Core.Experiment.ids () in
  Alcotest.(check (list string)) "all artefacts present"
    [ "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "ablation-lock";
      "ablation-udp"; "ablation-split" ]
    ids;
  Alcotest.(check bool) "find works" true (Core.Experiment.find "table2" <> None);
  Alcotest.(check bool) "unknown id" true (Core.Experiment.find "table9" = None);
  (* Ids unique. *)
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let experiment_render_table1 () =
  match Core.Experiment.find "table1" with
  | Some spec ->
    let out = spec.Core.Experiment.report quick in
    Alcotest.(check bool) "mentions F-Stack" true
      (Astring_contains.contains out "F-Stack")
  | None -> Alcotest.fail "table1 missing"

let report_table_render () =
  let out =
    Core.Report.table ~header:[ "a"; "b" ] ~rows:[ [ "x"; "yyy" ]; [ "zzzz"; "w" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + separator + rows" 4 (List.length lines);
  (* Columns aligned: all lines same length. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty table"

let report_boxplot_render () =
  let s = Dsim.Stats.create () in
  List.iter (Dsim.Stats.add s) [ 100.; 110.; 120.; 130.; 140. ];
  let b = Dsim.Stats.boxplot s in
  let out =
    Core.Report.ascii_boxplot ~labels_and_boxes:[ ("test", b) ] ~width:40 ()
  in
  Alcotest.(check bool) "median marker present" true
    (Astring_contains.contains out "#");
  Alcotest.(check bool) "label present" true (Astring_contains.contains out "test")

(* ------------------------------------------------------------------ *)
(* iperf pieces                                                         *)
(* ------------------------------------------------------------------ *)

let iperf_over_loopback () =
  (* Full iperf client/server over the simulated wire via the ff API. *)
  let built = Core.Scenarios.build_single_baseline ~direction:Core.Scenarios.Dut_sends () in
  Dsim.Engine.run built.Core.Scenarios.engine ~until:(Dsim.Time.ms 200);
  let flow = List.hd built.Core.Scenarios.flows in
  let moved = flow.Core.Scenarios.take_bytes () in
  built.Core.Scenarios.stop ();
  Alcotest.(check bool) "client pushed data" true (moved > 1_000_000)

let suite =
  [
    Alcotest.test_case "bandwidth: single-port baseline ~941" `Slow bw_single_baseline;
    Alcotest.test_case "bandwidth: dual-port PCI ceiling ~658" `Slow bw_dual_port;
    Alcotest.test_case "bandwidth: S2 uncontended line rate" `Slow bw_scenario2_uncontended;
    Alcotest.test_case "bandwidth: S2 contended sharing" `Slow bw_scenario2_contended;
    Alcotest.test_case "latency: baseline/S1/S2 deltas" `Slow measurement_shape;
    Alcotest.test_case "latency: contended magnitude" `Slow measurement_contended;
    Alcotest.test_case "attack: overflow write (Fig 3)" `Slow attack_overflow;
    Alcotest.test_case "attack: forged capability" `Slow attack_forge;
    Alcotest.test_case "attack: metadata" `Quick attack_metadata;
    Alcotest.test_case "table1: LoC accounting" `Quick loc_table;
    Alcotest.test_case "experiment registry" `Quick experiment_registry;
    Alcotest.test_case "experiment: render table1" `Quick experiment_render_table1;
    Alcotest.test_case "report: table rendering" `Quick report_table_render;
    Alcotest.test_case "report: ascii boxplot" `Quick report_boxplot_render;
    Alcotest.test_case "iperf over the wire" `Slow iperf_over_loopback;
  ]
