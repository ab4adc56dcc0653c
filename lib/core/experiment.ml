type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;
  iterations : int;
}

let quick =
  { warmup = Dsim.Time.ms 150; duration = Dsim.Time.ms 300; iterations = 3_000 }

let full =
  { warmup = Dsim.Time.ms 300; duration = Dsim.Time.sec 1; iterations = 100_000 }

let paper_grade = { full with iterations = 1_000_000 }

(* ------------------------------------------------------------------ *)
(* Structured results                                                   *)
(* ------------------------------------------------------------------ *)

let table1 () = Loc_table.compute ()

let run_bw profile ?fair_share_mbit built =
  Bandwidth.run built ~warmup:profile.warmup ~duration:profile.duration
    ?fair_share_mbit ()

let table2 ?(profile = full) () =
  let p = profile in
  [
    ( "Baseline (two processes, dual port) — server",
      run_bw p (Scenarios.build_dual_port ~cheri:false ~direction:Scenarios.Dut_receives ()) );
    ( "Baseline (two processes, dual port) — client",
      run_bw p (Scenarios.build_dual_port ~cheri:false ~direction:Scenarios.Dut_sends ()) );
    ( "Scenario 1 — server",
      run_bw p (Scenarios.build_dual_port ~cheri:true ~direction:Scenarios.Dut_receives ()) );
    ( "Scenario 1 — client",
      run_bw p (Scenarios.build_dual_port ~cheri:true ~direction:Scenarios.Dut_sends ()) );
    ( "Baseline (single process) — server",
      run_bw p (Scenarios.build_single_baseline ~direction:Scenarios.Dut_receives ()) );
    ( "Baseline (single process) — client",
      run_bw p (Scenarios.build_single_baseline ~direction:Scenarios.Dut_sends ()) );
    ( "Scenario 2 (uncontended) — server",
      run_bw p (Scenarios.build_scenario2 ~direction:Scenarios.Dut_receives ()) );
    ( "Scenario 2 (uncontended) — client",
      run_bw p (Scenarios.build_scenario2 ~direction:Scenarios.Dut_sends ()) );
    ( "Scenario 2 (contended) — server",
      run_bw p ~fair_share_mbit:500.
        (Scenarios.build_scenario2 ~contended:true ~direction:Scenarios.Dut_receives ()) );
    ( "Scenario 2 (contended) — client",
      run_bw p ~fair_share_mbit:500.
        (Scenarios.build_scenario2 ~contended:true ~direction:Scenarios.Dut_sends ()) );
  ]

let fig3 () = Attack.run_all ()

let fig4 ?(profile = full) () =
  [
    Measurement.run ~iterations:profile.iterations Measurement.Baseline;
    Measurement.run ~iterations:profile.iterations Measurement.Scenario1;
  ]

let fig5 ?(profile = full) () =
  [
    Measurement.run ~iterations:profile.iterations Measurement.Baseline;
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = false });
  ]

let fig6 ?(profile = full) () =
  [
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = false });
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = true });
  ]

let ablation_lock ?(profile = full) () =
  List.map
    (fun (name, policy) ->
      ( name,
        run_bw profile ~fair_share_mbit:500.
          (Scenarios.build_scenario2 ~contended:true ~lock_policy:policy
             ~direction:Scenarios.Dut_sends ()) ))
    [ ("barging umtx (paper)", Capvm.Umtx.Barging); ("FIFO ticket", Capvm.Umtx.Fifo) ]

let ablation_udp ?(profile = full) () =
  List.map
    (fun offered ->
      ( Printf.sprintf "UDP blast, offered %.0f Mbit/s" offered,
        run_bw profile (Scenarios.build_udp_blast ~offered_mbit:offered ()) ))
    [ 500.; 950.; 1500. ]

let ablation_split ?(profile = full) () =
  [
    ( "Scenario 2 (app | F-Stack+DPDK)",
      run_bw profile (Scenarios.build_scenario2 ~direction:Scenarios.Dut_sends ()) );
    ( "Scenario 3 (app | F-Stack | DPDK)",
      run_bw profile (Scenarios.build_scenario3_split ~direction:Scenarios.Dut_sends ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let render_bw_groups groups =
  let rows =
    List.concat_map
      (fun (group, samples) ->
        List.map
          (fun (s : Bandwidth.sample) ->
            [ group; s.Bandwidth.label; Report.mbit s.Bandwidth.mbit_s;
              Report.pct s.Bandwidth.efficiency_pct ])
          samples)
      groups
  in
  Report.table ~header:[ "Configuration"; "Flow"; "Mbit/s"; "Efficiency" ] ~rows

let report_table1 _profile = Format.asprintf "%a" Loc_table.pp (table1 ())

let report_table2 profile = render_bw_groups (table2 ~profile ())

let report_fig3 _profile =
  String.concat "\n\n"
    (List.map (fun r -> Format.asprintf "%a" Attack.pp_report r) (fig3 ()))

let render_measurements ?(log_scale = false) results =
  let boxes =
    List.map
      (fun (r : Measurement.result) -> (r.Measurement.label, r.Measurement.boxplot))
      results
  in
  Report.ascii_boxplot ~labels_and_boxes:boxes ~log_scale ()

let report_fig n profile =
  let results =
    match n with
    | 4 -> fig4 ~profile ()
    | 5 -> fig5 ~profile ()
    | _ -> fig6 ~profile ()
  in
  let detail =
    String.concat "\n"
      (List.map (fun r -> Format.asprintf "%a" Measurement.pp_result r) results)
  in
  let extra =
    if n <> 6 then ""
    else begin
      (* The contended distribution spans three decades; show it. *)
      match List.rev results with
      | contended :: _ ->
        let h =
          Dsim.Histogram.add_stats
            (Dsim.Histogram.create ~lo:100. ~ratio:1.6 ~buckets:32 ())
            contended.Measurement.filtered
        in
        "\n\ncontended ff_write latency distribution (ns):\n"
        ^ Dsim.Histogram.render h
      | [] -> ""
    end
  in
  render_measurements ~log_scale:(n = 6) results ^ "\n\n" ^ detail ^ extra

type spec = {
  id : string;
  title : string;
  paper_ref : string;
  report : profile -> string;
}

let all =
  [
    {
      id = "table1";
      title = "LoC added/modified for the CHERI port";
      paper_ref = "Table I";
      report = report_table1;
    };
    {
      id = "table2";
      title = "TCP bandwidth in the three scenarios (server & client)";
      paper_ref = "Table II";
      report = report_table2;
    };
    {
      id = "fig3";
      title = "Out-of-bounds accesses trap under CHERI";
      paper_ref = "Figure 3";
      report = report_fig3;
    };
    {
      id = "fig4";
      title = "ff_write() execution time: Scenario 1 vs Baseline";
      paper_ref = "Figure 4";
      report = report_fig 4;
    };
    {
      id = "fig5";
      title = "ff_write() execution time: Scenario 2 (uncontended) vs Baseline";
      paper_ref = "Figure 5";
      report = report_fig 5;
    };
    {
      id = "fig6";
      title = "ff_write() execution time: contended vs uncontended Scenario 2";
      paper_ref = "Figure 6";
      report = report_fig 6;
    };
    {
      id = "ablation-lock";
      title = "Locking strategies under contention (paper future work)";
      paper_ref = "Sec. VI";
      report = (fun p -> render_bw_groups (ablation_lock ~profile:p ()));
    };
    {
      id = "ablation-udp";
      title = "UDP blast: goodput and loss without flow control";
      paper_ref = "extension";
      report = (fun p -> render_bw_groups (ablation_udp ~profile:p ()));
    };
    {
      id = "ablation-split";
      title = "Finer-grained split: DPDK in its own cVM (paper future work)";
      paper_ref = "Sec. VI";
      report = (fun p -> render_bw_groups (ablation_split ~profile:p ()));
    };
  ]

let find id = List.find_opt (fun s -> String.equal s.id id) all
let ids () = List.map (fun s -> s.id) all
