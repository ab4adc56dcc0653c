type options = {
  quick : bool;
  iterations : int option;
  seed : int64;
  tenants : int option;
  scaling : bool;
  blackbox_dir : string option;
}

let defaults =
  {
    quick = false;
    iterations = None;
    seed = 42L;
    tenants = None;
    scaling = false;
    blackbox_dir = None;
  }

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;
  iterations : int;
}

let quick =
  { warmup = Dsim.Time.ms 150; duration = Dsim.Time.ms 300; iterations = 3_000 }

let full =
  { warmup = Dsim.Time.ms 300; duration = Dsim.Time.sec 1; iterations = 100_000 }

let profile_of (o : options) =
  let base = if o.quick then quick else full in
  match o.iterations with
  | None -> base
  | Some n -> { base with iterations = n }

(* ------------------------------------------------------------------ *)
(* Structured results                                                   *)
(* ------------------------------------------------------------------ *)

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

let fig4 profile =
  [
    Measurement.run ~iterations:profile.iterations Measurement.Baseline;
    Measurement.run ~iterations:profile.iterations Measurement.Scenario1;
  ]

let fig5 profile =
  [
    Measurement.run ~iterations:profile.iterations Measurement.Baseline;
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = false });
  ]

let fig6 profile =
  [
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = false });
    Measurement.run ~iterations:profile.iterations
      (Measurement.Scenario2 { contended = true });
  ]

let ablation_lock profile =
  List.map
    (fun (name, policy) ->
      ( name,
        run_bw profile ~fair_share_mbit:500.
          (Scenarios.build_scenario2 ~contended:true ~lock_policy:policy
             ~direction:Scenarios.Dut_sends ()) ))
    [ ("barging umtx (paper)", Capvm.Umtx.Barging); ("FIFO ticket", Capvm.Umtx.Fifo) ]

let ablation_udp profile =
  List.map
    (fun offered ->
      ( Printf.sprintf "UDP blast, offered %.0f Mbit/s" offered,
        run_bw profile (Scenarios.build_udp_blast ~offered_mbit:offered ()) ))
    [ 500.; 950.; 1500. ]

let ablation_split profile =
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

let report_table1 _profile =
  Format.asprintf "%a" Loc_table.pp (Loc_table.compute ())

let report_fig3 _profile =
  String.concat "\n\n"
    (List.map (fun r -> Format.asprintf "%a" Attack.pp_report r) (Attack.run_all ()))

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
    | 4 -> fig4 profile
    | 5 -> fig5 profile
    | _ -> fig6 profile
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

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = { text : string; json : Dsim.Json.t option; pass : bool }

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : options -> outcome;
}

(* A paper report: rendered text at the options' profile, ungated. *)
let report id title paper_ref render =
  {
    id;
    title;
    paper_ref;
    run = (fun o -> { text = render (profile_of o); json = None; pass = true });
  }

let paper =
  [
    report "table1" "LoC added/modified for the CHERI port" "Table I" report_table1;
    report "table2" "TCP bandwidth in the three scenarios (server & client)"
      "Table II" (fun p -> render_bw_groups (table2 ~profile:p ()));
    report "fig3" "Out-of-bounds accesses trap under CHERI" "Figure 3" report_fig3;
    report "fig4" "ff_write() execution time: Scenario 1 vs Baseline" "Figure 4"
      (report_fig 4);
    report "fig5"
      "ff_write() execution time: Scenario 2 (uncontended) vs Baseline"
      "Figure 5" (report_fig 5);
    report "fig6"
      "ff_write() execution time: contended vs uncontended Scenario 2"
      "Figure 6" (report_fig 6);
    report "ablation-lock"
      "Locking strategies under contention (paper future work)" "Sec. VI"
      (fun p -> render_bw_groups (ablation_lock p));
    report "ablation-udp" "UDP blast: goodput and loss without flow control"
      "extension" (fun p -> render_bw_groups (ablation_udp p));
    report "ablation-split"
      "Finer-grained split: DPDK in its own cVM (paper future work)" "Sec. VI"
      (fun p -> render_bw_groups (ablation_split p));
  ]

(* A gated extension run. Its runner's text ends in a newline and a
   paper report's does not; the outcome drops it, so the CLI prints
   every report the same way: banner, text, one blank line. *)
let extension id title run =
  let chop text =
    if String.ends_with ~suffix:"\n" text then
      String.sub text 0 (String.length text - 1)
    else text
  in
  {
    id;
    title;
    paper_ref = "extension";
    run = (fun o -> let r = run o in { r with text = chop r.text });
  }

let attack =
  extension "attack" "Network-borne red-team attack corpus with containment gates"
    (fun o ->
      let profile =
        if o.quick then Attack_traffic.quick else Attack_traffic.full
      in
      let r =
        Attack_traffic.run ~profile ?blackbox_dir:o.blackbox_dir ~seed:o.seed ()
      in
      { text = r.Attack_traffic.text; json = Some r.Attack_traffic.json;
        pass = r.Attack_traffic.pass })

let chaos =
  extension "chaos" "Deterministic fault injection with a blast-radius verdict"
    (fun o ->
      let profile =
        if o.quick then Chaos_experiment.quick else Chaos_experiment.full
      in
      let r =
        Chaos_experiment.run ~profile ?blackbox_dir:o.blackbox_dir ~seed:o.seed ()
      in
      { text = r.Chaos_experiment.text; json = None;
        pass = r.Chaos_experiment.pass })

let audit =
  extension "audit" "Capability provenance audit and attack-surface report"
    (fun o ->
      let profile =
        if o.quick then Audit_experiment.quick else Audit_experiment.full
      in
      let r = Audit_experiment.run ~profile ~seed:o.seed () in
      { text = r.Audit_experiment.text; json = Some r.Audit_experiment.json;
        pass = r.Audit_experiment.pass })

let fleet =
  extension "fleet" "Multi-tenant churn run with per-tenant SLO rollups"
    (fun o ->
      if o.scaling then
        let text, json = Fleet.run_scaling ~seed:o.seed () in
        { text; json = Some json; pass = true }
      else
        let profile = if o.quick then Fleet.quick else Fleet.full in
        let r = Fleet.run ~profile ?tenants:o.tenants ~seed:o.seed () in
        { text = r.Fleet.r_text; json = Some r.Fleet.r_json; pass = r.Fleet.r_pass })

let all = paper @ [ attack; chaos; audit; fleet ]
let find id = List.find_opt (fun e -> String.equal e.id id) all
let ids () = List.map (fun e -> e.id) all

let select entries ids =
  let by_id id = List.find_opt (fun e -> String.equal e.id id) entries in
  match
    List.partition_map
      (fun id -> match by_id id with Some e -> Left e | None -> Right id)
      ids
  with
  | found, [] -> Ok found
  | _, missing -> Error missing
