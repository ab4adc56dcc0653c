module Au = Dsim.Audit
module Pv = Cheri.Provenance
module Ch = Dsim.Chaos
module V = Dsim.Verdict
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor

let k_audit_arm =
  Dsim.Profile.(key default) ~component:"audit" ~cvm:"-" ~stage:"arm"

type profile = {
  warmup : Dsim.Time.t;
  duration : Dsim.Time.t;
  sample_every : int;
}

let quick = { warmup = Time.ms 4; duration = Time.ms 16; sample_every = 8 }
let full = { warmup = Time.ms 10; duration = Time.ms 60; sample_every = 4 }

type scenario_audit = {
  sc_id : string;
  sc_title : string;
  sc_events : (Au.event * int) list;
  sc_nodes : int;
  sc_live : int;
  sc_untracked : int;
  sc_invariant : Au.violation list;
  sc_hw_faults : int;
  sc_recheck : (Au.violation_kind * string) list;
  sc_surfaces : Pv.surface list;
  sc_edges : (string * string * int) list;
}

type chaos_audit = {
  ca_injected : int;
  ca_hw_faults : int;
  ca_attributed : int;
  ca_revoked : int;
  ca_restored : int;
  ca_temporal : int;
}

type report = {
  seed : int64;
  scenarios : scenario_audit list;
  chaos : chaos_audit;
  invariant_stock : int;
  surface_s1 : int;
  surface_s2_app : int;
  surface_ok : bool;
  pass : bool;
  text : string;
  json : Dsim.Json.t;
}

(* ------------------------------------------------------------------ *)
(* Driving one scenario under the ledger                               *)
(* ------------------------------------------------------------------ *)

let fresh_ledger profile =
  let au = Au.default in
  Au.clear au;
  Pv.clear ();
  Au.set_enabled au true;
  Au.set_strict au false;
  Au.set_sample_every au profile.sample_every;
  au

let run_to_end built profile =
  Engine.run
    ~until:(Time.add profile.warmup profile.duration)
    built.Scenarios.engine;
  built.Scenarios.stop ()

let snapshot au ~id ~title =
  let violations = Au.violations au in
  let invariant, hw =
    List.partition (fun v -> v.Au.v_kind <> Au.Hw_fault) violations
  in
  {
    sc_id = id;
    sc_title = title;
    sc_events =
      List.filter_map
        (fun e ->
          match Au.event_count au e with 0 -> None | n -> Some (e, n))
        Au.all_events;
    sc_nodes = Pv.node_count ();
    sc_live = Pv.live_count ();
    sc_untracked = Pv.untracked_exercises ();
    sc_invariant = invariant;
    sc_hw_faults = List.length hw;
    sc_recheck = Pv.check_all ();
    sc_surfaces = Pv.surfaces ();
    sc_edges = Pv.edges ();
  }

(* Run a stock scenario start-to-finish under a fresh ledger; returns
   the snapshot plus the DUT-side compartment names (the surface
   comparison needs to know which surfaces belong to app cVMs). *)
let run_scenario profile ~id ~title build =
  let au = fresh_ledger profile in
  let built = build () in
  let apps = List.map Capvm.Cvm.name built.Scenarios.app_cvms in
  run_to_end built profile;
  (snapshot au ~id ~title, apps)

(* ------------------------------------------------------------------ *)
(* Seeded chaos capability-fault run (cross-reference section)         *)
(* ------------------------------------------------------------------ *)

let run_chaos_section profile ~seed =
  let au = fresh_ledger profile in
  let ch = Ch.create ~seed in
  let ci = Chaos_experiment.cap_injector ch in
  let supervise engine = Sup.create engine ~seed:(Int64.add seed 101L) () in
  let built =
    Scenarios.build_dual_port ~seed:(Int64.add seed 3L) ~supervise
      ~app_hook:ci.ci_hook ~direction:Scenarios.Dut_receives ()
  in
  let engine = built.Scenarios.engine in
  ci.ci_set_engine engine;
  let window =
    { Blast_radius.warmup = profile.warmup; duration = profile.duration }
  in
  Engine.schedule_at engine ~at:(Blast_radius.frac window 0.35)
    ~label:k_audit_arm (fun () -> ci.ci_arm "cVM1");
  run_to_end built profile;
  let violations = Au.violations au in
  let cap_targets =
    List.filter_map
      (fun e -> if e.V.kind = Ch.Cap_fault then Some e.V.target else None)
      (V.entries (Ch.ledger ch))
  in
  let attributed =
    List.length
      (List.filter (fun v -> List.mem v.Au.v_cvm cap_targets) violations)
  in
  {
    ca_injected = List.length cap_targets;
    ca_hw_faults = Au.violation_count ~kind:Au.Hw_fault au;
    ca_attributed = attributed;
    ca_revoked = Au.event_count au Au.Revoke;
    ca_restored = Au.event_count au Au.Restore;
    ca_temporal = Au.violation_count ~kind:Au.Revoked_parent au;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let fmt_bytes n =
  if n >= 1 lsl 20 then
    Printf.sprintf "%.2f MiB" (float_of_int n /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then
    Printf.sprintf "%.1f KiB" (float_of_int n /. float_of_int (1 lsl 10))
  else Printf.sprintf "%d B" n

let perm_digest perms =
  String.concat " "
    (List.map (fun (p, n) -> Printf.sprintf "%s:%d" p n) perms)

let scenario_section b sc =
  Printf.bprintf b "-- %s: %s --\n" sc.sc_id sc.sc_title;
  Printf.bprintf b "  events:";
  List.iter
    (fun (e, n) -> Printf.bprintf b " %s=%d" (Au.event_name e) n)
    sc.sc_events;
  Printf.bprintf b "\n";
  Printf.bprintf b "  dag: %d nodes, %d live, %d untracked exercises\n"
    sc.sc_nodes sc.sc_live sc.sc_untracked;
  Printf.bprintf b "  per-compartment attack surface:\n";
  Printf.bprintf b "    %-12s %6s %12s %12s  %s\n" "compartment" "caps"
    "reachable" "region" "perms";
  List.iter
    (fun (s : Pv.surface) ->
      Printf.bprintf b "    %-12s %6d %12s %12s  %s\n" s.Pv.s_cvm s.Pv.s_caps
        (fmt_bytes s.Pv.s_reachable_bytes)
        (fmt_bytes s.Pv.s_region_bytes)
        (perm_digest s.Pv.s_perms))
    sc.sc_surfaces;
  if sc.sc_edges <> [] then begin
    Printf.bprintf b "  cross-compartment edges:\n";
    List.iter
      (fun (f, t, n) -> Printf.bprintf b "    %-12s -> %-12s %8d\n" f t n)
      sc.sc_edges
  end;
  Printf.bprintf b "  invariant violations: %d (hardware faults audited: %d)\n"
    (List.length sc.sc_invariant)
    sc.sc_hw_faults;
  List.iter
    (fun v ->
      Printf.bprintf b "    [%s] %s at 0x%x via %s: %s\n"
        (Au.violation_kind_name v.Au.v_kind)
        v.Au.v_cvm v.Au.v_address v.Au.v_source v.Au.v_detail)
    sc.sc_invariant;
  Printf.bprintf b "  post-run DAG re-walk: %s\n"
    (if sc.sc_recheck = [] then "ok"
     else Printf.sprintf "%d stale edges" (List.length sc.sc_recheck))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let violation_json v =
  Dsim.Json.Obj
    [
      ("id", Dsim.Json.Int v.Au.v_id);
      ("kind", Dsim.Json.String (Au.violation_kind_name v.Au.v_kind));
      ("cvm", Dsim.Json.String v.Au.v_cvm);
      ("address", Dsim.Json.Int v.Au.v_address);
      ("detail", Dsim.Json.String v.Au.v_detail);
      ("source", Dsim.Json.String v.Au.v_source);
    ]

let surface_json (s : Pv.surface) =
  Dsim.Json.Obj
    [
      ("cvm", Dsim.Json.String s.Pv.s_cvm);
      ("caps", Dsim.Json.Int s.Pv.s_caps);
      ("reachable_bytes", Dsim.Json.Int s.Pv.s_reachable_bytes);
      ("region_bytes", Dsim.Json.Int s.Pv.s_region_bytes);
      ( "perms",
        Dsim.Json.Obj
          (List.map (fun (p, n) -> (p, Dsim.Json.Int n)) s.Pv.s_perms) );
    ]

let scenario_json sc =
  Dsim.Json.Obj
    [
      ("id", Dsim.Json.String sc.sc_id);
      ("title", Dsim.Json.String sc.sc_title);
      ( "events",
        Dsim.Json.Obj
          (List.map
             (fun (e, n) -> (Au.event_name e, Dsim.Json.Int n))
             sc.sc_events) );
      ("nodes", Dsim.Json.Int sc.sc_nodes);
      ("live", Dsim.Json.Int sc.sc_live);
      ("untracked_exercises", Dsim.Json.Int sc.sc_untracked);
      ( "invariant_violations",
        Dsim.Json.List (List.map violation_json sc.sc_invariant) );
      ("hw_faults", Dsim.Json.Int sc.sc_hw_faults);
      ("surfaces", Dsim.Json.List (List.map surface_json sc.sc_surfaces));
      ( "edges",
        Dsim.Json.List
          (List.map
             (fun (f, t, n) ->
               Dsim.Json.Obj
                 [
                   ("from", Dsim.Json.String f);
                   ("to", Dsim.Json.String t);
                   ("count", Dsim.Json.Int n);
                 ])
             sc.sc_edges) );
    ]

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let reachable_of sc name =
  match List.find_opt (fun s -> s.Pv.s_cvm = name) sc.sc_surfaces with
  | Some s -> s.Pv.s_reachable_bytes
  | None -> 0

let run ?(profile = quick) ~seed () =
  let au = Au.default in
  let was_enabled = Au.enabled au and was_sample = Au.sample_every au in
  let baseline, _ =
    run_scenario profile ~id:"baseline"
      ~title:"single MMU process, single port"
      (fun () ->
        Scenarios.build_single_baseline ~seed:(Int64.add seed 1L)
          ~direction:Scenarios.Dut_receives ())
  in
  let s1, s1_apps =
    run_scenario profile ~id:"scenario1"
      ~title:"full stack replicated per port (2 cVMs)"
      (fun () ->
        Scenarios.build_dual_port ~seed:(Int64.add seed 1L)
          ~direction:Scenarios.Dut_receives ())
  in
  let s2, s2_apps =
    run_scenario profile ~id:"scenario2"
      ~title:"shared stack cVM1, application cVM2"
      (fun () ->
        Scenarios.build_scenario2 ~seed:(Int64.add seed 2L)
          ~direction:Scenarios.Dut_sends ())
  in
  let chaos = run_chaos_section profile ~seed in
  Au.set_enabled au was_enabled;
  Au.set_sample_every au was_sample;
  Pv.clear ();
  let scenarios = [ baseline; s1; s2 ] in
  let invariant_stock =
    List.fold_left (fun n sc -> n + List.length sc.sc_invariant) 0 scenarios
  in
  (* Scenario 1 replicates the whole stack into each cVM; Scenario 2's
     app compartments reach only their iperf buffer. The gate is the
     paper's Table I argument as an inequality over the DAG: even the
     *largest* S2 app surface must undercut the *smallest* replicated
     stack. *)
  let surface_s1 =
    match List.map (reachable_of s1) s1_apps with
    | [] -> 0
    | l -> List.fold_left min max_int l
  in
  let surface_s2_app = List.fold_left max 0 (List.map (reachable_of s2) s2_apps) in
  let surface_ok = surface_s2_app > 0 && surface_s2_app < surface_s1 in
  let recheck_clean = List.for_all (fun sc -> sc.sc_recheck = []) scenarios in
  let pass =
    invariant_stock = 0 && recheck_clean && surface_ok
    && chaos.ca_injected > 0 && chaos.ca_attributed > 0
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "=== capability provenance audit (seed %Ld) ===\n" seed;
  List.iter (scenario_section b) scenarios;
  Printf.bprintf b "-- attack-surface comparison (Table I as an inequality) --\n";
  List.iter
    (fun app ->
      Printf.bprintf b "  scenario1 %-5s (replicated stack) reachable: %s\n" app
        (fmt_bytes (reachable_of s1 app)))
    s1_apps;
  List.iter
    (fun app ->
      Printf.bprintf b "  scenario2 %-5s (application only) reachable: %s\n" app
        (fmt_bytes (reachable_of s2 app)))
    s2_apps;
  Printf.bprintf b
    "  app-cVM surface vs replicated stack: %s < %s (%.1fx smaller) [%s]\n"
    (fmt_bytes surface_s2_app) (fmt_bytes surface_s1)
    (if surface_s2_app = 0 then 0.
     else float_of_int surface_s1 /. float_of_int surface_s2_app)
    (if surface_ok then "ok" else "FAIL");
  Printf.bprintf b "-- seeded chaos capability-fault run (scenario 1 supervised) --\n";
  Printf.bprintf b "  chaos cap_fault injections: %d\n" chaos.ca_injected;
  Printf.bprintf b "  audited hardware faults: %d\n" chaos.ca_hw_faults;
  Printf.bprintf b "  supervisor revocation storm: revoked=%d restored=%d\n"
    chaos.ca_revoked chaos.ca_restored;
  Printf.bprintf b "  temporal detections during quarantine: %d revoked_parent\n"
    chaos.ca_temporal;
  Printf.bprintf b "  violations attributed via chaos cross-reference: %d [%s]\n"
    chaos.ca_attributed
    (if chaos.ca_attributed > 0 then "ok" else "FAIL");
  Printf.bprintf b "invariant violations (stock scenarios): %d\n" invariant_stock;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  let json =
    Dsim.Json.Obj
      [
        ("seed", Dsim.Json.String (Int64.to_string seed));
        ("scenarios", Dsim.Json.List (List.map scenario_json scenarios));
        ( "surface_comparison",
          Dsim.Json.Obj
            [
              ("s1_stack_min_reachable", Dsim.Json.Int surface_s1);
              ("s2_app_max_reachable", Dsim.Json.Int surface_s2_app);
              ("app_smaller", Dsim.Json.Bool surface_ok);
            ] );
        ( "chaos",
          Dsim.Json.Obj
            [
              ("cap_fault_injections", Dsim.Json.Int chaos.ca_injected);
              ("hw_faults", Dsim.Json.Int chaos.ca_hw_faults);
              ("attributed", Dsim.Json.Int chaos.ca_attributed);
              ("revoked", Dsim.Json.Int chaos.ca_revoked);
              ("restored", Dsim.Json.Int chaos.ca_restored);
              ("revoked_parent_detections", Dsim.Json.Int chaos.ca_temporal);
            ] );
        ("invariant_violations_stock", Dsim.Json.Int invariant_stock);
        ("pass", Dsim.Json.Bool pass);
      ]
  in
  {
    seed;
    scenarios;
    chaos;
    invariant_stock;
    surface_s1;
    surface_s2_app;
    surface_ok;
    pass;
    text = Buffer.contents b;
    json;
  }
