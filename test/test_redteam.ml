(* The red-team attack harness: ledger bookkeeping, determinism of the
   attacked runs, the 100%-caught gate in the CHERI scenarios, the
   expected baseline leaks, and the blast-radius containment checks. *)

module Rt = Dsim.Redteam

(* ------------------------------------------------------------------ *)
(* Ledger unit behaviour                                               *)

let ledger_bookkeeping () =
  let rt = Rt.create ~seed:5L in
  let a = Rt.launch rt Rt.Parser_bounds ~name:"a" ~at_ns:1. ~target:"x" in
  let b = Rt.launch rt Rt.Temporal ~name:"b" ~at_ns:2. ~target:"y" in
  Alcotest.(check int) "two pending" 2 (Rt.pending_count rt);
  Rt.resolve_caught rt a ~stage:"ip_rx" ~reason:"bad_length";
  Rt.resolve_leaked rt b ~detail:"secret out";
  (* First verdict wins: a second resolution must not overwrite. *)
  Rt.resolve_leaked rt a ~detail:"should not apply";
  Alcotest.(check int) "none pending" 0 (Rt.pending_count rt);
  Alcotest.(check int) "one caught" 1 (Rt.caught_count rt);
  Alcotest.(check int) "one leaked" 1 (Rt.leaked_count rt);
  match Rt.find rt a with
  | Some { Rt.outcome = Rt.Caught { stage; reason }; _ } ->
    Alcotest.(check string) "stage kept" "ip_rx" stage;
    Alcotest.(check string) "reason kept" "bad_length" reason
  | _ -> Alcotest.fail "first verdict overwritten"

let ledger_disarmed () =
  let rt = Rt.create ~seed:5L in
  Rt.set_armed rt false;
  let id = Rt.launch rt Rt.Resource ~name:"noop" ~at_ns:0. ~target:"t" in
  Alcotest.(check int) "disarmed launch refused" (-1) id;
  Alcotest.(check int) "nothing recorded" 0 (Rt.launched_count rt)

(* ------------------------------------------------------------------ *)
(* The attacked runs (shared across checks: one run is ~seconds)       *)

let report = lazy (Core.Attack_traffic.run ~seed:42L ())

let attacked_run_deterministic () =
  let r1 = Lazy.force report in
  let r2 = Core.Attack_traffic.run ~seed:42L () in
  Alcotest.(check string) "byte-identical report for the same seed"
    r1.Core.Attack_traffic.text r2.Core.Attack_traffic.text

let all_caught_in_cheri_scenarios () =
  let r = Lazy.force report in
  Alcotest.(check bool) "corpus actually launched" true
    (r.Core.Attack_traffic.launched > 0);
  Alcotest.(check int) "no unresolved launches" 0
    r.Core.Attack_traffic.pending;
  Alcotest.(check int) "100% caught-and-attributed in S1+S2"
    r.Core.Attack_traffic.cheri_launched r.Core.Attack_traffic.cheri_caught;
  Alcotest.(check bool) "verdict PASS" true r.Core.Attack_traffic.pass

let baseline_records_leaks () =
  let r = Lazy.force report in
  let leaked_in_baseline =
    match r.Core.Attack_traffic.phases with
    | p1 :: _ -> List.length p1.Core.Attack_traffic.ap_ids
    | [] -> 0
  in
  Alcotest.(check bool) "baseline phase launched attacks" true
    (leaked_in_baseline > 0);
  (* The MMU model must leak where CHERI traps — that asymmetry is the
     paper's motivation and the gate demands at least one. *)
  Alcotest.(check bool) "silent corruption recorded" true
    (r.Core.Attack_traffic.leaked >= 1)

let close_race_releases_mutex () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("mutex free after " ^ p.Core.Attack_traffic.ap_title)
        true p.Core.Attack_traffic.ap_mutex_free)
    r.Core.Attack_traffic.phases

let exhaustion_is_typed_backpressure () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("pool recovered after " ^ p.Core.Attack_traffic.ap_title)
        true p.Core.Attack_traffic.ap_pool_recovered)
    r.Core.Attack_traffic.phases;
  (* Every resource-class launch (floods + 3x exhaust-and-spray) ended
     in a typed verdict, none leaked. *)
  match List.assoc_opt Rt.Resource r.Core.Attack_traffic.counts with
  | Some t ->
    Alcotest.(check bool) "resource attacks ran" true (t.Rt.t_launched > 0);
    Alcotest.(check int) "no pending resource attack" 0 t.Rt.t_pending;
    Alcotest.(check int) "no leaked resource attack" 0 t.Rt.t_leaked
  | None -> Alcotest.fail "no resource-class launches"

let sibling_goodput_gate () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      let ratio =
        if p.Core.Attack_traffic.ap_sibling_ref <= 0. then 1.
        else
          p.Core.Attack_traffic.ap_sibling_rate
          /. p.Core.Attack_traffic.ap_sibling_ref
      in
      Alcotest.(check bool)
        ("sibling >= 0.9x twin in " ^ p.Core.Attack_traffic.ap_title)
        true (ratio >= 0.9))
    r.Core.Attack_traffic.phases

(* ------------------------------------------------------------------ *)
(* Linked-but-disarmed: goldens unchanged                              *)

let fig4_text () =
  match Core.Experiment.find "fig4" with
  | Some spec ->
    spec.Core.Experiment.report Core.Experiment.quick
  | None -> Alcotest.fail "fig4 missing from the registry"

let disarmed_redteam_bit_identical () =
  let plain = fig4_text () in
  let rt = Rt.create ~seed:42L in
  Rt.set_armed rt false;
  ignore (Rt.launch rt Rt.Resource ~name:"noop" ~at_ns:0. ~target:"t");
  let with_ledger = fig4_text () in
  Alcotest.(check string)
    "fig4 golden unchanged with a disarmed redteam ledger alive" plain
    with_ledger

let suite =
  [
    Alcotest.test_case "redteam ledger: launch/resolve bookkeeping" `Quick
      ledger_bookkeeping;
    Alcotest.test_case "redteam ledger: disarmed launches record nothing"
      `Quick ledger_disarmed;
    Alcotest.test_case "attack net: byte-identical per seed" `Slow
      attacked_run_deterministic;
    Alcotest.test_case "attack net: 100% caught in the CHERI scenarios"
      `Slow all_caught_in_cheri_scenarios;
    Alcotest.test_case "attack net: baseline leaks recorded" `Slow
      baseline_records_leaks;
    Alcotest.test_case "attack net: close race leaves the mutex free" `Slow
      close_race_releases_mutex;
    Alcotest.test_case "attack net: exhaustion -> typed backpressure, pool \
                        recovers"
      `Slow exhaustion_is_typed_backpressure;
    Alcotest.test_case "attack net: sibling goodput >= 0.9x twin" `Slow
      sibling_goodput_gate;
    Alcotest.test_case "fig4 golden bit-identical with redteam disarmed"
      `Slow disarmed_redteam_bit_identical;
  ]
