(* The red-team attack harness: ledger bookkeeping, determinism of the
   attacked runs, the 100%-caught gate in the CHERI scenarios, the
   expected baseline leaks, and the blast-radius containment checks. *)

module V = Dsim.Verdict
module At = Core.Attack_traffic

(* ------------------------------------------------------------------ *)
(* Ledger unit behaviour                                               *)

let ledger_bookkeeping () =
  let l = V.create () in
  let a = V.record l At.Parser_bounds ~name:"a" ~at_ns:1. ~target:"x" in
  let b = V.record l At.Temporal ~name:"b" ~at_ns:2. ~target:"y" in
  Alcotest.(check int) "two pending" 2 (V.tally l).V.pending;
  V.resolve l a ~provenance:"length guard"
    (V.Caught { stage = "ip_rx"; reason = "bad_length" });
  V.resolve l b (V.Leaked { detail = "secret out" });
  (* First verdict wins: a second resolution must not overwrite. *)
  V.resolve l a ~provenance:"late" (V.Leaked { detail = "should not apply" });
  let t = V.tally l in
  Alcotest.(check int) "none pending" 0 t.V.pending;
  Alcotest.(check int) "one caught" 1 t.V.caught;
  Alcotest.(check int) "one leaked" 1 t.V.leaked;
  Alcotest.(check int) "tallied per class" 1
    (V.tally ~kind:At.Parser_bounds l).V.caught;
  match V.find l a with
  | Some { V.outcome = V.Caught { stage; reason }; provenance; _ } ->
    Alcotest.(check string) "stage kept" "ip_rx" stage;
    Alcotest.(check string) "reason kept" "bad_length" reason;
    Alcotest.(check (option string)) "provenance kept" (Some "length guard")
      provenance
  | _ -> Alcotest.fail "first verdict overwritten"

(* ------------------------------------------------------------------ *)
(* The attacked runs (shared across checks: one run is ~seconds)       *)

let report = lazy (At.run ~seed:42L ())

let attacked_run_deterministic () =
  let r1 = Lazy.force report in
  let r2 = At.run ~seed:42L () in
  Alcotest.(check string) "byte-identical report for the same seed"
    r1.At.text r2.At.text;
  Golden_file.check "attack_net.seed42.quick.txt" r1.At.text;
  Golden_file.check "attack_net.seed42.quick.json"
    (Dsim.Json.to_string r1.At.json)

let all_caught_in_cheri_scenarios () =
  let r = Lazy.force report in
  Alcotest.(check bool) "corpus actually launched" true (r.At.launched > 0);
  Alcotest.(check int) "no unresolved launches" 0 r.At.pending;
  Alcotest.(check int) "100% caught-and-attributed in S1+S2"
    r.At.cheri_launched r.At.cheri_caught;
  Alcotest.(check bool) "verdict PASS" true r.At.pass

let baseline_records_leaks () =
  let r = Lazy.force report in
  (* The MMU model must leak where CHERI traps — that asymmetry is the
     paper's motivation and the gate demands at least one. *)
  Alcotest.(check bool) "silent corruption recorded in the baseline" true
    (r.At.baseline_leaks >= 1);
  Alcotest.(check int) "every leak is a baseline leak" r.At.leaked
    r.At.baseline_leaks

(* Every launch is stamped with the virtual time it fired at, which is
   inside the attacked window — including the close race, launched from
   inside the app hook. *)
let launches_after_warmup () =
  let r = Lazy.force report in
  let warmup =
    Dsim.Time.to_float_ns At.quick.At.window.Core.Blast_radius.warmup
  in
  let attacks =
    match
      Option.bind (Dsim.Json.member "ledger" r.At.json)
        (Dsim.Json.member "attacks")
    with
    | Some (Dsim.Json.List l) -> l
    | _ -> []
  in
  Alcotest.(check int) "every launch in the JSON ledger" r.At.launched
    (List.length attacks);
  List.iter
    (fun a ->
      let name =
        match Dsim.Json.member "name" a with
        | Some (Dsim.Json.String s) -> s
        | _ -> "?"
      in
      let at_ns =
        match Dsim.Json.member "at_ns" a with
        | Some (Dsim.Json.Float f) -> f
        | _ -> Float.nan
      in
      Alcotest.(check bool) (name ^ " launched after warmup") true
        (at_ns >= warmup))
    attacks

let close_race_releases_mutex () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("mutex free after " ^ p.At.ap_common.Core.Blast_radius.title)
        true p.At.ap_mutex_free)
    r.At.phases

let exhaustion_is_typed_backpressure () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("pool recovered after " ^ p.At.ap_common.Core.Blast_radius.title)
        true p.At.ap_pool_recovered)
    r.At.phases;
  (* Every resource-class launch (floods + 3x exhaust-and-spray) ended
     in a typed verdict, none leaked. *)
  match List.assoc_opt At.Resource r.At.counts with
  | Some t ->
    Alcotest.(check bool) "resource attacks ran" true (t.V.total > 0);
    Alcotest.(check int) "no pending resource attack" 0 t.V.pending;
    Alcotest.(check int) "no leaked resource attack" 0 t.V.leaked
  | None -> Alcotest.fail "no resource-class launches"

let sibling_goodput_gate () =
  let r = Lazy.force report in
  List.iter
    (fun p ->
      let c = p.At.ap_common in
      let ratio =
        if c.Core.Blast_radius.sibling_ref <= 0. then 1.
        else
          c.Core.Blast_radius.sibling_rate /. c.Core.Blast_radius.sibling_ref
      in
      Alcotest.(check bool)
        ("sibling >= 0.9x twin in " ^ c.Core.Blast_radius.title)
        true (ratio >= 0.9))
    r.At.phases

(* ------------------------------------------------------------------ *)
(* A live ledger entry: goldens unchanged                              *)

let fig4_text () =
  match Core.Experiment.find "fig4" with
  | Some spec ->
    let quick = { Core.Experiment.defaults with Core.Experiment.quick = true } in
    (spec.Core.Experiment.run quick).Core.Experiment.text
  | None -> Alcotest.fail "fig4 missing from the registry"

let live_ledger_bit_identical () =
  let plain = fig4_text () in
  let l = V.create () in
  let id = V.record l At.Resource ~name:"noop" ~at_ns:0. ~target:"t" in
  let with_ledger = fig4_text () in
  Alcotest.(check string)
    "fig4 golden unchanged with a pending ledger entry alive" plain
    with_ledger;
  Alcotest.(check bool) "entry still pending" true
    (match V.find l id with
    | Some { V.outcome = V.Pending; _ } -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "redteam ledger: launch/resolve bookkeeping" `Quick
      ledger_bookkeeping;
    Alcotest.test_case "attack net: byte-identical per seed" `Slow
      attacked_run_deterministic;
    Alcotest.test_case "attack net: 100% caught in the CHERI scenarios"
      `Slow all_caught_in_cheri_scenarios;
    Alcotest.test_case "attack net: baseline leaks recorded" `Slow
      baseline_records_leaks;
    Alcotest.test_case "attack net: launch times after warmup" `Slow
      launches_after_warmup;
    Alcotest.test_case "attack net: close race leaves the mutex free" `Slow
      close_race_releases_mutex;
    Alcotest.test_case "attack net: exhaustion -> typed backpressure, pool \
                        recovers"
      `Slow exhaustion_is_typed_backpressure;
    Alcotest.test_case "attack net: sibling goodput >= 0.9x twin" `Slow
      sibling_goodput_gate;
    Alcotest.test_case "fig4 golden unmoved by a live ledger" `Slow
      live_ledger_bit_identical;
  ]
