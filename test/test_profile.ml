(* The wall-clock profiler, capacity gauges, backpressure stalls,
   and the perf-regression differ.

   Ordering note: the tests that install a synthetic clock on
   Dsim.Profile.default run AFTER the ones that need real wall time
   (bit-identical goldens, event counts) — the default registry's clock
   cannot be restored to the monotonic source from here. *)

module J = Dsim.Json

(* Every event is scheduled under a profiler label; these tests need
   only one. *)
let k_test =
  Dsim.Profile.key Dsim.Profile.default ~component:"test" ~cvm:"-"
    ~stage:"event"

let fig4 () =
  match Core.Experiment.find "fig4" with
  | Some s -> s
  | None -> Alcotest.fail "fig4 experiment not registered"

let quick = { Core.Experiment.defaults with Core.Experiment.quick = true }

(* ------------------------------------------------------------------ *)
(* Goldens and event counts (real clock)                                *)
(* ------------------------------------------------------------------ *)

(* Profiling must never touch the virtual clock: the experiment's own
   rendering — medians, histograms, sample counts — is byte-identical
   with the profiler on or off. *)
let fig4_bit_identical () =
  let spec = fig4 () in
  let plain = (spec.Core.Experiment.run quick).Core.Experiment.text in
  let profiled = Core.Profile_experiment.run (fig4 ()) quick in
  Alcotest.(check string)
    "fig4 output identical with profiling enabled" plain
    profiled.Core.Profile_experiment.experiment_text;
  (match J.member "schema" profiled.Core.Profile_experiment.json with
  | Some (J.String "netrepro-profile/1") -> ()
  | _ -> Alcotest.fail "profile.json missing schema tag");
  match J.member "hotspots" profiled.Core.Profile_experiment.json with
  | Some (J.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "profile.json has no hotspots"

(* Event counts are a function of the seed alone: two profiled runs
   agree exactly, which is what lets perfdiff treat any event drift as
   a real behaviour change. *)
let fig4_events_deterministic () =
  let events_of r =
    match J.member "hotspots" r.Core.Profile_experiment.json with
    | Some (J.List hs) ->
      List.filter_map
        (fun h ->
          match
            (J.member "component" h, J.member "cvm" h, J.member "stage" h,
             J.member "events" h)
          with
          | Some (J.String c), Some (J.String v), Some (J.String s),
            Some (J.Int e) ->
            Some (c ^ ":" ^ v ^ ":" ^ s, e)
          | _ -> None)
        hs
      (* Hotspots are ordered by wall time, which is machine noise —
         compare the (key, events) relation, not the ranking. *)
      |> List.sort compare
    | _ -> []
  in
  let r1 = Core.Profile_experiment.run (fig4 ()) quick in
  let r2 = Core.Profile_experiment.run (fig4 ()) quick in
  Alcotest.(check bool) "some hotspots" true (events_of r1 <> []);
  Alcotest.(check bool)
    "same (key, events) list across runs" true
    (events_of r1 = events_of r2)

(* Any registry entry profiles, a gated run included: the audit's
   report and verdict are those of a plain run. *)
let gated_entry_profiles () =
  let audit =
    match Core.Experiment.find "audit" with
    | Some e -> e
    | None -> Alcotest.fail "audit not registered"
  in
  let plain = audit.Core.Experiment.run quick in
  let profiled = Core.Profile_experiment.run audit quick in
  Alcotest.(check string) "audit output identical with profiling enabled"
    plain.Core.Experiment.text profiled.Core.Profile_experiment.experiment_text;
  Alcotest.(check bool) "verdict carried" plain.Core.Experiment.pass
    profiled.Core.Profile_experiment.pass

(* ------------------------------------------------------------------ *)
(* Capacity gauges and backpressure stalls                              *)
(* ------------------------------------------------------------------ *)

let watermark_monotone () =
  let m = Dsim.Metrics.create ~enabled:true () in
  let g = Dsim.Metrics.gauge m ~capacity:100 "res" in
  let high_seen = ref 0 in
  List.iter
    (fun level ->
      Dsim.Metrics.set g level;
      let h = Dsim.Metrics.high g in
      Alcotest.(check bool) "high never decreases" true (h >= !high_seen);
      Alcotest.(check bool) "high >= current" true (h >= Dsim.Metrics.level g);
      high_seen := h)
    [ 3; 10; 7; 42; 11; 0; 41 ];
  Alcotest.(check int) "high is the running max" 42 (Dsim.Metrics.high g);
  Alcotest.(check int) "current is the last level" 41 (Dsim.Metrics.level g);
  Alcotest.(check (option int)) "capacity kept" (Some 100)
    (Dsim.Metrics.capacity g);
  Dsim.Metrics.reset m;
  Alcotest.(check int) "reset zeroes high" 0 (Dsim.Metrics.high g);
  Dsim.Metrics.add g 5;
  Alcotest.(check int) "add raises high" 5 (Dsim.Metrics.high g)

(* The process-wide registry, reset and enabled for one check. *)
let with_default_metrics f =
  let m = Dsim.Metrics.default in
  Dsim.Metrics.reset m;
  Dsim.Metrics.set_enabled m true;
  Fun.protect ~finally:(fun () -> Dsim.Metrics.set_enabled m false) (fun () -> f m)

let stall_count m ?(labels = []) ~resource kind =
  match
    Dsim.Metrics.find_counter m
      ~labels:(("resource", resource) :: ("kind", kind) :: labels)
      "backpressure_stalls_total"
  with
  | Some c -> Dsim.Metrics.value c
  | None -> Alcotest.failf "no %s stall series for %s" kind resource

let watermark_growth_alarm () =
  with_default_metrics (fun m ->
      let engine = Dsim.Engine.create () in
      for _ = 1 to 5000 do
        Dsim.Engine.schedule engine ~delay:(Dsim.Time.us 1) ~label:k_test ignore
      done;
      (* Stalls at 2048 and 4096 — doubling keeps an unbounded leak at
         O(log n) stalls. *)
      Alcotest.(check int) "doubling alarm fired log-many times" 2
        (stall_count m ~resource:"event_heap" "heap_growth");
      match Dsim.Metrics.find_gauge m "event_heap" with
      | Some g -> Alcotest.(check int) "heap high" 5000 (Dsim.Metrics.high g)
      | None -> Alcotest.fail "event_heap gauge missing")

(* Forced mbuf-pool exhaustion must surface as typed backpressure, not
   just a None from alloc. *)
let mbuf_exhaustion_backpressure () =
  with_default_metrics (fun m ->
      let mem = Cheri.Tagged_memory.create ~size:0x200000 in
      let region =
        Cheri.Capability.root ~base:0 ~length:0x100000 ~perms:Cheri.Perms.all
      in
      let eal = Dpdk.Eal.create mem ~region in
      let pool = Dpdk.Mbuf.pool_create eal ~name:"squeeze" ~n:8 ~buf_len:256 in
      let live = ref [] in
      let refusals = ref 0 in
      for _ = 1 to 12 do
        match Dpdk.Mbuf.alloc pool with
        | Some mb -> live := mb :: !live
        | None -> incr refusals
      done;
      Alcotest.(check int) "pool handed out its capacity" 8
        (List.length !live);
      Alcotest.(check int) "alloc refused past capacity" 4 !refusals;
      let labels = [ ("pool", "squeeze") ] in
      Alcotest.(check int) "each refusal is a pool_exhausted stall" 4
        (stall_count m ~labels ~resource:"dpdk_mbuf_in_use" "pool_exhausted");
      (match Dsim.Metrics.find_gauge m ~labels "dpdk_mbuf_in_use" with
      | Some g ->
        Alcotest.(check int) "high watermark pinned at capacity" 8
          (Dsim.Metrics.high g)
      | None -> Alcotest.fail "dpdk_mbuf_in_use gauge missing");
      (* The profile.json rows: the pool at 100% and its stall. *)
      let rows key =
        match J.member key (Dsim.Metrics.watermark_json m) with
        | Some (J.List l) -> l
        | _ -> Alcotest.failf "watermark json has no %s list" key
      in
      let squeeze row =
        J.member "labels" row = Some (J.Obj [ ("pool", J.String "squeeze") ])
      in
      (match List.find_opt squeeze (rows "watermarks") with
      | Some row ->
        Alcotest.(check bool) "pool row at capacity" true
          (J.member "high" row = Some (J.Int 8)
          && J.member "capacity" row = Some (J.Int 8)
          && J.member "utilisation_pct" row = Some (J.Float 100.))
      | None -> Alcotest.fail "no watermark row for the pool");
      Alcotest.(check bool) "stall row" true
        (List.exists
           (fun row ->
             squeeze row
             && J.member "name" row = Some (J.String "dpdk_mbuf_in_use")
             && J.member "kind" row = Some (J.String "pool_exhausted")
             && J.member "count" row = Some (J.Int 4))
           (rows "stalls"));
      List.iter Dpdk.Mbuf.free !live)

(* Each port's rings are their own series, named by MAC: the DUT's and
   the load generator's port 0 no longer share one. *)
let rx_rings_per_node () =
  with_default_metrics (fun m ->
      let built =
        Core.Scenarios.build_dual_port ~direction:Core.Scenarios.Dut_receives ()
      in
      let ring node =
        let mac =
          Nic.Mac_addr.to_string (Nic.Igb.mac (Core.Topology.port node 0))
        in
        match Dsim.Metrics.find_gauge m ~labels:[ ("port", mac) ] "nic_rx_ring" with
        | Some g -> g
        | None -> Alcotest.failf "no nic_rx_ring series for %s" mac
      in
      let dut = ring built.Core.Scenarios.dut
      and peer = ring built.Core.Scenarios.peer in
      Alcotest.(check bool) "two series" true (dut != peer);
      (* The first refill of an empty ring leaves 511 of 512 slots
         unposted. *)
      List.iter
        (fun g ->
          Alcotest.(check int) "rx ring high" 511 (Dsim.Metrics.high g);
          Alcotest.(check (option int)) "rx ring capacity" (Some 512)
            (Dsim.Metrics.capacity g))
        [ dut; peer ];
      built.Core.Scenarios.stop ())

(* [--timeseries] enables only the registry and a sampler; the ring
   gauges are registry series, so the rows show real occupancy. *)
let timeseries_ring_levels () =
  with_default_metrics (fun m ->
      let built =
        Core.Scenarios.build_dual_port ~direction:Core.Scenarios.Dut_sends ()
      in
      let engine = built.Core.Scenarios.engine in
      let s =
        Dsim.Sampler.create ~enabled:true ~interval:(Dsim.Time.ms 1) ()
      in
      Dsim.Sampler.attach s engine m;
      Dsim.Engine.run engine ~until:(Dsim.Time.ms 20);
      built.Core.Scenarios.stop ();
      let peak =
        List.fold_left
          (fun acc (r : Dsim.Sampler.row) ->
            List.fold_left
              (fun acc (name, _, v) ->
                match v with
                | Dsim.Metrics.Gauge_value n when name = "nic_tx_ring" -> max acc n
                | _ -> acc)
              acc r.Dsim.Sampler.values)
          0 (Dsim.Sampler.rows s)
      in
      Alcotest.(check bool)
        (Printf.sprintf "nic_tx_ring peaks at %d in the rows" peak)
        true (peak > 0))

(* ------------------------------------------------------------------ *)
(* Profiler mechanics (synthetic clock on the default registry)         *)
(* ------------------------------------------------------------------ *)

(* Every clock read advances 100 ns, so each dispatch's enter/exit
   bracket measures exactly 100 ns. *)
let with_synthetic_profiler f =
  let p = Dsim.Profile.default in
  Dsim.Profile.reset p;
  let t = ref 0L in
  Dsim.Profile.set_clock p (fun () ->
      t := Int64.add !t 100L;
      !t);
  Dsim.Profile.set_enabled p true;
  Fun.protect
    ~finally:(fun () ->
      Dsim.Profile.set_enabled p false;
      Dsim.Profile.reset p)
    (fun () -> f p)

(* Dispatch [(delay_ns, key)] events on a fresh engine. *)
let dispatch_labelled events =
  let engine = Dsim.Engine.create () in
  List.iter
    (fun (d, label) ->
      Dsim.Engine.schedule engine ~delay:(Dsim.Time.ns d) ~label ignore)
    events;
  Dsim.Engine.run engine

let engine_dispatch_attribution () =
  with_synthetic_profiler (fun p ->
      let key stage = Dsim.Profile.key p ~component:"t" ~cvm:"e" ~stage in
      let k = key "handler" and other = key "other" in
      dispatch_labelled ((10, other) :: List.init 5 (fun i -> (i + 1, k)));
      let row stage =
        match
          List.find_opt
            (fun (r : Dsim.Profile.row) -> r.Dsim.Profile.r_stage = stage)
            (Dsim.Profile.rows p)
        with
        | Some r -> r
        | None -> Alcotest.failf "no row for stage %s" stage
      in
      Alcotest.(check int) "labelled handler counted" 5
        (row "handler").Dsim.Profile.r_events;
      Alcotest.(check (float 0.)) "each dispatch charged one clock interval"
        500. (row "handler").Dsim.Profile.r_self_ns;
      Alcotest.(check int) "second label counted apart" 1
        (row "other").Dsim.Profile.r_events;
      Alcotest.(check (float 0.)) "total is the sum over keys" 600.
        (Dsim.Profile.total_self_ns p))

let folded_output () =
  with_synthetic_profiler (fun p ->
      let key stage = Dsim.Profile.key p ~component:"c" ~cvm:"v" ~stage in
      let o = key "o" and i = key "i" in
      ignore (key "idle");
      dispatch_labelled [ (1, o); (2, i); (3, o) ];
      Alcotest.(check string) "one sorted line per key that took time"
        "c:v:i 100\nc:v:o 200\n" (Dsim.Profile.folded p))

(* ------------------------------------------------------------------ *)
(* Perfdiff                                                             *)
(* ------------------------------------------------------------------ *)

let prof_snapshot rows =
  let total =
    List.fold_left (fun acc (_, _, _, _, self) -> acc +. self) 0. rows
  in
  J.Obj
    [
      ("total_self_wall_ns", J.Float total);
      ( "hotspots",
        J.List
          (List.map
             (fun (c, v, s, ev, self) ->
               J.Obj
                 [
                   ("component", J.String c);
                   ("cvm", J.String v);
                   ("stage", J.String s);
                   ("events", J.Int ev);
                   ("self_wall_ns", J.Float self);
                   ( "ns_per_event",
                     J.Float (self /. float_of_int (max ev 1)) );
                   ( "share_pct",
                     J.Float (if total > 0. then 100. *. self /. total else 0.)
                   );
                 ])
             rows) );
    ]

let base_rows =
  [
    ("netstack", "a", "loop", 10_000, 400e6);
    ("nic", "port0", "tx_dma", 5_000, 50e6);
  ]

let diff old_r new_r =
  match Core.Perfdiff.compare_json (prof_snapshot old_r) (prof_snapshot new_r) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("perfdiff: " ^ e)

let perfdiff_clean () =
  let r = diff base_rows base_rows in
  Alcotest.(check int) "identical snapshots exit 0" 0
    (Core.Perfdiff.exit_code r);
  Alcotest.(check int) "no regressions" 0 (List.length r.Core.Perfdiff.regressions)

let perfdiff_event_regression () =
  let worse =
    [
      ("netstack", "a", "loop", 13_000, 400e6) (* +30% events *);
      ("nic", "port0", "tx_dma", 5_000, 50e6);
    ]
  in
  let r = diff base_rows worse in
  Alcotest.(check int) "event drift past threshold exits 1" 1
    (Core.Perfdiff.exit_code r);
  Alcotest.(check bool) "the events key is the regression" true
    (List.exists
       (fun (d : Core.Perfdiff.delta) ->
         d.Core.Perfdiff.d_key = "netstack:a:loop/events")
       r.Core.Perfdiff.regressions)

let perfdiff_wall_regression () =
  let worse =
    [
      ("netstack", "a", "loop", 10_000, 560e6) (* ns/event +40%, hot key *);
      ("nic", "port0", "tx_dma", 5_000, 50e6);
    ]
  in
  let r = diff base_rows worse in
  Alcotest.(check int) "hot-key wall regression exits 1" 1
    (Core.Perfdiff.exit_code r);
  (* The same percentage move on a sub-noise-floor key must NOT flag:
     cold-key jitter cannot fail CI on another machine. *)
  let cold_old = base_rows @ [ ("measure", "b", "tick", 100, 1e6) ] in
  let cold_new = base_rows @ [ ("measure", "b", "tick", 100, 1.4e6) ] in
  let r2 = diff cold_old cold_new in
  Alcotest.(check int) "cold-key wall jitter exits 0" 0
    (Core.Perfdiff.exit_code r2)

let perfdiff_improvement () =
  let better =
    [
      ("netstack", "a", "loop", 10_000, 280e6) (* ns/event -30% *);
      ("nic", "port0", "tx_dma", 5_000, 50e6);
    ]
  in
  let r = diff base_rows better in
  Alcotest.(check int) "improvement exits 0" 0 (Core.Perfdiff.exit_code r)

(* Perfdiff only understands profile snapshots: anything without a
   "hotspots" list is an Error, which the CLI turns into exit 2 (checked
   by the runtest rule in test/dune). *)
let perfdiff_non_profile () =
  let other = J.Obj [ ("results", J.Obj [ ("goodput_mbit_s", J.Float 940.) ]) ] in
  let prof = prof_snapshot base_rows in
  List.iter
    (fun (what, o, n) ->
      match Core.Perfdiff.compare_json o n with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" what)
    [
      ("non-profile vs non-profile", other, other);
      ("profile vs non-profile", prof, other);
      ("non-profile vs profile", other, prof);
    ]

let perfdiff_missing_file () =
  match Core.Perfdiff.compare_files "/nonexistent/a.json" "/nonexistent/b.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an Error (CLI exit 2)"

(* ------------------------------------------------------------------ *)
(* Prometheus escaping and sampler truncation (satellites)              *)
(* ------------------------------------------------------------------ *)

let prometheus_escaping () =
  let m = Dsim.Metrics.create ~enabled:true () in
  let g =
    Dsim.Metrics.gauge m ~help:"line one\nwith \\ backslash"
      ~labels:[ ("path", "C:\\tmp\n\"quoted\"") ]
      "escape_test"
  in
  Dsim.Metrics.set g 7;
  let text = Dsim.Metrics.to_prometheus m in
  let has sub =
    let n = String.length text and l = String.length sub in
    let rec go i = i + l <= n && (String.sub text i l = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "label backslash doubled, newline + quote escaped"
    true
    (has {|path="C:\\tmp\n\"quoted\""|});
  Alcotest.(check bool) "HELP present with escaped newline" true
    (has {|# HELP escape_test line one\nwith \\ backslash|});
  Alcotest.(check bool) "TYPE present" true (has "# TYPE escape_test gauge");
  (* A help-less family still gets its HELP line (bare form is legal
     exposition syntax). *)
  let m2 = Dsim.Metrics.create ~enabled:true () in
  Dsim.Metrics.incr (Dsim.Metrics.counter m2 "bare_total");
  let text2 = Dsim.Metrics.to_prometheus m2 in
  let has2 sub =
    let n = String.length text2 and l = String.length sub in
    let rec go i = i + l <= n && (String.sub text2 i l = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "bare HELP line for help-less family" true
    (has2 "# HELP bare_total")

let sampler_truncation () =
  let engine = Dsim.Engine.create () in
  let m = Dsim.Metrics.create ~enabled:true () in
  Dsim.Metrics.set (Dsim.Metrics.gauge m "load") 1;
  let s =
    Dsim.Sampler.create ~enabled:true ~interval:(Dsim.Time.ms 1) ~capacity:3 ()
  in
  Dsim.Sampler.attach s engine m;
  (* A 50 ms event chain keeps the sim alive across ~50 intervals. *)
  let rec tick n =
    if n > 0 then
      Dsim.Engine.schedule engine ~delay:(Dsim.Time.ms 1) ~label:k_test
        (fun () -> tick (n - 1))
  in
  tick 50;
  Dsim.Engine.run engine;
  Alcotest.(check int) "rows capped at capacity" 3
    (List.length (Dsim.Sampler.rows s));
  Alcotest.(check bool) "truncation flagged" true (Dsim.Sampler.truncated s);
  Alcotest.(check bool) "dropped rows counted" true (Dsim.Sampler.dropped s > 0);
  let j = Dsim.Sampler.to_json s in
  (match J.member "truncated" j with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.fail "to_json must carry truncated=true");
  (match J.member "dropped_rows" j with
  | Some (J.Int n) when n > 0 -> ()
  | _ -> Alcotest.fail "to_json must carry dropped_rows");
  Alcotest.(check bool) "analyze classifies it as a time series" true
    (Core.Analyze.is_timeseries j);
  match Core.Analyze.timeseries_summary j with
  | Ok text ->
    let has sub =
      let n = String.length text and l = String.length sub in
      let rec go i = i + l <= n && (String.sub text i l = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "summary warns about truncation" true
      (has "TRUNCATED")
  | Error e -> Alcotest.fail ("timeseries_summary: " ^ e)

let suite =
  [
    Alcotest.test_case "fig4 goldens bit-identical, profiled" `Slow
      fig4_bit_identical;
    Alcotest.test_case "fig4 event counts deterministic across runs" `Slow
      fig4_events_deterministic;
    Alcotest.test_case "profile: gated entry runs unchanged" `Slow
      gated_entry_profiles;
    Alcotest.test_case "watermark high is monotone" `Quick watermark_monotone;
    Alcotest.test_case "heap growth alarm doubles" `Quick
      watermark_growth_alarm;
    Alcotest.test_case "mbuf exhaustion raises typed backpressure" `Quick
      mbuf_exhaustion_backpressure;
    Alcotest.test_case "rx rings are one series per node" `Quick
      rx_rings_per_node;
    Alcotest.test_case "timeseries rows show ring occupancy" `Quick
      timeseries_ring_levels;
    Alcotest.test_case "engine dispatch attributes to labels" `Quick
      engine_dispatch_attribution;
    Alcotest.test_case "folded-stack output" `Quick folded_output;
    Alcotest.test_case "perfdiff: identical snapshots pass" `Quick
      perfdiff_clean;
    Alcotest.test_case "perfdiff: event drift flags" `Quick
      perfdiff_event_regression;
    Alcotest.test_case "perfdiff: wall regression flags, cold jitter passes"
      `Quick perfdiff_wall_regression;
    Alcotest.test_case "perfdiff: improvement passes" `Quick
      perfdiff_improvement;
    Alcotest.test_case "perfdiff: non-profile snapshot rejected" `Quick
      perfdiff_non_profile;
    Alcotest.test_case "perfdiff: missing file is an error" `Quick
      perfdiff_missing_file;
    Alcotest.test_case "prometheus escaping and HELP/TYPE" `Quick
      prometheus_escaping;
    Alcotest.test_case "sampler truncation surfaces everywhere" `Quick
      sampler_truncation;
  ]
