(* The wall-clock profiler, capacity watermarks, backpressure stalls,
   and the perf-regression differ.

   Ordering note: the tests that install a synthetic clock on
   Dsim.Profile.default run AFTER the ones that need real wall time
   (attribution, bit-identical goldens) — the default registry's clock
   cannot be restored to the monotonic source from here. *)

module J = Dsim.Json

let fig4 () =
  match Core.Experiment.find "fig4" with
  | Some s -> s
  | None -> Alcotest.fail "fig4 experiment not registered"

(* ------------------------------------------------------------------ *)
(* Goldens and attribution (real clock)                                 *)
(* ------------------------------------------------------------------ *)

(* Profiling must never touch the virtual clock: the experiment's own
   rendering — medians, histograms, sample counts — is byte-identical
   with the profiler on or off. *)
let fig4_bit_identical () =
  let spec = fig4 () in
  let plain = spec.Core.Experiment.report Core.Experiment.quick in
  let profiled = Core.Profile_experiment.run ~profile:Core.Experiment.quick (fig4 ()) in
  Alcotest.(check string)
    "fig4 output identical with profiling enabled" plain
    profiled.Core.Profile_experiment.experiment_text;
  (* Acceptance gate: the labelled scheduling sites cover the run. *)
  Alcotest.(check bool)
    (Printf.sprintf "attribution %.1f%% >= 95%%"
       profiled.Core.Profile_experiment.attributed_pct)
    true
    (profiled.Core.Profile_experiment.attributed_pct >= 95.);
  (* The machine-readable snapshot carries the same attribution. *)
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
  let r1 = Core.Profile_experiment.run ~profile:Core.Experiment.quick (fig4 ()) in
  let r2 = Core.Profile_experiment.run ~profile:Core.Experiment.quick (fig4 ()) in
  Alcotest.(check bool) "some hotspots" true (events_of r1 <> []);
  Alcotest.(check bool)
    "same (key, events) list across runs" true
    (events_of r1 = events_of r2)

(* ------------------------------------------------------------------ *)
(* Watermarks                                                           *)
(* ------------------------------------------------------------------ *)

let watermark_monotone () =
  let w = Dsim.Watermark.create ~enabled:true () in
  let c = Dsim.Watermark.cell w ~capacity:100 "res" in
  let high_seen = ref 0 in
  List.iter
    (fun level ->
      Dsim.Watermark.observe c level;
      let h = Dsim.Watermark.high c in
      Alcotest.(check bool) "high never decreases" true (h >= !high_seen);
      Alcotest.(check bool) "high >= current" true
        (h >= Dsim.Watermark.current c);
      high_seen := h)
    [ 3; 10; 7; 42; 11; 0; 41 ];
  Alcotest.(check int) "high is the running max" 42 (Dsim.Watermark.high c);
  Alcotest.(check int) "current is the last level" 41
    (Dsim.Watermark.current c)

let watermark_growth_alarm () =
  let w = Dsim.Watermark.create ~enabled:true () in
  let c = Dsim.Watermark.cell w ~growth_alarm:4 "heap" in
  for level = 1 to 40 do
    Dsim.Watermark.observe c level
  done;
  (* Crossings at 4, 8, 16, 32 — doubling keeps an unbounded leak at
     O(log n) stalls. *)
  Alcotest.(check int) "doubling alarm fired log-many times" 4
    (Dsim.Watermark.stall_count w "heap" Dsim.Watermark.Heap_growth)

let watermark_publish () =
  let w = Dsim.Watermark.create ~enabled:true () in
  let m = Dsim.Metrics.create ~enabled:true () in
  let c = Dsim.Watermark.cell w ~capacity:8 ~labels:[ ("port", "0") ] "ring" in
  Dsim.Watermark.observe c 5;
  Dsim.Watermark.stall c Dsim.Watermark.Ring_full;
  Dsim.Watermark.stall c Dsim.Watermark.Ring_full;
  Dsim.Watermark.publish w m;
  Dsim.Watermark.publish w m (* second publish must not double-count *);
  let families =
    List.map (fun (name, _, _) -> name) (Dsim.Metrics.snapshot m)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " family published") true
        (List.mem f families))
    [ "capacity_watermark"; "capacity_watermark_high";
      "backpressure_stalls_total" ];
  match
    Dsim.Metrics.find_counter m
      ~labels:[ ("resource", "ring"); ("kind", "ring_full"); ("port", "0") ]
      "backpressure_stalls_total"
  with
  | Some ctr -> Alcotest.(check int) "stall delta published once" 2
                  (Dsim.Metrics.value ctr)
  | None -> Alcotest.fail "backpressure_stalls_total series missing"

(* Forced mbuf-pool exhaustion must surface as typed backpressure, not
   just a None from alloc. *)
let mbuf_exhaustion_backpressure () =
  let w = Dsim.Watermark.default in
  Dsim.Watermark.reset w;
  Dsim.Watermark.set_enabled w true;
  Fun.protect
    ~finally:(fun () -> Dsim.Watermark.set_enabled w false)
    (fun () ->
      let engine = Dsim.Engine.create () in
      let mem = Cheri.Tagged_memory.create ~size:0x200000 in
      let region =
        Cheri.Capability.root ~base:0 ~length:0x100000 ~perms:Cheri.Perms.all
      in
      let eal = Dpdk.Eal.create engine mem ~region in
      let pool =
        Dpdk.Mbuf.pool_create eal ~name:"squeeze" ~n:8 ~buf_len:256 ()
      in
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
      Alcotest.(check int) "each refusal is a pool_exhausted stall" 4
        (Dsim.Watermark.stall_count w
           ~labels:[ ("pool", "squeeze") ]
           "mbuf_pool" Dsim.Watermark.Pool_exhausted);
      let hi =
        let c =
          Dsim.Watermark.cell w ~labels:[ ("pool", "squeeze") ] "mbuf_pool"
        in
        Dsim.Watermark.high c
      in
      Alcotest.(check int) "high watermark pinned at capacity" 8 hi;
      List.iter Dpdk.Mbuf.free !live)

(* ------------------------------------------------------------------ *)
(* Profiler mechanics (synthetic clock on the default registry)         *)
(* ------------------------------------------------------------------ *)

(* Every clock read advances 100 ns, so each enter/exit bracket
   measures exactly 100 ns and nested spans get exact self/cum splits. *)
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

let span_self_vs_cum () =
  with_synthetic_profiler (fun p ->
      let outer = Dsim.Profile.key p ~component:"t" ~cvm:"-" ~stage:"outer" in
      let inner = Dsim.Profile.key p ~component:"t" ~cvm:"-" ~stage:"inner" in
      Dsim.Profile.span outer (fun () ->
          Dsim.Profile.span inner (fun () -> ()));
      (* outer: enter(100) inner-enter(200) inner-exit(300) exit(400):
         cum 300, child 100, self 200; inner: self = cum = 100. *)
      let find stage =
        List.find
          (fun (r : Dsim.Profile.row) -> r.Dsim.Profile.r_stage = stage)
          (Dsim.Profile.rows p)
      in
      let o = find "outer" and i = find "inner" in
      Alcotest.(check (float 0.)) "outer cum" 300. o.Dsim.Profile.r_cum_ns;
      Alcotest.(check (float 0.)) "outer self" 200. o.Dsim.Profile.r_self_ns;
      Alcotest.(check (float 0.)) "inner self" 100. i.Dsim.Profile.r_self_ns;
      Alcotest.(check (float 0.)) "inner cum" 100. i.Dsim.Profile.r_cum_ns)

let engine_dispatch_attribution () =
  with_synthetic_profiler (fun p ->
      let engine = Dsim.Engine.create () in
      let k =
        Dsim.Profile.key p ~component:"t" ~cvm:"e" ~stage:"handler"
      in
      for i = 1 to 5 do
        ignore
          (Dsim.Engine.schedule_l engine
             ~delay:(Dsim.Time.ns i)
             ~label:k
             (fun () -> ()))
      done;
      (* One event through the unlabelled legacy API: its time must
         land on the unattributed key, not vanish. *)
      ignore
        (Dsim.Engine.schedule engine ~delay:(Dsim.Time.ns 10) (fun () -> ()));
      Dsim.Engine.run_until_quiet engine;
      let rows = Dsim.Profile.rows p in
      let events stage =
        match
          List.find_opt
            (fun (r : Dsim.Profile.row) -> r.Dsim.Profile.r_stage = stage)
            rows
        with
        | Some r -> r.Dsim.Profile.r_events
        | None -> 0
      in
      Alcotest.(check int) "labelled handler counted" 5 (events "handler");
      let una =
        List.find_opt
          (fun (r : Dsim.Profile.row) ->
            r.Dsim.Profile.r_component = "unattributed")
          rows
      in
      (match una with
      | Some r -> Alcotest.(check int) "unlabelled event lands on unattributed"
                    1 r.Dsim.Profile.r_events
      | None -> Alcotest.fail "no unattributed row");
      Alcotest.(check bool) "attribution below 100% with a blind spot" true
        (Dsim.Profile.attributed_pct p < 100.))

let folded_output () =
  with_synthetic_profiler (fun p ->
      let outer = Dsim.Profile.key p ~component:"c" ~cvm:"v" ~stage:"o" in
      let inner = Dsim.Profile.key p ~component:"c" ~cvm:"v" ~stage:"i" in
      Dsim.Profile.span outer (fun () ->
          Dsim.Profile.span inner (fun () -> ()));
      let folded = Dsim.Profile.folded p in
      Alcotest.(check bool) "root frame line present" true
        (String.length folded > 0);
      let lines = String.split_on_char '\n' folded in
      Alcotest.(check bool) "nested path uses semicolons" true
        (List.exists (fun l -> l = "c:v:o;c:v:i 100") lines);
      Alcotest.(check bool) "outer self line present" true
        (List.exists (fun l -> l = "c:v:o 200") lines))

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
      ("attributed_wall_ns", J.Float total);
      ("attributed_pct", J.Float 100.);
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
                   ("cum_wall_ns", J.Float self);
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
      ignore
        (Dsim.Engine.schedule engine ~delay:(Dsim.Time.ms 1) (fun () ->
             tick (n - 1)))
  in
  tick 50;
  Dsim.Engine.run_until_quiet engine;
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
    Alcotest.test_case "fig4 goldens bit-identical; attribution >= 95%" `Slow
      fig4_bit_identical;
    Alcotest.test_case "fig4 event counts deterministic across runs" `Slow
      fig4_events_deterministic;
    Alcotest.test_case "watermark high is monotone" `Quick watermark_monotone;
    Alcotest.test_case "heap growth alarm doubles" `Quick
      watermark_growth_alarm;
    Alcotest.test_case "watermarks publish into metrics once" `Quick
      watermark_publish;
    Alcotest.test_case "mbuf exhaustion raises typed backpressure" `Quick
      mbuf_exhaustion_backpressure;
    Alcotest.test_case "span self vs cumulative split" `Quick span_self_vs_cum;
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
