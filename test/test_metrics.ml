(* Telemetry subsystem: registry semantics, zero-cost-when-disabled
   discipline, Prometheus/Chrome exports, and the guarantee that
   enabling telemetry does not move the calibrated figure medians. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                   *)
(* ------------------------------------------------------------------ *)

let counter_basics () =
  let r = Dsim.Metrics.create ~enabled:true () in
  let c = Dsim.Metrics.counter r "requests_total" in
  Dsim.Metrics.incr c;
  Dsim.Metrics.incr c ~by:4;
  Alcotest.(check int) "counted" 5 (Dsim.Metrics.value c);
  (* Get-or-create: same name, same instrument. *)
  let c' = Dsim.Metrics.counter r "requests_total" in
  Dsim.Metrics.incr c';
  Alcotest.(check int) "shared series" 6 (Dsim.Metrics.value c);
  Alcotest.(check int) "one series" 1 (Dsim.Metrics.series_count r)

let gauge_basics () =
  let r = Dsim.Metrics.create ~enabled:true () in
  let g = Dsim.Metrics.gauge r "depth" in
  Dsim.Metrics.set g 7;
  Dsim.Metrics.add g 3;
  Dsim.Metrics.add g (-2);
  Alcotest.(check int) "level" 8 (Dsim.Metrics.level g)

let label_identity () =
  let r = Dsim.Metrics.create ~enabled:true () in
  let a = Dsim.Metrics.counter r ~labels:[ ("cvm", "cvm1"); ("kind", "tag") ] "faults" in
  (* Same label set in a different order: same series. *)
  let b = Dsim.Metrics.counter r ~labels:[ ("kind", "tag"); ("cvm", "cvm1") ] "faults" in
  Dsim.Metrics.incr a;
  Dsim.Metrics.incr b;
  Alcotest.(check int) "order-insensitive" 2 (Dsim.Metrics.value a);
  (* Different value: a distinct series under the same name. *)
  let c = Dsim.Metrics.counter r ~labels:[ ("cvm", "cvm2"); ("kind", "tag") ] "faults" in
  Dsim.Metrics.incr c;
  Alcotest.(check int) "distinct series" 1 (Dsim.Metrics.value c);
  Alcotest.(check int) "two series" 2 (Dsim.Metrics.series_count r);
  Alcotest.(check bool) "find honours labels" true
    (Dsim.Metrics.find_counter r ~labels:[ ("kind", "tag"); ("cvm", "cvm2") ] "faults"
    <> None)

let type_mismatch () =
  let r = Dsim.Metrics.create ~enabled:true () in
  ignore (Dsim.Metrics.counter r "x_total");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Metrics.gauge: x_total is a counter")
    (fun () -> ignore (Dsim.Metrics.gauge r "x_total"))

let reset_keeps_series () =
  let r = Dsim.Metrics.create ~enabled:true () in
  let c = Dsim.Metrics.counter r "a_total" in
  let g = Dsim.Metrics.gauge r "b" in
  let h = Dsim.Metrics.histogram r "c_ns" in
  Dsim.Metrics.incr c;
  Dsim.Metrics.set g 3;
  Dsim.Metrics.observe h 10.;
  Dsim.Metrics.reset r;
  Alcotest.(check int) "series survive" 3 (Dsim.Metrics.series_count r);
  Alcotest.(check int) "counter zeroed" 0 (Dsim.Metrics.value c);
  Alcotest.(check int) "gauge zeroed" 0 (Dsim.Metrics.level g);
  Alcotest.(check int) "histogram zeroed" 0 (Dsim.Metrics.observations h);
  (* Old handles keep working after reset. *)
  Dsim.Metrics.incr c;
  Alcotest.(check int) "handle live" 1 (Dsim.Metrics.value c)

let disabled_updates_dropped () =
  let r = Dsim.Metrics.create () in
  Alcotest.(check bool) "disabled by default" false (Dsim.Metrics.enabled r);
  let c = Dsim.Metrics.counter r "a_total" in
  let h = Dsim.Metrics.histogram r "b_ns" in
  Dsim.Metrics.incr c;
  Dsim.Metrics.observe h 42.;
  Alcotest.(check int) "counter silent" 0 (Dsim.Metrics.value c);
  Alcotest.(check int) "histogram silent" 0 (Dsim.Metrics.observations h);
  Dsim.Metrics.set_enabled r true;
  Dsim.Metrics.incr c;
  Alcotest.(check int) "counts once enabled" 1 (Dsim.Metrics.value c)

(* The hot-path discipline: updating a disabled instrument must not
   allocate. The loop below would allocate megabytes if incr/set boxed
   anything. *)
let disabled_zero_allocation () =
  let r = Dsim.Metrics.create () in
  let c = Dsim.Metrics.counter r "hot_total" in
  let g = Dsim.Metrics.gauge r "hot_level" in
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    Dsim.Metrics.incr c;
    Dsim.Metrics.set g i
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words" (w1 -. w0))
    true
    (w1 -. w0 < 256.)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                                *)
(* ------------------------------------------------------------------ *)

let histogram_percentiles () =
  let ratio = 1.3 in
  let r = Dsim.Metrics.create ~enabled:true () in
  let h = Dsim.Metrics.histogram r ~lo:10. ~ratio ~buckets:60 "lat_ns" in
  let stats = Dsim.Stats.create () in
  let rng = Dsim.Rng.create ~seed:99L in
  for _ = 1 to 20_000 do
    let v = 100. *. Dsim.Rng.lognormal rng ~mu:0. ~sigma:0.5 in
    Dsim.Metrics.observe h v;
    Dsim.Stats.add stats v
  done;
  Alcotest.(check int) "n" 20_000 (Dsim.Metrics.observations h);
  let exact_mean = Dsim.Stats.mean stats in
  Alcotest.(check bool) "mean close" true
    (Float.abs (Dsim.Metrics.mean h -. exact_mean) /. exact_mean < 0.05);
  (* Bucketed estimate must land within one bucket ratio of the exact
     percentile. *)
  List.iter
    (fun p ->
      let exact = Dsim.Stats.percentile stats p in
      let est = Dsim.Metrics.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: est %.1f vs exact %.1f" p est exact)
        true
        (est /. exact < ratio && exact /. est < ratio))
    [ 50.; 90.; 99. ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let prometheus_export () =
  let r = Dsim.Metrics.create ~enabled:true () in
  let c = Dsim.Metrics.counter r ~help:"Crossings." ~labels:[ ("cvm", "cvm1") ]
      "trampoline_crossings_total"
  in
  Dsim.Metrics.incr c ~by:12;
  let g = Dsim.Metrics.gauge r "ring_depth" in
  Dsim.Metrics.set g 3;
  let h = Dsim.Metrics.histogram r ~lo:1. ~ratio:10. ~buckets:4 "wait_ns" in
  Dsim.Metrics.observe h 5.;
  Dsim.Metrics.observe h 50.;
  let text = Dsim.Metrics.to_prometheus r in
  List.iter
    (fun line -> Alcotest.(check bool) ("has " ^ line) true (contains text line))
    [
      "# HELP trampoline_crossings_total Crossings.";
      "# TYPE trampoline_crossings_total counter";
      "trampoline_crossings_total{cvm=\"cvm1\"} 12";
      "# TYPE ring_depth gauge";
      "ring_depth 3";
      "# TYPE wait_ns histogram";
      "wait_ns_bucket{le=\"+Inf\"} 2";
      "wait_ns_sum 55";
      "wait_ns_count 2";
      "wait_ns{quantile=\"0.5\"}";
      "wait_ns{quantile=\"0.999\"}";
    ];
  (* Buckets are cumulative. *)
  Alcotest.(check bool) "le=10 bucket" true
    (contains text "wait_ns_bucket{le=\"10\"} 1");
  Alcotest.(check bool) "le=100 bucket" true
    (contains text "wait_ns_bucket{le=\"100\"} 2")

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                  *)
(* ------------------------------------------------------------------ *)

let chrome_export_round_trip () =
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:1 () in
  let flow =
    Dsim.Flowtrace.origin_ns ft ~at_ns:2_000. ~flow:"Scenario 1"
      Dsim.Flowtrace.App
  in
  Dsim.Flowtrace.hop_ns flow Dsim.Flowtrace.Clock_ret ~at_ns:2_500.;
  Dsim.Flowtrace.hop_ns flow Dsim.Flowtrace.Ff_write ~at_ns:5_000.;
  let parsed =
    Dsim.Json.parse (Dsim.Json.to_string (Dsim.Flowtrace.to_chrome_trace ft))
  in
  let events =
    match Dsim.Json.member "traceEvents" parsed with
    | Some l -> (
      match Dsim.Json.to_list l with
      | Some evs -> evs
      | None -> Alcotest.fail "traceEvents not a list")
    | None -> Alcotest.fail "no traceEvents"
  in
  let str field e =
    match Dsim.Json.member field e with
    | Some (Dsim.Json.String v) -> v
    | _ -> Alcotest.failf "no %s" field
  in
  let number field e =
    match Dsim.Json.member field e with
    | Some (Dsim.Json.Float v) -> v
    | Some (Dsim.Json.Int v) -> float_of_int v
    | _ -> Alcotest.failf "no %s" field
  in
  (* One thread_name record for the flow label, then one X event per
     hop interval. *)
  Alcotest.(check (list string)) "phases" [ "M"; "X"; "X" ]
    (List.map (str "ph") events);
  (match Dsim.Json.member "args" (List.hd events) with
  | Some (Dsim.Json.Obj [ ("name", Dsim.Json.String "Scenario 1") ]) -> ()
  | _ -> Alcotest.fail "thread name is not the flow label");
  let xs = List.tl events in
  Alcotest.(check (list string)) "named by stage" [ "clock_ret"; "ff_write" ]
    (List.map (str "name") xs);
  Alcotest.(check (list (float 1e-9))) "ts in us" [ 2.; 2.5 ]
    (List.map (number "ts") xs);
  Alcotest.(check (list (float 1e-9))) "dur in us" [ 0.5; 2.5 ]
    (List.map (number "dur") xs);
  check_float "durations sum to the end-to-end time" 3.
    (List.fold_left (fun acc x -> acc +. number "dur" x) 0. xs)

(* ------------------------------------------------------------------ *)
(* Json round trip                                                      *)
(* ------------------------------------------------------------------ *)

let json_round_trip () =
  let v =
    Dsim.Json.Obj
      [
        ("s", Dsim.Json.String "with \"quotes\" and \n newline");
        ("i", Dsim.Json.Int (-42));
        ("f", Dsim.Json.Float 1.5);
        ("b", Dsim.Json.Bool true);
        ("n", Dsim.Json.Null);
        ("l", Dsim.Json.List [ Dsim.Json.Int 1; Dsim.Json.Int 2 ]);
      ]
  in
  let s = Dsim.Json.to_string v in
  Alcotest.(check bool) "round trip" true (Dsim.Json.parse s = v);
  Alcotest.(check bool) "garbage rejected" true
    (Dsim.Json.parse_opt "{\"a\": }" = None)

(* ------------------------------------------------------------------ *)
(* Telemetry must not move the calibrated medians                       *)
(* ------------------------------------------------------------------ *)

(* Telemetry only mutates host-side counters — never the virtual clock
   or the RNG streams — so the same seed must give bit-identical
   samples with telemetry on and off. This is the regression guard for
   the "zero-cost when disabled" discipline at the figure level. *)
let fig4_median_invariant () =
  let median path =
    let r = Core.Measurement.run ~iterations:400 path in
    r.Core.Measurement.boxplot.Dsim.Stats.median
  in
  Dsim.Metrics.set_enabled Dsim.Metrics.default false;
  let base_off = median Core.Measurement.Baseline in
  let s1_off = median Core.Measurement.Scenario1 in
  Dsim.Metrics.set_enabled Dsim.Metrics.default true;
  Dsim.Metrics.reset Dsim.Metrics.default;
  let base_on = median Core.Measurement.Baseline in
  let s1_on = median Core.Measurement.Scenario1 in
  (* Telemetry was live: the registry must actually have counted. *)
  let crossings =
    List.fold_left
      (fun acc (name, _, v) ->
        match (name, v) with
        | "trampoline_crossings_total", Dsim.Metrics.Counter_value n -> acc + n
        | _ -> acc)
      0
      (Dsim.Metrics.snapshot Dsim.Metrics.default)
  in
  Dsim.Metrics.set_enabled Dsim.Metrics.default false;
  Dsim.Metrics.reset Dsim.Metrics.default;
  Alcotest.(check bool) "scenario 1 crossings counted" true (crossings > 0);
  check_float "Baseline median unchanged" base_off base_on;
  check_float "Scenario 1 median unchanged" s1_off s1_on

let suite =
  [
    Alcotest.test_case "counter basics" `Quick counter_basics;
    Alcotest.test_case "gauge basics" `Quick gauge_basics;
    Alcotest.test_case "label identity" `Quick label_identity;
    Alcotest.test_case "type mismatch rejected" `Quick type_mismatch;
    Alcotest.test_case "reset keeps series" `Quick reset_keeps_series;
    Alcotest.test_case "disabled updates dropped" `Quick disabled_updates_dropped;
    Alcotest.test_case "disabled updates do not allocate" `Quick
      disabled_zero_allocation;
    Alcotest.test_case "histogram percentiles vs Stats" `Quick
      histogram_percentiles;
    Alcotest.test_case "prometheus exposition" `Quick prometheus_export;
    Alcotest.test_case "chrome trace round trip" `Quick chrome_export_round_trip;
    Alcotest.test_case "json round trip" `Quick json_round_trip;
    Alcotest.test_case "fig4 medians unmoved by telemetry" `Slow
      fig4_median_invariant;
  ]
