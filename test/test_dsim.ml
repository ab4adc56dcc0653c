(* Tests for the discrete-event simulation substrate. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time                                                                 *)
(* ------------------------------------------------------------------ *)

let time_units () =
  Alcotest.(check int64) "us" 1_000L (Dsim.Time.us 1);
  Alcotest.(check int64) "ms" 1_000_000L (Dsim.Time.ms 1);
  Alcotest.(check int64) "sec" 1_000_000_000L (Dsim.Time.sec 1);
  Alcotest.(check int64) "ns" 7L (Dsim.Time.ns 7)

let time_arith () =
  let a = Dsim.Time.us 5 and b = Dsim.Time.us 3 in
  Alcotest.(check int64) "add" 8_000L (Dsim.Time.add a b);
  Alcotest.(check int64) "sub" 2_000L (Dsim.Time.sub a b);
  Alcotest.(check int64) "sub clamps" 0L (Dsim.Time.sub b a);
  Alcotest.(check int64) "diff symmetric" 2_000L (Dsim.Time.diff b a);
  Alcotest.(check int64) "mul" 15_000L (Dsim.Time.mul a 3);
  Alcotest.(check bool) "lt" true Dsim.Time.(b < a);
  Alcotest.(check bool) "ge" true Dsim.Time.(a >= b);
  Alcotest.(check int64) "min" 3_000L (Dsim.Time.min a b);
  Alcotest.(check int64) "max" 5_000L (Dsim.Time.max a b)

let time_float_conv () =
  check_float "to_float_us" 5. (Dsim.Time.to_float_us (Dsim.Time.us 5));
  check_float "to_float_ms" 5. (Dsim.Time.to_float_ms (Dsim.Time.ms 5));
  check_float "to_float_sec" 2. (Dsim.Time.to_float_sec (Dsim.Time.sec 2));
  Alcotest.(check int64) "of_float_ns rounds" 3L (Dsim.Time.of_float_ns 2.6);
  Alcotest.(check int64) "of_float_ns clamps negatives" 0L (Dsim.Time.of_float_ns (-5.));
  Alcotest.(check int64) "of_float_sec" 1_500_000_000L (Dsim.Time.of_float_sec 1.5)

let time_pp () =
  let s t = Format.asprintf "%a" Dsim.Time.pp t in
  Alcotest.(check string) "ns" "500ns" (s (Dsim.Time.ns 500));
  Alcotest.(check string) "us" "1.50us" (s (Dsim.Time.ns 1500));
  Alcotest.(check string) "ms" "2.00ms" (s (Dsim.Time.ms 2));
  Alcotest.(check string) "s" "3.000s" (s (Dsim.Time.sec 3))

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let heap_basic () =
  let h = Dsim.Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Dsim.Heap.is_empty h);
  List.iter (Dsim.Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Dsim.Heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Dsim.Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Dsim.Heap.pop h);
  Alcotest.(check (option int)) "pop dup" (Some 1) (Dsim.Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 3) (Dsim.Heap.pop h);
  Alcotest.(check int) "size after pops" 2 (Dsim.Heap.size h)

let heap_pop_empty () =
  let h = Dsim.Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "pop empty" None (Dsim.Heap.pop h);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Dsim.Heap.pop_exn h))

let heap_to_sorted_list () =
  let h = Dsim.Heap.create ~cmp:compare in
  List.iter (Dsim.Heap.push h) [ 9; 2; 7; 2; 0 ];
  Alcotest.(check (list int)) "sorted copy" [ 0; 2; 2; 7; 9 ]
    (Dsim.Heap.to_sorted_list h);
  Alcotest.(check int) "heap unchanged" 5 (Dsim.Heap.size h)

let heap_clear () =
  let h = Dsim.Heap.create ~cmp:compare in
  List.iter (Dsim.Heap.push h) [ 1; 2; 3 ];
  Dsim.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Dsim.Heap.is_empty h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Dsim.Heap.create ~cmp:compare in
      List.iter (Dsim.Heap.push h) xs;
      Dsim.Heap.to_sorted_list h = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let engine_order () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 30) (note "c"));
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 10) (note "a"));
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 20) (note "b"));
  Dsim.Engine.run_until_quiet e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" 30L (Dsim.Engine.now e)

let engine_ties_fifo () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 5) (note "first"));
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 5) (note "second"));
  Dsim.Engine.run_until_quiet e;
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second" ]
    (List.rev !log)

let engine_cancel () =
  let e = Dsim.Engine.create () in
  let fired = ref false in
  let h = Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 5) (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Dsim.Engine.is_pending h);
  Dsim.Engine.cancel h;
  Alcotest.(check bool) "not pending after" false (Dsim.Engine.is_pending h);
  Dsim.Engine.run_until_quiet e;
  Alcotest.(check bool) "cancelled never fires" false !fired

let engine_until () =
  let e = Dsim.Engine.create () in
  let fired = ref 0 in
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 10) (fun () -> incr fired));
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 20) (fun () -> incr fired));
  Dsim.Engine.run e ~until:(Dsim.Time.ns 15);
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int64) "clock parked at until" 15L (Dsim.Engine.now e);
  Dsim.Engine.run e ~until:(Dsim.Time.ns 100);
  Alcotest.(check int) "second fired later" 2 !fired;
  Alcotest.(check int64) "clock at until even when idle" 100L (Dsim.Engine.now e)

let engine_past_schedules_now () =
  let e = Dsim.Engine.create () in
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 50) (fun () -> ()));
  Dsim.Engine.run_until_quiet e;
  let fired_at = ref Dsim.Time.zero in
  ignore
    (Dsim.Engine.schedule_at e ~at:(Dsim.Time.ns 10) (fun () ->
         fired_at := Dsim.Engine.now e));
  Dsim.Engine.run_until_quiet e;
  Alcotest.(check int64) "past event fires at current clock" 50L !fired_at

let engine_self_reschedule_budget () =
  let e = Dsim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 1) tick)
  in
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 1) tick);
  Dsim.Engine.run e ~max_events:100;
  Alcotest.(check int) "bounded by max_events" 100 !count

let engine_step () =
  let e = Dsim.Engine.create () in
  Alcotest.(check bool) "step on empty" false (Dsim.Engine.step e);
  ignore (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 1) (fun () -> ()));
  Alcotest.(check bool) "step fires" true (Dsim.Engine.step e)

let engine_nested_schedule () =
  let e = Dsim.Engine.create () in
  let log = ref [] in
  ignore
    (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 10) (fun () ->
         log := "outer" :: !log;
         ignore
           (Dsim.Engine.schedule e ~delay:(Dsim.Time.ns 5) (fun () ->
                log := "inner" :: !log))));
  Dsim.Engine.run_until_quiet e;
  Alcotest.(check (list string)) "nested events run" [ "outer"; "inner" ]
    (List.rev !log);
  Alcotest.(check int64) "clock advanced by nested delay" 15L (Dsim.Engine.now e)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Dsim.Rng.create ~seed:7L and b = Dsim.Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Dsim.Rng.bits64 a) (Dsim.Rng.bits64 b)
  done

let rng_split_independent () =
  let a = Dsim.Rng.create ~seed:7L in
  let b = Dsim.Rng.split a in
  let xa = Dsim.Rng.bits64 a and xb = Dsim.Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal xa xb))

let rng_int_bounds () =
  let r = Dsim.Rng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Dsim.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Dsim.Rng.int r 0))

let rng_float_bounds () =
  let r = Dsim.Rng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Dsim.Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let rng_gaussian_moments () =
  let r = Dsim.Rng.create ~seed:11L in
  let n = 20_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let v = Dsim.Rng.gaussian r ~mu:10. ~sigma:2. in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean close to mu" true (Float.abs (mean -. 10.) < 0.1);
  Alcotest.(check bool) "variance close to sigma^2" true (Float.abs (var -. 4.) < 0.3)

let rng_lognormal_positive () =
  let r = Dsim.Rng.create ~seed:13L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "lognormal positive" true
      (Dsim.Rng.lognormal r ~mu:0. ~sigma:1. > 0.)
  done

let rng_exponential_mean () =
  let r = Dsim.Rng.create ~seed:17L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dsim.Rng.exponential r ~mean:5.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close" true (Float.abs (mean -. 5.) < 0.2)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let stats_of_list xs =
  let s = Dsim.Stats.create () in
  List.iter (Dsim.Stats.add s) xs;
  s

let stats_mean_std () =
  let s = stats_of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_float "mean" 5. (Dsim.Stats.mean s);
  (* sample std of this classic set: sqrt(32/7) *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32. /. 7.)) (Dsim.Stats.stddev s);
  check_float "min" 2. (Dsim.Stats.minimum s);
  check_float "max" 9. (Dsim.Stats.maximum s)

let stats_empty () =
  let s = Dsim.Stats.create () in
  Alcotest.(check bool) "is_empty" true (Dsim.Stats.is_empty s);
  check_float "mean of empty" 0. (Dsim.Stats.mean s);
  check_float "stddev of single" 0. (Dsim.Stats.stddev (stats_of_list [ 42. ]));
  Alcotest.check_raises "percentile of empty raises"
    (Invalid_argument "Stats.percentile: empty buffer") (fun () ->
      ignore (Dsim.Stats.percentile s 50.))

let stats_percentile () =
  let s = stats_of_list [ 10.; 20.; 30.; 40. ] in
  check_float "p0" 10. (Dsim.Stats.percentile s 0.);
  check_float "p100" 40. (Dsim.Stats.percentile s 100.);
  check_float "median interpolates" 25. (Dsim.Stats.median s);
  check_float "p25" 17.5 (Dsim.Stats.percentile s 25.)

let stats_boxplot () =
  let s = stats_of_list (List.init 99 (fun i -> float_of_int (i + 1))) in
  let b = Dsim.Stats.boxplot s in
  check_float "median" 50. b.Dsim.Stats.median;
  check_float "q1" 25.5 b.Dsim.Stats.q1;
  check_float "q3" 74.5 b.Dsim.Stats.q3;
  Alcotest.(check int) "no outliers in uniform data" 0 b.Dsim.Stats.outliers

let stats_iqr_filter () =
  let base = List.init 100 (fun i -> 100. +. float_of_int (i mod 5)) in
  let s = stats_of_list (base @ [ 10_000.; 20_000. ]) in
  let f = Dsim.Stats.iqr_filter s in
  Alcotest.(check int) "outliers removed" 100 (Dsim.Stats.count f);
  Alcotest.(check bool) "max sane" true (Dsim.Stats.maximum f < 200.)

let stats_iqr_keeps_all_when_clean () =
  let s = stats_of_list (List.init 50 (fun i -> float_of_int i)) in
  Alcotest.(check int) "nothing removed" 50
    (Dsim.Stats.count (Dsim.Stats.iqr_filter s))

let stats_to_array_order () =
  let s = stats_of_list [ 3.; 1.; 2. ] in
  Alcotest.(check (array (float 0.))) "insertion order" [| 3.; 1.; 2. |]
    (Dsim.Stats.to_array s)

let stats_percentile_monotone_prop =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = stats_of_list xs in
      let p25 = Dsim.Stats.percentile s 25.
      and p50 = Dsim.Stats.percentile s 50.
      and p75 = Dsim.Stats.percentile s 75. in
      p25 <= p50 && p50 <= p75)

(* ------------------------------------------------------------------ *)
(* Cost model                                                           *)
(* ------------------------------------------------------------------ *)

let cost_model_values () =
  let cm = Dsim.Cost_model.default in
  Alcotest.(check (float 1e-9)) "goodput ratio" (1448. /. 1538.)
    Dsim.Cost_model.ethernet_goodput_ratio;
  (* 1538 wire bytes at 1 Gbit/s = 12304 ns *)
  Alcotest.(check (float 1.)) "serialization" 12304.
    (Dsim.Cost_model.serialization_ns cm ~bytes:1538);
  let nc = Dsim.Cost_model.no_cheri cm in
  check_float "no_cheri kills trampolines" 0. nc.Dsim.Cost_model.tramp_oneway_ns;
  let quiet = Dsim.Cost_model.scaled_jitter cm ~factor:0. in
  check_float "scaled jitter" 0. quiet.Dsim.Cost_model.jitter_sigma

let cost_model_calibration () =
  (* The relations DESIGN.md documents must hold of the defaults. *)
  let cm = Dsim.Cost_model.default in
  Alcotest.(check (float 1.)) "S1 clock delta is ~125ns"
    125.
    (2. *. cm.Dsim.Cost_model.tramp_oneway_ns +. cm.Dsim.Cost_model.syscall_ns
    -. cm.Dsim.Cost_model.vdso_clock_total_ns);
  Alcotest.(check (float 1.)) "S2 adds ~200ns"
    200.
    ((2. *. cm.Dsim.Cost_model.tramp_oneway_ns)
    +. cm.Dsim.Cost_model.mutex_uncontended_ns)

let histogram_buckets () =
  let h = Dsim.Histogram.create ~lo:1. ~ratio:2. ~buckets:8 () in
  List.iter (Dsim.Histogram.add h) [ 0.5; 1.5; 3.; 5.; 100.; 1.e9 ];
  Alcotest.(check int) "total" 6 (Dsim.Histogram.count h);
  Alcotest.(check int) "below lo lands in bucket 0" 2 (Dsim.Histogram.bucket_value h 0);
  Alcotest.(check int) "1.5 and 0.5 share bucket 0" 2 (Dsim.Histogram.bucket_value h 0);
  Alcotest.(check int) "[2,4) holds 3." 1 (Dsim.Histogram.bucket_value h 1);
  Alcotest.(check int) "[4,8) holds 5." 1 (Dsim.Histogram.bucket_value h 2);
  Alcotest.(check int) "[64,128) holds 100." 1 (Dsim.Histogram.bucket_value h 6);
  Alcotest.(check int) "overflow clamps to the last bucket" 1
    (Dsim.Histogram.bucket_value h 7);
  let lo, hi = Dsim.Histogram.bucket_range h 2 in
  Alcotest.(check (float 1e-9)) "range lo" 4. lo;
  Alcotest.(check (float 1e-9)) "range hi" 8. hi

let histogram_render () =
  let h = Dsim.Histogram.create () in
  Alcotest.(check string) "empty" "(empty histogram)" (Dsim.Histogram.render h);
  let s = Dsim.Stats.create () in
  (* 10 and 12 share [8,16); 2100 and 2200 share [2048,4096); 2000 sits
     alone in [1024,2048). *)
  List.iter (Dsim.Stats.add s) [ 10.; 12.; 2000.; 2100.; 2200. ];
  ignore (Dsim.Histogram.add_stats h s);
  let out = Dsim.Histogram.render h in
  Alcotest.(check int) "three bucket lines" 3
    (List.length (String.split_on_char '\n' out));
  Alcotest.(check bool) "bars present" true (String.contains out '#');
  Alcotest.(check int) "nonempty buckets listed" 3
    (List.length (Dsim.Histogram.nonempty_buckets h))

let histogram_errors () =
  Alcotest.(check bool) "bad params" true
    (match Dsim.Histogram.create ~lo:0. () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let h = Dsim.Histogram.create ~buckets:4 () in
  Alcotest.(check bool) "bad index" true
    (match Dsim.Histogram.bucket_range h 9 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "time: unit constructors" `Quick time_units;
    Alcotest.test_case "time: arithmetic" `Quick time_arith;
    Alcotest.test_case "time: float conversions" `Quick time_float_conv;
    Alcotest.test_case "time: pretty printing" `Quick time_pp;
    Alcotest.test_case "heap: push/pop ordering" `Quick heap_basic;
    Alcotest.test_case "heap: empty behaviour" `Quick heap_pop_empty;
    Alcotest.test_case "heap: to_sorted_list is non-destructive" `Quick heap_to_sorted_list;
    Alcotest.test_case "heap: clear" `Quick heap_clear;
    QCheck_alcotest.to_alcotest heap_sorted_prop;
    Alcotest.test_case "engine: events fire in time order" `Quick engine_order;
    Alcotest.test_case "engine: ties break by insertion" `Quick engine_ties_fifo;
    Alcotest.test_case "engine: cancellation" `Quick engine_cancel;
    Alcotest.test_case "engine: run ~until" `Quick engine_until;
    Alcotest.test_case "engine: past schedules fire now" `Quick engine_past_schedules_now;
    Alcotest.test_case "engine: max_events bounds runaway loops" `Quick engine_self_reschedule_budget;
    Alcotest.test_case "engine: step" `Quick engine_step;
    Alcotest.test_case "engine: nested scheduling" `Quick engine_nested_schedule;
    Alcotest.test_case "rng: determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng: split independence" `Quick rng_split_independent;
    Alcotest.test_case "rng: int bounds" `Quick rng_int_bounds;
    Alcotest.test_case "rng: float bounds" `Quick rng_float_bounds;
    Alcotest.test_case "rng: gaussian moments" `Quick rng_gaussian_moments;
    Alcotest.test_case "rng: lognormal positivity" `Quick rng_lognormal_positive;
    Alcotest.test_case "rng: exponential mean" `Quick rng_exponential_mean;
    Alcotest.test_case "stats: mean/stddev/min/max" `Quick stats_mean_std;
    Alcotest.test_case "stats: empty and degenerate" `Quick stats_empty;
    Alcotest.test_case "stats: percentile interpolation" `Quick stats_percentile;
    Alcotest.test_case "stats: boxplot quartiles" `Quick stats_boxplot;
    Alcotest.test_case "stats: IQR filter drops outliers" `Quick stats_iqr_filter;
    Alcotest.test_case "stats: IQR filter keeps clean data" `Quick stats_iqr_keeps_all_when_clean;
    Alcotest.test_case "stats: to_array preserves order" `Quick stats_to_array_order;
    QCheck_alcotest.to_alcotest stats_percentile_monotone_prop;
    Alcotest.test_case "cost model: derived constants" `Quick cost_model_values;
    Alcotest.test_case "cost model: paper calibration relations" `Quick cost_model_calibration;
    Alcotest.test_case "histogram: bucket ladder" `Quick histogram_buckets;
    Alcotest.test_case "histogram: rendering" `Quick histogram_render;
    Alcotest.test_case "histogram: errors" `Quick histogram_errors;
  ]
