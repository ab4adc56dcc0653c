(* The deterministic flight recorder: journal format, byte-identical
   determinism, replay verification, first-divergence diffing, the
   crash black box, RNG draw accounting, and the FIFO tie-break the
   whole edifice rests on. *)

module J = Dsim.Journal
module Json = Dsim.Json
module Time = Dsim.Time

let jreset () = J.reset ()

let record_to_string ?(header = []) f =
  let buf = Buffer.create 4096 in
  J.record_to ~header (J.To_buffer buf);
  f ();
  J.stop ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Format round-trip on a synthetic run                                 *)
(* ------------------------------------------------------------------ *)

let k_a = Dsim.Profile.(key default) ~component:"jtest" ~cvm:"a" ~stage:"tick"
let k_b = Dsim.Profile.(key default) ~component:"jtest" ~cvm:"b" ~stage:"tock"

(* A tiny deterministic workload: a parent event that schedules two
   children, one of which draws from the RNG. *)
let tiny_run ?(extra = false) ?(draws = 2) () =
  let engine = Dsim.Engine.create () in
  let rng = Dsim.Rng.create ~seed:7L in
  ignore
    (Dsim.Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_a (fun () ->
         ignore
           (Dsim.Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_b
              (fun () ->
                for _ = 1 to draws do
                  ignore (Dsim.Rng.bits64 rng)
                done));
         ignore
           (Dsim.Engine.schedule_l engine ~delay:(Time.us 2) ~label:k_a
              (fun () -> ()))));
  if extra then
    ignore
      (Dsim.Engine.schedule_l engine ~delay:(Time.us 9) ~label:k_b (fun () ->
           ()));
  Dsim.Engine.run_until_quiet engine

let roundtrip () =
  jreset ();
  let s = record_to_string ~header:[ ("kind", Json.String "test") ] tiny_run in
  match J.load_string s with
  | Error m -> Alcotest.failf "load_string: %s" m
  | Ok l ->
    Alcotest.(check int) "three dispatches" 3 (J.dispatch_count l);
    (match Json.member "kind" (J.header l) with
    | Some (Json.String "test") -> ()
    | _ -> Alcotest.fail "header kind lost");
    let d0 = J.dispatch_at l 0 in
    Alcotest.(check string) "root label" "jtest:a:tick" d0.J.d_label;
    Alcotest.(check int) "root has no parent" (-1) d0.J.d_parent;
    Alcotest.(check int) "root at 1us" 1000 d0.J.d_at_ns;
    let d1 = J.dispatch_at l 1 in
    Alcotest.(check string) "child label" "jtest:b:tock" d1.J.d_label;
    Alcotest.(check int) "causal parent is dispatch 0" 0 d1.J.d_parent;
    Alcotest.(check int) "rng draws recorded" 2 d1.J.d_rng;
    let d2 = J.dispatch_at l 2 in
    Alcotest.(check int) "second child parent" 0 d2.J.d_parent;
    Alcotest.(check int) "no draws" 0 d2.J.d_rng;
    (* ±K context window clips at both ends. *)
    Alcotest.(check int) "context ±1 around 1" 3
      (List.length (J.context l ~seq:1 ~k:1));
    Alcotest.(check int) "context ±5 clips" 3
      (List.length (J.context l ~seq:0 ~k:5))

let rejects_garbage () =
  (match J.load_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty journal accepted");
  (match J.load_string "{\"schema\":\"other/9\"}\n" with
  | Error m ->
    Alcotest.(check bool) "names the schema" true
      (Astring_contains.contains m "other/9")
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match J.load_string "{\"schema\":\"netrepro-journal/1\"}\nnot json\n" with
  | Error m ->
    Alcotest.(check bool) "line number reported" true
      (Astring_contains.contains m "line 2")
  | Ok _ -> Alcotest.fail "malformed line accepted"

(* ------------------------------------------------------------------ *)
(* Determinism: byte-identical journals, bit-identical outputs          *)
(* ------------------------------------------------------------------ *)

let tiny_profile =
  { Core.Experiment.quick with Core.Experiment.iterations = 120 }

let fig4_spec () =
  match Core.Experiment.find "fig4" with
  | Some s -> s
  | None -> Alcotest.fail "fig4 not registered"

let fig4_journal_byte_identical () =
  jreset ();
  let record () =
    record_to_string (fun () ->
        ignore ((fig4_spec ()).Core.Experiment.report tiny_profile))
  in
  let a = record () in
  let b = record () in
  Alcotest.(check bool) "journal non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "fig4 journals byte-identical" a b

let bandwidth_journal_byte_identical () =
  jreset ();
  let record () =
    record_to_string (fun () ->
        let built = Core.Scenarios.build_udp_blast ~offered_mbit:500. () in
        ignore
          (Core.Bandwidth.run built ~warmup:(Time.ms 20)
             ~duration:(Time.ms 60) ()))
  in
  let a = record () in
  let b = record () in
  Alcotest.(check bool) "journal non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "udp_blast journals byte-identical" a b

(* Zero-cost-when-disabled: the experiment's own rendering is identical
   with recording armed or not. *)
let fig4_output_unchanged_by_journaling () =
  jreset ();
  let plain = (fig4_spec ()).Core.Experiment.report tiny_profile in
  let recorded =
    let buf = Buffer.create 4096 in
    J.record_to (J.To_buffer buf);
    let out = (fig4_spec ()).Core.Experiment.report tiny_profile in
    J.stop ();
    out
  in
  Alcotest.(check string) "fig4 text identical under journaling" plain recorded

(* ------------------------------------------------------------------ *)
(* Replay verification                                                  *)
(* ------------------------------------------------------------------ *)

let load_ok s =
  match J.load_string s with
  | Ok l -> l
  | Error m -> Alcotest.failf "load: %s" m

let verify_clean () =
  jreset ();
  let l = load_ok (record_to_string (fun () -> tiny_run ())) in
  J.verify_against l;
  tiny_run ();
  let vo = J.verify_finish () in
  Alcotest.(check int) "all checked" 3 vo.J.vo_checked;
  Alcotest.(check bool) "no mismatch" true (vo.J.vo_mismatch = None)

let verify_flags_rng_drift () =
  jreset ();
  let l = load_ok (record_to_string (fun () -> tiny_run ~draws:2 ())) in
  J.verify_against l;
  tiny_run ~draws:3 ();
  let vo = J.verify_finish () in
  match vo.J.vo_mismatch with
  | Some mm ->
    Alcotest.(check int) "diverges at the drawing child" 1 mm.J.mm_seq;
    Alcotest.(check string) "field is rng_draws" "rng_draws" mm.J.mm_field;
    (match (mm.J.mm_expected, mm.J.mm_actual) with
    | Some e, Some a ->
      Alcotest.(check int) "expected 2" 2 e.J.d_rng;
      Alcotest.(check int) "actual 3" 3 a.J.d_rng
    | _ -> Alcotest.fail "both sides should be present")
  | None -> Alcotest.fail "rng drift not detected"

let verify_flags_extra_and_missing () =
  jreset ();
  let l = load_ok (record_to_string (fun () -> tiny_run ())) in
  (* Live run fires more dispatches than recorded. *)
  J.verify_against l;
  tiny_run ~extra:true ();
  let vo = J.verify_finish () in
  (match vo.J.vo_mismatch with
  | Some mm ->
    Alcotest.(check string) "extra dispatch" "extra_dispatch" mm.J.mm_field;
    Alcotest.(check int) "at the first unrecorded seq" 3 mm.J.mm_seq
  | None -> Alcotest.fail "extra dispatch not detected");
  (* Live run fires fewer. *)
  let l2 = load_ok (record_to_string (fun () -> tiny_run ~extra:true ())) in
  J.verify_against l2;
  tiny_run ();
  let vo2 = J.verify_finish () in
  match vo2.J.vo_mismatch with
  | Some mm ->
    Alcotest.(check string) "missing dispatch" "missing_dispatch" mm.J.mm_field
  | None -> Alcotest.fail "missing dispatch not detected"

(* ------------------------------------------------------------------ *)
(* FIFO tie-break under colliding deadlines                             *)
(* ------------------------------------------------------------------ *)

let fifo_on_equal_deadlines () =
  (* Property, not an example: any number of events scheduled at the
     same instant (interleaved across two labels, from different call
     sites) dispatch in exact schedule order. Replay correctness rests
     on this total order, so it gets its own regression. *)
  List.iter
    (fun n ->
      let engine = Dsim.Engine.create () in
      let order = ref [] in
      let at = Time.us 5 in
      for i = 0 to n - 1 do
        let label = if i mod 3 = 0 then k_a else k_b in
        ignore
          (Dsim.Engine.schedule_at_l engine ~at ~label (fun () ->
               order := i :: !order))
      done;
      Dsim.Engine.run_until_quiet engine;
      Alcotest.(check (list int))
        (Printf.sprintf "%d colliding deadlines dispatch FIFO" n)
        (List.init n Fun.id) (List.rev !order))
    [ 1; 2; 17; 256 ]

(* ------------------------------------------------------------------ *)
(* RNG draw accounting                                                  *)
(* ------------------------------------------------------------------ *)

let rng_draw_attribution () =
  jreset ();
  let before_a = Dsim.Profile.rng_draws k_a in
  let before_b = Dsim.Profile.rng_draws k_b in
  tiny_run ~draws:5 ();
  Alcotest.(check int) "drawing label charged" 5
    (Dsim.Profile.rng_draws k_b - before_b);
  Alcotest.(check int) "non-drawing label unchanged" 0
    (Dsim.Profile.rng_draws k_a - before_a)

let rng_draws_in_prometheus () =
  jreset ();
  tiny_run ~draws:4 ();
  let reg = Dsim.Metrics.create ~enabled:true () in
  Dsim.Profile.publish_rng_draws Dsim.Profile.default reg;
  let exposition = Dsim.Metrics.to_prometheus reg in
  Alcotest.(check bool) "rng_draws_total series present" true
    (Astring_contains.contains exposition "rng_draws_total");
  Alcotest.(check bool) "labelled with the drawing stage" true
    (Astring_contains.contains exposition "stage=\"tock\"");
  (* Delta publishing: a second publish with no new draws adds nothing. *)
  let total_of () =
    let s = Dsim.Metrics.to_prometheus reg in
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           Astring_contains.contains l "rng_draws_total{")
    |> String.concat "\n"
  in
  let first = total_of () in
  Dsim.Profile.publish_rng_draws Dsim.Profile.default reg;
  Alcotest.(check string) "re-publish is a no-op without new draws" first
    (total_of ())

(* ------------------------------------------------------------------ *)
(* Crash black box                                                      *)
(* ------------------------------------------------------------------ *)

let ring_keeps_last_n () =
  jreset ();
  J.set_ring_size 4;
  let engine = Dsim.Engine.create () in
  for i = 1 to 10 do
    ignore
      (Dsim.Engine.schedule_l engine ~delay:(Time.us i) ~label:k_a (fun () ->
           ()))
  done;
  Dsim.Engine.run_until_quiet engine;
  let ring = J.blackbox () in
  Alcotest.(check int) "bounded to ring size" 4 (List.length ring);
  Alcotest.(check (list int))
    "holds the last four dispatches, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun d -> d.J.d_seq) ring);
  J.set_ring_size 512

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "black box missing int field %S" name

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "black box missing string field %S" name

let mk_supervised ~policy =
  let engine = Dsim.Engine.create () in
  let iv =
    Capvm.Intravisor.create engine ~mem_size:(1 lsl 20)
      ~cost:Dsim.Cost_model.default
  in
  let cvm = Capvm.Intravisor.create_cvm iv ~name:"bbox_victim" ~size:(1 lsl 16) in
  let sup = Capvm.Supervisor.create engine ~seed:3L ~policy () in
  Capvm.Supervisor.register sup cvm;
  (engine, cvm, sup)

let blackbox_on_trap () =
  jreset ();
  let engine, cvm, sup = mk_supervised ~policy:Capvm.Supervisor.Kill in
  let dir = Filename.temp_file "bbox" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Capvm.Supervisor.set_blackbox_dir sup (Some dir);
  (* Warm the ring with some traffic, then trap inside a dispatched
     handler so the faulting dispatch is in flight at capture time. *)
  ignore (Dsim.Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_a Fun.id);
  ignore
    (Dsim.Engine.schedule_l engine ~delay:(Time.us 2) ~label:k_b (fun () ->
         match
           Capvm.Supervisor.run sup ~cvm (fun () ->
               Cheri.Fault.raise_fault Cheri.Fault.Out_of_bounds
                 ~address:0xbad ~detail:"test: blackbox")
         with
         | Capvm.Supervisor.Faulted _ -> ()
         | _ -> Alcotest.fail "fault not surfaced"));
  Dsim.Engine.run_until_quiet engine;
  (match Capvm.Supervisor.blackbox sup ~cvm with
  | None -> Alcotest.fail "no black box captured"
  | Some dump ->
    Alcotest.(check string) "schema" "netrepro-blackbox/1"
      (str_field "schema" dump);
    Alcotest.(check string) "cvm" "bbox_victim" (str_field "cvm" dump);
    Alcotest.(check string) "verdict is the kill" "dead"
      (str_field "verdict" dump);
    Alcotest.(check bool) "fault carries address and detail" true
      (Astring_contains.contains (str_field "fault" dump) "0xbad"
      && Astring_contains.contains (str_field "fault" dump) "test: blackbox");
    (* The faulting handler was the in-flight dispatch when the
       supervisor captured the dump. *)
    let fault_seq = int_field "fault_seq" dump in
    (match Json.member "in_flight" dump with
    | Some (Json.Obj _ as infl) ->
      Alcotest.(check int) "in_flight seq = fault_seq" fault_seq
        (int_field "seq" infl);
      Alcotest.(check string) "faulting label" "jtest:b:tock"
        (str_field "label" infl)
    | _ -> Alcotest.fail "no in-flight record in dump");
    (match Json.member "ring" dump with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "empty ring in dump");
    (* Cross-references: quarantine revoked the compartment's caps and
       the flow-trace capability-drop total rode along. *)
    Alcotest.(check bool) "revocations counted" true
      (int_field "provenance_revoked" dump >= 0);
    Alcotest.(check bool) "flowtrace cross-ref present" true
      (int_field "flowtrace_capability_drops" dump >= 0));
  (* The same dump landed on disk. *)
  let path = Filename.concat dir "bbox_victim.blackbox.json" in
  Alcotest.(check bool) "dump file written" true (Sys.file_exists path);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (match Json.parse_opt contents with
  | Some j ->
    Alcotest.(check string) "file carries the same schema"
      "netrepro-blackbox/1" (str_field "schema" j)
  | None -> Alcotest.fail "dump file is not JSON");
  Sys.remove path;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Annotations: chaos / supervisor / fault lines                        *)
(* ------------------------------------------------------------------ *)

let annotations_recorded () =
  jreset ();
  let s =
    record_to_string (fun () ->
        let engine, cvm, sup = mk_supervised ~policy:Capvm.Supervisor.Kill in
        let ch = Dsim.Chaos.create ~seed:5L in
        ignore
          (Dsim.Engine.schedule_l engine ~delay:(Time.us 1) ~label:k_a
             (fun () ->
               ignore
                 (Dsim.Chaos.inject ch Dsim.Chaos.Wire_bit_flip ~at_ns:1000.
                    ~target:"link0");
               ignore
                 (Capvm.Supervisor.run sup ~cvm (fun () ->
                      Cheri.Fault.raise_fault Cheri.Fault.Tag_violation
                        ~address:0xdead ~detail:"test: annotate"))));
        Dsim.Engine.run_until_quiet engine)
  in
  let l = load_ok s in
  let chaos, supervisor, faults = J.aux_counts l in
  Alcotest.(check int) "one chaos line" 1 chaos;
  Alcotest.(check int) "one fault line" 1 faults;
  (* Kill policy: running -> trapped -> quarantined -> dead. *)
  Alcotest.(check int) "three supervisor transitions" 3 supervisor;
  (* Annotations carry the in-flight dispatch seq. *)
  let lines = String.split_on_char '\n' s in
  let chaos_line =
    List.find (fun l -> Astring_contains.contains l "\"t\":\"c\"") lines
  in
  Alcotest.(check bool) "chaos line stamped with dispatch seq" true
    (Astring_contains.contains chaos_line "\"q\":0")

(* ------------------------------------------------------------------ *)
(* jdiff                                                                *)
(* ------------------------------------------------------------------ *)

let with_tmp_journal contents f =
  let path = Filename.temp_file "jdiff" ".journal.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let jdiff_equivalent_and_divergent () =
  jreset ();
  let a = record_to_string (fun () -> tiny_run ~draws:2 ()) in
  let b = record_to_string (fun () -> tiny_run ~draws:3 ()) in
  with_tmp_journal a (fun pa ->
      with_tmp_journal a (fun pa2 ->
          match Core.Jdiff.compare_files pa pa2 with
          | Error m -> Alcotest.failf "jdiff: %s" m
          | Ok r ->
            Alcotest.(check int) "identical journals exit 0" 0
              (Core.Jdiff.exit_code r);
            Alcotest.(check bool) "no divergence" true
              (r.Core.Jdiff.divergence = None)));
  with_tmp_journal a (fun pa ->
      with_tmp_journal b (fun pb ->
          match Core.Jdiff.compare_files pa pb with
          | Error m -> Alcotest.failf "jdiff: %s" m
          | Ok r -> (
            Alcotest.(check int) "divergent journals exit 1" 1
              (Core.Jdiff.exit_code r);
            match r.Core.Jdiff.divergence with
            | None -> Alcotest.fail "divergence not found"
            | Some dv ->
              Alcotest.(check int) "first divergence at the drawing child" 1
                dv.Core.Jdiff.dv_seq;
              Alcotest.(check string) "field" "rng_draws" dv.Core.Jdiff.dv_field;
              (match dv.Core.Jdiff.dv_ancestor with
              | Some anc ->
                Alcotest.(check int) "ancestor is the scheduling parent" 0
                  anc.J.d_seq
              | None -> Alcotest.fail "no common ancestor reported");
              Alcotest.(check bool) "drift table rendered" true
                (Astring_contains.contains r.Core.Jdiff.text "per-component drift"))))

(* Schema 2 was schema 1 plus a per-dispatch shard id ("sh"). Old
   schema-2 files still load, with the field ignored; fresh recordings
   are schema 1 and carry no "sh" key. *)
let schema2_loads_and_fresh_is_schema1 () =
  jreset ();
  let v2 =
    String.concat "\n"
      [
        {|{"schema":"netrepro-journal/2","kind":"old"}|};
        {|{"t":"l","id":0,"c":"jtest","v":"a","s":"tick"}|};
        {|{"t":"d","q":0,"at":1000,"l":0,"p":-1,"r":0,"sh":0}|};
        {|{"t":"l","id":1,"c":"jtest","v":"b","s":"tock"}|};
        {|{"t":"d","q":1,"at":2000,"l":1,"p":0,"r":2,"sh":1}|};
        {|{"t":"d","q":2,"at":3000,"l":0,"p":0,"r":0,"sh":2}|};
        "";
      ]
  in
  (match J.load_string v2 with
  | Error m -> Alcotest.failf "schema 2 rejected: %s" m
  | Ok l ->
    Alcotest.(check int) "three dispatches" 3 (J.dispatch_count l);
    Alcotest.(check (list int)) "times" [ 1000; 2000; 3000 ]
      (List.init 3 (fun i -> (J.dispatch_at l i).J.d_at_ns));
    Alcotest.(check (list string)) "labels"
      [ "jtest:a:tick"; "jtest:b:tock"; "jtest:a:tick" ]
      (List.init 3 (fun i -> (J.dispatch_at l i).J.d_label)));
  let s = record_to_string tiny_run in
  let header = List.hd (String.split_on_char '\n' s) in
  Alcotest.(check bool) "fresh header is schema 1" true
    (Astring_contains.contains header {|"schema":"netrepro-journal/1"|});
  Alcotest.(check bool) "no sh key" false
    (Astring_contains.contains s {|"sh"|})

let suite =
  [
    Alcotest.test_case "journal round-trips through JSONL" `Quick roundtrip;
    Alcotest.test_case "malformed journals are rejected" `Quick rejects_garbage;
    Alcotest.test_case "fig4 journals are byte-identical" `Quick
      fig4_journal_byte_identical;
    Alcotest.test_case "udp-blast journals are byte-identical" `Quick
      bandwidth_journal_byte_identical;
    Alcotest.test_case "fig4 output bit-identical under journaling" `Quick
      fig4_output_unchanged_by_journaling;
    Alcotest.test_case "replay verifies a faithful re-run" `Quick verify_clean;
    Alcotest.test_case "replay flags rng drift at first divergence" `Quick
      verify_flags_rng_drift;
    Alcotest.test_case "replay flags extra and missing dispatches" `Quick
      verify_flags_extra_and_missing;
    Alcotest.test_case "equal deadlines dispatch FIFO" `Quick
      fifo_on_equal_deadlines;
    Alcotest.test_case "rng draws attributed per label" `Quick
      rng_draw_attribution;
    Alcotest.test_case "rng draws exported to prometheus" `Quick
      rng_draws_in_prometheus;
    Alcotest.test_case "black-box ring keeps the last N" `Quick
      ring_keeps_last_n;
    Alcotest.test_case "supervisor dumps a black box on trap" `Quick
      blackbox_on_trap;
    Alcotest.test_case "chaos/supervisor/fault annotations recorded" `Quick
      annotations_recorded;
    Alcotest.test_case "jdiff equivalence and first divergence" `Quick
      jdiff_equivalent_and_divergent;
    Alcotest.test_case "schema-2 journals still load" `Quick
      schema2_loads_and_fresh_is_schema1;
  ]
