(* netrepro - regenerate the paper's tables and figures from the
   simulated CHERI-compartmentalized network stack. *)

let list_experiments () =
  List.iter
    (fun (e : Core.Experiment.t) ->
      Printf.printf "%-14s %-10s %s\n" e.Core.Experiment.id
        e.Core.Experiment.paper_ref e.Core.Experiment.title)
    Core.Experiment.all;
  0

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Write an output file the user asked for and say so; false, with the
   cause on stderr, when it cannot be written. *)
let write_reported path contents =
  match write_file path contents with
  | () ->
    Printf.printf "wrote %s\n" path;
    true
  | exception Sys_error msg ->
    Printf.eprintf "netrepro: cannot write %s\n" msg;
    false

type telemetry = {
  metrics_file : string option;
  trace_file : string option;
  flow_trace_file : string option;
  sample_every : int;
  timeseries_file : string option;
}

(* Telemetry rides along with any experiment run: enable the registries
   up front, dump the requested files when the run completes. The
   registries are process-wide, so a multi-experiment run produces one
   combined metrics file / trace. *)
let with_telemetry t f =
  if t.metrics_file <> None then begin
    Dsim.Metrics.set_enabled Dsim.Metrics.default true;
    Dsim.Metrics.reset Dsim.Metrics.default
  end;
  (* --trace-json is a Chrome-format view of the same flow traces. *)
  if t.flow_trace_file <> None || t.trace_file <> None then begin
    Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default true;
    Dsim.Flowtrace.set_sample_every Dsim.Flowtrace.default t.sample_every;
    Dsim.Flowtrace.clear Dsim.Flowtrace.default
  end;
  if t.timeseries_file <> None then begin
    (* Needs metric values to snapshot. *)
    Dsim.Metrics.set_enabled Dsim.Metrics.default true;
    Dsim.Sampler.set_enabled Dsim.Sampler.default true;
    Dsim.Sampler.clear Dsim.Sampler.default
  end;
  let result = f () in
  let dump path render =
    match write_file path (render ()) with
    | () -> true
    | exception Sys_error msg ->
      Printf.eprintf "netrepro: cannot write %s\n" msg;
      false
  in
  let ok_metrics =
    match t.metrics_file with
    | None -> true
    | Some path ->
      (* Fold the always-on per-label RNG draw counters into the
         exposition before rendering it. *)
      Dsim.Profile.publish_rng_draws Dsim.Profile.default Dsim.Metrics.default;
      dump path (fun () -> Dsim.Metrics.to_prometheus Dsim.Metrics.default)
  in
  let ok_trace =
    match t.trace_file with
    | None -> true
    | Some path ->
      dump path (fun () ->
          Dsim.Json.to_string
            (Dsim.Flowtrace.to_chrome_trace Dsim.Flowtrace.default))
  in
  let ok_flow =
    match t.flow_trace_file with
    | None -> true
    | Some path ->
      dump path (fun () ->
          Dsim.Json.to_string (Dsim.Flowtrace.to_json Dsim.Flowtrace.default))
  in
  let ok_timeseries =
    match t.timeseries_file with
    | None -> true
    | Some path ->
      let ok =
        dump path (fun () ->
            Dsim.Json.to_string (Dsim.Sampler.to_json Dsim.Sampler.default))
      in
      if Dsim.Sampler.truncated Dsim.Sampler.default then
        Printf.eprintf
          "netrepro: WARNING: time series truncated — %d snapshot(s) dropped \
           past row capacity; %s holds a prefix of the run\n"
          (Dsim.Sampler.dropped Dsim.Sampler.default)
          path;
      ok
  in
  if ok_metrics && ok_trace && ok_flow && ok_timeseries then result else 1

(* Arm journal recording to [path], failing cleanly (like the telemetry
   dumps) when the path is unwritable instead of escaping as a raw
   [Sys_error]. *)
let arm_journal ~header path =
  try Dsim.Journal.record_to ~header (Dsim.Journal.To_file path)
  with Sys_error msg ->
    Printf.eprintf "netrepro: cannot write %s\n" msg;
    exit 1

(* The supervisor writes <cvm>.blackbox.json into the directory as
   faults land mid-run; make sure it exists up front so a typo'd path
   fails here and not as an uncaught Sys_error at the first trap. *)
let ensure_blackbox_dir dir k =
  match dir with
  | None -> k ()
  | Some d -> (
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        let parent = Filename.dirname d in
        if parent <> d then mkdirs parent;
        try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
      end
    in
    match
      mkdirs d;
      if not (Sys.is_directory d) then
        raise (Sys_error (d ^ ": not a directory"))
    with
    | () -> k ()
    | exception Sys_error msg ->
      Printf.eprintf "netrepro: cannot use blackbox dir: %s\n" msg;
      1)

(* A report under its banner, followed by a blank line. *)
let print_report (e : Core.Experiment.t) text =
  Printf.printf "=== %s (%s): %s ===\n%s\n\n" e.Core.Experiment.id
    e.Core.Experiment.paper_ref e.Core.Experiment.title text

(* The one runner behind every experiment command: run [entries] with
   [options], print each report, write [--json] and the journal, and
   exit 0 only if every outcome passed and every file was written. *)
let exec entries (options : Core.Experiment.options) telemetry journal json_file =
  (* The sampler schedules its own events on the engine, so a sampled
     run can never replay against an unsampled one (or vice versa):
     refuse the combination instead of recording unverifiable journals. *)
  (match (journal, telemetry.timeseries_file) with
  | Some _, Some _ ->
    Printf.eprintf
      "netrepro: --journal is incompatible with --timeseries (the sampler \
       schedules events, so replay would diverge)\n";
    exit 2
  | _ -> ());
  ensure_blackbox_dir options.Core.Experiment.blackbox_dir @@ fun () ->
  with_telemetry telemetry (fun () ->
      (match journal with
      | None -> ()
      | Some path ->
        arm_journal path ~header:(Core.Replay.header entries options));
      let outcomes =
        Fun.protect
          ~finally:(fun () -> Dsim.Journal.stop ())
          (fun () ->
            List.map
              (fun (e : Core.Experiment.t) ->
                let o = e.Core.Experiment.run options in
                print_report e o.Core.Experiment.text;
                if telemetry.metrics_file <> None then
                  Printf.printf "--- per-compartment metrics (%s) ---\n%s\n\n"
                    e.Core.Experiment.id
                    (Core.Report.metrics_digest ());
                flush stdout;
                o)
              entries)
      in
      (match journal with
      | Some path -> Printf.printf "wrote %s\n" path
      | None -> ());
      let ok_json =
        List.for_all
          (fun (o : Core.Experiment.outcome) ->
            match (json_file, o.Core.Experiment.json) with
            | Some path, Some j -> write_reported path (Dsim.Json.to_string j)
            | _ -> true)
          outcomes
      in
      if ok_json && List.for_all (fun o -> o.Core.Experiment.pass) outcomes
      then 0
      else 1)

(* [netrepro run]'s entries: the paper's, all of them by default. *)
let paper_entries = function
  | [] -> Core.Experiment.paper
  | ids -> (
    match Core.Experiment.select Core.Experiment.paper ids with
    | Ok entries -> entries
    | Error missing ->
      Printf.eprintf "unknown experiment(s): %s\nknown: %s\n"
        (String.concat ", " missing)
        (String.concat ", "
           (List.map
              (fun (e : Core.Experiment.t) -> e.Core.Experiment.id)
              Core.Experiment.paper));
      exit 2)

let run_analyze file =
  let parsed =
    match In_channel.with_open_bin file In_channel.input_all with
    | contents -> (
      match Dsim.Json.parse contents with
      | j -> Ok j
      | exception Dsim.Json.Parse_error msg -> Error (file ^ ": " ^ msg))
    | exception Sys_error msg -> Error msg
  in
  let result =
    match parsed with
    | Error _ as e -> e
    | Ok j ->
      if Core.Analyze.is_timeseries j then Core.Analyze.timeseries_summary j
      else Result.map Core.Analyze.render (Core.Analyze.of_json j)
  in
  match result with
  | Ok text ->
    print_string text;
    0
  | Error msg ->
    Printf.eprintf "netrepro analyze: %s\n" msg;
    1

let run_profile exp_id quick runs out_prefix =
  match Core.Experiment.find exp_id with
  | None ->
    Printf.eprintf "unknown experiment: %s\nknown: %s\n" exp_id
      (String.concat ", " (Core.Experiment.ids ()));
    2
  | Some e ->
    if runs < 1 then begin
      Printf.eprintf "netrepro: --runs must be >= 1\n";
      exit 2
    end;
    let r =
      Core.Profile_experiment.run ~runs e
        { Core.Experiment.defaults with Core.Experiment.quick }
    in
    print_report e r.Core.Profile_experiment.experiment_text;
    print_string r.Core.Profile_experiment.hotspot_text;
    print_newline ();
    print_string r.Core.Profile_experiment.watermark_text;
    flush stdout;
    let prefix =
      match out_prefix with
      | Some p -> p
      | None -> "PROFILE_" ^ exp_id
    in
    let ok_folded =
      write_reported (prefix ^ ".folded") r.Core.Profile_experiment.folded
    in
    let ok_json =
      write_reported
        (prefix ^ ".profile.json")
        (Dsim.Json.to_string r.Core.Profile_experiment.json)
    in
    if r.Core.Profile_experiment.pass && ok_folded && ok_json then 0 else 1

let run_perfdiff old_file new_file max_regress =
  match
    Core.Perfdiff.compare_files ~max_regress_pct:max_regress old_file new_file
  with
  | Ok report ->
    print_string report.Core.Perfdiff.text;
    Core.Perfdiff.exit_code report
  | Error msg ->
    Printf.eprintf "netrepro perfdiff: %s\n" msg;
    2

let run_replay file context =
  match Core.Replay.run ~context file with
  | Ok outcome ->
    print_string outcome.Core.Replay.text;
    flush stdout;
    Core.Replay.exit_code outcome
  | Error msg ->
    Printf.eprintf "netrepro replay: %s\n" msg;
    2

let run_jdiff file_a file_b context =
  match Core.Jdiff.compare_files ~context file_a file_b with
  | Ok report ->
    print_string report.Core.Jdiff.text;
    flush stdout;
    Core.Jdiff.exit_code report
  | Error msg ->
    Printf.eprintf "netrepro jdiff: %s\n" msg;
    2

open Cmdliner

(* Single registry of the tool commands' one-line summaries: the
   top-level help and each command's own man page both render from it,
   so the listing under `netrepro --help` cannot drift from the commands
   themselves. Experiment commands take theirs from Core.Experiment. *)
let summaries =
  [
    ("run", "regenerate tables/figures, optionally recording a journal");
    ("list", "list available experiments");
    ("analyze", "summarize a flow-trace or time-series export");
    ("profile", "wall-clock hotspot and capacity-watermark profile");
    ("perfdiff", "compare two profile snapshots for regressions");
    ("replay", "re-execute a recorded journal, verifying every dispatch");
    ("jdiff", "first-divergence diff between two journals");
  ]

let summary name =
  match List.assoc_opt name summaries with
  | Some s -> s
  | None -> invalid_arg ("netrepro: no summary registered for " ^ name)

(* [detail] paragraphs land in the man page DESCRIPTION. *)
let man_of = function
  | [] -> []
  | ps -> `S Manpage.s_description :: List.map (fun p -> `P p) ps

(* Command info whose one-liner comes from the registry. *)
let cmd_info ?(detail = []) name =
  Cmd.info name ~doc:(summary name) ~man:(man_of detail)

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"CI-sized runs (short windows, few samples).")

let iters_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Latency samples per configuration (paper: 1000000).")

let metrics_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the telemetry registry and write a Prometheus text \
           exposition of every counter/gauge/histogram to $(docv) after the \
           run.")

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Enable sampled flow tracing (1 frame in $(b,--sample-every)) and \
           write every traced frame's per-stage hop intervals as a Chrome \
           trace_event JSON file (load it in chrome://tracing or Perfetto) \
           to $(docv) after the run.")

let flow_trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "flow-trace" ] ~docv:"FILE"
        ~doc:
          "Enable sampled per-packet causal flow tracing and write the \
           trace/drop-attribution JSON to $(docv) after the run (inspect \
           with $(b,netrepro analyze)).")

let sample_every_opt =
  Arg.(
    value & opt int 64
    & info [ "sample-every" ] ~docv:"N"
        ~doc:
          "Trace 1 frame in $(docv) (with --flow-trace or --trace-json; \
           default 64).")

let timeseries_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample every metric on the virtual clock at a fixed interval and \
           write the time-series JSON to $(docv) after the run.")

let telemetry_term =
  let make metrics_file trace_file flow_trace_file sample_every timeseries_file
      =
    if sample_every < 1 then begin
      Printf.eprintf "netrepro: --sample-every must be >= 1\n";
      exit 2
    end;
    { metrics_file; trace_file; flow_trace_file; sample_every; timeseries_file }
  in
  Term.(
    const make $ metrics_opt $ trace_opt $ flow_trace_opt $ sample_every_opt
    $ timeseries_opt)

let journal_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record the run's dispatch journal — every event with its virtual \
           time, scheduling label, causal parent and RNG-draw count — to \
           $(docv) for $(b,netrepro replay) / $(b,netrepro jdiff). \
           Incompatible with $(b,--timeseries) (the sampler schedules its \
           own events).")

let seed_opt =
  Arg.(
    value
    & opt int64 Core.Experiment.defaults.Core.Experiment.seed
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Run seed. The report is a pure function of the seed and the \
           profile (and $(b,--tenants)): two runs with the same values \
           produce byte-identical reports.")

let json_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable report to $(docv): the attack ledger \
           with per-attack verdicts, provenance and blackbox \
           cross-references; the audit's provenance DAG summary, surfaces \
           and violations; the fleet's totals, per-tenant rollups, drop \
           table and SLO gates.")

let blackbox_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "blackbox-dir" ] ~docv:"DIR"
        ~doc:
          "Write each supervised containment's crash black box — the \
           last-N dispatch ring plus the supervisor verdict and the \
           fault's flow-trace/provenance cross-references — to \
           $(docv)/<cvm>.blackbox.json; attack reports link each contained \
           verdict to its dump file.")

let tenants_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "tenants" ] ~docv:"N"
        ~doc:
          "Number of tenant cVMs sharing the stack compartment (default: \
           the profile's — 64 with $(b,--quick), 256 otherwise).")

let scaling_flag =
  Arg.(
    value & flag
    & info [ "scaling" ]
        ~doc:
          "Instead of one run, print the scaling table: quick-profile runs \
           at 8, 64 and 256 tenants.")

type flag =
  | Quick
  | Iterations
  | Seed
  | Tenants
  | Scaling
  | Blackbox_dir
  | Telemetry
  | Journal
  | Json

let paper_flags = [ Quick; Iterations; Telemetry; Journal ]

(* The flags and man-page paragraphs of each gated command; every paper
   entry takes [paper_flags] and no paragraph. *)
let gated =
  [
    ( "attack",
      [ Seed; Quick; Json; Blackbox_dir ],
      [
        "Drive the seeded attack corpus — parser-bounds frames, \
         connection-close races, resource floods, cross-tenant probes — \
         against the Baseline, Scenario 1 and Scenario 2 topologies. Exit 1 \
         unless every attack in the CHERI scenarios ends \
         caught-and-attributed (a typed drop, typed backpressure, or a \
         supervisor-contained capability fault), the MMU-only baseline \
         records at least one silent corruption/leak, and sibling goodput \
         outside quarantine holds the >= 0.9x blast-radius bound in every \
         phase.";
      ] );
    ( "chaos",
      [ Seed; Quick; Journal; Blackbox_dir ],
      [
        "Run the scenarios under seeded chaos and print the blast-radius \
         report: exit 1 unless every injected fault is recovered or \
         attributed and sibling goodput holds.";
      ] );
    ( "audit",
      [ Seed; Quick; Json ],
      [
        "Run the stock scenarios with the provenance DAG and invariant \
         checker enabled and print the per-compartment attack-surface \
         report: exit 1 on any invariant violation, on a Scenario 2 app \
         surface not strictly smaller than Scenario 1's replicated stack, \
         or if a seeded capability fault goes unattributed.";
      ] );
    ( "fleet",
      [ Tenants; Seed; Quick; Scaling; Json; Journal ],
      [
        "Scale the Scenario 2 shared-stack topology to N application cVMs \
         and drive a seeded connection-churn workload against an epoll \
         server farm: Poisson arrivals and heavy-tailed request/response \
         sizes per tenant, every application window trampolining into the \
         stack compartment under the shared FIFO umtx.";
        "The report is the tenancy rollup: per-tenant goodput, \
         flow-completion-time percentiles down to p99.9, per-stage latency \
         decomposition (stage means telescope to the end-to-end mean), \
         trampoline crossings per packet, drop attribution and the Jain \
         fairness index. SLO gates fail the run (exit 1) on unfair \
         allocation, a blown p99.9 budget, unattributed drops or a broken \
         stage decomposition.";
      ] );
  ]

(* The runner of a command with [flags], awaiting its entries; a flag
   the command lacks takes its default. *)
let harness_term flags =
  let d = Core.Experiment.defaults in
  let has f term default = if List.mem f flags then term else Term.const default in
  let no_telemetry =
    {
      metrics_file = None;
      trace_file = None;
      flow_trace_file = None;
      sample_every = 64;
      timeseries_file = None;
    }
  in
  let make quick iterations seed tenants scaling blackbox_dir telemetry journal
      json entries =
    exec entries
      { Core.Experiment.quick; iterations; seed; tenants; scaling; blackbox_dir }
      telemetry journal json
  in
  Term.(
    const make
    $ has Quick quick_flag d.Core.Experiment.quick
    $ has Iterations iters_opt d.Core.Experiment.iterations
    $ has Seed seed_opt d.Core.Experiment.seed
    $ has Tenants tenants_opt d.Core.Experiment.tenants
    $ has Scaling scaling_flag d.Core.Experiment.scaling
    $ has Blackbox_dir blackbox_opt d.Core.Experiment.blackbox_dir
    $ has Telemetry telemetry_term no_telemetry
    $ has Journal journal_opt None
    $ has Json json_opt None)

let ids_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:"Experiment ids (e.g. table2 fig4). Default: all.")

let run_cmd =
  Cmd.v (cmd_info "run")
    Term.(
      const (fun ids run -> run (paper_entries ids))
      $ ids_arg $ harness_term paper_flags)

let list_cmd =
  Cmd.v (cmd_info "list") Term.(const list_experiments $ const ())

let analyze_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Flow-trace JSON written by --flow-trace.")

let analyze_cmd =
  Cmd.v
    (cmd_info "analyze"
       ~detail:
         [
           "Per-stage latency percentiles, end-to-end decomposition and \
            drop attribution from a --flow-trace file; also summarizes \
            --timeseries exports (row/series counts, truncation).";
         ])
    Term.(const run_analyze $ analyze_file_arg)

let profile_exp_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id to profile (e.g. fig4).")

let profile_runs_opt =
  Arg.(
    value & opt int 1
    & info [ "runs" ] ~docv:"N"
        ~doc:
          "Profile the experiment $(docv) times and keep the per-hotspot \
           median of the wall-time fields (events are asserted identical): \
           use $(b,--runs 3) on shared/CI hosts so scheduler noise cannot \
           fail a perfdiff gate.")

let profile_out_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"PREFIX"
        ~doc:
          "Output prefix for $(docv).folded and $(docv).profile.json \
           (default PROFILE_<experiment>).")

let profile_cmd =
  Cmd.v
    (cmd_info "profile"
       ~detail:
         [
           "Run one experiment under the wall-clock profiler: print the \
            per-(component, cvm, stage) hotspot table and the capacity \
            watermark/backpressure report, and write the folded-stack dump \
            (flamegraph input) plus the machine-readable .profile.json \
            snapshot that netrepro perfdiff compares against a baseline. \
            Profiling never touches the virtual clock, so the experiment's \
            own output is bit-identical to an unprofiled run.";
         ])
    Term.(
      const run_profile $ profile_exp_arg $ quick_flag $ profile_runs_opt
      $ profile_out_opt)

let perfdiff_old_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OLD" ~doc:"Baseline .profile.json snapshot.")

let perfdiff_new_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW" ~doc:"Candidate snapshot to compare against $(i,OLD).")

let perfdiff_max_regress_opt =
  Arg.(
    value & opt float 10.
    & info [ "max-regress" ] ~docv:"PCT"
        ~doc:"Regression threshold in percent (default 10).")

let perfdiff_cmd =
  Cmd.v
    (cmd_info "perfdiff"
       ~detail:
         [
           "Compare two $(b,netrepro profile) snapshots per hotspot and \
            exit 1 when any key regressed past --max-regress (2 on I/O or \
            parse errors, or when a file is not a profile snapshot). Wall \
            time is gated with noise floors; deterministic event counts \
            flag on any drift.";
         ])
    Term.(
      const run_perfdiff $ perfdiff_old_arg $ perfdiff_new_arg
      $ perfdiff_max_regress_opt)

let context_opt =
  Arg.(
    value & opt int 5
    & info [ "context" ] ~docv:"K"
        ~doc:"Journal events shown around a mismatch (default 5).")

let replay_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOURNAL" ~doc:"Journal recorded with --journal.")

let replay_cmd =
  Cmd.v
    (cmd_info "replay"
       ~detail:
         [
           "Re-execute the run described by the journal header (experiment \
            ids, profile, seed) with the verifier armed: every live \
            dispatch is checked against the recording — virtual time, \
            scheduling label, causal parent, RNG-draw count — and the \
            first mismatch is reported with ±K events of journal context. \
            Exit 0 when the whole journal verifies, 1 on the first \
            divergence, 2 on I/O or header errors.";
         ])
    Term.(const run_replay $ replay_file_arg $ context_opt)

let jdiff_a_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"A" ~doc:"First journal.")

let jdiff_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"B" ~doc:"Second journal.")

let jdiff_cmd =
  Cmd.v
    (cmd_info "jdiff"
       ~detail:
         [
           "Find the first sequence number where two recorded runs \
            diverge, walk the causal parent edges of both diverging \
            dispatches back to their last common ancestor, and summarize \
            per-component dispatch drift after the split. Exit 0 when the \
            journals are equivalent, 1 on divergence, 2 on I/O or parse \
            errors.";
         ])
    Term.(const run_jdiff $ jdiff_a_arg $ jdiff_b_arg $ context_opt)

(* One top-level command per registry entry, so
   `netrepro fig4 --metrics out.prom --trace-json out.json` works
   without the `run` prefix. *)
let experiment_cmds =
  List.map
    (fun (e : Core.Experiment.t) ->
      let flags, detail =
        match List.find_opt (fun (id, _, _) -> id = e.Core.Experiment.id) gated with
        | Some (_, flags, detail) -> (flags, detail)
        | None -> (paper_flags, [])
      in
      Cmd.v
        (Cmd.info e.Core.Experiment.id ~man:(man_of detail)
           ~doc:
             (Printf.sprintf "%s (%s)" e.Core.Experiment.title
                e.Core.Experiment.paper_ref))
        Term.(
          const (fun run -> run [ e ]) $ harness_term flags))
    Core.Experiment.all

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "netrepro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Enabling Security on the Edge: A CHERI \
         Compartmentalized Network Stack' (DATE 2025) on a simulated \
         Morello/CheriBSD system."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          ([
             run_cmd;
             list_cmd;
             analyze_cmd;
             profile_cmd;
             perfdiff_cmd;
             replay_cmd;
             jdiff_cmd;
           ]
          @ experiment_cmds)))
