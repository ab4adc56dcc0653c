type state = Running | Trapped | Quarantined | Restarting | Dead

let state_name = function
  | Running -> "running"
  | Trapped -> "trapped"
  | Quarantined -> "quarantined"
  | Restarting -> "restarting"
  | Dead -> "dead"

let state_index = function
  | Running -> 0
  | Trapped -> 1
  | Quarantined -> 2
  | Restarting -> 3
  | Dead -> 4

type policy =
  | Kill
  | Restart of {
      budget : int;
      backoff_base : Dsim.Time.t;
      backoff_max : Dsim.Time.t;
      jitter_pct : float;
    }

let default_restart =
  Restart
    {
      budget = 3;
      backoff_base = Dsim.Time.us 50;
      backoff_max = Dsim.Time.ms 5;
      jitter_pct = 0.1;
    }

type 'a outcome = Done of 'a | Faulted of Cheri.Fault.t | Refused of state

type entry = {
  e_cvm : Cvm.t;
  e_name : string;
  e_policy : policy;
  mutable e_state : state;
  mutable e_faults : int;
  mutable e_restarts : int;
  mutable e_cleanups : (unit -> unit) list; (* reverse registration order *)
  mutable e_restart_fn : unit -> unit;
  mutable e_trapped_at : Dsim.Time.t;
  (* Head = most recent quarantine window; [None] end = still open. *)
  mutable e_windows : (Dsim.Time.t * Dsim.Time.t option) list;
  (* Black-box dump captured at the end of the most recent containment
     sequence: the journal's crash ring plus fault cross-references. *)
  mutable e_blackbox : Dsim.Json.t option;
  e_gauge : Dsim.Metrics.gauge;
  e_recovery : Dsim.Metrics.histogram;
}

type transition_cb = cvm:string -> old_state:state -> state -> unit

type t = {
  engine : Dsim.Engine.t;
  policy : policy;
  rng : Dsim.Rng.t;
  entries : (string, entry) Hashtbl.t;
  mutable on_transition : transition_cb option;
  mutable blackbox_dir : string option;
}

let create engine ?(seed = 0x5afeL) ?(policy = default_restart) () =
  {
    engine;
    policy;
    rng = Dsim.Rng.create ~seed;
    entries = Hashtbl.create 8;
    on_transition = None;
    blackbox_dir = None;
  }

let set_on_transition t cb = t.on_transition <- cb
let set_blackbox_dir t dir = t.blackbox_dir <- dir

let register t ?policy cvm =
  let name = Cvm.name cvm in
  if not (Hashtbl.mem t.entries name) then begin
    Cheri.Fault.register_compartment name;
    let labels = [ ("cvm", name) ] in
    Hashtbl.replace t.entries name
      {
        e_cvm = cvm;
        e_name = name;
        e_policy = Option.value policy ~default:t.policy;
        e_state = Running;
        e_faults = 0;
        e_restarts = 0;
        e_cleanups = [];
        e_restart_fn = (fun () -> ());
        e_trapped_at = Dsim.Time.ns 0;
        e_windows = [];
        e_blackbox = None;
        e_gauge =
          Dsim.Metrics.gauge Dsim.Metrics.default
            ~help:
              "cVM lifecycle state (0 running, 1 trapped, 2 quarantined, 3 \
               restarting, 4 dead)."
            ~labels "cvm_state";
        e_recovery =
          Dsim.Metrics.histogram Dsim.Metrics.default
            ~help:"Trap-to-running recovery time per supervised restart, ns."
            ~labels ~lo:1000. ~ratio:2. ~buckets:28 "cvm_recovery_ns";
      }
  end

let entry t cvm =
  match Hashtbl.find_opt t.entries (Cvm.name cvm) with
  | Some e -> e
  | None -> invalid_arg ("Supervisor: cVM not registered: " ^ Cvm.name cvm)

let add_cleanup t ~cvm f =
  let e = entry t cvm in
  e.e_cleanups <- f :: e.e_cleanups

let set_restart t ~cvm f = (entry t cvm).e_restart_fn <- f
let state t ~cvm = (entry t cvm).e_state
let blackbox t ~cvm = (entry t cvm).e_blackbox
let faults t ~cvm = (entry t cvm).e_faults
let restarts t ~cvm = (entry t cvm).e_restarts
let quarantine_windows t ~cvm = List.rev (entry t cvm).e_windows

let set_state t e s =
  let old = e.e_state in
  if old <> s then begin
    e.e_state <- s;
    Dsim.Metrics.set e.e_gauge (state_index s);
    Dsim.Journal.note_supervisor ~cvm:e.e_name ~old_state:(state_name old)
      ~new_state:(state_name s);
    match t.on_transition with
    | Some cb -> cb ~cvm:e.e_name ~old_state:old s
    | None -> ()
  end

let open_window e ~now =
  match e.e_windows with
  | (_, None) :: _ -> () (* restart faulted: previous window still open *)
  | _ -> e.e_windows <- (now, None) :: e.e_windows

let close_window e ~now =
  match e.e_windows with
  | (start, None) :: rest -> e.e_windows <- (start, Some now) :: rest
  | _ -> ()

let k_restart =
  Dsim.Profile.(key default) ~component:"intravisor" ~cvm:"supervisor"
    ~stage:"restart"

(* Capability-fault drops accumulated in the process-global flow trace:
   the black box carries this total so a dump can be cross-checked
   against the drop ledger entry the same fault produced. *)
let capability_drop_count () =
  List.fold_left
    (fun acc ((_, reason), n) ->
      if reason = Dsim.Flowtrace.Capability_fault then acc + n else acc)
    0
    (Dsim.Flowtrace.drop_table Dsim.Flowtrace.default)

(* The crash black box: the journal's always-on ring (last N completed
   dispatches plus the in-flight faulting one) extended with the
   supervisor's verdict and cross-references into the flow-trace drop
   ledger and the capability provenance graph. Captured at the end of
   containment, when the policy verdict and revocation count are
   known; no I/O unless a dump directory is armed. *)
let capture_blackbox t e fault ~now ~revoked =
  let dump =
    match Dsim.Journal.blackbox_json () with
    | Dsim.Json.Obj fields ->
      Dsim.Json.Obj
        (fields
        @ [
            ("cvm", Dsim.Json.String e.e_name);
            ("fault", Dsim.Json.String (Cheri.Fault.to_string fault));
            ( "fault_seq",
              Dsim.Json.Int
                (match Dsim.Journal.in_flight () with
                | Some d -> d.Dsim.Journal.d_seq
                | None -> -1) );
            ("verdict", Dsim.Json.String (state_name e.e_state));
            ("faults", Dsim.Json.Int e.e_faults);
            ("restarts", Dsim.Json.Int e.e_restarts);
            ("at_ns", Dsim.Json.Int (Dsim.Time.to_ns now));
            ("flowtrace_capability_drops", Dsim.Json.Int (capability_drop_count ()));
            ("provenance_revoked", Dsim.Json.Int revoked);
            ( "provenance_live",
              Dsim.Json.Int (Cheri.Provenance.live_count ~owner:e.e_name ()) );
          ])
    | other -> other
  in
  e.e_blackbox <- Some dump;
  match t.blackbox_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (e.e_name ^ ".blackbox.json") in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Dsim.Json.to_string dump);
        output_char oc '\n')

let backoff_delay t e =
  match e.e_policy with
  | Kill -> Dsim.Time.ns 0
  | Restart { backoff_base; backoff_max; jitter_pct; _ } ->
    let base =
      Dsim.Time.min
        (Dsim.Time.mul backoff_base (1 lsl min e.e_restarts 16))
        backoff_max
    in
    (* Jitter decorrelates sibling restarts; drawn from the supervisor's
       own seeded stream so runs stay reproducible. *)
    let factor = 1. +. (jitter_pct *. ((2. *. Dsim.Rng.float t.rng 1.) -. 1.)) in
    Dsim.Time.of_float_ns (Dsim.Time.to_float_ns base *. factor)

(* The containment sequence. Trapped: the fault is attributed and the
   compartment stops executing. Teardown: every registered cleanup runs
   (each individually shielded — a failing cleanup must not abort the
   rest), releasing shared-resource holds so siblings keep serving.
   Quarantined: the cVM holds nothing and runs nothing. Then the policy
   decides: kill / budget exhausted -> Dead (window stays open), else a
   backed-off restart attempt; a fault during restart re-enters here. *)
let rec handle_fault t e fault =
  let now = Dsim.Engine.now t.engine in
  e.e_faults <- e.e_faults + 1;
  e.e_trapped_at <- now;
  Dsim.Journal.note_fault ~cvm:e.e_name
    ~fault:(Cheri.Fault.to_string fault);
  set_state t e Trapped;
  List.iter
    (fun cleanup -> try cleanup () with _ -> ())
    (List.rev e.e_cleanups);
  (* Containment revokes the compartment's whole endowment — the audit
     ledger sees the teardown as a revocation storm, and any dangling
     dereference during quarantine surfaces as a temporal leak. *)
  let revoked =
    Cheri.Provenance.revoke_owned ~owner:e.e_name
      ~reason:"supervisor_cleanup"
  in
  open_window e ~now;
  set_state t e Quarantined;
  (match e.e_policy with
  | Kill -> set_state t e Dead
  | Restart { budget; _ } when e.e_restarts >= budget -> set_state t e Dead
  | Restart _ ->
    let delay = backoff_delay t e in
    Dsim.Engine.schedule t.engine ~delay ~label:k_restart (fun () ->
        attempt_restart t e));
  capture_blackbox t e fault ~now ~revoked

and attempt_restart t e =
  set_state t e Restarting;
  e.e_restarts <- e.e_restarts + 1;
  let saved = Cheri.Fault.current_context () in
  Cheri.Fault.set_context e.e_name;
  match e.e_restart_fn () with
  | () ->
    Cheri.Fault.set_context saved;
    (* Re-endow: the quarantine revocations are lifted so post-restart
       exercises of the compartment's own capabilities are clean. *)
    ignore
      (Cheri.Provenance.restore_owned ~owner:e.e_name
         ~reason:"supervisor_cleanup");
    let now = Dsim.Engine.now t.engine in
    close_window e ~now;
    Dsim.Metrics.observe e.e_recovery
      (Dsim.Time.to_float_ns (Dsim.Time.sub now e.e_trapped_at));
    set_state t e Running
  | exception Cheri.Fault.Capability_fault fault ->
    Cheri.Fault.set_context saved;
    handle_fault t e fault

let run t ~cvm f =
  let e = entry t cvm in
  match e.e_state with
  | Running -> (
    let saved = Cheri.Fault.current_context () in
    Cheri.Fault.set_context e.e_name;
    match f () with
    | v ->
      Cheri.Fault.set_context saved;
      Done v
    | exception Cheri.Fault.Capability_fault fault ->
      Cheri.Fault.set_context saved;
      handle_fault t e fault;
      Faulted fault)
  | s -> Refused s
