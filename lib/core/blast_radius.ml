module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor

type window = { warmup : Time.t; duration : Time.t }

let frac w f =
  Time.add w.warmup (Time.of_float_ns (f *. Time.to_float_ns w.duration))

type labels = { arm : Dsim.Profile.key; tick : Dsim.Profile.key }
type samples = (string * (float * float * int) list) list

(* ------------------------------------------------------------------ *)
(* Goodput sampling                                                    *)
(* ------------------------------------------------------------------ *)

let drive labels w ~sample_every ?(on_tick = fun ~now_ns:_ _ -> ())
    ~after_warmup built =
  let engine = built.Scenarios.engine in
  let samples =
    List.map (fun f -> (f.Scenarios.label, ref [])) built.Scenarios.flows
  in
  let t0 = w.warmup in
  let t_end = Time.add t0 w.duration in
  Engine.schedule_at engine ~at:t0 ~label:labels.arm (fun () ->
      List.iter
        (fun f -> ignore (f.Scenarios.take_bytes ()))
        built.Scenarios.flows;
      after_warmup ());
  let rec tick prev () =
    let now = Engine.now engine in
    let now_ns = Time.to_float_ns now and prev_ns = Time.to_float_ns prev in
    let deltas =
      List.map
        (fun f -> (f.Scenarios.label, f.Scenarios.take_bytes ()))
        built.Scenarios.flows
    in
    List.iter
      (fun (l, d) ->
        match List.assoc_opt l samples with
        | Some r -> r := (prev_ns, now_ns, d) :: !r
        | None -> ())
      deltas;
    on_tick ~now_ns deltas;
    if Time.(now < t_end) then
      Engine.schedule engine ~delay:sample_every ~label:labels.tick (tick now)
  in
  Engine.schedule_at engine ~at:(Time.add t0 sample_every)
    ~label:labels.tick (tick t0);
  Engine.run ~until:t_end engine;
  built.Scenarios.stop ();
  List.map (fun (l, r) -> (l, List.rev !r)) samples

let twin labels w ~sample_every build =
  let samples = drive labels w ~sample_every ~after_warmup:ignore (build ()) in
  Ft.clear Ft.default;
  samples

let with_flowtrace f =
  let was = Ft.enabled Ft.default in
  Ft.set_enabled Ft.default true;
  Ft.clear Ft.default;
  let r = f () in
  Ft.clear Ft.default;
  Ft.set_enabled Ft.default was;
  r

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

let restart_once =
  Sup.Restart
    { budget = 1; backoff_base = Time.us 50; backoff_max = Time.ms 2;
      jitter_pct = 0.1 }

let supervisor ?policy ~seed () =
  let sup_ref = ref None in
  let supervise engine =
    let sup = Sup.create engine ~seed ?policy () in
    sup_ref := Some sup;
    sup
  in
  (supervise, sup_ref)

let get_sup sup_ref =
  match !sup_ref with
  | Some s -> s
  | None ->
    invalid_arg "blast radius: builder did not instantiate the supervisor"

(* ------------------------------------------------------------------ *)
(* The measured phase                                                  *)
(* ------------------------------------------------------------------ *)

type phase = {
  title : string;
  victim : string;
  sibling : string;
  drops : ((Ft.stage * Ft.reason) * int) list;
  sibling_rate : float;
  sibling_ref : float;
  victim_rate : float;
  victim_ref : float;
}

let overlaps (a, b) windows =
  List.exists
    (fun (ws, we) ->
      let ws = Time.to_float_ns ws in
      match we with
      | Some we -> a < Time.to_float_ns we && b > ws
      | None -> b > ws)
    windows

(* Gbit/s over the samples that do not intersect a quarantine window
   (bits per virtual nanosecond = Gbit/s). *)
let rate_outside samples windows =
  let bytes, ns =
    List.fold_left
      (fun (bytes, ns) (a, b, d) ->
        if overlaps (a, b) windows then (bytes, ns)
        else (bytes + d, ns +. (b -. a)))
      (0, 0.) samples
  in
  if ns <= 0. then 0. else float_of_int (bytes * 8) /. ns

let measure ~title ~victim ~sibling ~windows ~samples ~twin =
  let rate l ss = rate_outside (List.assoc l ss) windows in
  {
    title;
    victim;
    sibling;
    drops = Ft.drop_table Ft.default;
    sibling_rate = rate sibling samples;
    sibling_ref = rate sibling twin;
    victim_rate = rate victim samples;
    victim_ref = rate victim twin;
  }

let ratio rate ref_ = if ref_ <= 0. then 1. else rate /. ref_
let sibling_ok p = ratio p.sibling_rate p.sibling_ref >= 0.9

(* ------------------------------------------------------------------ *)
(* Report lines                                                        *)
(* ------------------------------------------------------------------ *)

let drop_lines b p =
  if p.drops = [] then Printf.bprintf b "  drop table: (empty)\n"
  else begin
    Printf.bprintf b "  drop table (stage/reason -> frames):\n";
    List.iter
      (fun ((st, r), n) ->
        Printf.bprintf b "    %-10s %-16s %6d\n" (Ft.stage_name st)
          (Ft.reason_name r) n)
      p.drops
  end

let goodput_lines b p =
  Printf.bprintf b
    "  sibling %-5s goodput outside quarantine: %.3f Gbit/s vs %.3f \
     undisturbed (ratio %.3f) [%s]\n"
    p.sibling p.sibling_rate p.sibling_ref
    (ratio p.sibling_rate p.sibling_ref)
    (if sibling_ok p then "ok" else "FAIL");
  Printf.bprintf b
    "  victim  %-5s goodput outside quarantine: %.3f Gbit/s vs %.3f \
     undisturbed (ratio %.3f)\n"
    p.victim p.victim_rate p.victim_ref
    (ratio p.victim_rate p.victim_ref)
