(* Shared on/off flag, same idiom as Metrics: the engine's dispatch loop
   reads one mutable bool and branches — the whole disabled-path cost. *)
type switch = { mutable on : bool }

type key = {
  k_id : int;
  k_component : string;
  k_cvm : string;
  k_stage : string;
  mutable k_events : int;
  mutable k_self_ns : int;
  (* RNG draws made while a handler scheduled under this key was
     dispatching (always-on — the engine adds the per-dispatch delta
     even when profiling is off, so stray-RNG nondeterminism is visible
     without any instrument enabled). [k_rng_pub] is the high-water
     mark already mirrored into a Metrics registry by
     [publish_rng_draws]. *)
  mutable k_rng : int;
  mutable k_rng_pub : int;
}

type t = {
  sw : switch;
  keys : (string, key) Hashtbl.t;
  mutable key_order : key list; (* registration order, reversed *)
  mutable next_id : int;
  mutable clock : unit -> int64;
  (* The dispatch in flight: the engine never nests dispatches, so its
     key and its start (unboxed ns, ~146 years of monotonic time) are
     the whole per-dispatch state. *)
  mutable cur : key;
  mutable cur_start_ns : int;
}

let make_key ~id ~component ~cvm ~stage =
  {
    k_id = id;
    k_component = component;
    k_cvm = cvm;
    k_stage = stage;
    k_events = 0;
    k_self_ns = 0;
    k_rng = 0;
    k_rng_pub = 0;
  }

let create ?(enabled = false) () =
  {
    sw = { on = enabled };
    keys = Hashtbl.create 64;
    key_order = [];
    next_id = 0;
    clock = (fun () -> Monotonic_clock.now ());
    (* Never interned, so never reported: only [exit_event] without a
       matching [enter_event] could charge it. *)
    cur = make_key ~id:(-1) ~component:"-" ~cvm:"-" ~stage:"-";
    cur_start_ns = 0;
  }

let default = create ()

let enabled t = t.sw.on
let set_enabled t b = t.sw.on <- b
let set_clock t c = t.clock <- c

let key t ~component ~cvm ~stage =
  let id = component ^ "\x1f" ^ cvm ^ "\x1f" ^ stage in
  match Hashtbl.find_opt t.keys id with
  | Some k -> k
  | None ->
    let k = make_key ~id:t.next_id ~component ~cvm ~stage in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.keys id k;
    t.key_order <- k :: t.key_order;
    k

let key_id k = k.k_id
let key_triple k = (k.k_component, k.k_cvm, k.k_stage)

(* Always-on: one add per dispatched event (the engine computes the
   delta from Rng.draws around the handler). *)
let add_rng_draws k n = k.k_rng <- k.k_rng + n
let rng_draws k = k.k_rng

let reset t =
  List.iter
    (fun k ->
      k.k_events <- 0;
      k.k_self_ns <- 0;
      k.k_rng <- 0;
      k.k_rng_pub <- 0)
    t.key_order

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)
(* ------------------------------------------------------------------ *)

let hot () = default.sw.on

let enter_event k =
  default.cur <- k;
  default.cur_start_ns <- Int64.to_int (default.clock ())

let exit_event () =
  let k = default.cur in
  let dt = Int64.to_int (default.clock ()) - default.cur_start_ns in
  k.k_events <- k.k_events + 1;
  k.k_self_ns <- k.k_self_ns + if dt < 0 then 0 else dt

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  r_component : string;
  r_cvm : string;
  r_stage : string;
  r_events : int;
  r_self_ns : float;
  r_rng_draws : int;
}

let key_name k = k.k_component ^ ":" ^ k.k_cvm ^ ":" ^ k.k_stage

let rows t =
  t.key_order
  |> List.filter_map (fun k ->
         if k.k_events = 0 then None
         else
           Some
             {
               r_component = k.k_component;
               r_cvm = k.k_cvm;
               r_stage = k.k_stage;
               r_events = k.k_events;
               r_self_ns = float_of_int k.k_self_ns;
               r_rng_draws = k.k_rng;
             })
  |> List.sort (fun a b ->
         match Float.compare b.r_self_ns a.r_self_ns with
         | 0 ->
           compare
             (a.r_component, a.r_cvm, a.r_stage)
             (b.r_component, b.r_cvm, b.r_stage)
         | c -> c)

let total_self_ns t =
  List.fold_left (fun acc k -> acc +. float_of_int k.k_self_ns) 0. t.key_order

let ms ns = ns /. 1e6

let render t =
  let rs = rows t in
  let total = total_self_ns t in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-16s %-18s %10s %10s %8s %7s %8s\n" "component"
       "cvm" "stage" "events" "self(ms)" "share%" "ns/ev" "rng");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-16s %-18s %10d %10.2f %8.2f %7.0f %8d\n"
           r.r_component r.r_cvm r.r_stage r.r_events (ms r.r_self_ns)
           (if total > 0. then 100. *. r.r_self_ns /. total else 0.)
           (r.r_self_ns /. float_of_int (max r.r_events 1))
           r.r_rng_draws))
    rs;
  Buffer.add_string buf
    (Printf.sprintf "total measured: %.2f ms over %d keys\n" (ms total)
       (List.length rs));
  Buffer.contents buf

let folded t =
  let lines =
    List.filter_map
      (fun k ->
        if k.k_self_ns > 0 then
          Some (Printf.sprintf "%s %d" (key_name k) k.k_self_ns)
        else None)
      t.key_order
  in
  String.concat "\n" (List.sort String.compare lines)
  ^ if lines = [] then "" else "\n"

(* Mirror per-label RNG draw totals into a Metrics registry as
   [rng_draws_total{component,cvm,stage}]. Only the delta since the
   last call is published, so repeated calls (telemetry dumps) stay
   monotone; keys that never drew are skipped to avoid flooding the
   exposition with zero series. *)
let publish_rng_draws t registry =
  if Metrics.enabled registry then
    List.iter
      (fun k ->
        if k.k_rng > k.k_rng_pub then begin
          let c =
            Metrics.counter registry
              ~help:
                "Deterministic-RNG draws made while handlers scheduled \
                 under this label were dispatching."
              ~labels:
                [
                  ("component", k.k_component);
                  ("cvm", k.k_cvm);
                  ("stage", k.k_stage);
                ]
              "rng_draws_total"
          in
          Metrics.incr_by c (k.k_rng - k.k_rng_pub);
          k.k_rng_pub <- k.k_rng
        end)
      (List.rev t.key_order)

let to_json t =
  let total = total_self_ns t in
  let hotspot r =
    Json.Obj
      [
        ("component", Json.String r.r_component);
        ("cvm", Json.String r.r_cvm);
        ("stage", Json.String r.r_stage);
        ("events", Json.Int r.r_events);
        ("self_wall_ns", Json.Float r.r_self_ns);
        ( "ns_per_event",
          Json.Float (r.r_self_ns /. float_of_int (max r.r_events 1)) );
        ( "share_pct",
          Json.Float (if total > 0. then 100. *. r.r_self_ns /. total else 0.)
        );
        ("rng_draws", Json.Int r.r_rng_draws);
      ]
  in
  Json.Obj
    [
      ("total_self_wall_ns", Json.Float total);
      ("hotspots", Json.List (List.map hotspot (rows t)));
    ]
