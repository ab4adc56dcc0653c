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
  mutable k_cum_ns : int;
  (* RNG draws made while a handler scheduled under this key was
     dispatching (always-on — the engine adds the per-dispatch delta
     even when profiling is off, so stray-RNG nondeterminism is visible
     without any instrument enabled). [k_rng_pub] is the high-water
     mark already mirrored into a Metrics registry by
     [publish_rng_draws]. *)
  mutable k_rng : int;
  mutable k_rng_pub : int;
}

(* Folded-stack tree: one node per (parent path, key) pair actually
   observed, accumulating self wall time. Children are keyed by the
   key's id — keys are mutable records, so structural hashing would
   change under their own accumulators. *)
type node = {
  n_key : key;
  mutable n_self_ns : int;
  n_children : (int, node) Hashtbl.t;
}

(* One stack slot, preallocated and reused: entering an event or span
   allocates nothing. Timestamps are unboxed ints (63-bit ns — ~146
   years of monotonic time). *)
type frame = {
  mutable fr_key : key;
  mutable fr_start_ns : int;
  mutable fr_child_ns : int;
  mutable fr_node : node;
}

type t = {
  sw : switch;
  keys : (string, key) Hashtbl.t;
  mutable key_order : key list; (* registration order, reversed *)
  mutable next_id : int;
  mutable clock : unit -> int64;
  root : node;
  mutable frames : frame array;
  mutable depth : int;
}

let make_key t ~component ~cvm ~stage =
  let k =
    {
      k_id = t.next_id;
      k_component = component;
      k_cvm = cvm;
      k_stage = stage;
      k_events = 0;
      k_self_ns = 0;
      k_cum_ns = 0;
      k_rng = 0;
      k_rng_pub = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  k

let root_key t = make_key t ~component:"<root>" ~cvm:"-" ~stage:"-"

let make_frame root =
  { fr_key = root.n_key; fr_start_ns = 0; fr_child_ns = 0; fr_node = root }

let create ?(enabled = false) () =
  let partial =
    {
      sw = { on = enabled };
      keys = Hashtbl.create 64;
      key_order = [];
      next_id = 0;
      clock = (fun () -> Monotonic_clock.now ());
      root =
        {
          n_key =
            {
              k_id = -1;
              k_component = "<root>";
              k_cvm = "-";
              k_stage = "-";
              k_events = 0;
              k_self_ns = 0;
              k_cum_ns = 0;
              k_rng = 0;
              k_rng_pub = 0;
            };
          n_self_ns = 0;
          n_children = Hashtbl.create 16;
        };
      frames = [||];
      depth = 0;
    }
  in
  ignore (root_key partial); (* burn id 0 so real keys never collide with -1 *)
  partial.frames <- Array.init 64 (fun _ -> make_frame partial.root);
  partial

let default = create ()

let enabled t = t.sw.on
let set_enabled t b = t.sw.on <- b
let set_clock t c = t.clock <- c

let key t ~component ~cvm ~stage =
  let id = component ^ "\x1f" ^ cvm ^ "\x1f" ^ stage in
  match Hashtbl.find_opt t.keys id with
  | Some k -> k
  | None ->
    let k = make_key t ~component ~cvm ~stage in
    Hashtbl.replace t.keys id k;
    t.key_order <- k :: t.key_order;
    k

let unattributed = key default ~component:"unattributed" ~cvm:"-" ~stage:"-"

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
      k.k_cum_ns <- 0;
      k.k_rng <- 0;
      k.k_rng_pub <- 0)
    t.key_order;
  Hashtbl.reset t.root.n_children;
  t.root.n_self_ns <- 0;
  t.depth <- 0

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)
(* ------------------------------------------------------------------ *)

let grow t =
  let bigger =
    Array.init (2 * Array.length t.frames) (fun i ->
        if i < Array.length t.frames then t.frames.(i) else make_frame t.root)
  in
  t.frames <- bigger

let enter t k =
  if t.depth >= Array.length t.frames then grow t;
  let fr = t.frames.(t.depth) in
  let parent =
    if t.depth = 0 then t.root else t.frames.(t.depth - 1).fr_node
  in
  let node =
    match Hashtbl.find_opt parent.n_children k.k_id with
    | Some n -> n
    | None ->
      let n = { n_key = k; n_self_ns = 0; n_children = Hashtbl.create 4 } in
      Hashtbl.replace parent.n_children k.k_id n;
      n
  in
  fr.fr_key <- k;
  fr.fr_child_ns <- 0;
  fr.fr_node <- node;
  fr.fr_start_ns <- Int64.to_int (t.clock ());
  t.depth <- t.depth + 1

let exit_frame t =
  t.depth <- t.depth - 1;
  let fr = t.frames.(t.depth) in
  let dt = Int64.to_int (t.clock ()) - fr.fr_start_ns in
  let dt = if dt < 0 then 0 else dt in
  let self = dt - fr.fr_child_ns in
  let self = if self < 0 then 0 else self in
  let k = fr.fr_key in
  k.k_events <- k.k_events + 1;
  k.k_self_ns <- k.k_self_ns + self;
  k.k_cum_ns <- k.k_cum_ns + dt;
  fr.fr_node.n_self_ns <- fr.fr_node.n_self_ns + self;
  if t.depth > 0 then begin
    let p = t.frames.(t.depth - 1) in
    p.fr_child_ns <- p.fr_child_ns + dt
  end

let hot () = default.sw.on
let enter_event k = enter default k
let exit_event () = exit_frame default

let span k f =
  if default.sw.on then begin
    enter default k;
    match f () with
    | v ->
      exit_frame default;
      v
    | exception e ->
      exit_frame default;
      raise e
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  r_component : string;
  r_cvm : string;
  r_stage : string;
  r_events : int;
  r_self_ns : float;
  r_cum_ns : float;
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
               r_cum_ns = float_of_int k.k_cum_ns;
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

let attributed_ns t =
  let una =
    if t == default then float_of_int unattributed.k_self_ns else 0.
  in
  total_self_ns t -. una

let attributed_pct t =
  let total = total_self_ns t in
  if total <= 0. then 100. else 100. *. attributed_ns t /. total

let ms ns = ns /. 1e6

let render t =
  let rs = rows t in
  let total = total_self_ns t in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-16s %-18s %10s %10s %8s %10s %7s %8s\n" "component"
       "cvm" "stage" "events" "self(ms)" "share%" "cum(ms)" "ns/ev" "rng");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-12s %-16s %-18s %10d %10.2f %8.2f %10.2f %7.0f %8d\n"
           r.r_component r.r_cvm r.r_stage r.r_events (ms r.r_self_ns)
           (if total > 0. then 100. *. r.r_self_ns /. total else 0.)
           (ms r.r_cum_ns)
           (r.r_self_ns /. float_of_int (max r.r_events 1))
           r.r_rng_draws))
    rs;
  Buffer.add_string buf
    (Printf.sprintf
       "total measured: %.2f ms over %d keys; attributed: %.2f ms (%.1f%%)\n"
       (ms total) (List.length rs)
       (ms (attributed_ns t))
       (attributed_pct t));
  Buffer.contents buf

let folded t =
  let lines = ref [] in
  let rec walk prefix node =
    let name = key_name node.n_key in
    let path = if prefix = "" then name else prefix ^ ";" ^ name in
    if node.n_self_ns > 0 then
      lines := Printf.sprintf "%s %d" path node.n_self_ns :: !lines;
    Hashtbl.iter (fun _ child -> walk path child) node.n_children
  in
  Hashtbl.iter (fun _ child -> walk "" child) t.root.n_children;
  String.concat "\n" (List.sort String.compare !lines)
  ^ if !lines = [] then "" else "\n"

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
        ("cum_wall_ns", Json.Float r.r_cum_ns);
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
      ("attributed_wall_ns", Json.Float (attributed_ns t));
      ("attributed_pct", Json.Float (attributed_pct t));
      ("hotspots", Json.List (List.map hotspot (rows t)));
    ]
