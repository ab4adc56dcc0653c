type labels = (string * string) list

(* Shared on/off flag: every instrument holds the registry's switch so a
   hot-path [incr] is one load and one branch when telemetry is off. *)
type switch = { mutable on : bool }

type counter = { c_sw : switch; mutable count : int }

(* [high] is the level's maximum since the last [reset]; [capacity] is
   the resource's hard limit, when it has one. *)
type gauge = {
  g_sw : switch;
  g_capacity : int option;
  mutable level : int;
  mutable high : int;
}

type histogram = { h_sw : switch; h_ladder : Histogram.t; mutable h_sum : float }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type series = { s_name : string; s_labels : labels; s_instrument : instrument }

type t = {
  sw : switch;
  table : (string, series) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
  meta : (string, string * string) Hashtbl.t;  (* name -> (type, help) *)
  (* Label-cardinality guard: the series intern table is bounded so a
     runaway label set (hundreds of tenants, per-flow labels, ...)
     cannot blow up the export. Registrations past the cap still get a
     live (but unexported) instrument, and are tallied. *)
  mutable dropped_series : int;
}

let max_series = 8192

let create ?(enabled = false) () =
  {
    sw = { on = enabled };
    table = Hashtbl.create 64;
    order = [];
    meta = Hashtbl.create 32;
    dropped_series = 0;
  }

let default = create ()

let enabled t = t.sw.on
let set_enabled t b = t.sw.on <- b

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let series_key name labels = name ^ render_labels labels

let type_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ~name ~labels ~help make =
  let labels = normalize_labels labels in
  let key = series_key name labels in
  match Hashtbl.find_opt t.table key with
  | Some s -> s.s_instrument
  | None when Hashtbl.length t.table >= max_series ->
    (* Over the cardinality cap: hand back a working instrument that is
       interned nowhere — updates stay cheap and safe, the series just
       never reaches the export — and account for the drop. *)
    t.dropped_series <- t.dropped_series + 1;
    make ()
  | None ->
    let instrument = make () in
    if not (Hashtbl.mem t.meta name) then
      Hashtbl.replace t.meta name (type_name instrument, help)
    else begin
      let expected, _ = Hashtbl.find t.meta name in
      if not (String.equal expected (type_name instrument)) then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name expected)
    end;
    Hashtbl.replace t.table key { s_name = name; s_labels = labels; s_instrument = instrument };
    t.order <- key :: t.order;
    instrument

let counter t ?(help = "") ?(labels = []) name =
  match register t ~name ~labels ~help (fun () -> Counter { c_sw = t.sw; count = 0 }) with
  | Counter c -> c
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s is a %s" name (type_name other))

let gauge t ?(help = "") ?capacity ?(labels = []) name =
  let make () = Gauge { g_sw = t.sw; g_capacity = capacity; level = 0; high = 0 } in
  match register t ~name ~labels ~help make with
  | Gauge g -> g
  | other ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %s is a %s" name (type_name other))

let stall_family = "backpressure_stalls_total"

let stall t ?(labels = []) ~resource ~kind () =
  counter t
    ~help:
      "Backpressure stalls: a finite resource refused work or outgrew its \
       alarm, by resource and kind."
    ~labels:(("resource", resource) :: ("kind", kind) :: labels)
    stall_family

let histogram t ?(help = "") ?(labels = []) ?(lo = 1.) ?(ratio = 2.)
    ?(buckets = 40) name =
  let make () =
    Histogram
      { h_sw = t.sw; h_ladder = Histogram.create ~lo ~ratio ~buckets (); h_sum = 0. }
  in
  match register t ~name ~labels ~help make with
  | Histogram h -> h
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s is a %s" name (type_name other))

(* ------------------------------------------------------------------ *)
(* Hot-path updates                                                     *)
(* ------------------------------------------------------------------ *)

let incr c = if c.c_sw.on then c.count <- c.count + 1
let incr_by c n = if c.c_sw.on then c.count <- c.count + n
let value c = c.count

let set g v =
  if g.g_sw.on then begin
    g.level <- v;
    if v > g.high then g.high <- v
  end

let add g d = set g (g.level + d)
let level g = g.level
let high g = g.high
let capacity g = g.g_capacity

let observe h x =
  if h.h_sw.on then begin
    Histogram.add h.h_ladder x;
    h.h_sum <- h.h_sum +. x
  end

let observations h = Histogram.count h.h_ladder
let percentile h p = Histogram.percentile h.h_ladder p

let mean h =
  let n = observations h in
  if n = 0 then 0. else h.h_sum /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Registry traversal                                                   *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { n : int; sum : float }

let value_of = function
  | Counter c -> Counter_value c.count
  | Gauge g -> Gauge_value g.level
  | Histogram h -> Histogram_value { n = observations h; sum = h.h_sum }

let series_in_order t = List.rev_map (Hashtbl.find t.table) t.order

let snapshot t =
  List.map (fun s -> (s.s_name, s.s_labels, value_of s.s_instrument)) (series_in_order t)

let series_count t = Hashtbl.length t.table

let find_counter t ?(labels = []) name =
  match Hashtbl.find_opt t.table (series_key name (normalize_labels labels)) with
  | Some { s_instrument = Counter c; _ } -> Some c
  | _ -> None

let find_gauge t ?(labels = []) name =
  match Hashtbl.find_opt t.table (series_key name (normalize_labels labels)) with
  | Some { s_instrument = Gauge g; _ } -> Some g
  | _ -> None

let reset t =
  Hashtbl.iter
    (fun _ s ->
      match s.s_instrument with
      | Counter c -> c.count <- 0
      | Gauge g ->
        g.level <- 0;
        g.high <- 0
      | Histogram h ->
        Histogram.clear h.h_ladder;
        h.h_sum <- 0.)
    t.table

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                           *)
(* ------------------------------------------------------------------ *)

(* Exposition-format escaping — [String.escaped] is the wrong tool: it
   would also mangle tabs and any non-ASCII label value (UTF-8 bytes
   become \ddd). Label values escape backslash, double-quote, and
   newline; HELP text escapes backslash and newline only. *)
let prom_escape ~quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" k (prom_escape ~quote:true v))
           labels)
    ^ "}"

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let prom_bound f = if f = Float.infinity then "+Inf" else prom_float f

let to_prometheus t =
  let buf = Buffer.create 4096 in
  (* Group series under their metric name, preserving registration
     order of both names and series. *)
  let by_name = Hashtbl.create 32 in
  let name_order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_name s.s_name with
      | None ->
        Hashtbl.replace by_name s.s_name [ s ];
        name_order := s.s_name :: !name_order
      | Some group -> Hashtbl.replace by_name s.s_name (s :: group))
    (series_in_order t);
  List.iter
    (fun name ->
      let group = List.rev (Hashtbl.find by_name name) in
      let typ, help =
        match Hashtbl.find_opt t.meta name with
        | Some m -> m
        | None -> ("untyped", "")
      in
      (* Every family gets its HELP/TYPE pair; an empty help renders as
         a bare "# HELP name", which the format allows. *)
      if help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" name (prom_escape ~quote:false help))
      else Buffer.add_string buf (Printf.sprintf "# HELP %s\n" name);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
      List.iter
        (fun s ->
          match s.s_instrument with
          | Counter c ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" name (prom_labels s.s_labels) c.count)
          | Gauge g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" name (prom_labels s.s_labels) g.level)
          | Histogram h ->
            let ladder = h.h_ladder in
            let last = Histogram.bucket_count ladder - 1 in
            let cum = ref 0 in
            for i = 0 to last do
              cum := !cum + Histogram.bucket_value ladder i;
              (* The last bucket absorbs everything above the ladder. *)
              let le =
                if i = last then Float.infinity
                else snd (Histogram.bucket_range ladder i)
              in
              let labels = s.s_labels @ [ ("le", prom_bound le) ] in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name (prom_labels labels) !cum)
            done;
            (* Summary-style quantile lines (incl. p99.9) alongside the
               cumulative buckets, so dashboards need no PromQL
               histogram_quantile step to read tail latency. *)
            List.iter
              (fun (q, p) ->
                let labels = s.s_labels @ [ ("quantile", q) ] in
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" name (prom_labels labels)
                     (prom_float (percentile h p))))
              [ ("0.5", 50.); ("0.9", 90.); ("0.99", 99.); ("0.999", 99.9) ];
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (prom_labels s.s_labels)
                 (prom_float h.h_sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (prom_labels s.s_labels)
                 (observations h)))
        group)
    (List.rev !name_order);
  (* Surface cardinality-cap overflow so dropped series are visible in
     the dump rather than silently absent. Emitted only when non-zero,
     keeping pre-guard exports byte-identical. *)
  if t.dropped_series > 0 then begin
    Buffer.add_string buf
      "# HELP metrics_dropped_series_total Series registrations rejected by the label-cardinality cap.\n";
    Buffer.add_string buf "# TYPE metrics_dropped_series_total counter\n";
    Buffer.add_string buf
      (Printf.sprintf "metrics_dropped_series_total %d\n" t.dropped_series)
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Capacity watermarks                                                  *)
(* ------------------------------------------------------------------ *)

(* Every gauge, then every non-zero stall counter, in registration
   order. A stall is named by its [resource] label; [kind] is its own
   column and the remaining labels qualify the resource. *)
let watermarks t =
  let series = series_in_order t in
  let gauges =
    List.filter_map
      (fun s ->
        match s.s_instrument with
        | Gauge g -> Some (s.s_name, s.s_labels, g)
        | _ -> None)
      series
  in
  let stalls =
    List.filter_map
      (fun s ->
        match s.s_instrument with
        | Counter c when String.equal s.s_name stall_family && c.count > 0 ->
          let label k = Option.value ~default:"" (List.assoc_opt k s.s_labels) in
          let rest =
            List.filter (fun (k, _) -> k <> "resource" && k <> "kind") s.s_labels
          in
          Some (label "resource", rest, label "kind", c.count)
        | _ -> None)
      series
  in
  (gauges, stalls)

let utilisation g =
  match g.g_capacity with
  | Some cap when cap > 0 ->
    Some (cap, 100. *. float_of_int g.high /. float_of_int cap)
  | _ -> None

let title name = function
  | [] -> name
  | labels ->
    name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) ^ "}"

let watermark_table t =
  let gauges, stalls = watermarks t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %10s %10s %10s %7s\n" "resource" "current" "high"
       "capacity" "util%");
  List.iter
    (fun (name, labels, g) ->
      let cap_s, util_s =
        match utilisation g with
        | Some (cap, pct) -> (string_of_int cap, Printf.sprintf "%.1f" pct)
        | None -> ("-", "-")
      in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %10d %10d %10s %7s\n" (title name labels) g.level
           g.high cap_s util_s))
    gauges;
  if stalls <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "\n%-40s %-16s %10s\n" "resource" "stall" "count");
    List.iter
      (fun (resource, labels, kind, count) ->
        Buffer.add_string buf
          (Printf.sprintf "%-40s %-16s %10d\n" (title resource labels) kind count))
      stalls
  end;
  Buffer.contents buf

let watermark_json t =
  let gauges, stalls = watermarks t in
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)
  in
  let gauge_json (name, labels, g) =
    Json.Obj
      ([
         ("name", Json.String name);
         ("labels", labels_json labels);
         ("current", Json.Int g.level);
         ("high", Json.Int g.high);
       ]
      @
      match utilisation g with
      | Some (cap, pct) ->
        [ ("capacity", Json.Int cap); ("utilisation_pct", Json.Float pct) ]
      | None -> [])
  in
  let stall_json (resource, labels, kind, count) =
    Json.Obj
      [
        ("name", Json.String resource);
        ("labels", labels_json labels);
        ("kind", Json.String kind);
        ("count", Json.Int count);
      ]
  in
  Json.Obj
    [
      ("watermarks", Json.List (List.map gauge_json gauges));
      ("stalls", Json.List (List.map stall_json stalls));
    ]
