type row = {
  at_ns : float;
  values : (string * Metrics.labels * Metrics.value) list;
}

type t = {
  mutable on : bool;
  ival : Time.t;
  capacity : int;
  mutable rows_rev : row list;
  mutable n : int;
  mutable truncated : bool;
  mutable dropped : int;
}

let create ?(enabled = false) ?(interval = Time.ms 10) ?(capacity = 4096) () =
  { on = enabled; ival = interval; capacity; rows_rev = []; n = 0;
    truncated = false; dropped = 0 }

let default = create ()

let set_enabled t b = t.on <- b

let clear t =
  t.rows_rev <- [];
  t.n <- 0;
  t.truncated <- false;
  t.dropped <- 0

let truncated t = t.truncated
let dropped t = t.dropped

let tick_label =
  Profile.key Profile.default ~component:"dsim" ~cvm:"-" ~stage:"sampler_tick"

let attach t engine metrics =
  if t.on then begin
    let rec tick () =
      if t.on then begin
        if t.n < t.capacity then begin
          t.rows_rev <-
            {
              at_ns = Time.to_float_ns (Engine.now engine);
              values = Metrics.snapshot metrics;
            }
            :: t.rows_rev;
          t.n <- t.n + 1
        end
        else begin
          (* Capacity reached: keep ticking (so the loss is counted and
             reported) but record nothing — silent truncation hid real
             ramp tails before this flag existed. *)
          t.truncated <- true;
          t.dropped <- t.dropped + 1
        end;
        (* Reschedule only while something else is pending: a sampler
           must never be what keeps the simulation running. *)
        if Engine.pending_count engine > 0 then
          Engine.schedule engine ~delay:t.ival ~label:tick_label tick
      end
    in
    Engine.schedule engine ~delay:t.ival ~label:tick_label tick
  end

let rows t = List.rev t.rows_rev

let to_json t =
  let value_json = function
    | Metrics.Counter_value n | Metrics.Gauge_value n -> Json.Int n
    | Metrics.Histogram_value { n; sum } ->
      Json.Obj [ ("count", Json.Int n); ("sum", Json.Float sum) ]
  in
  let row_json r =
    Json.Obj
      [
        ("at_ns", Json.Float r.at_ns);
        ( "metrics",
          Json.List
            (List.map
               (fun (name, labels, v) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ( "labels",
                       Json.Obj
                         (List.map (fun (k, v) -> (k, Json.String v)) labels) );
                     ("value", value_json v);
                   ])
               r.values) );
      ]
  in
  Json.Obj
    [
      ("interval_ns", Json.Float (Time.to_float_ns t.ival));
      ("capacity", Json.Int t.capacity);
      ("truncated", Json.Bool t.truncated);
      ("dropped_rows", Json.Int t.dropped);
      ("rows", Json.List (List.map row_json (rows t)));
    ]
