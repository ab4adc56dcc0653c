let mbit v = Printf.sprintf "%.0f" v
let pct v = Printf.sprintf "%.1f%%" v

let table ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let render_row row =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row)
  in
  let sep =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)

let metric_value = function
  | Dsim.Metrics.Counter_value n -> string_of_int n
  | Dsim.Metrics.Gauge_value n -> string_of_int n
  | Dsim.Metrics.Histogram_value { n; sum } ->
    Printf.sprintf "n=%d sum=%.0f" n sum

(* Per-compartment digest: every cvm-labelled series from the registry,
   grouped by compartment. Zero-valued counters are elided (the
   pre-registered fault kinds would otherwise drown the table) except
   trampoline_crossings, which is the headline per-cVM number. *)
let metrics_digest () =
  let interesting (name, _labels, v) =
    String.equal name "trampoline_crossings_total"
    ||
    match v with
    | Dsim.Metrics.Counter_value 0 -> false
    | Dsim.Metrics.Gauge_value 0 -> false
    | Dsim.Metrics.Histogram_value { n = 0; _ } -> false
    | _ -> true
  in
  let cvm_series =
    List.filter_map
      (fun ((name, labels, v) as s) ->
        match List.assoc_opt "cvm" labels with
        | Some cvm when interesting s ->
          let rest = List.filter (fun (k, _) -> k <> "cvm") labels in
          let qualifier =
            match rest with
            | [] -> ""
            | _ ->
              "{"
              ^ String.concat ","
                  (List.map (fun (k, value) -> k ^ "=" ^ value) rest)
              ^ "}"
          in
          Some (cvm, name ^ qualifier, metric_value v)
        | _ -> None)
      (Dsim.Metrics.snapshot Dsim.Metrics.default)
  in
  match cvm_series with
  | [] -> "(no per-compartment metrics recorded)"
  | _ ->
    table
      ~header:[ "Compartment"; "Metric"; "Value" ]
      ~rows:(List.map (fun (cvm, m, v) -> [ cvm; m; v ]) cvm_series)

let ascii_boxplot ~labels_and_boxes ?(width = 64) ?(log_scale = false) () =
  let open Dsim.Stats in
  match labels_and_boxes with
  | [] -> ""
  | _ ->
    let lo =
      List.fold_left
        (fun acc (_, b) -> Float.min acc b.whisker_low)
        Float.infinity labels_and_boxes
    in
    let hi =
      List.fold_left
        (fun acc (_, b) -> Float.max acc b.whisker_high)
        0. labels_and_boxes
    in
    let lo = if log_scale then Float.max lo 1. else lo in
    let tr v = if log_scale then log (Float.max v 1.) else v in
    let span = Float.max (tr hi -. tr lo) 1e-9 in
    let pos v =
      let p =
        int_of_float (Float.round ((tr v -. tr lo) /. span *. float_of_int (width - 1)))
      in
      max 0 (min (width - 1) p)
    in
    let label_w =
      List.fold_left (fun m (l, _) -> max m (String.length l)) 0 labels_and_boxes
    in
    let line (label, b) =
      let row = Bytes.make width ' ' in
      let put i c = Bytes.set row i c in
      for i = pos b.whisker_low to pos b.whisker_high do
        put i '-'
      done;
      for i = pos b.q1 to pos b.q3 do
        put i '='
      done;
      put (pos b.whisker_low) '|';
      put (pos b.whisker_high) '|';
      put (pos b.median) '#';
      Printf.sprintf "%-*s [%s]  med=%.0fns mean=%.0fns sd=%.0fns" label_w label
        (Bytes.to_string row) b.median b.mean b.stddev
    in
    let axis =
      Printf.sprintf "%-*s  %s%.0fns .. %.0fns%s" label_w ""
        (if log_scale then "(log scale) " else "")
        lo hi ""
    in
    String.concat "\n" (List.map line labels_and_boxes @ [ axis ])
