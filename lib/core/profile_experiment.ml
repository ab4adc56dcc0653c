type report = {
  experiment_text : string;
  pass : bool;
  hotspot_text : string;
  watermark_text : string;
  folded : string;
  json : Dsim.Json.t;
}

let run_once (e : Experiment.t) options =
  let p = Dsim.Profile.default and m = Dsim.Metrics.default in
  Dsim.Profile.reset p;
  Dsim.Metrics.reset m;
  Dsim.Profile.set_enabled p true;
  Dsim.Metrics.set_enabled m true;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Dsim.Profile.set_enabled p false;
        Dsim.Metrics.set_enabled m false)
      (fun () -> e.Experiment.run options)
  in
  let profile_json =
    match Dsim.Profile.to_json p with
    | Dsim.Json.Obj fields ->
      Dsim.Json.Obj
        (("experiment", Dsim.Json.String e.Experiment.id)
        :: ("schema", Dsim.Json.String "netrepro-profile/1")
        :: (fields @ [ ("watermarks", Dsim.Metrics.watermark_json m) ]))
    | other -> other
  in
  {
    experiment_text = outcome.Experiment.text;
    pass = outcome.Experiment.pass;
    hotspot_text = Dsim.Profile.render p;
    watermark_text = Dsim.Metrics.watermark_table m;
    folded = Dsim.Profile.folded p;
    json = profile_json;
  }

(* ------------------------------------------------------------------ *)
(* Median-of-N wall-time merge                                         *)
(* ------------------------------------------------------------------ *)

(* Wall time is the one non-deterministic output of a profiled run:
   under container CPU contention, per-stage ns/event drifts by double
   digits while event counts stay bit-identical. Taking the per-hotspot
   median across N runs removes the outlier run that a loaded host
   produces, so [netrepro perfdiff] compares signal, not scheduler
   luck. Everything deterministic (events, watermarks, the experiment's
   own text) is asserted identical across runs and taken from the
   representative run. *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.

let hotspot_key row =
  let s name = Option.value ~default:"" (Dsim.Json.string_member name row) in
  s "component" ^ ":" ^ s "cvm" ^ ":" ^ s "stage"

let rows_of json =
  match Option.bind (Dsim.Json.member "hotspots" json) Dsim.Json.to_list with
  | Some rows -> rows
  | None -> []

(* The wall fields of one hotspot row, replaced by the medians over the
   same (component, cvm, stage) key in every run. *)
let merge_row all_jsons row =
  let key = hotspot_key row in
  let field name =
    median
      (List.filter_map
         (fun j ->
           List.find_map
             (fun r ->
               if hotspot_key r = key then Dsim.Json.number_member name r
               else None)
             (rows_of j))
         all_jsons)
  in
  match row with
  | Dsim.Json.Obj fields ->
    Dsim.Json.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "self_wall_ns" | "ns_per_event" ->
             (k, Dsim.Json.Float (field k))
           | _ -> (k, v))
         fields)
  | other -> other

let merge_jsons rep_json all_jsons =
  match rep_json with
  | Dsim.Json.Obj fields ->
    Dsim.Json.Obj
      (List.map
         (fun (k, v) ->
           match k with
           | "total_self_wall_ns" ->
             ( k,
               Dsim.Json.Float
                 (median
                    (List.filter_map
                       (fun j -> Dsim.Json.number_member k j)
                       all_jsons)) )
           | "hotspots" -> (
             match v with
             | Dsim.Json.List rows ->
               (k, Dsim.Json.List (List.map (merge_row all_jsons) rows))
             | other -> (k, other))
           | _ -> (k, v))
         fields)
  | other -> other

let run ?(runs = 1) e options =
  if runs < 1 then invalid_arg "Profile_experiment.run: runs must be >= 1";
  let reports = List.init runs (fun _ -> run_once e options) in
  match reports with
  | [ r ] -> r
  | reports ->
    (* The experiment itself is deterministic: a text mismatch between
       runs means profiling perturbed the run, which the whole design
       forbids — fail loudly rather than average garbage. *)
    let rep = List.hd reports in
    List.iter
      (fun r ->
        if r.experiment_text <> rep.experiment_text then
          failwith
            "Profile_experiment.run: experiment output diverged between \
             profiled runs")
      reports;
    let totals =
      List.map
        (fun r ->
          Option.value ~default:0.
            (Dsim.Json.number_member "total_self_wall_ns" r.json))
        reports
    in
    let med_total = median totals in
    (* Representative: the run whose total wall time is closest to the
       median — its renderings stay self-consistent while the snapshot
       fields get per-key medians. *)
    let rep =
      List.fold_left
        (fun best r ->
          let dist x =
            Float.abs
              (Option.value ~default:0.
                 (Dsim.Json.number_member "total_self_wall_ns" x.json)
              -. med_total)
          in
          if dist r < dist best then r else best)
        rep reports
    in
    let all_jsons = List.map (fun r -> r.json) reports in
    { rep with json = merge_jsons rep.json all_jsons }
