module J = Dsim.Json

type direction = Lower_better | Informational

type delta = {
  d_key : string;
  d_old : float;
  d_new : float;
  d_pct : float;
  d_dir : direction;
  d_regression : bool;
}

type report = {
  deltas : delta list;
  regressions : delta list;
  text : string;
}

let share_floor_pct = 2.0
let abs_floor_ns = 5e6

(* Wall-clock noise floor: even with median-of-N snapshots, ns/event on
   a contended container host jitters by double digits between runs
   whose event streams are bit-identical. A wall regression below this
   percentage is indistinguishable from scheduler noise, so the
   effective wall threshold is max(--max-regress, this floor). Event
   counts are unaffected — they are deterministic and keep the tight
   user-chosen threshold. *)
let wall_floor_pct = 25.0

let pct_change ~old_v ~new_v =
  if old_v = 0. then if new_v = 0. then 0. else Float.infinity
  else 100. *. (new_v -. old_v) /. Float.abs old_v

let hotspots j =
  match Option.bind (J.member "hotspots" j) J.to_list with
  | None -> None
  | Some rows ->
    Some
      (List.filter_map
         (fun r ->
           match
             ( J.string_member "component" r,
               J.string_member "cvm" r,
               J.string_member "stage" r )
           with
           | Some c, Some v, Some s -> Some (c ^ ":" ^ v ^ ":" ^ s, r)
           | _ -> None)
         rows)

let diff_profiles ~max_regress_pct old_j ~old_rows ~new_rows =
  let old_total =
    Option.value ~default:0. (J.number_member "total_self_wall_ns" old_j)
  in
  let deltas = ref [] in
  let add d = deltas := d :: !deltas in
  List.iter
    (fun (key, old_r) ->
      match List.assoc_opt key new_rows with
      | None ->
        let ev = Option.value ~default:0. (J.number_member "events" old_r) in
        add
          {
            d_key = key ^ "/events";
            d_old = ev;
            d_new = 0.;
            d_pct = (if ev = 0. then 0. else -100.);
            d_dir = Informational;
            d_regression = false;
          }
      | Some new_r ->
        let old_ev = Option.value ~default:0. (J.number_member "events" old_r) in
        let new_ev = Option.value ~default:0. (J.number_member "events" new_r) in
        let ev_pct = pct_change ~old_v:old_ev ~new_v:new_ev in
        (* Event counts are a function of the seed alone: any drift
           past the threshold is a real behaviour change, not noise. *)
        add
          {
            d_key = key ^ "/events";
            d_old = old_ev;
            d_new = new_ev;
            d_pct = ev_pct;
            d_dir = Lower_better;
            d_regression = Float.abs ev_pct > max_regress_pct;
          };
        let old_npe =
          Option.value ~default:0. (J.number_member "ns_per_event" old_r)
        in
        let new_npe =
          Option.value ~default:0. (J.number_member "ns_per_event" new_r)
        in
        let old_self =
          Option.value ~default:0. (J.number_member "self_wall_ns" old_r)
        in
        let new_self =
          Option.value ~default:0. (J.number_member "self_wall_ns" new_r)
        in
        let npe_pct = pct_change ~old_v:old_npe ~new_v:new_npe in
        let share =
          if old_total > 0. then 100. *. old_self /. old_total else 0.
        in
        (* Wall time is machine-dependent: only flag keys that were hot
           in the old snapshot AND grew by a non-trivial absolute
           amount, so cold-key jitter cannot fail CI. *)
        let regress =
          npe_pct > Float.max max_regress_pct wall_floor_pct
          && share >= share_floor_pct
          && new_self -. old_self >= abs_floor_ns
        in
        add
          {
            d_key = key ^ "/ns_per_event";
            d_old = old_npe;
            d_new = new_npe;
            d_pct = npe_pct;
            d_dir = Lower_better;
            d_regression = regress;
          })
    old_rows;
  List.iter
    (fun (key, new_r) ->
      if not (List.mem_assoc key old_rows) then
        let ev = Option.value ~default:0. (J.number_member "events" new_r) in
        add
          {
            d_key = key ^ "/events";
            d_old = 0.;
            d_new = ev;
            d_pct = Float.infinity;
            d_dir = Informational;
            d_regression = false;
          })
    new_rows;
  List.rev !deltas

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let dir_mark = function
  | Lower_better -> "down-good"
  | Informational -> "info"

let fmt_val v =
  if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

(* [sorted] is worst first: full table for small diffs; for big ones
   show regressions plus the largest movements. *)
let render ~max_regress_pct sorted =
  let regressions = List.filter (fun d -> d.d_regression) sorted in
  let buf = Buffer.create 2048 in
  let shown =
    if List.length sorted <= 40 then sorted
    else
      regressions
      @ List.filteri (fun i d -> i < 40 && not d.d_regression) sorted
  in
  Buffer.add_string buf
    (Printf.sprintf "%-58s %12s %12s %9s %-9s %s\n" "key" "old" "new" "pct"
       "dir" "verdict");
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%-58s %12s %12s %8.2f%% %-9s %s\n" d.d_key
           (fmt_val d.d_old) (fmt_val d.d_new)
           (if Float.is_finite d.d_pct then d.d_pct else Float.nan)
           (dir_mark d.d_dir)
           (if d.d_regression then "REGRESSION" else "")))
    shown;
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d keys compared, %d regression(s) beyond %.1f%% threshold\n"
       (List.length sorted) (List.length regressions) max_regress_pct);
  (regressions, Buffer.contents buf)

let compare_json ?(max_regress_pct = 10.) old_j new_j =
  match (hotspots old_j, hotspots new_j) with
  | None, _ | _, None ->
    Error "not a profile snapshot (no \"hotspots\" list)"
  | Some old_rows, Some new_rows -> (
    match diff_profiles ~max_regress_pct old_j ~old_rows ~new_rows with
    | [] -> Error "no comparable hotspot keys between the snapshots"
    | deltas ->
      let sorted =
        List.sort (fun a b -> Float.compare b.d_pct a.d_pct) deltas
      in
      let regressions, text = render ~max_regress_pct sorted in
      Ok { deltas = sorted; regressions; text })

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match J.parse contents with
    | j -> Ok j
    | exception J.Parse_error msg -> Error (path ^ ": " ^ msg))
  | exception Sys_error msg -> Error msg

let compare_files ?max_regress_pct old_path new_path =
  match (read_json old_path, read_json new_path) with
  | Ok o, Ok n -> compare_json ?max_regress_pct o n
  | Error e, _ | _, Error e -> Error e

let exit_code r = if r.regressions = [] then 0 else 1
