(* Replay verification: re-execute a recorded run from its journal
   header and assert every dispatch against the recording. *)

module Json = Dsim.Json
module Journal = Dsim.Journal

type outcome = {
  path : string;
  kind : string;
  checked : int;
  total : int;
  mismatch : Journal.mismatch option;
  pass : bool;
  text : string;
}

let default_context = 5

let header entries (o : Experiment.options) =
  [
    ("kind", Json.String "run");
    ( "experiments",
      Json.List
        (List.map (fun (e : Experiment.t) -> Json.String e.Experiment.id) entries)
    );
    ("quick", Json.Bool o.Experiment.quick);
    ( "iterations",
      match o.Experiment.iterations with Some n -> Json.Int n | None -> Json.Null
    );
    ("seed", Json.Int (Int64.to_int o.Experiment.seed));
  ]

(* The options a header recorded; a field it lacks takes the CLI's
   default. *)
let options_of_header hdr =
  let d = Experiment.defaults in
  {
    d with
    Experiment.quick =
      Option.value ~default:d.Experiment.quick (Json.bool_member "quick" hdr);
    iterations = Json.int_member "iterations" hdr;
    seed =
      Option.fold ~none:d.Experiment.seed ~some:Int64.of_int
        (Json.int_member "seed" hdr);
  }

(* The kind and experiment ids a header names. Chaos journals
   recorded before the registry carry [{"kind": "chaos", "seed",
   "quick"}] and no id list. *)
let ids_of_header hdr =
  match Json.string_member "kind" hdr with
  | Some "run" ->
    let ids =
      match Option.bind (Json.member "experiments" hdr) Json.to_list with
      | Some l -> List.filter_map (function Json.String s -> Some s | _ -> None) l
      | None -> []
    in
    Ok ("run", ids)
  | Some "chaos" -> Ok ("chaos", [ "chaos" ])
  | Some k -> Error (Printf.sprintf "journal kind %S is not replayable" k)
  | None -> Error "journal header has no \"kind\" field"

(* Resolve the re-execution closure from the header, without running
   anything yet: unknown experiments or a foreign kind fail before the
   verifier is armed. *)
let driver_of_header hdr =
  match ids_of_header hdr with
  | Error _ as e -> e
  | Ok (_, []) -> Error "journal header lists no experiments"
  | Ok (kind, ids) -> (
    match Experiment.select Experiment.all ids with
    | Ok entries ->
      let options = options_of_header hdr in
      Ok
        ( kind,
          fun () ->
            List.iter
              (fun (e : Experiment.t) -> ignore (e.Experiment.run options))
              entries )
    | Error missing ->
      Error
        ("journal references unknown experiment(s): "
        ^ String.concat ", " missing))

let render ~path ~kind ~context l (vo : Journal.verify_outcome) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "replay: %s (kind %s, %d recorded dispatches)\n" path kind
    vo.Journal.vo_total;
  (match vo.Journal.vo_mismatch with
  | None ->
    pr "verified %d/%d dispatches\nOK — run matches journal\n"
      vo.Journal.vo_checked vo.Journal.vo_total
  | Some mm ->
    pr "verified %d/%d dispatches\n" vo.Journal.vo_checked vo.Journal.vo_total;
    pr "MISMATCH at seq %d (field %s)\n" mm.Journal.mm_seq mm.Journal.mm_field;
    pr "  journal: %s\n"
      (Journal.dispatch_opt_to_string mm.Journal.mm_expected);
    pr "  live:    %s\n" (Journal.dispatch_opt_to_string mm.Journal.mm_actual);
    pr "journal context (±%d events):\n" context;
    List.iter
      (fun (d : Journal.dispatch) ->
        pr "  %c %s\n"
          (if d.Journal.d_seq = mm.Journal.mm_seq then '>' else ' ')
          (Journal.dispatch_to_string d))
      (Journal.context l ~seq:mm.Journal.mm_seq ~k:context));
  Buffer.contents buf

let run ?(context = default_context) path =
  match Journal.load path with
  | Error m -> Error m
  | Ok l -> (
    match driver_of_header (Journal.header l) with
    | Error m -> Error (path ^ ": " ^ m)
    | Ok (kind, exec) ->
      Journal.verify_against l;
      (match exec () with
      | () -> ()
      | exception e ->
        Journal.stop ();
        raise e);
      let vo = Journal.verify_finish () in
      let pass = vo.Journal.vo_mismatch = None in
      Ok
        {
          path;
          kind;
          checked = vo.Journal.vo_checked;
          total = vo.Journal.vo_total;
          mismatch = vo.Journal.vo_mismatch;
          pass;
          text = render ~path ~kind ~context l vo;
        })

let exit_code o = if o.pass then 0 else 1
