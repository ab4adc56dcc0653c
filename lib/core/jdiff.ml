(* First-divergence diffing between two recorded journals: find the
   first diverging dispatch, walk the causal parent edges back to the
   last common ancestor, and summarize per-component drift after the
   split. *)

module Json = Dsim.Json
module Journal = Dsim.Journal

type divergence = {
  dv_seq : int;
  dv_field : string;
  dv_a : Journal.dispatch option;
  dv_b : Journal.dispatch option;
  dv_ancestor : Journal.dispatch option;
}

type report = {
  path_a : string;
  path_b : string;
  count_a : int;
  count_b : int;
  divergence : divergence option;
  text : string;
}

let default_context = 5

let first_divergence a b =
  let na = Journal.dispatch_count a and nb = Journal.dispatch_count b in
  let common = min na nb in
  let rec scan i =
    if i >= common then
      if na = nb then None
      else
        Some
          {
            dv_seq = common;
            dv_field =
              (if na > nb then "extra_dispatch_in_a"
               else "extra_dispatch_in_b");
            dv_a = (if na > nb then Some (Journal.dispatch_at a common) else None);
            dv_b = (if nb > na then Some (Journal.dispatch_at b common) else None);
            dv_ancestor = None;
          }
    else
      let da = Journal.dispatch_at a i and db = Journal.dispatch_at b i in
      match Journal.differing_field da db with
      | None -> scan (i + 1)
      | Some f ->
        Some
          {
            dv_seq = i;
            dv_field = f;
            dv_a = Some da;
            dv_b = Some db;
            dv_ancestor = None;
          }
  in
  scan 0

(* Causal chain: parent edges from [seq] back to a root (-1). Every
   seq strictly below the divergence point is common to both journals
   (prefix property), so chains through the common prefix can be read
   off either journal. *)
let chain l ~seq =
  let rec walk s acc =
    if s < 0 || s >= Journal.dispatch_count l then List.rev acc
    else
      let d = Journal.dispatch_at l s in
      (* Parents always precede children; a malformed journal must not
         loop the walk. *)
      let next = if d.Journal.d_parent >= s then -1 else d.Journal.d_parent in
      walk next (d :: acc)
  in
  walk seq []
(* head = [seq] itself, tail walks toward the root *)

(* Last common ancestor of the two diverging dispatches: both parent
   chains live in the common prefix once they step below [dv_seq], so
   the first seq on A's chain that also appears on B's chain is the
   nearest common causal ancestor. *)
let ancestor a b ~div_seq ~pa ~pb =
  ignore b;
  let in_b = Hashtbl.create 32 in
  List.iter
    (fun (d : Journal.dispatch) ->
      if d.Journal.d_seq < div_seq then
        Hashtbl.replace in_b d.Journal.d_seq ())
    (chain a ~seq:pb);
  (* pb < div_seq, so B's parent chain is readable from journal A. *)
  let rec find = function
    | [] -> None
    | (d : Journal.dispatch) :: rest ->
      if d.Journal.d_seq < div_seq && Hashtbl.mem in_b d.Journal.d_seq then
        Some d
      else find rest
  in
  find (chain a ~seq:pa)

let component_of label =
  match String.index_opt label ':' with
  | Some i -> String.sub label 0 i
  | None -> label

(* Per-component dispatch counts from [lo] to the end of the journal:
   where the two runs spent their post-divergence events. *)
let drift l ~lo =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  for i = lo to Journal.dispatch_count l - 1 do
    let c = component_of (Journal.dispatch_at l i).Journal.d_label in
    match Hashtbl.find_opt tbl c with
    | Some n -> Hashtbl.replace tbl c (n + 1)
    | None ->
      Hashtbl.replace tbl c 1;
      order := c :: !order
  done;
  (tbl, List.rev !order)

let pp_chain l ~seq buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (d : Journal.dispatch) -> pr "    %s\n" (Journal.dispatch_to_string d))
    (chain l ~seq)

let render ~path_a ~path_b ~context a b = function
  | None ->
    Printf.sprintf
      "jdiff: %s vs %s\ndispatches: A=%d B=%d\nOK — journals are equivalent\n"
      path_a path_b
      (Journal.dispatch_count a)
      (Journal.dispatch_count b)
  | Some dv ->
    let buf = Buffer.create 2048 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pr "jdiff: %s vs %s\n" path_a path_b;
    pr "dispatches: A=%d B=%d\n"
      (Journal.dispatch_count a)
      (Journal.dispatch_count b);
    pr "FIRST DIVERGENCE at seq %d (field %s)\n" dv.dv_seq dv.dv_field;
    pr "  A: %s\n" (Journal.dispatch_opt_to_string dv.dv_a);
    pr "  B: %s\n" (Journal.dispatch_opt_to_string dv.dv_b);
    (match dv.dv_ancestor with
    | Some anc ->
      pr "last common causal ancestor:\n  %s\n"
        (Journal.dispatch_to_string anc);
      (match dv.dv_a with
      | Some da ->
        pr "  causal chain A (diverging dispatch -> root):\n";
        pp_chain a ~seq:da.Journal.d_seq buf
      | None -> ());
      (match dv.dv_b with
      | Some db ->
        pr "  causal chain B (diverging dispatch -> root):\n";
        pp_chain b ~seq:db.Journal.d_seq buf
      | None -> ())
    | None ->
      pr "last common causal ancestor: (none — root-scheduled or length \
          mismatch)\n");
    pr "common-prefix context (±%d events around seq %d, journal A):\n"
      context dv.dv_seq;
    List.iter
      (fun (d : Journal.dispatch) ->
        pr "  %c %s\n"
          (if d.Journal.d_seq = dv.dv_seq then '>' else ' ')
          (Journal.dispatch_to_string d))
      (Journal.context a ~seq:dv.dv_seq ~k:context);
    let ta, order_a = drift a ~lo:dv.dv_seq in
    let tb, order_b = drift b ~lo:dv.dv_seq in
    let components =
      order_a @ List.filter (fun c -> not (List.mem c order_a)) order_b
    in
    pr "per-component drift (dispatches from seq %d on):\n" dv.dv_seq;
    pr "  %-20s %8s %8s %8s\n" "component" "A" "B" "delta";
    List.iter
      (fun c ->
        let na = Option.value ~default:0 (Hashtbl.find_opt ta c) in
        let nb = Option.value ~default:0 (Hashtbl.find_opt tb c) in
        pr "  %-20s %8d %8d %+8d\n" c na nb (nb - na))
      components;
    Buffer.contents buf

let compare_loaded ?(context = default_context) ~path_a ~path_b a b =
  let divergence =
    match first_divergence a b with
    | None -> None
    | Some dv ->
      let anc =
        match (dv.dv_a, dv.dv_b) with
        | Some da, Some db ->
          ancestor a b ~div_seq:dv.dv_seq ~pa:da.Journal.d_parent
            ~pb:db.Journal.d_parent
        | _ ->
          (* Length mismatch: the longer journal's extra dispatch still
             has a parent in the common prefix — report it directly. *)
          let p =
            match (dv.dv_a, dv.dv_b) with
            | Some d, _ | _, Some d -> d.Journal.d_parent
            | None, None -> -1
          in
          if p >= 0 && p < min (Journal.dispatch_count a)
                             (Journal.dispatch_count b)
          then Some (Journal.dispatch_at a p)
          else None
      in
      Some { dv with dv_ancestor = anc }
  in
  {
    path_a;
    path_b;
    count_a = Journal.dispatch_count a;
    count_b = Journal.dispatch_count b;
    divergence;
    text = render ~path_a ~path_b ~context a b divergence;
  }

let compare_files ?context path_a path_b =
  match Journal.load path_a with
  | Error m -> Error m
  | Ok a -> (
    match Journal.load path_b with
    | Error m -> Error m
    | Ok b -> Ok (compare_loaded ?context ~path_a ~path_b a b))

let exit_code r = match r.divergence with None -> 0 | Some _ -> 1
