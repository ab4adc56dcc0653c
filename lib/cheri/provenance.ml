type node = {
  id : int;
  base : int;
  length : int;
  perms : Perms.t;
  otype : int;
  label : string;
  parent : int;
  mutable owner : string;
  mutable holders : string list;
  mutable children : int list;
  mutable revoked : string option;
}

(* The DAG is process-wide, like Dsim.Audit.default: the hooks live in
   layers (Alloc, Intravisor, Mbuf...) that share no handle. *)
let nodes : (int, node) Hashtbl.t = Hashtbl.create 1024
let next_id = ref 1

(* Latest node per capability value. The cursor is excluded from the
   key: moving the cursor does not create a new capability lineage. *)
let by_key : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 1024

let live_by_owner : (string, int ref) Hashtbl.t = Hashtbl.create 16
let edge_counts : (string * string, int ref) Hashtbl.t = Hashtbl.create 16
let crossings : (string * string) list ref = ref []
let untracked = ref 0

let perms_bits (p : Perms.t) =
  (if p.Perms.load then 1 else 0)
  lor (if p.Perms.store then 2 else 0)
  lor (if p.Perms.execute then 4 else 0)
  lor (if p.Perms.load_cap then 8 else 0)
  lor (if p.Perms.store_cap then 16 else 0)
  lor (if p.Perms.seal then 32 else 0)
  lor (if p.Perms.unseal then 64 else 0)
  lor if p.Perms.global then 128 else 0

let key_of cap =
  ( Capability.base cap,
    Capability.length cap,
    perms_bits (Capability.perms cap),
    match Capability.otype cap with
    | None -> -1
    | Some o -> Otype.to_int o )

let audit () = Dsim.Audit.default
let on () = Dsim.Audit.enabled Dsim.Audit.default
let is_tcb name = name = "host" || name = "intravisor"

let clear () =
  Hashtbl.reset nodes;
  Hashtbl.reset by_key;
  Hashtbl.reset live_by_owner;
  Hashtbl.reset edge_counts;
  crossings := [];
  untracked := 0;
  next_id := 1

let live_counter owner =
  match Hashtbl.find_opt live_by_owner owner with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace live_by_owner owner r;
    r

let live_adj owner d =
  let r = live_counter owner in
  r := !r + d;
  Dsim.Audit.set_live_caps (audit ()) ~cvm:owner !r

let bump_edge from_cvm into =
  let k = (from_cvm, into) in
  match Hashtbl.find_opt edge_counts k with
  | Some r -> incr r
  | None -> Hashtbl.replace edge_counts k (ref 1)

let violation kind ~cvm ~address ~detail ~source =
  Dsim.Audit.record_violation (audit ()) ~kind ~cvm ~address ~detail ~source

let add_node ~cap ~owner ~label ~parent =
  let id = !next_id in
  incr next_id;
  let n =
    {
      id;
      base = Capability.base cap;
      length = Capability.length cap;
      perms = Capability.perms cap;
      otype =
        (match Capability.otype cap with
        | None -> -1
        | Some o -> Otype.to_int o);
      label;
      parent;
      owner;
      holders = [ owner ];
      children = [];
      revoked = None;
    }
  in
  Hashtbl.replace nodes id n;
  Hashtbl.replace by_key (key_of cap) id;
  (match Hashtbl.find_opt nodes parent with
  | Some p -> p.children <- id :: p.children
  | None -> ());
  live_adj owner 1;
  n

let find cap =
  match Hashtbl.find_opt by_key (key_of cap) with
  | None -> None
  | Some id -> Hashtbl.find_opt nodes id

(* A recording site that names a parent we never saw (e.g. the audit was
   enabled after boot): register it as an untracked root rather than
   losing the lineage. *)
let find_or_register cap ~owner =
  match find cap with
  | Some n -> n
  | None -> add_node ~cap ~owner ~label:"untracked" ~parent:(-1)

let record_mint cap ~owner ~label =
  if on () then begin
    Dsim.Audit.record_event (audit ()) Mint;
    ignore (add_node ~cap ~owner ~label ~parent:(-1))
  end

let limit_of n = n.base + n.length

let check_monotone ~(parent : node) ~(child : node) ~source =
  let ctx = Fault.current_context () in
  if child.base < parent.base || limit_of child > limit_of parent then
    violation Bounds_widening ~cvm:ctx ~address:child.base
      ~detail:
        (Printf.sprintf "%s [0x%x,+0x%x) escapes parent [0x%x,+0x%x)"
           child.label child.base child.length parent.base parent.length)
      ~source;
  if not (Perms.subset child.perms parent.perms) then
    violation Perm_widening ~cvm:ctx ~address:child.base
      ~detail:
        (Format.asprintf "%s perms %a exceed parent %a" child.label Perms.pp
           child.perms Perms.pp parent.perms)
      ~source;
  match parent.revoked with
  | Some reason ->
    violation Revoked_parent ~cvm:ctx ~address:child.base
      ~detail:
        (Printf.sprintf "%s derived from node %d revoked (%s)" child.label
           parent.id reason)
      ~source
  | None -> ()

let record_child ~event ~source ?owner ?(label = "alloc") ~parent child =
  if on () then begin
    Dsim.Audit.record_event (audit ()) event;
    let p = find_or_register parent ~owner:(Fault.current_context ()) in
    let fresh =
      match find child with
      | Some n when n.revoked = None -> None  (* memoized: same live value *)
      | _ ->
        Some
          (add_node ~cap:child
             ~owner:(Option.value owner ~default:p.owner)
             ~label ~parent:p.id)
    in
    match fresh with
    | Some n when event = Dsim.Audit.Derive ->
      check_monotone ~parent:p ~child:n ~source
    | _ -> ()
  end

let record_derive ?owner ?label ~parent child =
  record_child ~event:Dsim.Audit.Derive ~source:"derive" ?owner ?label ~parent
    child

let record_seal ~parent sealed =
  record_child ~event:Dsim.Audit.Seal ~source:"seal" ~label:"entry" ~parent
    sealed

let record_unseal ~parent unsealed =
  record_child ~event:Dsim.Audit.Unseal ~source:"unseal" ~label:"entry"
    ~parent unsealed

let record_grant cap ~cvm =
  if on () then begin
    Dsim.Audit.record_event (audit ()) Grant;
    let n =
      match find cap with
      | Some n -> n
      | None -> add_node ~cap ~owner:cvm ~label:"grant" ~parent:(-1)
    in
    if not (List.mem cvm n.holders) then n.holders <- cvm :: n.holders;
    if is_tcb n.owner && n.owner <> cvm then begin
      if n.revoked = None then begin
        live_adj n.owner (-1);
        live_adj cvm 1
      end;
      n.owner <- cvm
    end
  end

let crossing_begin ~from_cvm ~into =
  if on () then begin
    crossings := (from_cvm, into) :: !crossings;
    Dsim.Audit.record_event (audit ()) Transfer;
    bump_edge from_cvm into
  end

let crossing_end () =
  if on () then
    match !crossings with [] -> () | _ :: rest -> crossings := rest

let record_transfer ~from_cvm ~into =
  if on () then begin
    Dsim.Audit.record_event (audit ()) Transfer;
    bump_edge from_cvm into
  end

let rec lineage_find f n =
  if f n then Some n
  else
    match Hashtbl.find_opt nodes n.parent with
    | Some p -> lineage_find f p
    | None -> None

let holder_in_lineage n cvm =
  lineage_find (fun m -> List.mem cvm m.holders) n <> None

let record_exercise cap ~address =
  if Dsim.Audit.tick_sample (audit ()) then begin
    Dsim.Audit.record_event (audit ()) Exercise;
    match find cap with
    | None -> incr untracked
    | Some n -> (
      (match lineage_find (fun m -> m.revoked <> None) n with
      | Some r ->
        violation Revoked_parent
          ~cvm:(Fault.current_context ())
          ~address
          ~detail:
            (Printf.sprintf
               "dereference through node %d (%s) revoked (%s)" r.id r.label
               (Option.value r.revoked ~default:""))
          ~source:"exercise"
      | None -> ());
      let ctx = Fault.current_context () in
      if not (is_tcb ctx) then
        if holder_in_lineage n ctx then ()
        else begin
          (* An active trampoline crossing into [ctx] explains the
             possession when the caller side could hold the capability. *)
          let explained =
            List.find_opt
              (fun (from_cvm, into) ->
                into = ctx && (is_tcb from_cvm || holder_in_lineage n from_cvm))
              !crossings
          in
          match explained with
          | Some (from_cvm, _) -> bump_edge from_cvm ctx
          | None ->
            violation Confinement ~cvm:ctx ~address
              ~detail:
                (Printf.sprintf
                   "%s [0x%x,+0x%x) owned by %s exercised by %s with no \
                    grant/crossing"
                   n.label n.base n.length n.owner ctx)
              ~source:"exercise"
        end)
  end

let rec revoke_subtree n reason acc =
  if n.revoked = None then begin
    n.revoked <- Some reason;
    live_adj n.owner (-1);
    incr acc;
    List.iter
      (fun cid ->
        match Hashtbl.find_opt nodes cid with
        | Some c -> revoke_subtree c reason acc
        | None -> ())
      n.children
  end

let record_revoke cap ~reason =
  if on () then
    match find cap with
    | None -> ()
    | Some n ->
      let count = ref 0 in
      revoke_subtree n reason count;
      if !count > 0 then
        Dsim.Audit.record_event (audit ()) ~n:!count Revoke

let revoke_owned ~owner ~reason =
  if not (on ()) then 0
  else begin
    let count = ref 0 in
    Hashtbl.iter
      (fun _ n ->
        if n.owner = owner && n.revoked = None then begin
          n.revoked <- Some reason;
          live_adj n.owner (-1);
          incr count
        end)
      nodes;
    if !count > 0 then Dsim.Audit.record_event (audit ()) ~n:!count Revoke;
    !count
  end

let restore_owned ~owner ~reason =
  if not (on ()) then 0
  else begin
    let count = ref 0 in
    Hashtbl.iter
      (fun _ n ->
        if n.owner = owner && n.revoked = Some reason then begin
          n.revoked <- None;
          live_adj n.owner 1;
          incr count
        end)
      nodes;
    if !count > 0 then Dsim.Audit.record_event (audit ()) ~n:!count Restore;
    !count
  end

let node_count () = Hashtbl.length nodes

let live_count ?owner () =
  let n = ref 0 in
  Hashtbl.iter
    (fun _ node ->
      if node.revoked = None then
        match owner with
        | None -> incr n
        | Some o -> if node.owner = o then incr n)
    nodes;
  !n

let untracked_exercises () = !untracked

let check_all () =
  let out = ref [] in
  Hashtbl.iter
    (fun _ n ->
      if n.revoked = None && n.parent >= 0 then
        match Hashtbl.find_opt nodes n.parent with
        | None -> ()
        | Some p ->
          if n.base < p.base || limit_of n > limit_of p then
            out :=
              ( n.id,
                ( Dsim.Audit.Bounds_widening,
                  Printf.sprintf "node %d (%s) escapes parent %d" n.id n.label
                    p.id ) )
              :: !out;
          if not (Perms.subset n.perms p.perms) then
            out :=
              ( n.id,
                ( Dsim.Audit.Perm_widening,
                  Printf.sprintf "node %d (%s) out-permissions parent %d" n.id
                    n.label p.id ) )
              :: !out;
          if p.revoked <> None then
            out :=
              ( n.id,
                ( Dsim.Audit.Revoked_parent,
                  Printf.sprintf "node %d (%s) live under revoked parent %d"
                    n.id n.label p.id ) )
              :: !out)
    nodes;
  List.map snd (List.sort compare !out)

type surface = {
  s_cvm : string;
  s_caps : int;
  s_reachable_bytes : int;
  s_region_bytes : int;
  s_perms : (string * int) list;
}

(* The compartment's own address-space grant (region/DDC/PCC/entry)
   spans its whole cVM; counting it would make every compartment's
   surface equal the cVM size. The working-set surface is the union of
   object-level capabilities; the ambient span is reported beside it. *)
let ambient_labels =
  [ "root"; "sealer"; "region"; "ddc"; "pcc"; "entry"; "untracked"; "grant" ]

let interval_union ivs =
  let sorted = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc + (b - a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, max cb b)) rest
        else go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None sorted

let surfaces () =
  let buckets : (string, node list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ n ->
      if n.revoked = None then
        List.iter
          (fun h ->
            match Hashtbl.find_opt buckets h with
            | Some l -> l := n :: !l
            | None -> Hashtbl.replace buckets h (ref [ n ]))
          (List.sort_uniq compare n.holders))
    nodes;
  Hashtbl.fold
    (fun cvm held acc ->
      let held = !held in
      let object_ivs, ambient_ivs =
        List.partition_map
          (fun n ->
            let iv = (n.base, limit_of n) in
            if List.mem n.label ambient_labels then Right iv else Left iv)
          held
      in
      let perms_tbl = Hashtbl.create 8 in
      List.iter
        (fun n ->
          let key = Format.asprintf "%a" Perms.pp n.perms in
          match Hashtbl.find_opt perms_tbl key with
          | Some r -> incr r
          | None -> Hashtbl.replace perms_tbl key (ref 1))
        held;
      {
        s_cvm = cvm;
        s_caps = List.length held;
        s_reachable_bytes = interval_union object_ivs;
        s_region_bytes = interval_union ambient_ivs;
        s_perms =
          List.sort compare
            (Hashtbl.fold (fun k r l -> (k, !r) :: l) perms_tbl []);
      }
      :: acc)
    buckets []
  |> List.sort (fun a b -> compare a.s_cvm b.s_cvm)

let edges () =
  Hashtbl.fold (fun (f, t) r acc -> (f, t, !r) :: acc) edge_counts []
  |> List.sort compare
