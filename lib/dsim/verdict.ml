type outcome =
  | Pending
  | Recovered of { ttr_ns : float }
  | Caught of { stage : string; reason : string }
  | Leaked of { detail : string }

type 'k entry = {
  id : int;
  kind : 'k;
  name : string;
  target : string;
  at_ns : float;
  mutable outcome : outcome;
  mutable provenance : string option;
  mutable blackbox : string option;
}

type 'k t = {
  mutable entries_rev : 'k entry list;
  by_id : (int, 'k entry) Hashtbl.t;
}

let create () = { entries_rev = []; by_id = Hashtbl.create 64 }

let record t kind ~name ~at_ns ~target =
  let id = Hashtbl.length t.by_id + 1 in
  let e =
    {
      id;
      kind;
      name;
      target;
      at_ns;
      outcome = Pending;
      provenance = None;
      blackbox = None;
    }
  in
  t.entries_rev <- e :: t.entries_rev;
  Hashtbl.replace t.by_id id e;
  id

let find t id = Hashtbl.find_opt t.by_id id

let resolve t id ?provenance ?blackbox outcome =
  match find t id with
  | Some e when e.outcome = Pending ->
    e.outcome <- outcome;
    e.provenance <- provenance;
    e.blackbox <- blackbox
  | Some _ | None -> ()

let entries t = List.rev t.entries_rev

type tally = {
  total : int;
  recovered : int;
  caught : int;
  leaked : int;
  pending : int;
}

let tally ?kind t =
  let counted e = match kind with None -> true | Some k -> e.kind = k in
  List.fold_left
    (fun acc e ->
      if not (counted e) then acc
      else
        let acc = { acc with total = acc.total + 1 } in
        match e.outcome with
        | Pending -> { acc with pending = acc.pending + 1 }
        | Recovered _ -> { acc with recovered = acc.recovered + 1 }
        | Caught _ -> { acc with caught = acc.caught + 1 }
        | Leaked _ -> { acc with leaked = acc.leaked + 1 })
    { total = 0; recovered = 0; caught = 0; leaked = 0; pending = 0 }
    t.entries_rev
