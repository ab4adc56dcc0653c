(* Deterministic flight recorder: every Engine dispatch becomes a
   compact record. Process-global (like Metrics/Flowtrace) because the
   dispatch stream it journals is itself a process-global total order,
   even when several engines run in sequence. *)

(* Schema 2 was schema 1 plus one per-dispatch field, "sh"; the loader
   still accepts it and ignores that field. *)
let schema = "netrepro-journal/1"
let schema_v2 = "netrepro-journal/2"

type dispatch = {
  d_seq : int;
  d_at_ns : int;
  d_label : string;
  d_parent : int;
  d_rng : int;
}

let dispatch_json d =
  Json.Obj
    [
      ("seq", Json.Int d.d_seq);
      ("at_ns", Json.Int d.d_at_ns);
      ("label", Json.String d.d_label);
      ("parent", Json.Int d.d_parent);
      ("rng_draws", Json.Int d.d_rng);
    ]

let differing_field a b =
  if a.d_at_ns <> b.d_at_ns then Some "virtual_time"
  else if not (String.equal a.d_label b.d_label) then Some "label"
  else if a.d_parent <> b.d_parent then Some "causal_parent"
  else if a.d_rng <> b.d_rng then Some "rng_draws"
  else None

let dispatch_to_string d =
  Printf.sprintf "seq=%d at=%dns label=%s parent=%d rng=%d" d.d_seq d.d_at_ns
    d.d_label d.d_parent d.d_rng

let dispatch_opt_to_string = function
  | None -> "(none)"
  | Some d -> dispatch_to_string d

(* ------------------------------------------------------------------ *)
(* Loaded journals                                                      *)
(* ------------------------------------------------------------------ *)

type loaded = {
  l_header : Json.t;
  l_labels : string array;
  l_at : int array;
  l_label : int array;
  l_parent : int array;
  l_rng : int array;
  l_chaos : int;
  l_supervisor : int;
  l_faults : int;
}

let header l = l.l_header
let dispatch_count l = Array.length l.l_at
let aux_counts l = (l.l_chaos, l.l_supervisor, l.l_faults)

let dispatch_at l i =
  {
    d_seq = i;
    d_at_ns = l.l_at.(i);
    d_label =
      (let li = l.l_label.(i) in
       if li >= 0 && li < Array.length l.l_labels then l.l_labels.(li)
       else Printf.sprintf "<label#%d>" li);
    d_parent = l.l_parent.(i);
    d_rng = l.l_rng.(i);
  }

let context l ~seq ~k =
  let n = dispatch_count l in
  let lo = max 0 (seq - k) and hi = min (n - 1) (seq + k) in
  let rec build i acc = if i < lo then acc else build (i - 1) (dispatch_at l i :: acc) in
  if n = 0 || lo > hi then [] else build hi []

(* ------------------------------------------------------------------ *)
(* Verification                                                         *)
(* ------------------------------------------------------------------ *)

type mismatch = {
  mm_seq : int;
  mm_field : string;
  mm_expected : dispatch option;
  mm_actual : dispatch option;
}

type verify_outcome = {
  vo_checked : int;
  vo_total : int;
  vo_mismatch : mismatch option;
}

(* ------------------------------------------------------------------ *)
(* Recorder state                                                       *)
(* ------------------------------------------------------------------ *)

type sink = To_file of string | To_buffer of Buffer.t

type record_state = {
  rs_buf : Buffer.t;
  rs_oc : out_channel option;
  (* Profile key id -> compact per-file label id, emitted on first use. *)
  rs_label_ids : (int, int) Hashtbl.t;
  mutable rs_next_label : int;
}

type verify_state = {
  vs : loaded;
  mutable vs_checked : int;
  mutable vs_mismatch : mismatch option;
}

type mode = Off | Record of record_state | Verify of verify_state

let mode = ref Off

(* In-flight dispatch (the engine dispatch loop is not reentrant). *)
let next_seq = ref 0
let cur_seq = ref (-1)
let cur_at = ref 0
let cur_parent = ref (-1)
(* Idle ring slots and [cur_key] between dispatches hold a key from a
   private registry: it is never scheduled under, so nothing is ever
   charged to it and no report shows it. *)
let idle_key =
  Profile.key (Profile.create ()) ~component:"-" ~cvm:"-" ~stage:"-"
let cur_key = ref idle_key
let cur_rng0 = ref 0

(* Crash black box: a bounded ring of the last completed dispatches,
   always on, preallocated — recording a slot is a handful of unboxed
   stores and no I/O happens until a dump is requested. *)
type ring = {
  mutable rg_seq : int array;
  mutable rg_at : int array;
  mutable rg_key : Profile.key array;
  mutable rg_parent : int array;
  mutable rg_rng : int array;
  mutable rg_n : int;  (* total dispatches ever recorded *)
  mutable rg_next : int;  (* = rg_n mod capacity, kept to spare the hot
                             path an integer division per dispatch *)
}

let default_ring_size = 512

let make_ring n =
  {
    rg_seq = Array.make n (-1);
    rg_at = Array.make n 0;
    rg_key = Array.make n idle_key;
    rg_parent = Array.make n (-1);
    rg_rng = Array.make n 0;
    rg_n = 0;
    rg_next = 0;
  }

let ring = ref (make_ring default_ring_size)

let set_ring_size n =
  if n < 1 then invalid_arg "Journal.set_ring_size: size must be >= 1";
  ring := make_ring n

let ring_size () = Array.length !ring.rg_seq

let key_label k =
  let c, v, s = Profile.key_triple k in
  c ^ ":" ^ v ^ ":" ^ s

let blackbox () =
  let r = !ring in
  let cap = Array.length r.rg_seq in
  let count = min r.rg_n cap in
  let rec build i acc =
    if i < 0 then acc
    else
      let slot = (r.rg_n - 1 - i) mod cap in
      build (i - 1)
        ({
           d_seq = r.rg_seq.(slot);
           d_at_ns = r.rg_at.(slot);
           d_label = key_label r.rg_key.(slot);
           d_parent = r.rg_parent.(slot);
           d_rng = r.rg_rng.(slot);
         }
        :: acc)
  in
  List.rev (build (count - 1) [])

let in_flight () =
  if !cur_seq < 0 then None
  else
    Some
      {
        d_seq = !cur_seq;
        d_at_ns = !cur_at;
        d_label = key_label !cur_key;
        d_parent = !cur_parent;
        d_rng = Rng.draws () - !cur_rng0;
      }

let blackbox_json () =
  Json.Obj
    [
      ("schema", Json.String "netrepro-blackbox/1");
      ("ring", Json.List (List.map dispatch_json (blackbox ())));
      ( "in_flight",
        match in_flight () with Some d -> dispatch_json d | None -> Json.Null );
    ]

(* ------------------------------------------------------------------ *)
(* Recording                                                            *)
(* ------------------------------------------------------------------ *)

let flush_threshold = 1 lsl 20

let emit rs line =
  Buffer.add_string rs.rs_buf (Json.to_string line);
  Buffer.add_char rs.rs_buf '\n';
  match rs.rs_oc with
  | Some oc when Buffer.length rs.rs_buf >= flush_threshold ->
    output_string oc (Buffer.contents rs.rs_buf);
    Buffer.clear rs.rs_buf
  | _ -> ()

let stop () =
  (match !mode with
  | Record rs -> (
    match rs.rs_oc with
    | Some oc ->
      output_string oc (Buffer.contents rs.rs_buf);
      Buffer.clear rs.rs_buf;
      close_out oc
    | None -> ())
  | Verify _ | Off -> ());
  mode := Off

let reset_counters () =
  next_seq := 0;
  cur_seq := -1

let record_to ?(header = []) sink =
  stop ();
  reset_counters ();
  let buf, oc =
    match sink with
    | To_buffer b ->
      Buffer.clear b;
      (b, None)
    | To_file path -> (Buffer.create 65536, Some (open_out path))
  in
  let rs =
    { rs_buf = buf; rs_oc = oc; rs_label_ids = Hashtbl.create 64;
      rs_next_label = 0 }
  in
  emit rs (Json.Obj (("schema", Json.String schema) :: header));
  mode := Record rs

let label_id rs k =
  let kid = Profile.key_id k in
  match Hashtbl.find_opt rs.rs_label_ids kid with
  | Some id -> id
  | None ->
    let id = rs.rs_next_label in
    rs.rs_next_label <- id + 1;
    Hashtbl.replace rs.rs_label_ids kid id;
    let c, v, s = Profile.key_triple k in
    emit rs
      (Json.Obj
         [
           ("t", Json.String "l");
           ("id", Json.Int id);
           ("c", Json.String c);
           ("v", Json.String v);
           ("s", Json.String s);
         ]);
    id

(* ------------------------------------------------------------------ *)
(* Hot path (engine dispatch hooks)                                     *)
(* ------------------------------------------------------------------ *)

let parent_seq () = !cur_seq

let begin_dispatch ~at ~parent key =
  cur_seq := !next_seq;
  next_seq := !next_seq + 1;
  cur_at := Time.to_ns at;
  cur_parent := parent;
  cur_key := key;
  cur_rng0 := Rng.draws ()

let check_dispatch vs ~seq ~at ~parent ~rng key =
  if vs.vs_mismatch = None then begin
    let n = dispatch_count vs.vs in
    let actual =
      { d_seq = seq; d_at_ns = at; d_label = key_label key;
        d_parent = parent; d_rng = rng }
    in
    if seq >= n then
      vs.vs_mismatch <-
        Some
          {
            mm_seq = seq;
            mm_field = "extra_dispatch";
            mm_expected = None;
            mm_actual = Some actual;
          }
    else begin
      let exp = dispatch_at vs.vs seq in
      match differing_field exp actual with
      | None -> vs.vs_checked <- vs.vs_checked + 1
      | Some f ->
        vs.vs_mismatch <-
          Some
            {
              mm_seq = seq;
              mm_field = f;
              mm_expected = Some exp;
              mm_actual = Some actual;
            }
    end
  end

let end_dispatch () =
  let seq = !cur_seq in
  if seq >= 0 then begin
    let key = !cur_key in
    let at = !cur_at and parent = !cur_parent in
    let rng = Rng.draws () - !cur_rng0 in
    Profile.add_rng_draws key rng;
    (* Black-box ring slot: unboxed stores only, no division. *)
    let r = !ring in
    let slot = r.rg_next in
    r.rg_seq.(slot) <- seq;
    r.rg_at.(slot) <- at;
    r.rg_key.(slot) <- key;
    r.rg_parent.(slot) <- parent;
    r.rg_rng.(slot) <- rng;
    r.rg_n <- r.rg_n + 1;
    let nxt = slot + 1 in
    r.rg_next <- (if nxt = Array.length r.rg_seq then 0 else nxt);
    (match !mode with
    | Off -> ()
    | Record rs ->
      let lid = label_id rs key in
      emit rs
        (Json.Obj
           [
             ("t", Json.String "d");
             ("q", Json.Int seq);
             ("at", Json.Int at);
             ("l", Json.Int lid);
             ("p", Json.Int parent);
             ("r", Json.Int rng);
           ])
    | Verify vs -> check_dispatch vs ~seq ~at ~parent ~rng key);
    cur_seq := -1
  end

(* ------------------------------------------------------------------ *)
(* Aux records (chaos / supervisor / capability faults)                 *)
(* ------------------------------------------------------------------ *)

let note_chaos ~kind ~id ~at_ns ~target =
  match !mode with
  | Record rs ->
    emit rs
      (Json.Obj
         [
           ("t", Json.String "c");
           ("q", Json.Int (parent_seq ()));
           ("kind", Json.String kind);
           ("id", Json.Int id);
           ("at", Json.Float at_ns);
           ("target", Json.String target);
         ])
  | Off | Verify _ -> ()

let note_supervisor ~cvm ~old_state ~new_state =
  match !mode with
  | Record rs ->
    emit rs
      (Json.Obj
         [
           ("t", Json.String "s");
           ("q", Json.Int (parent_seq ()));
           ("cvm", Json.String cvm);
           ("old", Json.String old_state);
           ("new", Json.String new_state);
         ])
  | Off | Verify _ -> ()

let note_fault ~cvm ~fault =
  match !mode with
  | Record rs ->
    emit rs
      (Json.Obj
         [
           ("t", Json.String "f");
           ("q", Json.Int (parent_seq ()));
           ("cvm", Json.String cvm);
           ("fault", Json.String fault);
         ])
  | Off | Verify _ -> ()

(* ------------------------------------------------------------------ *)
(* Verify driver                                                        *)
(* ------------------------------------------------------------------ *)

let verify_against l =
  stop ();
  reset_counters ();
  mode := Verify { vs = l; vs_checked = 0; vs_mismatch = None }

let verify_finish () =
  match !mode with
  | Verify vs ->
    mode := Off;
    let total = dispatch_count vs.vs in
    let mismatch =
      match vs.vs_mismatch with
      | Some _ as m -> m
      | None when vs.vs_checked < total ->
        Some
          {
            mm_seq = vs.vs_checked;
            mm_field = "missing_dispatch";
            mm_expected = Some (dispatch_at vs.vs vs.vs_checked);
            mm_actual = None;
          }
      | None -> None
    in
    { vo_checked = vs.vs_checked; vo_total = total; vo_mismatch = mismatch }
  | Off | Record _ ->
    invalid_arg "Journal.verify_finish: no verification in progress"

let reset () =
  stop ();
  reset_counters ();
  ring := make_ring (ring_size ())

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let load_lines lines =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match lines with
  | [] -> Error "empty journal"
  | header_line :: rest -> (
    match Json.parse_opt header_line with
    | None -> Error "journal header is not valid JSON"
    | Some hdr -> (
      match Json.string_member "schema" hdr with
      | Some s when String.equal s schema || String.equal s schema_v2 -> (
        let labels = Hashtbl.create 64 in
        let max_label = ref (-1) in
        let ats = ref [] and lbls = ref [] and parents = ref [] in
        let rngs = ref [] in
        let n = ref 0 in
        let chaos = ref 0 and sup = ref 0 and faults = ref 0 in
        let exception Bad of string in
        try
          List.iteri
            (fun lineno line ->
              if String.length line > 0 then
                match Json.parse_opt line with
                | None ->
                  raise (Bad (Printf.sprintf "line %d: invalid JSON" (lineno + 2)))
                | Some j -> (
                  match Json.string_member "t" j with
                  | Some "l" -> (
                    match (Json.int_member "id" j, Json.string_member "c" j,
                           Json.string_member "v" j, Json.string_member "s" j)
                    with
                    | Some id, Some c, Some v, Some s ->
                      Hashtbl.replace labels id (c ^ ":" ^ v ^ ":" ^ s);
                      if id > !max_label then max_label := id
                    | _ ->
                      raise
                        (Bad (Printf.sprintf "line %d: malformed label record"
                                (lineno + 2))))
                  | Some "d" -> (
                    match (Json.int_member "q" j, Json.int_member "at" j,
                           Json.int_member "l" j, Json.int_member "p" j,
                           Json.int_member "r" j)
                    with
                    | Some q, Some at, Some l, Some p, Some r ->
                      if q <> !n then
                        raise
                          (Bad
                             (Printf.sprintf
                                "line %d: dispatch seq %d out of order \
                                 (expected %d)"
                                (lineno + 2) q !n));
                      ats := at :: !ats;
                      lbls := l :: !lbls;
                      parents := p :: !parents;
                      rngs := r :: !rngs;
                      incr n
                    | _ ->
                      raise
                        (Bad
                           (Printf.sprintf "line %d: malformed dispatch record"
                              (lineno + 2))))
                  | Some "c" -> incr chaos
                  | Some "s" -> incr sup
                  | Some "f" -> incr faults
                  | Some other ->
                    raise
                      (Bad
                         (Printf.sprintf "line %d: unknown record type %S"
                            (lineno + 2) other))
                  | None ->
                    raise
                      (Bad (Printf.sprintf "line %d: record without \"t\" tag"
                              (lineno + 2)))))
            rest;
          let label_arr =
            Array.init (!max_label + 1) (fun i ->
                Option.value ~default:(Printf.sprintf "<label#%d>" i)
                  (Hashtbl.find_opt labels i))
          in
          let arr l = Array.of_list (List.rev l) in
          Ok
            {
              l_header = hdr;
              l_labels = label_arr;
              l_at = arr !ats;
              l_label = arr !lbls;
              l_parent = arr !parents;
              l_rng = arr !rngs;
              l_chaos = !chaos;
              l_supervisor = !sup;
              l_faults = !faults;
            }
        with Bad m -> Error m)
      | Some s -> err "unsupported journal schema %S (expected %S)" s schema
      | None -> Error "journal header missing \"schema\""))

let load_string s = load_lines (String.split_on_char '\n' s)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match load_string contents with
    | Ok l -> Ok l
    | Error m -> Error (path ^ ": " ^ m))
  | exception Sys_error m -> Error m
