type handle = {
  at : Time.t;
  seq : int;
  fn : unit -> unit;
  label : Profile.key;
  (* Journal seq of the dispatch whose handler scheduled this event
     (-1 outside dispatch): the causal parent edge jdiff walks back to
     a common ancestor. *)
  sched_parent : int;
  owner : t;
  mutable cancelled : bool;
  mutable fired : bool;
}

and t = {
  mutable clock : Time.t;
  heap : handle Heap.t;
  mutable next_seq : int; (* FIFO tie-break among equal deadlines *)
  mutable live : int;
  mutable fired_count : int;
  wm_heap : Watermark.cell;
}

let cmp_event a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

(* All engines share one heap-depth cell: watermarks are only armed
   around a profiled run, which drives a single engine. The growth
   alarm fires at successive doublings from 2048 pending entries. *)
let wm_heap_cell () =
  Watermark.cell Watermark.default ~growth_alarm:2048 "event_heap"

let create () =
  {
    clock = Time.zero;
    heap = Heap.create ~cmp:cmp_event;
    next_seq = 0;
    live = 0;
    fired_count = 0;
    wm_heap = wm_heap_cell ();
  }

let now t = t.clock

let schedule_at_l t ~at ~label fn =
  let at = Time.max at t.clock in
  let h =
    { at; seq = t.next_seq; fn; label; sched_parent = Journal.parent_seq ();
      owner = t; cancelled = false; fired = false }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.heap h;
  if Watermark.hot () then Watermark.observe t.wm_heap (Heap.size t.heap);
  h

let schedule_l t ~delay ~label fn =
  schedule_at_l t ~at:(Time.add t.clock delay) ~label fn

let schedule_at t ~at fn = schedule_at_l t ~at ~label:Profile.unattributed fn
let schedule t ~delay fn = schedule_l t ~delay ~label:Profile.unattributed fn

(* Rebuild the heap without cancelled entries. Re-pushing preserves the
   (time, seq) order, so compaction cannot perturb event ordering. *)
let compact t =
  let keep = ref [] in
  let rec drain () =
    match Heap.pop t.heap with
    | None -> ()
    | Some h ->
      if not h.cancelled then keep := h :: !keep;
      drain ()
  in
  drain ();
  List.iter (Heap.push t.heap) !keep

(* Compact once cancelled handles outnumber live ones. *)
let compaction_floor = 64

let cancel h =
  if (not h.cancelled) && not h.fired then begin
    h.cancelled <- true;
    let t = h.owner in
    t.live <- t.live - 1;
    if Heap.size t.heap > compaction_floor && 2 * t.live < Heap.size t.heap
    then compact t
  end

let is_pending h = (not h.cancelled) && not h.fired
let pending_count t = t.live
let heap_size t = Heap.size t.heap
let events_fired t = t.fired_count

(* Drop cancelled heads; [true] when a live event is pending. *)
let rec has_next t =
  if Heap.is_empty t.heap then false
  else if (Heap.peek_exn t.heap).cancelled then begin
    ignore (Heap.pop_exn t.heap);
    has_next t
  end
  else true

(* The dispatch loop uses the [_exn] heap accessors: no [Some] cell is
   allocated per fired event, which matters at millions of events per
   simulated second. [has_next] has already discarded cancelled heads. *)
let dispatch t =
  let h = Heap.pop_exn t.heap in
  t.live <- t.live - 1;
  t.clock <- h.at;
  h.fired <- true;
  t.fired_count <- t.fired_count + 1;
  (* Journal bracket: assigns this dispatch its global seq, snapshots
     the RNG draw counter, and on exit writes the black-box ring slot
     and streams/verifies the record. Exception-safe so a trapping
     handler still leaves a complete record for the supervisor's
     black-box dump. *)
  Journal.begin_dispatch ~at:h.at ~parent:h.sched_parent h.label;
  (* Flat branches, no closure: this is the hottest line in the
     simulator and a per-dispatch allocation here shows up in both
     the zero-copy allocation budget and the perf baseline. *)
  if Profile.hot () then begin
    Profile.enter_event h.label;
    match h.fn () with
    | () ->
      Profile.exit_event ();
      Journal.end_dispatch ()
    | exception e ->
      Profile.exit_event ();
      Journal.end_dispatch ();
      raise e
  end
  else
    match h.fn () with
    | () -> Journal.end_dispatch ()
    | exception e ->
      Journal.end_dispatch ();
      raise e

let step t =
  if has_next t then begin
    dispatch t;
    true
  end
  else false

let run ?until ?max_events t =
  let finish () =
    Option.iter (fun u -> if Time.(u > t.clock) then t.clock <- u) until
  in
  let fired = ref 0 in
  let budget_ok () =
    match max_events with None -> true | Some m -> !fired < m
  in
  let rec loop () =
    if not (has_next t) then finish ()
    else begin
      let h = Heap.peek_exn t.heap in
      let in_window =
        match until with None -> true | Some u -> Time.(h.at <= u)
      in
      if in_window && budget_ok () then begin
        dispatch t;
        incr fired;
        loop ()
      end
      else if not in_window then finish ()
    end
  in
  loop ()

let run_until_quiet t = run t
