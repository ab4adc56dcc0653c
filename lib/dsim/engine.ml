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

(* Pending events: a binary min-heap in [heap.(0 .. len - 1)]. *)
and t = {
  mutable clock : Time.t;
  mutable heap : handle array;
  mutable len : int;
  mutable next_seq : int; (* FIFO tie-break among equal deadlines *)
  mutable live : int;
  mutable fired_count : int;
}

(* The heap order, compared inline: [(at, seq)] is a total order (no
   two handles share a seq), so equal deadlines pop FIFO and any
   correct heap pops in exactly this order. *)
let precedes a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* Hole-moving sifts: each step writes one slot instead of swapping
   two, and as top-level functions they allocate no closure. *)
let rec sift_up a i h =
  if i = 0 then a.(0) <- h
  else begin
    let p = (i - 1) / 2 in
    let ph = a.(p) in
    if precedes h ph then begin
      a.(i) <- ph;
      sift_up a p h
    end
    else a.(i) <- h
  end

let rec sift_down a n i h =
  let l = (2 * i) + 1 in
  if l >= n then a.(i) <- h
  else begin
    let c = if l + 1 < n && precedes a.(l + 1) a.(l) then l + 1 else l in
    let ch = a.(c) in
    if precedes ch h then begin
      a.(i) <- ch;
      sift_down a n c h
    end
    else a.(i) <- h
  end

let push t h =
  if t.len = Array.length t.heap then begin
    (* [h] only fills the fresh slots; [len] bounds every read. *)
    let bigger = Array.make (max 16 (2 * t.len)) h in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  t.len <- t.len + 1;
  sift_up t.heap (t.len - 1) h

let pop t =
  let a = t.heap in
  let top = a.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down a n 0 a.(n);
  top

(* All engines share one heap-depth gauge: a metered run drives one
   engine at a time. *)
let heap_depth =
  Metrics.gauge Metrics.default
    ~help:"Entries in the event heap, cancelled ones included."
    "event_heap"

let heap_growth =
  Metrics.stall Metrics.default ~resource:"event_heap" ~kind:"heap_growth" ()

(* The heap grows one entry per push, so its high watermark steps
   through every level: one stall per power of two from 2048 on keeps
   an unbounded scheduling leak at O(log n) stalls. *)
let note_depth n =
  let before = Metrics.high heap_depth in
  Metrics.set heap_depth n;
  if n > before && n >= 2048 && n land (n - 1) = 0 then
    Metrics.incr heap_growth

let create () =
  {
    clock = Time.zero;
    heap = [||];
    len = 0;
    next_seq = 0;
    live = 0;
    fired_count = 0;
  }

let now t = t.clock

let schedule_at t ~at ~label fn =
  let at = Time.max at t.clock in
  let h =
    { at; seq = t.next_seq; fn; label; sched_parent = Journal.parent_seq ();
      owner = t; cancelled = false; fired = false }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  push t h;
  if Metrics.enabled Metrics.default then note_depth t.len;
  h

let schedule t ~delay ~label fn =
  schedule_at t ~at:(Time.add t.clock delay) ~label fn

(* Drop cancelled entries in place, then re-heapify bottom-up. The
   heap order is total, so compaction cannot perturb event ordering. *)
let compact t =
  let a = t.heap in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if not a.(i).cancelled then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  t.len <- !n;
  for i = (!n / 2) - 1 downto 0 do
    sift_down a !n i a.(i)
  done

(* Compact once cancelled handles outnumber live ones. *)
let compaction_floor = 64

let cancel h =
  if (not h.cancelled) && not h.fired then begin
    h.cancelled <- true;
    let t = h.owner in
    t.live <- t.live - 1;
    if t.len > compaction_floor && 2 * t.live < t.len then compact t
  end

let is_pending h = (not h.cancelled) && not h.fired
let pending_count t = t.live
let heap_size t = t.len
let events_fired t = t.fired_count

(* Drop cancelled heads; [true] when a live event is pending. *)
let rec has_next t =
  if t.len = 0 then false
  else if t.heap.(0).cancelled then begin
    ignore (pop t);
    has_next t
  end
  else true

(* No [Some] cell is allocated per fired event, which matters at
   millions of events per simulated second. [has_next] has already
   discarded cancelled heads. *)
let dispatch t =
  let h = pop t in
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
      let h = t.heap.(0) in
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
