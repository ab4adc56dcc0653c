(* Pending events: a binary min-heap on [(at, seq)] in three parallel
   int arrays, [at.(0 .. len - 1)], [seq] and [slot], so a sift step
   moves ints and calls no write barrier. The closure, label and causal
   parent of each pending event sit in a slab at its [slot]; a slot is
   taken from the free-slot stack at schedule time and returned when
   its entry leaves the heap. Slots in use never exceed [len], so the
   heap and the slab share one capacity. *)
type t = {
  mutable clock : Time.t;
  mutable at : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable len : int;
  mutable fns : (unit -> unit) array;
  mutable labels : Profile.key array;
  (* Journal seq of the dispatch whose handler scheduled the event (-1
     outside dispatch): the causal parent edge jdiff walks back to a
     common ancestor. *)
  mutable parents : int array;
  mutable free : int array;
  mutable n_free : int;
  mutable next_seq : int; (* FIFO tie-break among equal deadlines *)
  mutable fired_count : int;
}

(* [(at, seq)] is a total order (no two entries share a seq), so equal
   deadlines pop FIFO and any correct heap pops in exactly this order.
   Hole-moving sifts: each step writes one position instead of swapping
   two, and as top-level functions they allocate no closure. The
   annotations keep the comparisons on ints, not polymorphic. *)
let rec sift_up (ha : int array) (hs : int array) (hl : int array) i
    (at : int) (sq : int) (sl : int) =
  if i = 0 then begin
    ha.(0) <- at;
    hs.(0) <- sq;
    hl.(0) <- sl
  end
  else begin
    let p = (i - 1) / 2 in
    let pat = ha.(p) in
    if at < pat || (at = pat && sq < hs.(p)) then begin
      ha.(i) <- pat;
      hs.(i) <- hs.(p);
      hl.(i) <- hl.(p);
      sift_up ha hs hl p at sq sl
    end
    else begin
      ha.(i) <- at;
      hs.(i) <- sq;
      hl.(i) <- sl
    end
  end

let rec sift_down (ha : int array) (hs : int array) (hl : int array) n i
    (at : int) (sq : int) (sl : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    ha.(i) <- at;
    hs.(i) <- sq;
    hl.(i) <- sl
  end
  else begin
    let r = l + 1 in
    let c =
      if r < n && (ha.(r) < ha.(l) || (ha.(r) = ha.(l) && hs.(r) < hs.(l)))
      then r
      else l
    in
    let cat = ha.(c) in
    if cat < at || (cat = at && hs.(c) < sq) then begin
      ha.(i) <- cat;
      hs.(i) <- hs.(c);
      hl.(i) <- hl.(c);
      sift_down ha hs hl n c at sq sl
    end
    else begin
      ha.(i) <- at;
      hs.(i) <- sq;
      hl.(i) <- sl
    end
  end

let grow_ints a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double every array; the fresh slots go on the free stack. [ignore]
   and [label] only fill the fresh closure and label slots, which are
   written before any read. *)
let grow t label =
  let old = Array.length t.at in
  let n = max 16 (2 * old) in
  t.at <- grow_ints t.at n;
  t.seq <- grow_ints t.seq n;
  t.slot <- grow_ints t.slot n;
  t.parents <- grow_ints t.parents n;
  let fns = Array.make n ignore in
  Array.blit t.fns 0 fns 0 old;
  t.fns <- fns;
  let labels = Array.make n label in
  Array.blit t.labels 0 labels 0 old;
  t.labels <- labels;
  t.free <- grow_ints t.free n;
  for s = n - 1 downto old do
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  done

(* Remove the root. *)
let pop t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then
    sift_down t.at t.seq t.slot n 0 t.at.(n) t.seq.(n) t.slot.(n)

(* All engines share one heap-depth gauge: a metered run drives one
   engine at a time. *)
let heap_depth =
  Metrics.gauge Metrics.default ~help:"Entries in the event heap." "event_heap"

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
    at = [||];
    seq = [||];
    slot = [||];
    len = 0;
    fns = [||];
    labels = [||];
    parents = [||];
    free = [||];
    n_free = 0;
    next_seq = 0;
    fired_count = 0;
  }

let now t = t.clock

let schedule_at t ~at ~label fn =
  let at = Time.max at t.clock in
  if t.len = Array.length t.at then grow t label;
  t.n_free <- t.n_free - 1;
  let s = t.free.(t.n_free) in
  (* The free stack hands back the slot freed last, so a handler that
     reschedules itself (a stack loop, a NIC stage) usually finds its
     own closure and label there already: skip those write barriers. *)
  if t.fns.(s) != fn then t.fns.(s) <- fn;
  if t.labels.(s) != label then t.labels.(s) <- label;
  t.parents.(s) <- Journal.parent_seq ();
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  t.len <- t.len + 1;
  sift_up t.at t.seq t.slot (t.len - 1) at sq s;
  if Metrics.enabled Metrics.default then note_depth t.len

let schedule t ~delay ~label fn =
  schedule_at t ~at:(Time.add t.clock delay) ~label fn

let pending_count t = t.len
let events_fired t = t.fired_count

(* Allocates nothing: no [Some] cell, no handle, no closure per fired
   event, which matters at millions of events per simulated second. *)
let dispatch t =
  let at = t.at.(0) and s = t.slot.(0) in
  pop t;
  let fn = t.fns.(s) and label = t.labels.(s) and parent = t.parents.(s) in
  (* The slot is free before the handler runs, so an event that
     reschedules itself reuses it. *)
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1;
  t.clock <- at;
  t.fired_count <- t.fired_count + 1;
  (* Journal bracket: assigns this dispatch its global seq, snapshots
     the RNG draw counter, and on exit writes the black-box ring slot
     and streams/verifies the record. Exception-safe so a trapping
     handler still leaves a complete record for the supervisor's
     black-box dump. *)
  Journal.begin_dispatch ~at ~parent label;
  (* Flat branches, no closure: this is the hottest line in the
     simulator and a per-dispatch allocation here shows up in both
     the zero-copy allocation budget and the perf baseline. *)
  if Profile.hot () then begin
    Profile.enter_event label;
    match fn () with
    | () ->
      Profile.exit_event ();
      Journal.end_dispatch ()
    | exception e ->
      Profile.exit_event ();
      Journal.end_dispatch ();
      raise e
  end
  else
    match fn () with
    | () -> Journal.end_dispatch ()
    | exception e ->
      Journal.end_dispatch ();
      raise e

let step t =
  if t.len > 0 then begin
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
    if t.len = 0 then finish ()
    else begin
      let in_window =
        match until with None -> true | Some u -> Time.(t.at.(0) <= u)
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
