type events = int

let epollin = 0x001
let epollout = 0x004
let epollerr = 0x008
let epollhup = 0x010
let has set flag = set land flag <> 0

(* One registration. [queued] is set while the entry sits on the ready
   list and is registered; a removed entry stays on the list, unset,
   until the next wait drops it. *)
type entry = { fd : int; mutable want : events; mutable queued : bool }

type t = {
  mutable set : entry array;  (* registrations by ascending fd; [n] used *)
  mutable n : int;
  (* The ready list: every registration that may report. The entries
     the last [wait] kept are in fd order; [notify] appends after them. *)
  mutable ready : entry array;
  mutable nready : int;
  mutable rotation : int;  (* fairness cursor for wait *)
}

let filler = { fd = -1; want = 0; queued = false }

let create () =
  { set = Array.make 8 filler; n = 0; ready = Array.make 8 filler; nready = 0;
    rotation = 0 }

(* A copy of the full array [a] with twice the room. *)
let grow a =
  let b = Array.make (2 * Array.length a) filler in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Index of [fd] in [set.(lo) .. set.(hi - 1)], or [-1 - i] with [i]
   where it would go. Top-level, so a lookup allocates no closure. *)
let rec bsearch set fd lo hi =
  if lo >= hi then -1 - lo
  else begin
    let mid = (lo + hi) lsr 1 in
    let v = set.(mid).fd in
    if v = fd then mid
    else if v < fd then bsearch set fd (mid + 1) hi
    else bsearch set fd lo mid
  end

let search t fd = bsearch t.set fd 0 t.n

let enqueue t e =
  if not e.queued then begin
    e.queued <- true;
    if t.nready = Array.length t.ready then t.ready <- grow t.ready;
    t.ready.(t.nready) <- e;
    t.nready <- t.nready + 1
  end

let remove t i =
  t.set.(i).queued <- false;
  Array.blit t.set (i + 1) t.set i (t.n - i - 1);
  t.n <- t.n - 1;
  t.set.(t.n) <- filler

let ctl_add t ~fd ev =
  let i = search t fd in
  if i >= 0 then Error Errno.EINVAL
  else begin
    let i = -1 - i in
    let e = { fd; want = ev; queued = false } in
    if t.n = Array.length t.set then t.set <- grow t.set;
    Array.blit t.set i t.set (i + 1) (t.n - i);
    t.set.(i) <- e;
    t.n <- t.n + 1;
    (* Its readiness is unknown until a wait looks. *)
    enqueue t e;
    Ok ()
  end

let ctl_mod t ~fd ev =
  let i = search t fd in
  if i < 0 then Error Errno.EINVAL
  else begin
    let e = t.set.(i) in
    e.want <- ev;
    enqueue t e;
    Ok ()
  end

let ctl_del t ~fd =
  let i = search t fd in
  if i < 0 then Error Errno.EINVAL
  else begin
    remove t i;
    Ok ()
  end

let forget t ~fd =
  let i = search t fd in
  if i >= 0 then remove t i

let notify t ~fd =
  let i = search t fd in
  if i >= 0 then enqueue t t.set.(i)

let registered t =
  List.init t.n (fun i -> (t.set.(i).fd, t.set.(i).want))

(* Insertion sort of the ready list by fd: the entries a wait kept are
   already in order, so the cost is in the ones notified since. *)
let sort_ready t =
  let a = t.ready in
  for i = 1 to t.nready - 1 do
    let e = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).fd > e.fd do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- e
  done

let wait t ~readiness ~max =
  if t.n = 0 || max <= 0 then []
  else begin
    (* Rotate the scan start so a hot low-numbered fd cannot starve the
       rest when [max] truncates the result: the start is a rank in the
       whole interest set, so the order is that of a scan over every
       registered fd, of which only the ready list can report. *)
    let start = t.set.(t.rotation mod t.n).fd in
    t.rotation <- t.rotation + 1;
    sort_ready t;
    let k = t.nready in
    let first = ref 0 in
    while !first < k && t.ready.(!first).fd < start do
      incr first
    done;
    let first = !first in
    let out = ref [] and count = ref 0 and i = ref 0 in
    while !count < max && !i < k do
      let e = t.ready.((first + !i) mod k) in
      if e.queued then begin
        let reported = readiness e.fd land (e.want lor epollerr lor epollhup) in
        if reported <> 0 then begin
          out := (e.fd, reported) :: !out;
          incr count
        end
        else e.queued <- false
      end;
      incr i
    done;
    (* Drop what was found idle or removed; [notify] brings an idle fd
       back. *)
    let kept = ref 0 in
    for i = 0 to k - 1 do
      let e = t.ready.(i) in
      if e.queued then begin
        if !kept < i then t.ready.(!kept) <- e;
        incr kept
      end
    done;
    for i = !kept to k - 1 do
      t.ready.(i) <- filler
    done;
    t.nready <- !kept;
    List.rev !out
  end

let pp_events fmt ev =
  let names =
    List.filter_map
      (fun (f, n) -> if has ev f then Some n else None)
      [ (epollin, "IN"); (epollout, "OUT"); (epollerr, "ERR"); (epollhup, "HUP") ]
  in
  Format.pp_print_string fmt (String.concat "|" names)
