type policy = Barging | Fifo

type waiter = {
  name : string;
  since : Dsim.Time.t;
  wflow : Dsim.Flowtrace.ctx option;
  k : wait_ns:float -> unit;
}

type t = {
  engine : Dsim.Engine.t;
  policy : policy;
  uncontended_ns : float;
  wake_ns : float;
  mutable owner : string option;
  mutable queue : waiter list;  (* head = next to run under Fifo *)
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait_ns : float;
  acq_metric : Dsim.Metrics.counter;
  cont_metric : Dsim.Metrics.counter;
  wait_metric : Dsim.Metrics.histogram;
  k_wake : Dsim.Profile.key;
  queue_metric : Dsim.Metrics.gauge;
}

let policy_label = function Barging -> "barging" | Fifo -> "fifo"

let create engine ?(policy = Barging) ?(uncontended_ns = 75.) ?(wake_ns = 350.)
    () =
  let labels = [ ("policy", policy_label policy) ] in
  {
    engine;
    policy;
    uncontended_ns;
    wake_ns;
    owner = None;
    queue = [];
    acquisitions = 0;
    contended = 0;
    total_wait_ns = 0.;
    acq_metric =
      Dsim.Metrics.counter Dsim.Metrics.default
        ~help:"umtx mutex acquisitions." ~labels "umtx_acquisitions_total";
    cont_metric =
      Dsim.Metrics.counter Dsim.Metrics.default
        ~help:"umtx acquisitions that went through the kernel wait queue."
        ~labels "umtx_contended_total";
    wait_metric =
      Dsim.Metrics.histogram Dsim.Metrics.default
        ~help:"Time waiters spent blocked on the umtx, in nanoseconds."
        ~labels ~lo:100. ~ratio:2. ~buckets:24 "umtx_wait_ns";
    k_wake =
      Dsim.Profile.(key default) ~component:"intravisor"
        ~cvm:(policy_label policy) ~stage:"umtx_wake";
    queue_metric =
      Dsim.Metrics.gauge Dsim.Metrics.default
        ~help:"Threads blocked in the umtx kernel wait queue." ~labels
        "umtx_wait_queue";
  }

let policy t = t.policy
let locked t = Option.is_some t.owner
let holder t = t.owner
let waiters t = List.length t.queue
let acquisitions t = t.acquisitions
let contended_acquisitions t = t.contended
let total_wait_ns t = t.total_wait_ns

let acquire t ?(flow = None) ~owner k =
  match t.owner with
  | None ->
    t.owner <- Some owner;
    t.acquisitions <- t.acquisitions + 1;
    Dsim.Metrics.incr t.acq_metric;
    Dsim.Flowtrace.hop flow Umtx_wait ~at:(Dsim.Engine.now t.engine);
    k ~wait_ns:0.
  | Some _ ->
    let w =
      { name = owner; since = Dsim.Engine.now t.engine; wflow = flow; k }
    in
    t.queue <-
      (match t.policy with
      | Barging -> w :: t.queue  (* most recent waiter barges in first *)
      | Fifo -> t.queue @ [ w ]);
    Dsim.Metrics.set t.queue_metric (List.length t.queue)

let try_acquire t ~owner =
  match t.owner with
  | None ->
    t.owner <- Some owner;
    t.acquisitions <- t.acquisitions + 1;
    Dsim.Metrics.incr t.acq_metric;
    true
  | Some _ -> false

let release t =
  match t.owner with
  | None -> invalid_arg "Umtx.release: not held"
  | Some _ ->
    t.owner <- None;
    (match t.queue with
    | [] -> ()
    | next :: rest ->
      t.queue <- rest;
      Dsim.Metrics.set t.queue_metric (List.length t.queue);
      t.owner <- Some next.name;
      t.acquisitions <- t.acquisitions + 1;
      t.contended <- t.contended + 1;
      Dsim.Metrics.incr t.acq_metric;
      Dsim.Metrics.incr t.cont_metric;
      (* The kernel wake costs [wake_ns] before the waiter resumes. *)
      Dsim.Engine.schedule t.engine
        ~delay:(Dsim.Time.of_float_ns t.wake_ns) ~label:t.k_wake
        (fun () ->
          let waited =
            Dsim.Time.to_float_ns
              (Dsim.Time.sub (Dsim.Engine.now t.engine) next.since)
          in
          t.total_wait_ns <- t.total_wait_ns +. waited;
          Dsim.Metrics.observe t.wait_metric waited;
          Dsim.Flowtrace.hop next.wflow Umtx_wait
            ~at:(Dsim.Engine.now t.engine);
          next.k ~wait_ns:waited))

(* Crash cleanup: a dead compartment must leave nothing behind in the
   kernel lock — neither the hold (siblings would deadlock on the next
   main-loop acquisition, the failure Scenario 2 is built around) nor
   queued continuations (they would run code of a torn-down cVM). Purge
   the queue first so a self-waiting owner cannot be re-granted. *)
let force_release t ~owner =
  t.queue <- List.filter (fun w -> not (String.equal w.name owner)) t.queue;
  match t.owner with
  | Some o when String.equal o owner ->
    release t;
    true
  | Some _ | None -> false
