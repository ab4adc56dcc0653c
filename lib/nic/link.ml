type endpoint = A | B

(* Frame lengths hash to themselves: the pool lookup on the frame path
   calls no polymorphic hash. *)
module Len_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n
end)

type tamper =
  now:Dsim.Time.t -> ipv4:bool -> len:int -> Dsim.Chaos.frame_action

type dir_state = {
  mutable busy_until : Dsim.Time.t;
  (* receiver at the far end *)
  mutable handler :
    (flow:Dsim.Flowtrace.ctx option -> fcs:int -> bytes -> unit) option;
  mutable carried : int;
  (* Frames on the wire, oldest first, in parallel arrays: frame, flow,
     transmit-side FCS and arrival time. Arrival times never decrease
     in a direction ([busy_until] serialises it and the propagation
     delay is fixed) and the engine breaks ties by schedule order, so
     every arrival event finds its frame at the head. *)
  mutable frames : bytes array;
  mutable flows : Dsim.Flowtrace.ctx option array;
  mutable fcss : int array;
  mutable dues : int array;
  mutable head : int;
  mutable count : int;
  (* The one arrival handler of this direction, made at [create]. *)
  mutable on_arrival : unit -> unit;
}

(* One length's free frames: a fixed stack of [pool_depth]. *)
type bucket = { spare : bytes array; mutable n : int }

type t = {
  engine : Dsim.Engine.t;
  bps : float;
  prop_delay : Dsim.Time.t;
  a_to_b : dir_state;
  b_to_a : dir_state;
  mutable dropped : int;
  mutable tampered : int;
  mutable up : bool;
  mutable tamper : tamper option;
  (* Frame-buffer recycling pool, keyed by exact length. Per-link (not
     process-global): a frame is rented by one endpoint's TX engine and
     released by the peer endpoint's RX completion, and both live on
     the same link. *)
  pool : bucket Len_tbl.t;
}

let overhead_bytes = 24

(* Wall-clock attribution keys for the handlers this module schedules. *)
let k_deliver =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"deliver"

let k_dup =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"dup"

let k_hold =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"hold"

(* [Time.of_float_ns] inlined: a cross-module call would box [f]. *)
let[@inline] ns_of_float f = if f <= 0. then 0 else int_of_float (Float.round f)

let is_ipv4 frame =
  Bytes.length frame >= 34
  && Bytes.get frame 12 = '\x08'
  && Bytes.get frame 13 = '\x00'

let flip_bit frame ~byte ~bit =
  Bytes.set frame byte
    (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)))

let drop_down t flow =
  t.dropped <- t.dropped + 1;
  Dsim.Flowtrace.(drop default ~flow Wire Link_down)

(* Deliver a frame the tamper hook looked at: chaos only, so its
   closures ([Dup_frame], [Hold_frame]) are made per frame. *)
let tampered t f tam ~flow ~fcs frame =
  match
    tam ~now:(Dsim.Engine.now t.engine) ~ipv4:(is_ipv4 frame)
      ~len:(Bytes.length frame)
  with
  | Dsim.Chaos.Pass -> f ~flow ~fcs frame
  | Dsim.Chaos.Flip { byte; bit; post_fcs } ->
    t.tampered <- t.tampered + 1;
    flip_bit frame ~byte ~bit;
    (* A flip behind the MAC (DMA/buffer corruption) arrives with a
       *valid* FCS — the transport checksum must catch it; a wire flip
       leaves the transmit-side FCS stale. *)
    let fcs = if post_fcs then Fcs.compute frame else fcs in
    f ~flow ~fcs frame
  | Dsim.Chaos.Drop_frame ->
    t.tampered <- t.tampered + 1;
    t.dropped <- t.dropped + 1;
    Dsim.Flowtrace.(drop default ~flow Wire Chaos_injected)
  | Dsim.Chaos.Dup_frame ->
    t.tampered <- t.tampered + 1;
    (* The duplicate is a copy: the original may be recycled by the
       receiving NIC as soon as its RX DMA completes. *)
    let copy = Bytes.copy frame in
    f ~flow ~fcs frame;
    Dsim.Engine.schedule t.engine ~delay:(Dsim.Time.ns 1000) ~label:k_dup
      (fun () ->
        if t.up then f ~flow:None ~fcs copy
        else begin
          t.dropped <- t.dropped + 1;
          Dsim.Flowtrace.(drop default Wire Link_down)
        end)
  | Dsim.Chaos.Hold_frame { extra_ns } ->
    t.tampered <- t.tampered + 1;
    Dsim.Engine.schedule t.engine ~delay:(Dsim.Time.of_float_ns extra_ns)
      ~label:k_hold (fun () ->
        if t.up then f ~flow ~fcs frame else drop_down t flow)

(* The arrival handler of direction [d]: completes the head frame. *)
let arrive t d () =
  let i = d.head in
  if d.count = 0 || d.dues.(i) <> Dsim.Engine.now t.engine then
    invalid_arg "Link: arrival out of order";
  let frame = d.frames.(i) and flow = d.flows.(i) and fcs = d.fcss.(i) in
  d.head <- (if i + 1 = Array.length d.frames then 0 else i + 1);
  d.count <- d.count - 1;
  if not t.up then drop_down t flow
  else
    match d.handler with
    | None -> drop_down t flow
    | Some f -> (
      match t.tamper with
      | None -> f ~flow ~fcs frame
      | Some tam -> tampered t f tam ~flow ~fcs frame)

(* A full FIFO doubles, so it allocates only until it reaches its
   deepest occupancy. *)
let grow d =
  let n = Array.length d.frames in
  let m = max 16 (2 * n) in
  let move a fill =
    let b = Array.make m fill in
    for k = 0 to d.count - 1 do
      let j = d.head + k in
      b.(k) <- a.(if j >= n then j - n else j)
    done;
    b
  in
  d.frames <- move d.frames Bytes.empty;
  d.flows <- move d.flows None;
  d.fcss <- move d.fcss 0;
  d.dues <- move d.dues 0;
  d.head <- 0

let push d ~frame ~flow ~fcs ~due =
  if d.count = Array.length d.frames then grow d;
  let j = d.head + d.count in
  let i = if j >= Array.length d.frames then j - Array.length d.frames else j in
  d.frames.(i) <- frame;
  (* Untraced frames' [None] needs no write barrier. *)
  if d.flows.(i) != flow then d.flows.(i) <- flow;
  d.fcss.(i) <- fcs;
  d.dues.(i) <- due;
  d.count <- d.count + 1

let create engine ?(bps = 1e9) ?(prop_delay = Dsim.Time.ns 500) () =
  let dir () =
    { busy_until = Dsim.Time.zero; handler = None; carried = 0;
      frames = [||]; flows = [||]; fcss = [||]; dues = [||]; head = 0;
      count = 0; on_arrival = ignore }
  in
  let t =
    { engine; bps; prop_delay; a_to_b = dir (); b_to_a = dir (); dropped = 0;
      tampered = 0; up = true; tamper = None;
      pool = Len_tbl.create 8 }
  in
  t.a_to_b.on_arrival <- arrive t t.a_to_b;
  t.b_to_a.on_arrival <- arrive t t.b_to_a;
  t

(* Recycling exact-size buffers keeps the fast path's allocation rate
   flat: a streaming TCP flow reuses the same few MSS-sized buffers
   instead of allocating ~1.5 KiB of minor heap per frame. The renter
   overwrites the whole buffer (TX DMA blit) before it reaches the
   wire, so stale contents cannot leak between frames. *)
let pool_depth = 32

let rent t len =
  match Len_tbl.find t.pool len with
  | b when b.n > 0 ->
    b.n <- b.n - 1;
    b.spare.(b.n)
  | _ | (exception Not_found) -> Bytes.create len

let release t frame =
  let len = Bytes.length frame in
  let b =
    match Len_tbl.find t.pool len with
    | b -> b
    | exception Not_found ->
      let b = { spare = Array.make pool_depth Bytes.empty; n = 0 } in
      Len_tbl.replace t.pool len b;
      b
  in
  if b.n < pool_depth then begin
    b.spare.(b.n) <- frame;
    b.n <- b.n + 1
  end

(* [attach t A f] installs the handler for frames arriving AT endpoint A,
   i.e. frames travelling B->A. *)
let attach t ep f =
  match ep with
  | A -> t.b_to_a.handler <- Some f
  | B -> t.a_to_b.handler <- Some f

let dir_of t = function A -> t.a_to_b | B -> t.b_to_a

let send t ~flow ~from frame =
  let d = dir_of t from in
  let now = Dsim.Engine.now t.engine in
  let wire_bytes = Bytes.length frame + overhead_bytes in
  let start = Dsim.Time.max now d.busy_until in
  let ser = ns_of_float (float_of_int wire_bytes *. 8. /. t.bps *. 1e9) in
  let tx_done = Dsim.Time.add start ser in
  d.busy_until <- tx_done;
  d.carried <- d.carried + wire_bytes;
  let arrival = Dsim.Time.add tx_done t.prop_delay in
  (* The transmitting MAC's FCS over the untampered frame; corruption
     injected at arrival happens "on the wire", after this point. *)
  push d ~frame ~flow ~fcs:(Fcs.compute frame) ~due:arrival;
  Dsim.Engine.schedule_at t.engine ~at:arrival ~label:k_deliver d.on_arrival;
  tx_done

let peer = function A -> B | B -> A

(* A red-team frame enters the wire exactly like a legitimate one —
   same serialization queue, FCS, tamper lottery and propagation — so
   an attacked run stays deterministic and the receiver cannot tell a
   crafted frame from a forwarded one by timing alone. *)
let inject t ~into frame = send t ~flow:None ~from:(peer into) frame

let carried_bytes t ~from = (dir_of t from).carried
let dropped t = t.dropped
let tampered t = t.tampered
let up t = t.up
let set_up t b = t.up <- b
let set_tamper t f = t.tamper <- f
