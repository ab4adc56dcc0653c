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
}

type t = {
  engine : Dsim.Engine.t;
  bps : float;
  prop_delay : Dsim.Time.t;
  a_to_b : dir_state;
  b_to_a : dir_state;
  mutable dropped : int;
  mutable tampered : int;
  mutable injected : int;
  mutable up : bool;
  mutable tamper : tamper option;
  (* Frame-buffer recycling pool, keyed by exact length. Per-link (not
     process-global): a frame is rented by one endpoint's TX engine and
     released by the peer endpoint's RX completion, and both live on
     the same link. *)
  pool : bytes Stack.t Len_tbl.t;
}

let overhead_bytes = 24

(* Wall-clock attribution keys for the handlers this module schedules. *)
let k_deliver =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"deliver"

let k_dup =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"dup"

let k_hold =
  Dsim.Profile.(key default) ~component:"nic" ~cvm:"wire" ~stage:"hold"

let create engine ?(bps = 1e9) ?(prop_delay = Dsim.Time.ns 500) () =
  let dir () = { busy_until = Dsim.Time.zero; handler = None; carried = 0 } in
  { engine; bps; prop_delay; a_to_b = dir (); b_to_a = dir (); dropped = 0;
    tampered = 0; injected = 0; up = true; tamper = None;
    pool = Len_tbl.create 8 }

(* Recycling exact-size buffers keeps the fast path's allocation rate
   flat: a streaming TCP flow reuses the same few MSS-sized buffers
   instead of allocating ~1.5 KiB of minor heap per frame. The renter
   overwrites the whole buffer (TX DMA blit) before it reaches the
   wire, so stale contents cannot leak between frames. *)
let pool_depth = 32

let rent t len =
  match Len_tbl.find_opt t.pool len with
  | Some s when not (Stack.is_empty s) -> Stack.pop s
  | _ -> Bytes.create len

let release t frame =
  let len = Bytes.length frame in
  let s =
    match Len_tbl.find_opt t.pool len with
    | Some s -> s
    | None ->
      let s = Stack.create () in
      Len_tbl.replace t.pool len s;
      s
  in
  if Stack.length s < pool_depth then Stack.push frame s

(* [attach t A f] installs the handler for frames arriving AT endpoint A,
   i.e. frames travelling B->A. *)
let attach t ep f =
  match ep with
  | A -> t.b_to_a.handler <- Some f
  | B -> t.a_to_b.handler <- Some f

let dir_of t = function A -> t.a_to_b | B -> t.b_to_a

let is_ipv4 frame =
  Bytes.length frame >= 34
  && Bytes.get frame 12 = '\x08'
  && Bytes.get frame 13 = '\x00'

let flip_bit frame ~byte ~bit =
  Bytes.set frame byte
    (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)))

let transmit t ?(flow = None) ~from ~frame () =
  let d = dir_of t from in
  let now = Dsim.Engine.now t.engine in
  let wire_bytes = Bytes.length frame + overhead_bytes in
  let start = Dsim.Time.max now d.busy_until in
  let ser = Dsim.Time.of_float_ns (float_of_int wire_bytes *. 8. /. t.bps *. 1e9) in
  let tx_done = Dsim.Time.add start ser in
  d.busy_until <- tx_done;
  d.carried <- d.carried + wire_bytes;
  let arrival = Dsim.Time.add tx_done t.prop_delay in
  (* The transmitting MAC's FCS over the untampered frame; corruption
     injected below happens "on the wire", after this point. *)
  let fcs = Fcs.compute frame in
  let deliver () =
    let drop_down () =
      t.dropped <- t.dropped + 1;
      Dsim.Flowtrace.(drop default ~flow Wire Link_down)
    in
    if not t.up then drop_down ()
    else
      match d.handler with
      | None -> drop_down ()
      | Some f -> (
        match t.tamper with
        | None -> f ~flow ~fcs frame
        | Some tam -> (
          match
            tam ~now:(Dsim.Engine.now t.engine) ~ipv4:(is_ipv4 frame)
              ~len:(Bytes.length frame)
          with
          | Dsim.Chaos.Pass -> f ~flow ~fcs frame
          | Dsim.Chaos.Flip { byte; bit; post_fcs } ->
            t.tampered <- t.tampered + 1;
            flip_bit frame ~byte ~bit;
            (* A flip behind the MAC (DMA/buffer corruption) arrives
               with a *valid* FCS — the transport checksum must catch
               it; a wire flip leaves the transmit-side FCS stale. *)
            let fcs = if post_fcs then Fcs.compute frame else fcs in
            f ~flow ~fcs frame
          | Dsim.Chaos.Drop_frame ->
            t.tampered <- t.tampered + 1;
            t.dropped <- t.dropped + 1;
            Dsim.Flowtrace.(drop default ~flow Wire Chaos_injected)
          | Dsim.Chaos.Dup_frame ->
            t.tampered <- t.tampered + 1;
            (* The duplicate is a copy: the original may be recycled by
               the receiving NIC as soon as its RX DMA completes. *)
            let copy = Bytes.copy frame in
            f ~flow ~fcs frame;
            ignore
              (Dsim.Engine.schedule t.engine ~delay:(Dsim.Time.ns 1000)
                 ~label:k_dup (fun () ->
                   if t.up then f ~flow:None ~fcs copy
                   else begin
                     t.dropped <- t.dropped + 1;
                     Dsim.Flowtrace.(drop default Wire Link_down)
                   end))
          | Dsim.Chaos.Hold_frame { extra_ns } ->
            t.tampered <- t.tampered + 1;
            ignore
              (Dsim.Engine.schedule t.engine
                 ~delay:(Dsim.Time.of_float_ns extra_ns) ~label:k_hold
                 (fun () ->
                   if t.up then f ~flow ~fcs frame else drop_down ()))))
  in
  ignore (Dsim.Engine.schedule_at t.engine ~at:arrival ~label:k_deliver deliver);
  tx_done

let peer = function A -> B | B -> A

(* A red-team frame enters the wire exactly like a legitimate one —
   same serialization queue, FCS, tamper lottery and propagation — so
   an attacked run stays deterministic and the receiver cannot tell a
   crafted frame from a forwarded one by timing alone. Only the
   [injected] counter distinguishes them, for reports. *)
let inject t ?(flow = None) ~into ~frame () =
  t.injected <- t.injected + 1;
  transmit t ~flow ~from:(peer into) ~frame ()

let carried_bytes t ~from = (dir_of t from).carried
let dropped t = t.dropped
let tampered t = t.tampered
let injected t = t.injected
let up t = t.up
let set_up t b = t.up <- b
let set_tamper t f = t.tamper <- f
