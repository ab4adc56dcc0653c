(* A FIFO of descriptors in parallel arrays, so an entry costs no
   record, tuple or list cell. It doubles when full, so it allocates
   only until it reaches its deepest occupancy. Each FIFO fills the
   columns it uses and passes fillers for the others. *)
module Fifo = struct
  type t = {
    mutable addr : int array;
    mutable len : int array;
    mutable flow : Dsim.Flowtrace.ctx option array;
    mutable frame : bytes array;
    (* Stage FIFOs: the time the entry's completion event fires. *)
    mutable due : int array;
    mutable head : int;
    mutable count : int;
  }

  let create () =
    { addr = [||]; len = [||]; flow = [||]; frame = [||]; due = [||];
      head = 0; count = 0 }

  let length q = q.count
  let is_empty q = q.count = 0

  let grow q =
    let n = Array.length q.addr in
    let m = max 16 (2 * n) in
    let move a fill =
      let b = Array.make m fill in
      for k = 0 to q.count - 1 do
        let j = q.head + k in
        b.(k) <- a.(if j >= n then j - n else j)
      done;
      b
    in
    q.addr <- move q.addr 0;
    q.len <- move q.len 0;
    q.flow <- move q.flow None;
    q.frame <- move q.frame Bytes.empty;
    q.due <- move q.due 0;
    q.head <- 0

  let push q ~addr ~len ~flow ~frame ~due =
    if q.count = Array.length q.addr then grow q;
    let n = Array.length q.addr in
    let j = q.head + q.count in
    let i = if j >= n then j - n else j in
    q.addr.(i) <- addr;
    q.len.(i) <- len;
    (* Boxed columns are written only on a change, which skips the
       write barrier for untraced frames' [None] and for fillers. *)
    if q.flow.(i) != flow then q.flow.(i) <- flow;
    if q.frame.(i) != frame then q.frame.(i) <- frame;
    q.due.(i) <- due;
    q.count <- q.count + 1

  (* The head entry's columns; [drop] removes it. *)
  let addr q = q.addr.(q.head)
  let len q = q.len.(q.head)
  let flow q = q.flow.(q.head)
  let frame q = q.frame.(q.head)

  let drop q =
    q.head <- (if q.head + 1 = Array.length q.addr then 0 else q.head + 1);
    q.count <- q.count - 1

  (* A stage's completion event must find its entry at the head: see
     "stage completions" below. *)
  let check_due q ~now =
    if q.count = 0 || q.due.(q.head) <> now then
      invalid_arg "Igb: stage completion out of order"
end

(* One RX/TX descriptor-ring pair per port, the 82576's reset
   configuration. *)
type port = {
  index : int;
  mac : Mac_addr.t;
  engine : Dsim.Engine.t;
  mem : Cheri.Tagged_memory.t;
  bus : Pci_bus.t;
  rx_ring_size : int;
  tx_ring_size : int;
  (* Posted RX buffers (addr, len), in [rx_refill] order. *)
  rx_free : Fifo.t;
  (* Frames whose RX DMA is in flight (buffer addr, len, flow, frame,
     due), then completed receives (addr, len, flow). *)
  rx_dma : Fifo.t;
  rx_done : Fifo.t;
  (* TX descriptors whose DMA read, then whose transmission, is in
     flight (addr, len, flow, due), then completed ones (addr). *)
  tx_dma : Fifo.t;
  tx_wire : Fifo.t;
  tx_done : Fifo.t;
  mutable tx_inflight : int;
  k_tx_dma : Dsim.Profile.key;
  k_tx_wire : Dsim.Profile.key;
  k_rx_dma : Dsim.Profile.key;
  (* The one completion handler of each stage, made at [create]. *)
  mutable on_tx_dma : unit -> unit;
  mutable on_tx_wire : unit -> unit;
  mutable on_rx_dma : unit -> unit;
  tx_ring : Dsim.Metrics.gauge;
  rx_ring : Dsim.Metrics.gauge;
  tx_stalls : Dsim.Metrics.counter;
  rx_stalls : Dsim.Metrics.counter;
  mutable dma_cap : Cheri.Capability.t;
  mutable wire : (Link.t * Link.endpoint) option;
  mutable promisc : bool;
  mutable rx_fault : (len:int -> bool) option;
  stats : Port_stats.t;
}

type t = { ports : port array }

(* --- wire-frame recycling ----------------------------------------------

   The [bytes] handed to the link models the frame DMA'd out of
   simulated memory; it is dead as soon as the far end's RX DMA writes
   it back in (or the frame is dropped). The recycling pool lives on
   the {!Link} (per-link, not process-global), so a frame goes back to
   the pool of the wire that carried it; an unconnected port just
   allocates. *)

let wire_rent p len =
  match p.wire with Some (link, _) -> Link.rent link len | None -> Bytes.create len

let wire_release p frame =
  match p.wire with Some (link, _) -> Link.release link frame | None -> ()

(* --- stage completions -------------------------------------------------

   Each stage keeps its in-flight descriptors in a FIFO and completes
   them with one handler per port, scheduled once per descriptor. The
   handler takes the FIFO's head, which is right because completion
   times never decrease per (port, stage): the PCI lane ([Pci_bus]) and
   the wire direction ([Link]) are serial resources, so each booking
   ends no earlier than the one before it, and the engine dispatches
   equal times in schedule order. [Fifo.check_due] fails loudly if that
   ever stops holding.

   The two TX stages pipeline across descriptors like real hardware:
   the PCI bus serialises DMA reads (its busy horizon), the MAC
   serialises frames on the wire (the link's busy horizon) — so
   descriptor N+1's DMA overlaps descriptor N's transmission. *)

let tx_dma_done p () =
  let q = p.tx_dma in
  let now = Dsim.Engine.now p.engine in
  Fifo.check_due q ~now;
  let addr = Fifo.addr q and len = Fifo.len q and flow = Fifo.flow q in
  Fifo.drop q;
  let frame = wire_rent p len in
  (* The descriptor was validated against [dma_cap] at the doorbell
     ([tx_enqueue]); the completion-side copy needs no second
     capability check. *)
  Cheri.Tagged_memory.unchecked_blit_out p.mem ~addr ~dst:frame ~dst_off:0
    ~len;
  Dsim.Flowtrace.hop flow Tx_dma ~at:now;
  let tx_done_at =
    match p.wire with
    | Some (link, ep) -> Link.send link ~flow ~from:ep frame
    | None ->
      wire_release p frame;
      now
  in
  Fifo.push p.tx_wire ~addr ~len ~flow ~frame:Bytes.empty ~due:tx_done_at;
  Dsim.Engine.schedule_at p.engine ~at:tx_done_at ~label:p.k_tx_wire
    p.on_tx_wire

let tx_wire_done p () =
  let q = p.tx_wire in
  let now = Dsim.Engine.now p.engine in
  Fifo.check_due q ~now;
  let addr = Fifo.addr q and len = Fifo.len q and flow = Fifo.flow q in
  Fifo.drop q;
  p.stats.tx_packets <- p.stats.tx_packets + 1;
  p.stats.tx_bytes <- p.stats.tx_bytes + len;
  Dsim.Flowtrace.hop flow Wire ~at:now;
  Fifo.push p.tx_done ~addr ~len:0 ~flow:None ~frame:Bytes.empty ~due:0

let rx_dma_done p () =
  let q = p.rx_dma in
  let now = Dsim.Engine.now p.engine in
  Fifo.check_due q ~now;
  let addr = Fifo.addr q and len = Fifo.len q and flow = Fifo.flow q in
  let frame = Fifo.frame q in
  Fifo.drop q;
  (* The buffer was validated against [dma_cap] when posted
     ([rx_refill]); no second check at DMA completion. *)
  Cheri.Tagged_memory.unchecked_blit_in p.mem ~addr ~src:frame ~src_off:0
    ~len;
  p.stats.rx_packets <- p.stats.rx_packets + 1;
  p.stats.rx_bytes <- p.stats.rx_bytes + len;
  Dsim.Flowtrace.hop flow Rx_dma ~at:now;
  Fifo.push p.rx_done ~addr ~len ~flow ~frame:Bytes.empty ~due:0;
  wire_release p frame

let create engine mem ~bus ~macs ?(rx_ring_size = 512) ?(tx_ring_size = 1024)
    () =
  let make_port index mac =
    let cvm = Printf.sprintf "port%d" index in
    let reg = Dsim.Metrics.default in
    let labels = [ ("port", Mac_addr.to_string mac) ] in
    let ring_full resource =
      Dsim.Metrics.stall reg ~labels ~resource ~kind:"ring_full" ()
    in
    let p =
      {
        index;
        mac;
        engine;
        mem;
        bus;
        rx_ring_size;
        tx_ring_size;
        rx_free = Fifo.create ();
        rx_dma = Fifo.create ();
        rx_done = Fifo.create ();
        tx_dma = Fifo.create ();
        tx_wire = Fifo.create ();
        tx_done = Fifo.create ();
        tx_inflight = 0;
        k_tx_dma =
          Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_dma";
        k_tx_wire =
          Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_wire";
        k_rx_dma =
          Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"rx_dma";
        on_tx_dma = ignore;
        on_tx_wire = ignore;
        on_rx_dma = ignore;
        tx_ring =
          Dsim.Metrics.gauge reg
            ~help:"TX descriptors posted and not yet reaped."
            ~capacity:tx_ring_size ~labels "nic_tx_ring";
        rx_ring =
          Dsim.Metrics.gauge reg
            ~help:"RX descriptors consumed by the device and not yet refilled."
            ~capacity:rx_ring_size ~labels "nic_rx_ring";
        tx_stalls = ring_full "nic_tx_ring";
        rx_stalls = ring_full "nic_rx_ring";
        dma_cap = Cheri.Capability.null;
        wire = None;
        promisc = false;
        rx_fault = None;
        stats = Port_stats.create ();
      }
    in
    p.on_tx_dma <- tx_dma_done p;
    p.on_tx_wire <- tx_wire_done p;
    p.on_rx_dma <- rx_dma_done p;
    p
  in
  { ports = Array.of_list (List.mapi make_port macs) }

let num_ports t = Array.length t.ports

let port t i =
  if i < 0 || i >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Igb.port: no port %d" i);
  t.ports.(i)

let port_index p = p.index
let engine p = p.engine
let mac p = p.mac
let stats p = p.stats
let set_dma_cap p cap = p.dma_cap <- cap
let set_promisc p b = p.promisc <- b

(* Chaos hook: a [true] verdict fails the frame's RX DMA transfer (the
   descriptor-error injection of the robustness harness). *)
let set_rx_fault p f = p.rx_fault <- f

(* --- transmit engine --------------------------------------------------- *)

let tx_enqueue p ?(flow = None) ~addr ~len () =
  if len <= 0 then invalid_arg "Igb.tx_enqueue: empty frame";
  if p.tx_inflight >= p.tx_ring_size then begin
    p.stats.tx_ring_full <- p.stats.tx_ring_full + 1;
    Dsim.Metrics.incr p.tx_stalls;
    Dsim.Flowtrace.(drop default ~flow Tx_ring Tx_ring_full);
    false
  end
  else begin
    (* Validate the descriptor against the bus-master window eagerly, at
       the doorbell: a misprogrammed DMA address faults the caller, it
       does not corrupt memory later. *)
    Cheri.Capability.check_access p.dma_cap Load ~addr ~len;
    p.tx_inflight <- p.tx_inflight + 1;
    Dsim.Metrics.set p.tx_ring p.tx_inflight;
    let now = Dsim.Engine.now p.engine in
    Dsim.Flowtrace.hop flow Tx_ring ~at:now;
    let dma_done = Pci_bus.reserve p.bus From_memory ~now ~bytes:len in
    Fifo.push p.tx_dma ~addr ~len ~flow ~frame:Bytes.empty ~due:dma_done;
    Dsim.Engine.schedule_at p.engine ~at:dma_done ~label:p.k_tx_dma p.on_tx_dma;
    true
  end

let tx_reap p ~max f =
  let n = ref 0 in
  while !n < max && not (Fifo.is_empty p.tx_done) do
    let addr = Fifo.addr p.tx_done in
    Fifo.drop p.tx_done;
    p.tx_inflight <- p.tx_inflight - 1;
    incr n;
    f addr
  done;
  Dsim.Metrics.set p.tx_ring p.tx_inflight;
  !n

let tx_in_flight p = p.tx_inflight

(* --- receive path ---------------------------------------------------- *)

(* RX occupancy: ring slots holding no posted buffer, i.e. descriptors
   the device consumed and [rx_refill] has not yet replenished. *)
let rx_free_slots p = p.rx_ring_size - Fifo.length p.rx_free

(* Destination filter straight off the frame bytes — no per-packet
   address allocation. The multicast test covers broadcast (I/G bit). *)
let accepts p frame =
  p.promisc
  || Mac_addr.matches_bytes_at p.mac frame ~off:0
  || Mac_addr.is_multicast_at frame ~off:0

(* [frame] is owned by the wire pool (rented in [tx_dma_done], or a
   copy made by [deliver]): it is released back once the RX DMA blit
   has consumed it, or immediately on a drop.

   Drop attribution order matches the hardware pipeline: FCS check,
   MAC filter, DMA fault, then descriptor availability. *)
let deliver_frame p ~flow ~fcs frame =
  let len = Bytes.length frame in
  (* The MAC recomputes the CRC as the frame comes off the wire; a
     mismatch never reaches a descriptor — exactly how wire bit flips
     must die. Checked before the address filter, as the CRC engine
     runs regardless of who the frame is for. *)
  if fcs <> Fcs.compute frame then begin
    p.stats.rx_crc_errors <- p.stats.rx_crc_errors + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Fcs_error);
    wire_release p frame
  end
  else if not (accepts p frame) then begin
    p.stats.rx_filtered <- p.stats.rx_filtered + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Mac_filter);
    wire_release p frame
  end
  else if (match p.rx_fault with Some f -> f ~len | None -> false) then begin
    p.stats.rx_dma_errors <- p.stats.rx_dma_errors + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Dma_error);
    wire_release p frame
  end
  else if Fifo.is_empty p.rx_free || Fifo.len p.rx_free < len then begin
    (* No posted buffer, or the head buffer is too small for the frame:
       hardware would chain descriptors, our driver always posts
       MTU-sized buffers so the second only happens on
       misconfiguration. Both count as a missed descriptor. *)
    p.stats.rx_no_desc <- p.stats.rx_no_desc + 1;
    Dsim.Metrics.incr p.rx_stalls;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Rx_ring_full);
    wire_release p frame
  end
  else begin
    let addr = Fifo.addr p.rx_free in
    Fifo.drop p.rx_free;
    Dsim.Metrics.set p.rx_ring (rx_free_slots p);
    let now = Dsim.Engine.now p.engine in
    let dma_done = Pci_bus.reserve p.bus To_memory ~now ~bytes:len in
    Fifo.push p.rx_dma ~addr ~len ~flow ~frame ~due:dma_done;
    Dsim.Engine.schedule_at p.engine ~at:dma_done ~label:p.k_rx_dma p.on_rx_dma
  end

(* Test/injection entry: the frame never crossed a MAC, so its FCS is
   computed here (i.e. always valid). The device works on a copy, so
   the caller keeps its frame and may deliver it again. *)
let deliver p ?(flow = None) frame =
  let frame = Bytes.copy frame in
  deliver_frame p ~flow ~fcs:(Fcs.compute frame) frame

let connect p link ep =
  p.wire <- Some (link, ep);
  Link.attach link ep (fun ~flow ~fcs frame -> deliver_frame p ~flow ~fcs frame)

let rx_refill p ~addr ~len =
  if Fifo.length p.rx_free >= p.rx_ring_size then false
  else begin
    Cheri.Capability.check_access p.dma_cap Store ~addr ~len;
    Fifo.push p.rx_free ~addr ~len ~flow:None ~frame:Bytes.empty ~due:0;
    Dsim.Metrics.set p.rx_ring (rx_free_slots p);
    true
  end

let rx_burst p ~max f =
  let q = p.rx_done in
  let n = ref 0 in
  while !n < max && not (Fifo.is_empty q) do
    let addr = Fifo.addr q and len = Fifo.len q and flow = Fifo.flow q in
    Fifo.drop q;
    incr n;
    f ~addr ~len ~flow
  done;
  !n

let rx_pending p = Fifo.length p.rx_done
