type rx_desc = { rx_addr : int; rx_len : int }

type tx_req = {
  tx_addr : int;
  tx_len : int;
  tx_flow : Dsim.Flowtrace.ctx option;
}

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
  rx_free : rx_desc Queue.t;
  rx_done : (int * int * Dsim.Flowtrace.ctx option) Queue.t;
  tx_pending : tx_req Queue.t;
  tx_done : int Queue.t;
  mutable tx_inflight : int;
  k_tx_dma : Dsim.Profile.key;
  k_tx_wire : Dsim.Profile.key;
  k_rx_dma : Dsim.Profile.key;
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

let create engine mem ~bus ~macs ?(rx_ring_size = 512) ?(tx_ring_size = 1024)
    () =
  let make_port index mac =
    let cvm = Printf.sprintf "port%d" index in
    let reg = Dsim.Metrics.default in
    let labels = [ ("port", Mac_addr.to_string mac) ] in
    let ring_full resource =
      Dsim.Metrics.stall reg ~labels ~resource ~kind:"ring_full" ()
    in
    {
      index;
      mac;
      engine;
      mem;
      bus;
      rx_ring_size;
      tx_ring_size;
      rx_free = Queue.create ();
      rx_done = Queue.create ();
      tx_pending = Queue.create ();
      tx_done = Queue.create ();
      tx_inflight = 0;
      k_tx_dma = Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_dma";
      k_tx_wire =
        Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_wire";
      k_rx_dma = Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"rx_dma";
      tx_ring =
        Dsim.Metrics.gauge reg ~help:"TX descriptors posted and not yet reaped."
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

(* --- transmit engine ---------------------------------------------------

   The two stages pipeline across descriptors like real hardware: the
   PCI bus serialises DMA reads (its busy horizon), the MAC serialises
   frames on the wire (the link's busy horizon) — so descriptor N+1's
   DMA overlaps descriptor N's transmission. *)

let kick_tx p =
  while not (Queue.is_empty p.tx_pending) do
    let req = Queue.pop p.tx_pending in
    let now = Dsim.Engine.now p.engine in
    let dma_done =
      Pci_bus.reserve p.bus From_memory ~now ~bytes:req.tx_len
    in
    ignore
      (Dsim.Engine.schedule_at p.engine ~at:dma_done ~label:p.k_tx_dma
         (fun () ->
           let frame = wire_rent p req.tx_len in
           (* The descriptor was validated against [dma_cap] at the
              doorbell ([tx_enqueue]); the completion-side copy needs no
              second capability check. *)
           Cheri.Tagged_memory.unchecked_blit_out p.mem ~addr:req.tx_addr
             ~dst:frame ~dst_off:0 ~len:req.tx_len;
           Dsim.Flowtrace.hop req.tx_flow Tx_dma
             ~at:(Dsim.Engine.now p.engine);
           let tx_done_at =
             match p.wire with
             | Some (link, ep) ->
               Link.transmit link ~flow:req.tx_flow ~from:ep ~frame ()
             | None ->
               wire_release p frame;
               Dsim.Engine.now p.engine
           in
           ignore
             (Dsim.Engine.schedule_at p.engine ~at:tx_done_at
                ~label:p.k_tx_wire (fun () ->
                  p.stats.tx_packets <- p.stats.tx_packets + 1;
                  p.stats.tx_bytes <- p.stats.tx_bytes + req.tx_len;
                  Dsim.Flowtrace.hop req.tx_flow Wire
                    ~at:(Dsim.Engine.now p.engine);
                  Queue.push req.tx_addr p.tx_done))))
  done

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
    Dsim.Flowtrace.hop flow Tx_ring ~at:(Dsim.Engine.now p.engine);
    Queue.push { tx_addr = addr; tx_len = len; tx_flow = flow } p.tx_pending;
    kick_tx p;
    true
  end

let tx_reap p ~max =
  let rec take n acc =
    if n = 0 || Queue.is_empty p.tx_done then List.rev acc
    else begin
      let addr = Queue.pop p.tx_done in
      p.tx_inflight <- p.tx_inflight - 1;
      take (n - 1) (addr :: acc)
    end
  in
  let reaped = take max [] in
  Dsim.Metrics.set p.tx_ring p.tx_inflight;
  reaped

let tx_in_flight p = p.tx_inflight

(* --- receive path ---------------------------------------------------- *)

(* RX occupancy: ring slots holding no posted buffer, i.e. descriptors
   the device consumed and [rx_refill] has not yet replenished. *)
let rx_free_slots p = p.rx_ring_size - Queue.length p.rx_free

(* Destination filter straight off the frame bytes — no per-packet
   address allocation. The multicast test covers broadcast (I/G bit). *)
let accepts p frame =
  p.promisc
  || Mac_addr.matches_bytes_at p.mac frame ~off:0
  || Mac_addr.is_multicast_at frame ~off:0

(* [recycle] marks frames owned by the wire pool (rented in [kick_tx]):
   those are released back once the RX DMA blit has consumed them, or
   immediately on a drop. Frames handed in directly (tests, fault
   injection) stay owned by the caller — they may be re-delivered.

   Drop attribution order matches the hardware pipeline: FCS check,
   MAC filter, DMA fault, then descriptor availability. *)
let deliver_frame p ~flow ~fcs ~recycle frame =
  let len = Bytes.length frame in
  (* The MAC recomputes the CRC as the frame comes off the wire; a
     mismatch never reaches a descriptor — exactly how wire bit flips
     must die. Checked before the address filter, as the CRC engine
     runs regardless of who the frame is for. *)
  if fcs <> Fcs.compute frame then begin
    p.stats.rx_crc_errors <- p.stats.rx_crc_errors + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Fcs_error);
    if recycle then wire_release p frame
  end
  else if not (accepts p frame) then begin
    p.stats.rx_filtered <- p.stats.rx_filtered + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Mac_filter);
    if recycle then wire_release p frame
  end
  else if (match p.rx_fault with Some f -> f ~len | None -> false) then begin
    p.stats.rx_dma_errors <- p.stats.rx_dma_errors + 1;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Dma_error);
    if recycle then wire_release p frame
  end
  else if Queue.is_empty p.rx_free then begin
    p.stats.rx_no_desc <- p.stats.rx_no_desc + 1;
    Dsim.Metrics.incr p.rx_stalls;
    Dsim.Flowtrace.(drop default ~flow Rx_dma Rx_ring_full);
    if recycle then wire_release p frame
  end
  else begin
    let desc = Queue.peek p.rx_free in
    if desc.rx_len < len then begin
      (* Buffer too small for the frame; hardware would chain
         descriptors, our driver always posts MTU-sized buffers so this
         only happens on misconfiguration. Count it as a drop. *)
      p.stats.rx_no_desc <- p.stats.rx_no_desc + 1;
      Dsim.Metrics.incr p.rx_stalls;
      Dsim.Flowtrace.(drop default ~flow Rx_dma Rx_ring_full);
      if recycle then wire_release p frame
    end
    else begin
      ignore (Queue.pop p.rx_free);
      Dsim.Metrics.set p.rx_ring (rx_free_slots p);
      let now = Dsim.Engine.now p.engine in
      let dma_done =
        Pci_bus.reserve p.bus To_memory ~now ~bytes:len
      in
      ignore
        (Dsim.Engine.schedule_at p.engine ~at:dma_done ~label:p.k_rx_dma
           (fun () ->
             (* The buffer was validated against [dma_cap] when posted
                ([rx_refill]); no second check at DMA completion. *)
             Cheri.Tagged_memory.unchecked_blit_in p.mem ~addr:desc.rx_addr
               ~src:frame ~src_off:0 ~len;
             p.stats.rx_packets <- p.stats.rx_packets + 1;
             p.stats.rx_bytes <- p.stats.rx_bytes + len;
             Dsim.Flowtrace.hop flow Rx_dma ~at:(Dsim.Engine.now p.engine);
             Queue.push (desc.rx_addr, len, flow) p.rx_done;
             if recycle then wire_release p frame))
    end
  end

(* Test/injection entry: the frame never crossed a MAC, so its FCS is
   computed here (i.e. always valid). *)
let deliver p ?(flow = None) frame =
  deliver_frame p ~flow ~fcs:(Fcs.compute frame) ~recycle:false frame

let connect p link ep =
  p.wire <- Some (link, ep);
  Link.attach link ep (fun ~flow ~fcs frame ->
      deliver_frame p ~flow ~fcs ~recycle:true frame)

let rx_refill p ~addr ~len =
  if Queue.length p.rx_free >= p.rx_ring_size then false
  else begin
    Cheri.Capability.check_access p.dma_cap Store ~addr ~len;
    Queue.push { rx_addr = addr; rx_len = len } p.rx_free;
    Dsim.Metrics.set p.rx_ring (rx_free_slots p);
    true
  end

let rx_burst p ~max =
  let rec take n acc =
    if n = 0 || Queue.is_empty p.rx_done then List.rev acc
    else take (n - 1) (Queue.pop p.rx_done :: acc)
  in
  take max []

let rx_pending p = Queue.length p.rx_done
