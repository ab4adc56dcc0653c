type rx_desc = { rx_addr : int; rx_len : int }

type tx_req = {
  tx_addr : int;
  tx_len : int;
  tx_flow : Dsim.Flowtrace.ctx option;
}

(* One RX/TX descriptor-ring pair. A single-queue port is the 82576's
   reset configuration; with [?queues:n > 1] the port exposes [n] pairs
   and steers received IPv4 frames across them with an RSS Toeplitz
   hash over the 5-tuple ({!Rss}), like the real device's MRQC/RETA
   registers. Each queue carries its own {!Port_stats} shadow counters,
   profiler keys and {!Dsim.Watermark} occupancy cells, so per-queue
   imbalance is observable. *)
type queue = {
  qid : int;
  rx_free : rx_desc Queue.t;
  rx_done : (int * int * Dsim.Flowtrace.ctx option) Queue.t;
  tx_pending : tx_req Queue.t;
  tx_done : int Queue.t;
  mutable tx_inflight : int;
  q_stats : Port_stats.t;
  k_tx_dma : Dsim.Profile.key;
  k_tx_wire : Dsim.Profile.key;
  k_rx_dma : Dsim.Profile.key;
  wm_tx : Dsim.Watermark.cell;
  wm_rx : Dsim.Watermark.cell;
}

type port = {
  index : int;
  mac : Mac_addr.t;
  engine : Dsim.Engine.t;
  mem : Cheri.Tagged_memory.t;
  bus : Pci_bus.t;
  rx_ring_size : int;
  tx_ring_size : int;
  queues : queue array;
  rss : Rss.t;
  mutable dma_cap : Cheri.Capability.t;
  mutable wire : (Link.t * Link.endpoint) option;
  mutable promisc : bool;
  mutable rx_fault : (len:int -> bool) option;
  stats : Port_stats.t;  (* port-level aggregate, all queues *)
}

type t = { ports : port array }

let create engine mem ~bus ~macs ?(rx_ring_size = 512) ?(tx_ring_size = 1024)
    ?(queues = 1) ?rss_key () =
  if queues < 1 then invalid_arg "Igb.create: queues must be >= 1";
  let make_queue index qid =
    (* Queue 0 keeps the pre-multi-queue identity — cvm ["portN"],
       watermark labels [("port", N)] — so single-queue profiles,
       watermark dumps and perf baselines are byte-identical to the
       old single-ring device. Extra queues carry a queue label. *)
    let cvm =
      if qid = 0 then Printf.sprintf "port%d" index
      else Printf.sprintf "port%dq%d" index qid
    in
    let wm_labels =
      if qid = 0 then [ ("port", string_of_int index) ]
      else [ ("port", string_of_int index); ("queue", string_of_int qid) ]
    in
    {
      qid;
      rx_free = Queue.create ();
      rx_done = Queue.create ();
      tx_pending = Queue.create ();
      tx_done = Queue.create ();
      tx_inflight = 0;
      q_stats = Port_stats.create ();
      k_tx_dma = Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_dma";
      k_tx_wire =
        Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"tx_wire";
      k_rx_dma = Dsim.Profile.(key default) ~component:"nic" ~cvm ~stage:"rx_dma";
      wm_tx =
        Dsim.Watermark.(cell default) ~capacity:tx_ring_size ~labels:wm_labels
          "nic_tx_ring";
      wm_rx =
        Dsim.Watermark.(cell default) ~capacity:rx_ring_size ~labels:wm_labels
          "nic_rx_ring";
    }
  in
  let make_port index mac =
    {
      index;
      mac;
      engine;
      mem;
      bus;
      rx_ring_size;
      tx_ring_size;
      queues = Array.init queues (make_queue index);
      rss = Rss.create ?key:rss_key ~queues ();
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
let num_queues p = Array.length p.queues

let getq p i =
  if i < 0 || i >= Array.length p.queues then
    invalid_arg (Printf.sprintf "Igb.port %d: no queue %d" p.index i);
  p.queues.(i)

let queue_stats p i = (getq p i).q_stats
let rss p = p.rss
let queue_of_frame p frame = Rss.classify p.rss frame
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
   DMA overlaps descriptor N's transmission. Queues share the bus and
   the MAC: multi-queue TX interleaves at those two horizons exactly
   as the single hardware port would. *)

let kick_tx p q =
  while not (Queue.is_empty q.tx_pending) do
    let req = Queue.pop q.tx_pending in
    let now = Dsim.Engine.now p.engine in
    let dma_done =
      Pci_bus.reserve p.bus From_memory ~now ~bytes:req.tx_len
    in
    ignore
      (Dsim.Engine.schedule_at_l p.engine ~at:dma_done ~label:q.k_tx_dma
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
             (Dsim.Engine.schedule_at_l p.engine ~at:tx_done_at
                ~label:q.k_tx_wire (fun () ->
                  p.stats.tx_packets <- p.stats.tx_packets + 1;
                  p.stats.tx_bytes <- p.stats.tx_bytes + req.tx_len;
                  q.q_stats.tx_packets <- q.q_stats.tx_packets + 1;
                  q.q_stats.tx_bytes <- q.q_stats.tx_bytes + req.tx_len;
                  Dsim.Flowtrace.hop req.tx_flow Wire
                    ~at:(Dsim.Engine.now p.engine);
                  Queue.push req.tx_addr q.tx_done))))
  done

let tx_enqueue ?(queue = 0) p ?(flow = None) ~addr ~len () =
  if len <= 0 then invalid_arg "Igb.tx_enqueue: empty frame";
  let q = getq p queue in
  if q.tx_inflight >= p.tx_ring_size then begin
    p.stats.tx_ring_full <- p.stats.tx_ring_full + 1;
    q.q_stats.tx_ring_full <- q.q_stats.tx_ring_full + 1;
    Dsim.Watermark.(stall q.wm_tx Ring_full);
    Dsim.Flowtrace.(drop default ~flow Tx_ring Tx_ring_full);
    false
  end
  else begin
    (* Validate the descriptor against the bus-master window eagerly, at
       the doorbell: a misprogrammed DMA address faults the caller, it
       does not corrupt memory later. *)
    Cheri.Capability.check_access p.dma_cap Load ~addr ~len;
    q.tx_inflight <- q.tx_inflight + 1;
    Dsim.Watermark.observe q.wm_tx q.tx_inflight;
    Dsim.Flowtrace.hop flow Tx_ring ~at:(Dsim.Engine.now p.engine);
    Queue.push { tx_addr = addr; tx_len = len; tx_flow = flow } q.tx_pending;
    kick_tx p q;
    true
  end

let tx_reap ?(queue = 0) p ~max =
  let q = getq p queue in
  let rec take n acc =
    if n = 0 || Queue.is_empty q.tx_done then List.rev acc
    else begin
      let addr = Queue.pop q.tx_done in
      q.tx_inflight <- q.tx_inflight - 1;
      take (n - 1) (addr :: acc)
    end
  in
  let reaped = take max [] in
  Dsim.Watermark.observe q.wm_tx q.tx_inflight;
  reaped

let tx_in_flight ?(queue = 0) p = (getq p queue).tx_inflight

(* --- receive path ---------------------------------------------------- *)

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

   Drop attribution order matches the hardware pipeline: FCS check and
   MAC filter run before RSS classification (the CRC engine and filter
   see every frame, the hash only frames that survive them), so those
   drops are port-level; no-descriptor drops land on the classified
   queue's counters. With one queue, classification short-circuits to
   queue 0 without touching the frame bytes. *)
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
  else begin
    let q = p.queues.(Rss.classify p.rss frame) in
    if Queue.is_empty q.rx_free then begin
      p.stats.rx_no_desc <- p.stats.rx_no_desc + 1;
      q.q_stats.rx_no_desc <- q.q_stats.rx_no_desc + 1;
      Dsim.Watermark.(stall q.wm_rx Ring_full);
      Dsim.Flowtrace.(drop default ~flow Rx_dma Rx_ring_full);
      if recycle then wire_release p frame
    end
    else begin
      let desc = Queue.peek q.rx_free in
      if desc.rx_len < len then begin
        (* Buffer too small for the frame; hardware would chain
           descriptors, our driver always posts MTU-sized buffers so this
           only happens on misconfiguration. Count it as a drop. *)
        p.stats.rx_no_desc <- p.stats.rx_no_desc + 1;
        q.q_stats.rx_no_desc <- q.q_stats.rx_no_desc + 1;
        Dsim.Watermark.(stall q.wm_rx Ring_full);
        Dsim.Flowtrace.(drop default ~flow Rx_dma Rx_ring_full);
        if recycle then wire_release p frame
      end
      else begin
        ignore (Queue.pop q.rx_free);
        (* RX occupancy = posted descriptors consumed and not yet
           replenished by [rx_refill]. *)
        Dsim.Watermark.observe q.wm_rx
          (p.rx_ring_size - Queue.length q.rx_free);
        let now = Dsim.Engine.now p.engine in
        let dma_done =
          Pci_bus.reserve p.bus To_memory ~now ~bytes:len
        in
        ignore
          (Dsim.Engine.schedule_at_l p.engine ~at:dma_done ~label:q.k_rx_dma
             (fun () ->
               (* The buffer was validated against [dma_cap] when posted
                  ([rx_refill]); no second check at DMA completion. *)
               Cheri.Tagged_memory.unchecked_blit_in p.mem ~addr:desc.rx_addr
                 ~src:frame ~src_off:0 ~len;
               p.stats.rx_packets <- p.stats.rx_packets + 1;
               p.stats.rx_bytes <- p.stats.rx_bytes + len;
               q.q_stats.rx_packets <- q.q_stats.rx_packets + 1;
               q.q_stats.rx_bytes <- q.q_stats.rx_bytes + len;
               Dsim.Flowtrace.hop flow Rx_dma ~at:(Dsim.Engine.now p.engine);
               Queue.push (desc.rx_addr, len, flow) q.rx_done;
               if recycle then wire_release p frame))
      end
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

let rx_refill ?(queue = 0) p ~addr ~len =
  let q = getq p queue in
  if Queue.length q.rx_free >= p.rx_ring_size then false
  else begin
    Cheri.Capability.check_access p.dma_cap Store ~addr ~len;
    Queue.push { rx_addr = addr; rx_len = len } q.rx_free;
    Dsim.Watermark.observe q.wm_rx (p.rx_ring_size - Queue.length q.rx_free);
    true
  end

let rx_burst ?(queue = 0) p ~max =
  let q = getq p queue in
  let rec take n acc =
    if n = 0 || Queue.is_empty q.rx_done then List.rev acc
    else take (n - 1) (Queue.pop q.rx_done :: acc)
  in
  take max []

let rx_pending ?(queue = 0) p = Queue.length (getq p queue).rx_done
let rx_free_slots ?(queue = 0) p = p.rx_ring_size - Queue.length (getq p queue).rx_free
