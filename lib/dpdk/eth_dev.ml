(* A software ring: one direction's mbufs in descriptor order, as the
   igb PMD keeps them in [sw_ring]. [Nic.Igb] completes RX descriptors
   in [rx_refill] order (a dropped frame consumes none) and TX ones in
   doorbell order (the bus and the wire are serial), so every
   completion belongs to the head. *)
type ring = {
  mutable slots : Mbuf.t array;
  mutable head : int;
  mutable count : int;
}

let ring () = { slots = [||]; head = 0; count = 0 }

(* A full ring doubles, so it allocates only until it reaches its
   deepest occupancy. *)
let ring_push r m =
  let size = Array.length r.slots in
  if r.count = size then begin
    let bigger = Array.make (max 64 (2 * size)) m in
    for i = 0 to r.count - 1 do
      bigger.(i) <- r.slots.((r.head + i) mod size)
    done;
    r.slots <- bigger;
    r.head <- 0
  end;
  r.slots.((r.head + r.count) mod Array.length r.slots) <- m;
  r.count <- r.count + 1

let ring_take r ~addr =
  if r.count = 0 then
    invalid_arg (Printf.sprintf "Eth_dev: completion at 0x%x, ring empty" addr);
  let m = r.slots.(r.head) in
  if Mbuf.data_addr m <> addr then
    invalid_arg
      (Printf.sprintf "Eth_dev: completion at 0x%x, ring head at 0x%x" addr
         (Mbuf.data_addr m));
  r.head <- (r.head + 1) mod Array.length r.slots;
  r.count <- r.count - 1;
  m

type t = {
  port : Nic.Igb.port;
  rx_pool : Mbuf.pool;
  rx_ring : ring;
  tx_ring : ring;
  m_rx_bursts : Dsim.Metrics.counter;
  m_tx_bursts : Dsim.Metrics.counter;
  m_rx_packets : Dsim.Metrics.counter;
  m_tx_packets : Dsim.Metrics.counter;
  m_rx_bytes : Dsim.Metrics.counter;
  m_tx_bytes : Dsim.Metrics.counter;
  m_drops : Dsim.Metrics.gauge;
}

let attach _eal port ~rx_pool =
  let reg = Dsim.Metrics.default in
  let p = [ ("port", Nic.Mac_addr.to_string (Nic.Igb.mac port)) ] in
  let dir d = ("dir", d) :: p in
  {
    port;
    rx_pool;
    rx_ring = ring ();
    tx_ring = ring ();
    m_rx_bursts =
      Dsim.Metrics.counter reg ~help:"Non-empty PMD bursts, by direction."
        ~labels:(dir "rx") "dpdk_bursts_total";
    m_tx_bursts =
      Dsim.Metrics.counter reg ~help:"Non-empty PMD bursts, by direction."
        ~labels:(dir "tx") "dpdk_bursts_total";
    m_rx_packets =
      Dsim.Metrics.counter reg ~help:"Packets through the PMD, by direction."
        ~labels:(dir "rx") "dpdk_packets_total";
    m_tx_packets =
      Dsim.Metrics.counter reg ~help:"Packets through the PMD, by direction."
        ~labels:(dir "tx") "dpdk_packets_total";
    m_rx_bytes =
      Dsim.Metrics.counter reg
        ~help:"Frame bytes DMAed between tagged memory and the wire."
        ~labels:(dir "rx") "nic_dma_bytes_total";
    m_tx_bytes =
      Dsim.Metrics.counter reg
        ~help:"Frame bytes DMAed between tagged memory and the wire."
        ~labels:(dir "tx") "nic_dma_bytes_total";
    m_drops =
      Dsim.Metrics.gauge reg
        ~help:"Device drops so far (RX ring empty + MAC filter + TX ring full)."
        ~labels:p "nic_drops";
  }

let sync_drops t =
  if Dsim.Metrics.enabled Dsim.Metrics.default then begin
    let s = Nic.Igb.stats t.port in
    Dsim.Metrics.set t.m_drops
      Nic.Port_stats.(s.rx_no_desc + s.rx_filtered + s.tx_ring_full)
  end

let port t = t.port
let rx_pool t = t.rx_pool
let rx_posted t = t.rx_ring.count
let tx_queued t = t.tx_ring.count

let post_rx t m =
  (* The device writes at the mbuf's data address, leaving the headroom
     available for (de)encapsulation by the stack. *)
  let addr = Mbuf.data_addr m in
  let room = Mbuf.tailroom m in
  if Nic.Igb.rx_refill t.port ~addr ~len:room then begin
    ring_push t.rx_ring m;
    true
  end
  else begin
    Mbuf.free m;
    false
  end

let restock t =
  let rec go () =
    if Nic.Igb.rx_free_slots t.port > 0 then
      match Mbuf.alloc t.rx_pool with
      | None -> ()
      | Some m -> if post_rx t m then go ()
  in
  go ()

let start t = restock t

let reap t =
  List.iter
    (fun addr -> Mbuf.free (ring_take t.tx_ring ~addr))
    (Nic.Igb.tx_reap t.port ~max:max_int)

let rx_burst t ~max =
  reap t;
  let completions = Nic.Igb.rx_burst t.port ~max in
  let now = Dsim.Engine.now (Nic.Igb.engine t.port) in
  let take (addr, pkt_len, flow) =
    let m = ring_take t.rx_ring ~addr in
    (* Geometry: the device filled [pkt_len] bytes at the data address;
       reflect that in the mbuf. *)
    ignore (Mbuf.append m pkt_len);
    Dsim.Flowtrace.hop flow Rx_ring ~at:now;
    Mbuf.set_flow m flow;
    m
  in
  let mbufs = List.map take completions in
  restock t;
  if (not (List.is_empty mbufs)) && Dsim.Metrics.enabled Dsim.Metrics.default then begin
    Dsim.Metrics.incr t.m_rx_bursts;
    Dsim.Metrics.incr_by t.m_rx_packets (List.length mbufs);
    Dsim.Metrics.incr_by t.m_rx_bytes
      (List.fold_left (fun n m -> n + Mbuf.data_len m) 0 mbufs)
  end;
  sync_drops t;
  mbufs

let tx_burst t mbufs =
  reap t;
  let rec go sent bytes = function
    | [] -> (sent, bytes, [])
    | m :: rest ->
      let addr = Mbuf.data_addr m in
      let len = Mbuf.data_len m in
      if Nic.Igb.tx_enqueue t.port ~flow:(Mbuf.flow m) ~addr ~len () then begin
        ring_push t.tx_ring m;
        go (sent + 1) (bytes + len) rest
      end
      else (sent, bytes, m :: rest)
  in
  let sent, bytes, leftover = go 0 0 mbufs in
  if sent > 0 then begin
    Dsim.Metrics.incr t.m_tx_bursts;
    Dsim.Metrics.incr_by t.m_tx_packets sent;
    Dsim.Metrics.incr_by t.m_tx_bytes bytes
  end;
  sync_drops t;
  leftover
