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

(* The mbufs of one RX burst, in completion order: collected before any
   is handed to the caller's handler, so a burst allocates nothing. *)
type burst = {
  mutable mbufs : Mbuf.t array;
  mutable n : int;
  mutable bytes : int;
}

let burst_push b m =
  if b.n = Array.length b.mbufs then begin
    let bigger = Array.make (max 32 (2 * b.n)) m in
    Array.blit b.mbufs 0 bigger 0 b.n;
    b.mbufs <- bigger
  end;
  b.mbufs.(b.n) <- m;
  b.n <- b.n + 1;
  b.bytes <- b.bytes + Mbuf.data_len m

type t = {
  port : Nic.Igb.port;
  rx_pool : Mbuf.pool;
  rx_ring : ring;
  tx_ring : ring;
  burst : burst;
  (* The completion callbacks handed to [Nic.Igb.rx_burst] and
     [Nic.Igb.tx_reap], made once at [attach]. *)
  on_rx : addr:int -> len:int -> flow:Dsim.Flowtrace.ctx option -> unit;
  on_tx : int -> unit;
  m_rx_bursts : Dsim.Metrics.counter;
  m_tx_bursts : Dsim.Metrics.counter;
  m_rx_packets : Dsim.Metrics.counter;
  m_tx_packets : Dsim.Metrics.counter;
  m_rx_bytes : Dsim.Metrics.counter;
  m_tx_bytes : Dsim.Metrics.counter;
  m_drops : Dsim.Metrics.gauge;
}

(* An RX completion: the device filled [len] bytes at the head mbuf's
   data address; reflect that in the mbuf and add it to the burst. *)
let rx_complete port rx_ring burst ~addr ~len ~flow =
  let m = ring_take rx_ring ~addr in
  ignore (Mbuf.append m len);
  Dsim.Flowtrace.hop flow Rx_ring ~at:(Dsim.Engine.now (Nic.Igb.engine port));
  Mbuf.set_flow m flow;
  burst_push burst m

let tx_complete tx_ring addr = Mbuf.free (ring_take tx_ring ~addr)

let attach _eal port ~rx_pool =
  let reg = Dsim.Metrics.default in
  let p = [ ("port", Nic.Mac_addr.to_string (Nic.Igb.mac port)) ] in
  let dir d = ("dir", d) :: p in
  let rx_ring = ring () and tx_ring = ring () in
  let burst = { mbufs = [||]; n = 0; bytes = 0 } in
  {
    port;
    rx_pool;
    rx_ring;
    tx_ring;
    burst;
    on_rx = rx_complete port rx_ring burst;
    on_tx = tx_complete tx_ring;
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

let rec restock t =
  if Nic.Igb.rx_free_slots t.port > 0 then
    match Mbuf.alloc t.rx_pool with
    | None -> ()
    | Some m -> if post_rx t m then restock t

let start t = restock t

let reap t = ignore (Nic.Igb.tx_reap t.port ~max:max_int t.on_tx)

let rx_burst t ~max handle =
  reap t;
  let b = t.burst in
  b.n <- 0;
  b.bytes <- 0;
  let n = Nic.Igb.rx_burst t.port ~max t.on_rx in
  restock t;
  if n > 0 && Dsim.Metrics.enabled Dsim.Metrics.default then begin
    Dsim.Metrics.incr t.m_rx_bursts;
    Dsim.Metrics.incr_by t.m_rx_packets n;
    Dsim.Metrics.incr_by t.m_rx_bytes b.bytes
  end;
  sync_drops t;
  for i = 0 to n - 1 do
    handle b.mbufs.(i)
  done;
  n

(* Ring the doorbell for each of [mbufs] until the TX ring refuses
   one; the refused suffix. Top-level, like [prefix_bytes], so a burst
   allocates no closure or tuple. *)
let rec enqueue_tx t = function
  | [] -> []
  | m :: rest as mbufs ->
    let addr = Mbuf.data_addr m in
    let len = Mbuf.data_len m in
    if Nic.Igb.tx_enqueue t.port ~flow:(Mbuf.flow m) ~addr ~len () then begin
      ring_push t.tx_ring m;
      enqueue_tx t rest
    end
    else mbufs

let rec prefix_bytes mbufs n acc =
  match mbufs with
  | m :: rest when n > 0 -> prefix_bytes rest (n - 1) (acc + Mbuf.data_len m)
  | _ -> acc

let tx_burst t mbufs =
  reap t;
  let queued = t.tx_ring.count in
  let leftover = enqueue_tx t mbufs in
  let sent = t.tx_ring.count - queued in
  if sent > 0 then begin
    Dsim.Metrics.incr t.m_tx_bursts;
    Dsim.Metrics.incr_by t.m_tx_packets sent;
    Dsim.Metrics.incr_by t.m_tx_bytes (prefix_bytes mbufs sent 0)
  end;
  sync_drops t;
  leftover
