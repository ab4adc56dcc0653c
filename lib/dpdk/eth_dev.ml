type t = {
  port : Nic.Igb.port;
  rx_pool : Mbuf.pool;
  in_flight : (int, Mbuf.t) Hashtbl.t;  (* posted addr -> owning mbuf *)
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
    in_flight = Hashtbl.create 512;
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

let post_rx t m =
  (* The device writes at the mbuf's data address, leaving the headroom
     available for (de)encapsulation by the stack. *)
  let addr = Mbuf.data_addr m in
  let room = Mbuf.tailroom m in
  if Nic.Igb.rx_refill t.port ~addr ~len:room then begin
    Hashtbl.replace t.in_flight addr m;
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
    (fun addr ->
      match Hashtbl.find_opt t.in_flight addr with
      | Some m ->
        Hashtbl.remove t.in_flight addr;
        Mbuf.free m
      | None -> ())
    (Nic.Igb.tx_reap t.port ~max:max_int)

let rx_burst t ~max =
  reap t;
  let completions = Nic.Igb.rx_burst t.port ~max in
  let now = Dsim.Engine.now (Nic.Igb.engine t.port) in
  let take (addr, pkt_len, flow) =
    match Hashtbl.find_opt t.in_flight addr with
    | None -> None
    | Some m ->
      Hashtbl.remove t.in_flight addr;
      (* Geometry: the device filled [pkt_len] bytes at the data
         address; reflect that in the mbuf. *)
      ignore (Mbuf.append m pkt_len);
      Dsim.Flowtrace.hop flow Rx_ring ~at:now;
      Mbuf.set_flow m flow;
      Some m
  in
  let mbufs = List.filter_map take completions in
  restock t;
  if mbufs <> [] then begin
    Dsim.Metrics.incr t.m_rx_bursts;
    Dsim.Metrics.incr t.m_rx_packets ~by:(List.length mbufs);
    Dsim.Metrics.incr t.m_rx_bytes
      ~by:(List.fold_left (fun n m -> n + Mbuf.data_len m) 0 mbufs)
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
        Hashtbl.replace t.in_flight addr m;
        go (sent + 1) (bytes + len) rest
      end
      else (sent, bytes, m :: rest)
  in
  let sent, bytes, leftover = go 0 0 mbufs in
  if sent > 0 then begin
    Dsim.Metrics.incr t.m_tx_bursts;
    Dsim.Metrics.incr t.m_tx_packets ~by:sent;
    Dsim.Metrics.incr t.m_tx_bytes ~by:bytes
  end;
  sync_drops t;
  leftover
