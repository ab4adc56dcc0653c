type node = {
  name : string;
  engine : Dsim.Engine.t;
  iv : Capvm.Intravisor.t;
  cost : Dsim.Cost_model.t;
  bus : Nic.Pci_bus.t;
  nic : Nic.Igb.t;
  mutable next_mac : int;
}

let mac_for name idx =
  (* Locally administered address derived from the node name. *)
  let h = Hashtbl.hash name land 0xffff in
  Nic.Mac_addr.make 0x02 0x82 ((h lsr 8) land 0xff) (h land 0xff) 0x57 idx

(* Each node's address space. Pages are created on first write, so the
   size costs nothing until touched. *)
let mem_size = 64 * 1024 * 1024

let make_node engine ~name ?(cost = Dsim.Cost_model.default)
    ?(generous_pci = false) ~ports () =
  let iv = Capvm.Intravisor.create engine ~mem_size ~cost in
  let bus =
    if generous_pci then
      Nic.Pci_bus.create ~rx_bps:1e10 ~tx_bps:1e10 ~per_transfer_ns:0. ()
    else Nic.Pci_bus.of_cost_model cost
  in
  let macs = List.init ports (mac_for name) in
  let nic = Nic.Igb.create engine (Capvm.Intravisor.mem iv) ~bus ~macs () in
  { name; engine; iv; cost; bus; nic; next_mac = ports }

let intravisor t = t.iv
let node_mem t = Capvm.Intravisor.mem t.iv
let node_cost t = t.cost
let nic t = t.nic
let port t i = Nic.Igb.port t.nic i

let link engine a ai b bi =
  let cost = a.cost in
  let l =
    Nic.Link.create engine ~bps:1e9
      ~prop_delay:(Dsim.Time.of_float_ns cost.Dsim.Cost_model.prop_delay_ns)
      ()
  in
  Nic.Igb.connect (port a ai) l Nic.Link.A;
  Nic.Igb.connect (port b bi) l Nic.Link.B;
  l

type netif = {
  eal : Dpdk.Eal.t;
  pool : Dpdk.Mbuf.pool;
  dev : Dpdk.Eth_dev.t;
  stack : Netstack.Stack.t;
  ff : Netstack.Ff_api.t;
  uio : Dpdk.Igb_uio.binding;
}

let default_netif_region_size = 9 * 1024 * 1024

let pool_counter = ref 0

(* Mbufs per netif pool. *)
let pool_bufs = 4096

let make_netif node ~region ~port_idx ~ip ?(stack_tuning = Fun.id) () =
  let mem = node_mem node in
  let eal = Dpdk.Eal.create mem ~region in
  incr pool_counter;
  let pool_name = Printf.sprintf "%s-p%d-%d" node.name port_idx !pool_counter in
  let pool =
    Dpdk.Mbuf.pool_create eal ~name:pool_name ~n:pool_bufs ~buf_len:2048
  in
  let p = port node port_idx in
  (* Kernel detach: the DMA window is exactly the mempool's memzone. *)
  let zone =
    match Dpdk.Eal.memzone_lookup eal ~name:("mbuf-" ^ pool_name) with
    | Some z -> z
    | None -> invalid_arg "make_netif: mempool zone vanished"
  in
  let uio = Dpdk.Igb_uio.bind p ~dma_window:zone in
  let dev = Dpdk.Eth_dev.attach eal p ~rx_pool:pool in
  Dpdk.Eth_dev.start dev;
  let cfg = stack_tuning (Netstack.Stack.default_config ~ip) in
  let stack = Netstack.Stack.create node.engine mem dev cfg in
  let ff = Netstack.Ff_api.attach stack mem in
  { eal; pool; dev; stack; ff; uio }
