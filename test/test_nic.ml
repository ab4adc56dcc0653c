(* Tests for the simulated NIC hardware: MAC addressing, PCI bus, link
   and the igb-class device. *)

let mac_roundtrip () =
  let m = Nic.Mac_addr.of_string_exn "02:82:ab:cd:57:01" in
  Alcotest.(check string) "pp" "02:82:ab:cd:57:01" (Nic.Mac_addr.to_string m);
  Alcotest.(check bool) "equal to make" true
    (Nic.Mac_addr.equal m (Nic.Mac_addr.make 0x02 0x82 0xab 0xcd 0x57 0x01));
  Alcotest.(check bool) "roundtrip via bytes" true
    (Nic.Mac_addr.equal m (Nic.Mac_addr.of_bytes_exn (Nic.Mac_addr.to_bytes m)))

let mac_classes () =
  Alcotest.(check bool) "broadcast" true (Nic.Mac_addr.is_broadcast Nic.Mac_addr.broadcast);
  Alcotest.(check bool) "broadcast is multicast" true
    (Nic.Mac_addr.is_multicast Nic.Mac_addr.broadcast);
  Alcotest.(check bool) "unicast" false
    (Nic.Mac_addr.is_multicast (Nic.Mac_addr.make 2 0 0 0 0 1));
  Alcotest.(check bool) "multicast bit" true
    (Nic.Mac_addr.is_multicast (Nic.Mac_addr.make 1 0 0 0 0 0))

let mac_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (match Nic.Mac_addr.of_string_exn s with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "1:2:3"; "gg:00:00:00:00:00"; "00:00:00:00:00:00:00"; "" ]

(* ------------------------------------------------------------------ *)
(* PCI bus                                                              *)
(* ------------------------------------------------------------------ *)

let pci_serialization () =
  let bus = Nic.Pci_bus.create ~rx_bps:8e8 ~tx_bps:8e8 () in
  (* 100 bytes at 100 MB/s = 1000 ns each; the second transfer queues. *)
  let t1 = Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:Dsim.Time.zero ~bytes:100 in
  let t2 = Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:Dsim.Time.zero ~bytes:100 in
  Alcotest.(check int) "first transfer" 1000 t1;
  Alcotest.(check int) "second queues behind" 2000 t2;
  Alcotest.(check int) "transfer count" 2 (Nic.Pci_bus.transfers bus Nic.Pci_bus.To_memory)

let pci_directions_independent () =
  let bus = Nic.Pci_bus.create ~rx_bps:8e8 ~tx_bps:8e8 () in
  let t1 = Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:Dsim.Time.zero ~bytes:100 in
  let t2 = Nic.Pci_bus.reserve bus Nic.Pci_bus.From_memory ~now:Dsim.Time.zero ~bytes:100 in
  Alcotest.(check int) "rx" 1000 t1;
  Alcotest.(check int) "tx does not queue behind rx" 1000 t2

let pci_gap_idles () =
  let bus = Nic.Pci_bus.create ~rx_bps:8e8 ~tx_bps:8e8 () in
  ignore (Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:Dsim.Time.zero ~bytes:100);
  let t = Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:(Dsim.Time.ns 5000) ~bytes:100 in
  Alcotest.(check int) "starts at now when idle" 6000 t

let pci_per_transfer_overhead () =
  let bus = Nic.Pci_bus.create ~rx_bps:8e8 ~tx_bps:8e8 ~per_transfer_ns:50. () in
  let t = Nic.Pci_bus.reserve bus Nic.Pci_bus.To_memory ~now:Dsim.Time.zero ~bytes:100 in
  Alcotest.(check int) "fixed overhead added" 1050 t

(* ------------------------------------------------------------------ *)
(* Link                                                                 *)
(* ------------------------------------------------------------------ *)

let link_delivery () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e ~bps:1e9 ~prop_delay:(Dsim.Time.ns 500) () in
  let got = ref [] in
  Nic.Link.attach l Nic.Link.B (fun ~flow:_ ~fcs:_ f -> got := Bytes.to_string f :: !got);
  let frame = Bytes.make 100 'x' in
  let tx_done = Nic.Link.send l ~flow:None ~from:Nic.Link.A frame in
  (* (100 + 24 overhead) * 8ns = 992ns serialization *)
  Alcotest.(check int) "tx done after serialization" 992 tx_done;
  Dsim.Engine.run e;
  Alcotest.(check int) "delivered after propagation" 1492 (Dsim.Engine.now e);
  Alcotest.(check (list string)) "payload" [ Bytes.to_string frame ] !got

let link_back_to_back () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e ~bps:1e9 ~prop_delay:Dsim.Time.zero () in
  Nic.Link.attach l Nic.Link.B (fun ~flow:_ ~fcs:_ _ -> ());
  let t1 = Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 100 'a') in
  let t2 = Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 100 'b') in
  Alcotest.(check int) "second serializes after first" (t1 * 2) t2

let link_full_duplex () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e ~bps:1e9 ~prop_delay:Dsim.Time.zero () in
  Nic.Link.attach l Nic.Link.A (fun ~flow:_ ~fcs:_ _ -> ());
  Nic.Link.attach l Nic.Link.B (fun ~flow:_ ~fcs:_ _ -> ());
  let t1 = Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 100 'a') in
  let t2 = Nic.Link.send l ~flow:None ~from:Nic.Link.B (Bytes.make 100 'b') in
  Alcotest.(check int) "directions independent" t1 t2

let link_down_drops () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e () in
  let got = ref 0 in
  Nic.Link.attach l Nic.Link.B (fun ~flow:_ ~fcs:_ _ -> incr got);
  Nic.Link.set_up l false;
  ignore (Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 10 'x'));
  Dsim.Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "counted as dropped" 1 (Nic.Link.dropped l);
  Nic.Link.set_up l true;
  ignore (Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 10 'x'));
  Dsim.Engine.run e;
  Alcotest.(check int) "delivered when up" 1 !got

let link_no_handler_drops () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e () in
  ignore (Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 10 'x'));
  Dsim.Engine.run e;
  Alcotest.(check int) "dropped without handler" 1 (Nic.Link.dropped l)

let link_carried_accounting () =
  let e = Dsim.Engine.create () in
  let l = Nic.Link.create e () in
  Nic.Link.attach l Nic.Link.B (fun ~flow:_ ~fcs:_ _ -> ());
  ignore (Nic.Link.send l ~flow:None ~from:Nic.Link.A (Bytes.make 100 'x'));
  Alcotest.(check int) "wire bytes include overhead" 124
    (Nic.Link.carried_bytes l ~from:Nic.Link.A)

(* ------------------------------------------------------------------ *)
(* Igb device                                                           *)
(* ------------------------------------------------------------------ *)

type rig = {
  engine : Dsim.Engine.t;
  mem : Cheri.Tagged_memory.t;
  dev : Nic.Igb.t;
  port : Nic.Igb.port;
  dma : Cheri.Capability.t;
}

(* [Igb.rx_burst] and [Igb.tx_reap] with callbacks that collect the
   completions as lists; the counts they return must match. *)
let rx_list port ~max =
  let got = ref [] in
  let n =
    Nic.Igb.rx_burst port ~max (fun ~addr ~len ~flow ->
        got := (addr, len, flow) :: !got)
  in
  Alcotest.(check int) "rx_burst count" (List.length !got) n;
  List.rev !got

let reap_list port ~max =
  let got = ref [] in
  let n = Nic.Igb.tx_reap port ~max (fun addr -> got := addr :: !got) in
  Alcotest.(check int) "tx_reap count" (List.length !got) n;
  List.rev !got

let make_rig ?(rx_ring_size = 8) ?(tx_ring_size = 8) () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x100000 in
  let bus = Nic.Pci_bus.create () in
  let mac = Nic.Mac_addr.make 2 0 0 0 0 1 in
  let dev = Nic.Igb.create engine mem ~bus ~macs:[ mac ] ~rx_ring_size ~tx_ring_size () in
  let port = Nic.Igb.port dev 0 in
  let dma = Cheri.Capability.root ~base:0x1000 ~length:0x10000 ~perms:Cheri.Perms.data in
  Nic.Igb.set_dma_cap port dma;
  { engine; mem; dev; port; dma }

(* A frame addressed to the rig's port MAC. *)
let frame_for rig payload =
  let b = Bytes.make (14 + String.length payload) '\000' in
  Bytes.blit_string (Nic.Mac_addr.to_bytes (Nic.Igb.mac rig.port)) 0 b 0 6;
  Bytes.blit_string payload 0 b 14 (String.length payload);
  b

let igb_rx_roundtrip () =
  let rig = make_rig () in
  Alcotest.(check bool) "refill accepted" true
    (Nic.Igb.rx_refill rig.port ~addr:0x2000 ~len:2048);
  let frame = frame_for rig "ping-payload" in
  Nic.Igb.deliver rig.port frame;
  Alcotest.(check int) "not yet DMA-complete" 0 (Nic.Igb.rx_pending rig.port);
  Dsim.Engine.run rig.engine;
  (match rx_list rig.port ~max:4 with
  | [ (addr, len, _) ] ->
    Alcotest.(check int) "buffer address" 0x2000 addr;
    Alcotest.(check int) "length" (Bytes.length frame) len;
    let copy = Bytes.create len in
    Cheri.Tagged_memory.unchecked_blit_out rig.mem ~addr ~dst:copy ~dst_off:0 ~len;
    Alcotest.(check string) "content landed in memory" (Bytes.to_string frame)
      (Bytes.to_string copy)
  | l -> Alcotest.failf "expected one completion, got %d" (List.length l));
  Alcotest.(check int) "stats rx" 1 (Nic.Igb.stats rig.port).Nic.Port_stats.rx_packets

let igb_rx_no_desc_drop () =
  let rig = make_rig () in
  Nic.Igb.deliver rig.port (frame_for rig "no buffer posted");
  Dsim.Engine.run rig.engine;
  Alcotest.(check int) "dropped" 1 (Nic.Igb.stats rig.port).Nic.Port_stats.rx_no_desc;
  Alcotest.(check int) "nothing received" 0 (Nic.Igb.rx_pending rig.port)

let igb_mac_filter () =
  let rig = make_rig () in
  ignore (Nic.Igb.rx_refill rig.port ~addr:0x2000 ~len:2048);
  let other = Bytes.make 60 '\000' in
  Bytes.blit_string (Nic.Mac_addr.to_bytes (Nic.Mac_addr.make 2 9 9 9 9 9)) 0 other 0 6;
  Nic.Igb.deliver rig.port other;
  Dsim.Engine.run rig.engine;
  Alcotest.(check int) "filtered" 1 (Nic.Igb.stats rig.port).Nic.Port_stats.rx_filtered;
  (* Promiscuous mode accepts it. *)
  Nic.Igb.set_promisc rig.port true;
  Nic.Igb.deliver rig.port other;
  Dsim.Engine.run rig.engine;
  Alcotest.(check int) "accepted promisc" 1 (Nic.Igb.rx_pending rig.port)

let igb_broadcast_accepted () =
  let rig = make_rig () in
  ignore (Nic.Igb.rx_refill rig.port ~addr:0x2000 ~len:2048);
  let bcast = Bytes.make 60 '\255' in
  Nic.Igb.deliver rig.port bcast;
  Dsim.Engine.run rig.engine;
  Alcotest.(check int) "broadcast received" 1 (Nic.Igb.rx_pending rig.port)

let igb_rx_ring_bounded () =
  let rig = make_rig ~rx_ring_size:2 () in
  Alcotest.(check bool) "slot 1" true (Nic.Igb.rx_refill rig.port ~addr:0x2000 ~len:2048);
  Alcotest.(check bool) "slot 2" true (Nic.Igb.rx_refill rig.port ~addr:0x2800 ~len:2048);
  Alcotest.(check bool) "ring full" false (Nic.Igb.rx_refill rig.port ~addr:0x3000 ~len:2048);
  Alcotest.(check int) "free slots tracks" 0 (Nic.Igb.rx_free_slots rig.port)

let igb_dma_cap_enforced () =
  let rig = make_rig () in
  Alcotest.(check bool) "refill outside window faults" true
    (match Nic.Igb.rx_refill rig.port ~addr:0x90000 ~len:2048 with
    | _ -> false
    | exception Cheri.Fault.Capability_fault _ -> true);
  Alcotest.(check bool) "tx outside window faults" true
    (match Nic.Igb.tx_enqueue rig.port ~addr:0x90000 ~len:100 () with
    | _ -> false
    | exception Cheri.Fault.Capability_fault _ -> true)

(* Two ports wired together: the full tx -> wire -> rx path. *)
let igb_tx_to_peer () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x100000 in
  let bus = Nic.Pci_bus.create () in
  let macs = [ Nic.Mac_addr.make 2 0 0 0 0 1; Nic.Mac_addr.make 2 0 0 0 0 2 ] in
  let dev = Nic.Igb.create engine mem ~bus ~macs () in
  let a = Nic.Igb.port dev 0 and b = Nic.Igb.port dev 1 in
  let dma = Cheri.Capability.root ~base:0 ~length:0x100000 ~perms:Cheri.Perms.data in
  Nic.Igb.set_dma_cap a dma;
  Nic.Igb.set_dma_cap b dma;
  let link = Nic.Link.create engine () in
  Nic.Igb.connect a link Nic.Link.A;
  Nic.Igb.connect b link Nic.Link.B;
  (* b posts an RX buffer; a transmits a frame addressed to b. *)
  ignore (Nic.Igb.rx_refill b ~addr:0x8000 ~len:2048);
  let frame = Bytes.make 80 '\000' in
  Bytes.blit_string (Nic.Mac_addr.to_bytes (Nic.Igb.mac b)) 0 frame 0 6;
  Bytes.blit_string "payload!" 0 frame 14 8;
  Cheri.Tagged_memory.unchecked_blit_in mem ~addr:0x4000 ~src:frame ~src_off:0
    ~len:(Bytes.length frame);
  Alcotest.(check bool) "tx accepted" true
    (Nic.Igb.tx_enqueue a ~addr:0x4000 ~len:(Bytes.length frame) ());
  Alcotest.(check int) "in flight" 1 (Nic.Igb.tx_in_flight a);
  Dsim.Engine.run engine;
  (match reap_list a ~max:8 with
  | [ addr ] -> Alcotest.(check int) "reaped buffer" 0x4000 addr
  | l -> Alcotest.failf "expected one reap, got %d" (List.length l));
  Alcotest.(check int) "no longer in flight" 0 (Nic.Igb.tx_in_flight a);
  (match rx_list b ~max:8 with
  | [ (addr, len, _) ] ->
    let copy = Bytes.create len in
    Cheri.Tagged_memory.unchecked_blit_out mem ~addr ~dst:copy ~dst_off:0 ~len;
    Alcotest.(check string) "frame crossed the wire" (Bytes.to_string frame)
      (Bytes.to_string copy)
  | l -> Alcotest.failf "expected one rx, got %d" (List.length l));
  Alcotest.(check int) "tx stats" 1 (Nic.Igb.stats a).Nic.Port_stats.tx_packets;
  Alcotest.(check int) "rx stats" 1 (Nic.Igb.stats b).Nic.Port_stats.rx_packets

let igb_tx_ring_full () =
  let rig = make_rig ~tx_ring_size:1 () in
  Alcotest.(check bool) "first accepted" true
    (Nic.Igb.tx_enqueue rig.port ~addr:0x2000 ~len:100 ());
  Alcotest.(check bool) "second refused" false
    (Nic.Igb.tx_enqueue rig.port ~addr:0x3000 ~len:100 ());
  Alcotest.(check int) "refusal counted" 1
    (Nic.Igb.stats rig.port).Nic.Port_stats.tx_ring_full

let igb_rx_ordering () =
  let rig = make_rig () in
  ignore (Nic.Igb.rx_refill rig.port ~addr:0x2000 ~len:2048);
  ignore (Nic.Igb.rx_refill rig.port ~addr:0x2800 ~len:2048);
  Nic.Igb.deliver rig.port (frame_for rig "first");
  Nic.Igb.deliver rig.port (frame_for rig "second");
  Dsim.Engine.run rig.engine;
  match rx_list rig.port ~max:8 with
  | [ (a1, _, _); (a2, _, _) ] ->
    Alcotest.(check int) "first buffer first" 0x2000 a1;
    Alcotest.(check int) "second buffer second" 0x2800 a2
  | l -> Alcotest.failf "expected two, got %d" (List.length l)

(* Two ports of one NIC wired to each other: the PCI lanes are shared
   and each port sends towards the other. [tx_base]/[rx_base] are the
   per-port buffer areas; every buffer is 2 KiB. *)
type pair = {
  p_engine : Dsim.Engine.t;
  p_mem : Cheri.Tagged_memory.t;
  p_link : Nic.Link.t;
  ports : Nic.Igb.port array;
}

let buf_size = 0x800
let tx_base i = 0x10000 + (i * 0x20000)
let rx_base i = 0x50000 + (i * 0x20000)

let make_pair ~ring_size =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x100000 in
  let bus = Nic.Pci_bus.create () in
  let macs = [ Nic.Mac_addr.make 2 0 0 0 0 1; Nic.Mac_addr.make 2 0 0 0 0 2 ] in
  let dev =
    Nic.Igb.create engine mem ~bus ~macs ~rx_ring_size:ring_size
      ~tx_ring_size:ring_size ()
  in
  let dma =
    Cheri.Capability.root ~base:0 ~length:0x100000 ~perms:Cheri.Perms.data
  in
  let link = Nic.Link.create engine () in
  let ports = [| Nic.Igb.port dev 0; Nic.Igb.port dev 1 |] in
  Array.iteri
    (fun i p ->
      Nic.Igb.set_dma_cap p dma;
      Nic.Igb.connect p link (if i = 0 then Nic.Link.A else Nic.Link.B);
      for k = 0 to ring_size - 1 do
        ignore (Nic.Igb.rx_refill p ~addr:(rx_base i + (k * buf_size)) ~len:buf_size)
      done)
    ports;
  { p_engine = engine; p_mem = mem; p_link = link; ports }

(* A frame of [len] bytes from port [src] to the other port, carrying
   [id] after the Ethernet header and a pattern derived from it. *)
let pair_frame pr ~src ~id ~len =
  let f = Bytes.init len (fun j -> Char.chr (((id * 31) + (j * 7)) land 0xff)) in
  let dst = Nic.Igb.mac pr.ports.(1 - src) in
  Bytes.blit_string (Nic.Mac_addr.to_bytes dst) 0 f 0 6;
  Bytes.blit_string (Nic.Mac_addr.to_bytes (Nic.Igb.mac pr.ports.(src))) 0 f 6 6;
  Bytes.set_uint16_be f 12 0x88b5;
  Bytes.set_uint16_be f 14 id;
  f

let read_mem mem ~addr ~len =
  let b = Bytes.create len in
  Cheri.Tagged_memory.unchecked_blit_out mem ~addr ~dst:b ~dst_off:0 ~len;
  b

(* The device side of one frame, doorbell to RX completion, allocates
   nothing once the stage FIFOs and the link's frame pool are warm:
   1,514-byte frames in bursts of four, driven through [rx_refill],
   [tx_enqueue], [tx_reap] and [rx_burst] with callbacks made
   beforehand (about 120 words a frame with queues of records, list
   bursts and a closure per stage). *)
let igb_frame_path_allocates_nothing () =
  let pr = make_pair ~ring_size:8 in
  let a = pr.ports.(0) and b = pr.ports.(1) in
  let frame = pair_frame pr ~src:0 ~id:1 ~len:1514 in
  for k = 0 to 3 do
    Cheri.Tagged_memory.unchecked_blit_in pr.p_mem
      ~addr:(tx_base 0 + (k * buf_size)) ~src:frame ~src_off:0 ~len:1514
  done;
  let received = ref 0 and reaped = ref 0 and bad = ref 0 in
  let on_rx ~addr ~len ~flow:_ =
    if len <> 1514 then incr bad;
    incr received;
    if not (Nic.Igb.rx_refill b ~addr ~len:buf_size) then incr bad
  in
  let on_reap _ = incr reaped in
  let bursts n =
    for _ = 1 to n do
      for k = 0 to 3 do
        if not (Nic.Igb.tx_enqueue a ~addr:(tx_base 0 + (k * buf_size)) ~len:1514 ())
        then incr bad
      done;
      while Dsim.Engine.step pr.p_engine do
        ()
      done;
      ignore (Nic.Igb.tx_reap a ~max:8 on_reap);
      ignore (Nic.Igb.rx_burst b ~max:8 on_rx)
    done
  in
  bursts 25;
  let before = Gc.minor_words () in
  bursts 250;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every frame received" 1100 !received;
  Alcotest.(check int) "every frame reaped" 1100 !reaped;
  Alcotest.(check int) "no refusal or short frame" 0 !bad;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per frame" (words /. 1000.))
    true (words = 0.)

(* One run of the completion-order property: each burst
   [(which, lens, gap)] rings frames of the given lengths on port 0,
   port 1 or both ([which] 0, 1, 2), then runs [gap] ns, collecting
   after every event. Returns, per port, the frames it rang as
   [(id, buffer, len)] in doorbell order, the TX buffers it reaped, and
   the RX completions it saw as [(id, bytes intact)]. *)
let run_pair ?tamper bursts =
  let pr = make_pair ~ring_size:64 in
  Nic.Link.set_tamper pr.p_link tamper;
  let rung = [| []; [] |] and reaps = [| []; [] |] and rx = [| []; [] |] in
  let sent = Hashtbl.create 64 and next_id = ref 0 and tx_n = [| 0; 0 |] in
  let on_rx i ~addr ~len ~flow:_ =
    let got = read_mem pr.p_mem ~addr ~len in
    let id = Bytes.get_uint16_be got 14 in
    let intact =
      match Hashtbl.find_opt sent id with
      | Some f -> Bytes.equal f got
      | None -> false
    in
    rx.(i) <- (id, intact) :: rx.(i);
    ignore (Nic.Igb.rx_refill pr.ports.(i) ~addr ~len:buf_size)
  in
  let on_rx = [| on_rx 0; on_rx 1 |] in
  let on_reap i addr = reaps.(i) <- addr :: reaps.(i) in
  let on_reap = [| on_reap 0; on_reap 1 |] in
  let collect () =
    for i = 0 to 1 do
      ignore (Nic.Igb.tx_reap pr.ports.(i) ~max:max_int on_reap.(i));
      ignore (Nic.Igb.rx_burst pr.ports.(i) ~max:max_int on_rx.(i))
    done
  in
  let ring src len =
    let id = !next_id in
    incr next_id;
    let f = pair_frame pr ~src ~id ~len in
    Hashtbl.replace sent id f;
    let addr = tx_base src + (tx_n.(src) * buf_size) in
    tx_n.(src) <- tx_n.(src) + 1;
    Cheri.Tagged_memory.unchecked_blit_in pr.p_mem ~addr ~src:f ~src_off:0 ~len;
    if Nic.Igb.tx_enqueue pr.ports.(src) ~addr ~len () then
      rung.(src) <- (id, addr, len) :: rung.(src)
  in
  let e = pr.p_engine in
  let rec run_until at =
    let fired = Dsim.Engine.events_fired e in
    Dsim.Engine.run e ~until:at ~max_events:1;
    collect ();
    if Dsim.Engine.events_fired e > fired then run_until at
  in
  List.iter
    (fun (which, lens, gap) ->
      List.iter
        (fun len ->
          if which <> 1 then ring 0 len;
          if which <> 0 then ring 1 len)
        lens;
      run_until (Dsim.Engine.now e + gap))
    bursts;
  while Dsim.Engine.step e do
    collect ()
  done;
  let rev a = Array.map List.rev a in
  (rev rung, rev reaps, rev rx)

(* The wire tamper of the property's second run, decided by frame
   length so that each frame's fate is known: duplicate one length in
   four, hold another for up to 20 us. *)
let dup_len len = len mod 4 = 0

let hold_dup ~now:_ ~ipv4:_ ~len =
  if dup_len len then Dsim.Chaos.Dup_frame
  else if len mod 4 = 1 then
    Dsim.Chaos.Hold_frame { extra_ns = float_of_int (len * 13 mod 20_000) }
  else Dsim.Chaos.Pass

(* The invariant the one-handler-per-stage NIC rests on, from outside:
   random frame lengths rung in bursts on both ports of one NIC (which
   share the PCI lanes), in both link directions. Untampered, each
   port's RX completions come in the peer's doorbell order with their
   bytes intact, and its TX reaps in its own doorbell order. With a
   tamper that holds and duplicates frames, every arrival at a MAC
   completes exactly once, intact. *)
let completion_order_prop =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 10)
        (triple (int_bound 2)
           (list_size (int_range 1 5) (int_range 60 1514))
           (int_bound 40_000)))
  in
  QCheck.Test.make ~count:100
    ~name:"igb: completions keep doorbell order, once each"
    (QCheck.make gen) (fun bursts ->
      let rung, reaps, rx = run_pair bursts in
      let ordered i =
        List.map (fun (_, addr, _) -> addr) rung.(i) = reaps.(i)
        && List.map (fun (id, _, _) -> (id, true)) rung.(1 - i) = rx.(i)
      in
      let rung, _, rx = run_pair ~tamper:hold_dup bursts in
      let once i =
        let expected =
          List.concat_map
            (fun (id, _, len) -> if dup_len len then [ id; id ] else [ id ])
            rung.(1 - i)
        in
        List.for_all snd rx.(i)
        && List.sort compare (List.map fst rx.(i)) = List.sort compare expected
      in
      ordered 0 && ordered 1 && once 0 && once 1)

let suite =
  [
    Alcotest.test_case "mac: roundtrip" `Quick mac_roundtrip;
    Alcotest.test_case "mac: address classes" `Quick mac_classes;
    Alcotest.test_case "mac: parse errors" `Quick mac_parse_errors;
    Alcotest.test_case "pci: per-direction serialization" `Quick pci_serialization;
    Alcotest.test_case "pci: directions independent" `Quick pci_directions_independent;
    Alcotest.test_case "pci: idles between transfers" `Quick pci_gap_idles;
    Alcotest.test_case "pci: fixed per-transfer overhead" `Quick pci_per_transfer_overhead;
    Alcotest.test_case "link: serialization + propagation" `Quick link_delivery;
    Alcotest.test_case "link: back-to-back frames queue" `Quick link_back_to_back;
    Alcotest.test_case "link: full duplex" `Quick link_full_duplex;
    Alcotest.test_case "link: admin down drops" `Quick link_down_drops;
    Alcotest.test_case "link: no handler drops" `Quick link_no_handler_drops;
    Alcotest.test_case "link: wire byte accounting" `Quick link_carried_accounting;
    Alcotest.test_case "igb: rx roundtrip through DMA" `Quick igb_rx_roundtrip;
    Alcotest.test_case "igb: rx drop without descriptors" `Quick igb_rx_no_desc_drop;
    Alcotest.test_case "igb: MAC filter & promisc" `Quick igb_mac_filter;
    Alcotest.test_case "igb: broadcast accepted" `Quick igb_broadcast_accepted;
    Alcotest.test_case "igb: rx ring bounded" `Quick igb_rx_ring_bounded;
    Alcotest.test_case "igb: DMA window enforced" `Quick igb_dma_cap_enforced;
    Alcotest.test_case "igb: tx to peer over the wire" `Quick igb_tx_to_peer;
    Alcotest.test_case "igb: tx ring full refusal" `Quick igb_tx_ring_full;
    Alcotest.test_case "igb: rx completion ordering" `Quick igb_rx_ordering;
    Alcotest.test_case "igb: frame path allocates nothing" `Quick
      igb_frame_path_allocates_nothing;
    QCheck_alcotest.to_alcotest completion_order_prop;
  ]
