(* Tests for the DPDK layer: EAL, mbuf pools, kernel detach, ethdev. *)

let make_eal ?(size = 0x100000) () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:(size * 2) in
  let region = Cheri.Capability.root ~base:0 ~length:size ~perms:Cheri.Perms.all in
  (engine, mem, Dpdk.Eal.create mem ~region)

(* ------------------------------------------------------------------ *)
(* EAL                                                                  *)
(* ------------------------------------------------------------------ *)

let eal_memzones () =
  let _, mem, eal = make_eal () in
  Alcotest.(check int) "no page before" 0 (Cheri.Tagged_memory.resident_pages mem);
  let z = Dpdk.Eal.memzone_reserve eal ~name:"ring" ~size:0x1000 in
  Alcotest.(check int) "zone size" 0x1000 (Cheri.Capability.length z);
  Alcotest.(check int) "zone page created at reserve" 1
    (Cheri.Tagged_memory.resident_pages mem);
  (match Dpdk.Eal.memzone_lookup eal ~name:"ring" with
  | Some z' -> Alcotest.(check bool) "lookup finds it" true (Cheri.Capability.equal z z')
  | None -> Alcotest.fail "zone not found");
  Alcotest.(check (option reject)) "unknown zone" None
    (Dpdk.Eal.memzone_lookup eal ~name:"nope");
  Alcotest.(check bool) "duplicate name rejected" true
    (match Dpdk.Eal.memzone_reserve eal ~name:"ring" ~size:16 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let eal_oom () =
  let _, _, eal = make_eal ~size:0x1000 () in
  Alcotest.(check bool) "oom" true
    (match Dpdk.Eal.memzone_reserve eal ~name:"big" ~size:0x10000 with
    | _ -> false
    | exception Out_of_memory -> true)

(* ------------------------------------------------------------------ *)
(* Mbuf                                                                 *)
(* ------------------------------------------------------------------ *)

let make_pool ?(n = 4) ?(buf_len = 2048) () =
  let _, mem, eal = make_eal () in
  (mem, Dpdk.Mbuf.pool_create eal ~name:"test" ~n ~buf_len)

let mbuf_pool_lifecycle () =
  let _, pool = make_pool () in
  Alcotest.(check int) "capacity" 4 (Dpdk.Mbuf.capacity pool);
  Alcotest.(check int) "all available" 4 (Dpdk.Mbuf.available pool);
  let m1 = Option.get (Dpdk.Mbuf.alloc pool) in
  Alcotest.(check int) "one taken" 3 (Dpdk.Mbuf.available pool);
  Dpdk.Mbuf.free m1;
  Alcotest.(check int) "returned" 4 (Dpdk.Mbuf.available pool)

(* A zone starting 1 KiB below the first page boundary puts buffer 0
   across it; DPDK never places a mempool object so. *)
let mbuf_pool_page_geometry () =
  let page = Cheri.Tagged_memory.page_size in
  let mem = Cheri.Tagged_memory.create ~size:(2 * page) in
  let eal_at base =
    Dpdk.Eal.create mem
      ~region:(Cheri.Capability.root ~base ~length:0x10000 ~perms:Cheri.Perms.all)
  in
  Alcotest.(check bool) "straddling buffer rejected" true
    (match
       Dpdk.Mbuf.pool_create (eal_at (page - 1024)) ~name:"straddle" ~n:4
         ~buf_len:2048
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let pool =
    Dpdk.Mbuf.pool_create (eal_at page) ~name:"aligned" ~n:4 ~buf_len:2048
  in
  Alcotest.(check int) "page-aligned zone accepted" 4 (Dpdk.Mbuf.capacity pool)

let mbuf_exhaustion () =
  let _, pool = make_pool ~n:2 () in
  let m1 = Option.get (Dpdk.Mbuf.alloc pool) in
  let _m2 = Option.get (Dpdk.Mbuf.alloc pool) in
  Alcotest.(check bool) "exhausted" true (Dpdk.Mbuf.alloc pool = None);
  Dpdk.Mbuf.free m1;
  Alcotest.(check bool) "available again" true (Dpdk.Mbuf.alloc pool <> None)

let mbuf_double_free () =
  let _, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  Dpdk.Mbuf.free m;
  (* A second free is a use of a revoked reference: it must surface as a
     capability fault the supervisor can attribute, not a plain error. *)
  Alcotest.(check bool) "double free faults" true
    (match Dpdk.Mbuf.free m with
    | () -> false
    | exception Cheri.Fault.Capability_fault f ->
      f.Cheri.Fault.kind = Cheri.Fault.Tag_violation)

let mbuf_geometry () =
  let _, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  Alcotest.(check int) "headroom" 128 (Dpdk.Mbuf.headroom m);
  Alcotest.(check int) "empty" 0 (Dpdk.Mbuf.data_len m);
  Alcotest.(check int) "tailroom" (2048 - 128) (Dpdk.Mbuf.tailroom m);
  let addr = Dpdk.Mbuf.append m 100 in
  Alcotest.(check int) "append address" (Dpdk.Mbuf.buf_addr m + 128) addr;
  Alcotest.(check int) "data grows" 100 (Dpdk.Mbuf.data_len m);
  let addr2 = Dpdk.Mbuf.prepend m 14 in
  Alcotest.(check int) "prepend into headroom" (Dpdk.Mbuf.buf_addr m + 114) addr2;
  Alcotest.(check int) "data includes header" 114 (Dpdk.Mbuf.data_len m);
  Dpdk.Mbuf.adj m 14;
  Alcotest.(check int) "adj strips head" 100 (Dpdk.Mbuf.data_len m);
  Dpdk.Mbuf.trim m 50;
  Alcotest.(check int) "trim strips tail" 50 (Dpdk.Mbuf.data_len m);
  Dpdk.Mbuf.reset m;
  Alcotest.(check int) "reset restores" 0 (Dpdk.Mbuf.data_len m);
  Alcotest.(check int) "reset headroom" 128 (Dpdk.Mbuf.headroom m)

let mbuf_geometry_errors () =
  let _, pool = make_pool ~buf_len:256 () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  expect_invalid "append beyond tailroom" (fun () -> Dpdk.Mbuf.append m 1000);
  expect_invalid "prepend beyond headroom" (fun () -> Dpdk.Mbuf.prepend m 200);
  expect_invalid "trim beyond data" (fun () -> Dpdk.Mbuf.trim m 1);
  expect_invalid "adj beyond data" (fun () -> Dpdk.Mbuf.adj m 1)

let mbuf_payload_io () =
  let mem, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  ignore (Dpdk.Mbuf.append m 32);
  Dpdk.Mbuf.write mem m ~off:0 (Bytes.of_string "hello mbuf");
  Alcotest.(check string) "read back" "hello mbuf"
    (Bytes.to_string (Dpdk.Mbuf.read mem m ~off:0 ~len:10));
  Alcotest.(check int) "contents whole region" 32
    (Bytes.length (Dpdk.Mbuf.contents mem m));
  Alcotest.(check bool) "write outside data region" true
    (match Dpdk.Mbuf.write mem m ~off:30 (Bytes.of_string "xyz") with
    | () -> false
    | exception Invalid_argument _ -> true)

let mbuf_caps_are_buffer_bounded () =
  let _, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  let cap = Dpdk.Mbuf.cap m in
  Alcotest.(check int) "cap base" (Dpdk.Mbuf.buf_addr m) (Cheri.Capability.base cap);
  Alcotest.(check int) "cap length" (Dpdk.Mbuf.buf_len m) (Cheri.Capability.length cap);
  Alcotest.(check bool) "no capability transfer rights" false
    (Cheri.Capability.perms cap).Cheri.Perms.store_cap

(* ------------------------------------------------------------------ *)
(* Igb_uio                                                              *)
(* ------------------------------------------------------------------ *)

let uio_bind_narrows () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x10000 in
  let bus = Nic.Pci_bus.create () in
  let dev =
    Nic.Igb.create engine mem ~bus ~macs:[ Nic.Mac_addr.make 2 0 0 0 0 1 ] ()
  in
  let port = Nic.Igb.port dev 0 in
  let window = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.all in
  let binding = Dpdk.Igb_uio.bind port ~dma_window:window in
  Alcotest.(check int) "window base" 0x1000 binding.Dpdk.Igb_uio.window_base;
  Alcotest.(check int) "window length" 0x1000 binding.Dpdk.Igb_uio.window_len;
  (* After binding, refills inside the window work... *)
  Alcotest.(check bool) "dma inside works" true
    (Nic.Igb.rx_refill port ~addr:0x1000 ~len:0x800);
  (* ...and the device cannot move capabilities even inside it: the
     installed capability must have lost store_cap/load_cap. *)
  Dpdk.Igb_uio.unbind port;
  Alcotest.(check bool) "unbound device faults" true
    (match Nic.Igb.rx_refill port ~addr:0x1000 ~len:0x800 with
    | _ -> false
    | exception Cheri.Fault.Capability_fault _ -> true)

let uio_bind_requires_rw () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x10000 in
  let bus = Nic.Pci_bus.create () in
  let dev =
    Nic.Igb.create engine mem ~bus ~macs:[ Nic.Mac_addr.make 2 0 0 0 0 1 ] ()
  in
  let port = Nic.Igb.port dev 0 in
  let ro = Cheri.Capability.root ~base:0 ~length:0x1000 ~perms:Cheri.Perms.read_only in
  Alcotest.(check bool) "read-only window rejected" true
    (match Dpdk.Igb_uio.bind port ~dma_window:ro with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Eth_dev end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

(* [Eth_dev.rx_burst]'s handler, collecting the burst as a list; the
   count it returns must match. *)
let rx_list dev ~max =
  let got = ref [] in
  let n = Dpdk.Eth_dev.rx_burst dev ~max (fun m -> got := m :: !got) in
  Alcotest.(check int) "rx_burst count" (List.length !got) n;
  List.rev !got

let make_pair () =
  let engine = Dsim.Engine.create () in
  let mem = Cheri.Tagged_memory.create ~size:0x400000 in
  let region = Cheri.Capability.root ~base:0 ~length:0x400000 ~perms:Cheri.Perms.all in
  let eal = Dpdk.Eal.create mem ~region in
  let bus = Nic.Pci_bus.create () in
  let macs = [ Nic.Mac_addr.make 2 0 0 0 0 1; Nic.Mac_addr.make 2 0 0 0 0 2 ] in
  let nic = Nic.Igb.create engine mem ~bus ~macs ~rx_ring_size:32 ~tx_ring_size:32 () in
  let link = Nic.Link.create engine () in
  let setup idx ep name =
    let port = Nic.Igb.port nic idx in
    Nic.Igb.connect port link ep;
    let pool = Dpdk.Mbuf.pool_create eal ~name ~n:128 ~buf_len:2048 in
    let zone = Option.get (Dpdk.Eal.memzone_lookup eal ~name:("mbuf-" ^ name)) in
    ignore (Dpdk.Igb_uio.bind port ~dma_window:zone);
    let dev = Dpdk.Eth_dev.attach eal port ~rx_pool:pool in
    Dpdk.Eth_dev.start dev;
    dev
  in
  let a = setup 0 Nic.Link.A "a" and b = setup 1 Nic.Link.B "b" in
  (engine, mem, a, b, link)

let ethdev_burst_roundtrip () =
  let engine, mem, a, b, _ = make_pair () in
  (* Build a frame addressed to port b in an mbuf from a's pool. *)
  let pool_a = Dpdk.Eth_dev.rx_pool a in
  let m = Option.get (Dpdk.Mbuf.alloc pool_a) in
  ignore (Dpdk.Mbuf.append m 80);
  let frame = Bytes.make 80 '\000' in
  Bytes.blit_string
    (Nic.Mac_addr.to_bytes (Nic.Igb.mac (Dpdk.Eth_dev.port b)))
    0 frame 0 6;
  Bytes.blit_string "dpdk-data" 0 frame 14 9;
  Dpdk.Mbuf.write mem m ~off:0 frame;
  Alcotest.(check (list reject)) "all accepted" [] (Dpdk.Eth_dev.tx_burst a [ m ]);
  Dsim.Engine.run engine;
  (match rx_list b ~max:8 with
  | [ rx ] ->
    Alcotest.(check int) "length" 80 (Dpdk.Mbuf.data_len rx);
    Alcotest.(check string) "payload" (Bytes.to_string frame)
      (Bytes.to_string (Dpdk.Mbuf.contents mem rx));
    Dpdk.Mbuf.free rx
  | l -> Alcotest.failf "expected one frame, got %d" (List.length l));
  (* TX buffer recycled back to a's pool after reap. *)
  Dpdk.Eth_dev.reap a;
  Alcotest.(check int) "a pool back to full minus posted ring" (128 - 32)
    (Dpdk.Mbuf.available pool_a)

let ethdev_restock () =
  let engine, _mem, a, b, _ = make_pair () in
  (* Exhaust b's RX by sending many frames and holding the mbufs. *)
  let pool_a = Dpdk.Eth_dev.rx_pool a in
  let dst = Nic.Mac_addr.to_bytes (Nic.Igb.mac (Dpdk.Eth_dev.port b)) in
  for _ = 1 to 10 do
    let m = Option.get (Dpdk.Mbuf.alloc pool_a) in
    ignore (Dpdk.Mbuf.append m 64);
    let f = Bytes.make 64 '\000' in
    Bytes.blit_string dst 0 f 0 6;
    Dpdk.Mbuf.write _mem m ~off:0 f;
    ignore (Dpdk.Eth_dev.tx_burst a [ m ])
  done;
  Dsim.Engine.run engine;
  let got = rx_list b ~max:16 in
  Alcotest.(check int) "all ten received" 10 (List.length got);
  (* The ring was restocked during the burst; more traffic still flows. *)
  let m = Option.get (Dpdk.Mbuf.alloc pool_a) in
  ignore (Dpdk.Mbuf.append m 64);
  let f = Bytes.make 64 '\000' in
  Bytes.blit_string dst 0 f 0 6;
  Dpdk.Mbuf.write _mem m ~off:0 f;
  ignore (Dpdk.Eth_dev.tx_burst a [ m ]);
  Dsim.Engine.run engine;
  Alcotest.(check int) "ring restocked" 1 (List.length (rx_list b ~max:4));
  List.iter Dpdk.Mbuf.free got

(* Drops at every device stage, then a full drain: the software rings
   hand every mbuf back to its pool, always hold exactly the buffers the
   device owns, and refuse a completion that is not their head. *)
let ethdev_rings_neither_leak_nor_reorder () =
  let engine, mem, a, b, link = make_pair () in
  let pa = Dpdk.Eth_dev.port a and pb = Dpdk.Eth_dev.port b in
  let pool_a = Dpdk.Eth_dev.rx_pool a and pool_b = Dpdk.Eth_dev.rx_pool b in
  let before_a = Dpdk.Mbuf.available pool_a
  and before_b = Dpdk.Mbuf.available pool_b in
  let frame_to mac =
    let m = Option.get (Dpdk.Mbuf.alloc pool_a) in
    ignore (Dpdk.Mbuf.append m 64);
    let f = Bytes.make 64 '\000' in
    Bytes.blit_string (Nic.Mac_addr.to_bytes mac) 0 f 0 6;
    Dpdk.Mbuf.write mem m ~off:0 f;
    m
  in
  (* Every fourth frame is for a MAC nobody has; the wire flips a bit in
     every fifth frame, and every seventh RX DMA transfer fails. *)
  let stranger = Nic.Mac_addr.make 2 0 0 0 0 9 in
  let frames n =
    List.init n (fun i ->
        frame_to (if i mod 4 = 3 then stranger else Nic.Igb.mac pb))
  in
  let every k =
    let n = ref 0 in
    fun () ->
      incr n;
      !n mod k = 0
  in
  let flip = every 5 and fault = every 7 in
  Nic.Link.set_tamper link
    (Some
       (fun ~now:_ ~ipv4:_ ~len:_ ->
         if flip () then
           Dsim.Chaos.Flip { byte = 20; bit = 0; post_fcs = false }
         else Dsim.Chaos.Pass));
  Nic.Igb.set_rx_fault pb (Some (fun ~len:_ -> fault ()));
  let rings_match stage =
    (* Nothing is in DMA flight after a run: a posted RX buffer is
       either still free in the device's ring or completed and not yet
       collected. *)
    Alcotest.(check int) (stage ^ ": rx ring = posted buffers")
      (32 - Nic.Igb.rx_free_slots pb + Nic.Igb.rx_pending pb)
      (Dpdk.Eth_dev.rx_posted b);
    Alcotest.(check int) (stage ^ ": tx ring = in-flight descriptors")
      (Nic.Igb.tx_in_flight pa) (Dpdk.Eth_dev.tx_queued a)
  in
  (* 40 frames against a 32-descriptor TX ring, then 32 more without b
     collecting anything, which overflows b's 32-descriptor RX ring. *)
  List.iter Dpdk.Mbuf.free (Dpdk.Eth_dev.tx_burst a (frames 40));
  Dsim.Engine.run engine;
  rings_match "first burst";
  Alcotest.(check (list reject)) "second burst accepted" []
    (Dpdk.Eth_dev.tx_burst a (frames 32));
  Dsim.Engine.run engine;
  rings_match "second burst";
  let sa = Nic.Igb.stats pa and sb = Nic.Igb.stats pb in
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (what ^ " drops happened") true (n > 0))
    Nic.Port_stats.
      [
        ("fcs", sb.rx_crc_errors);
        ("mac filter", sb.rx_filtered);
        ("rx_fault", sb.rx_dma_errors);
        ("rx ring full", sb.rx_no_desc);
        ("tx ring full", sa.tx_ring_full);
      ];
  let rec drain () =
    match rx_list b ~max:8 with
    | [] -> ()
    | got ->
      List.iter Dpdk.Mbuf.free got;
      drain ()
  in
  drain ();
  Dpdk.Eth_dev.reap a;
  rings_match "drained";
  Alcotest.(check int) "a's pool back to its level" before_a
    (Dpdk.Mbuf.available pool_a);
  Alcotest.(check int) "b's pool back to its level" before_b
    (Dpdk.Mbuf.available pool_b);
  (* A descriptor posted behind Eth_dev's back completes first: its
     address is not the TX ring's head. *)
  Nic.Link.set_tamper link None;
  let stray = Option.get (Dpdk.Mbuf.alloc pool_a) in
  Alcotest.(check bool) "stray doorbell" true
    (Nic.Igb.tx_enqueue pa ~addr:(Dpdk.Mbuf.data_addr stray) ~len:64 ());
  let m = List.hd (frames 1) in
  Alcotest.(check (list reject)) "queued behind it" []
    (Dpdk.Eth_dev.tx_burst a [ m ]);
  Dsim.Engine.run engine;
  Alcotest.check_raises "completion off the ring head"
    (Invalid_argument
       (Printf.sprintf "Eth_dev: completion at 0x%x, ring head at 0x%x"
          (Dpdk.Mbuf.data_addr stray) (Dpdk.Mbuf.data_addr m)))
    (fun () -> Dpdk.Eth_dev.reap a)

let suite =
  [
    Alcotest.test_case "eal: memzones" `Quick eal_memzones;
    Alcotest.test_case "eal: out of memory" `Quick eal_oom;
    Alcotest.test_case "mbuf: pool lifecycle" `Quick mbuf_pool_lifecycle;
    Alcotest.test_case "mbuf: exhaustion back-pressure" `Quick mbuf_exhaustion;
    Alcotest.test_case "mbuf: no buffer straddles a page" `Quick
      mbuf_pool_page_geometry;
    Alcotest.test_case "mbuf: double free" `Quick mbuf_double_free;
    Alcotest.test_case "mbuf: geometry operations" `Quick mbuf_geometry;
    Alcotest.test_case "mbuf: geometry errors" `Quick mbuf_geometry_errors;
    Alcotest.test_case "mbuf: payload I/O" `Quick mbuf_payload_io;
    Alcotest.test_case "mbuf: capabilities buffer-bounded" `Quick mbuf_caps_are_buffer_bounded;
    Alcotest.test_case "igb_uio: bind narrows DMA window" `Quick uio_bind_narrows;
    Alcotest.test_case "igb_uio: requires load+store" `Quick uio_bind_requires_rw;
    Alcotest.test_case "ethdev: burst roundtrip + recycle" `Quick ethdev_burst_roundtrip;
    Alcotest.test_case "ethdev: ring restocking" `Quick ethdev_restock;
    Alcotest.test_case "ethdev: software rings neither leak nor reorder" `Quick
      ethdev_rings_neither_leak_nor_reorder;
  ]
