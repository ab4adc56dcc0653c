(* Tests for the zero-copy packet path: slice bounds discipline,
   capability borrows on mbufs, engine heap compaction under mass
   cancellation, the determinism of the published figures across the
   slice-based refactor (golden values captured on the copying code),
   the Fig. 4 data path's allocation budgets, and the resident-page
   budget of the paged address space. *)

let fault_kind = function
  | Cheri.Fault.Capability_fault f -> Some f.Cheri.Fault.kind
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Slice                                                                *)
(* ------------------------------------------------------------------ *)

let slice_accessors () =
  let b = Bytes.of_string "\x00\x01\x02\x03\x04\x05\x06\x07" in
  let s = Dsim.Slice.make b ~off:2 ~len:4 in
  Alcotest.(check int) "length" 4 (Dsim.Slice.length s);
  Alcotest.(check int) "u8" 0x02 (Dsim.Slice.get_u8 s 0);
  Alcotest.(check int) "u16" 0x0304 (Dsim.Slice.get_u16_be s 1);
  Alcotest.(check int) "u32" 0x02030405 (Dsim.Slice.get_u32_be s 0);
  Dsim.Slice.set_u16_be s 2 0xbeef;
  Alcotest.(check int) "set visible via backing" 0xbe
    (Char.code (Bytes.get b 4));
  Alcotest.(check int) "base_off" 2 (Dsim.Slice.base_off s);
  Alcotest.(check bool) "base aliases" true (Dsim.Slice.base s == b)

let slice_bounds () =
  let s = Dsim.Slice.of_bytes (Bytes.create 8) in
  let oob f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "read past end" true
    (oob (fun () -> Dsim.Slice.get_u8 s 8));
  Alcotest.(check bool) "u32 straddling end" true
    (oob (fun () -> Dsim.Slice.get_u32_be s 5));
  Alcotest.(check bool) "negative offset" true
    (oob (fun () -> Dsim.Slice.get_u8 s (-1)));
  Alcotest.(check bool) "check rejects overlong range" true
    (oob (fun () -> Dsim.Slice.check s ~off:4 ~len:5));
  Dsim.Slice.check s ~off:0 ~len:8;
  (* Narrowing re-anchors the window: offset 0 of the sub is offset 2 of
     the parent, and the sub cannot reach back out. *)
  let sub = Dsim.Slice.sub s ~off:2 ~len:3 in
  Alcotest.(check int) "sub length" 3 (Dsim.Slice.length sub);
  Alcotest.(check bool) "sub cannot escape" true
    (oob (fun () -> Dsim.Slice.get_u8 sub 3))

(* ------------------------------------------------------------------ *)
(* Mbuf borrows                                                         *)
(* ------------------------------------------------------------------ *)

let make_pool ?(n = 4) ?(buf_len = 2048) () =
  let mem = Cheri.Tagged_memory.create ~size:0x200000 in
  let region =
    Cheri.Capability.root ~base:0 ~length:0x100000 ~perms:Cheri.Perms.all
  in
  let eal = Dpdk.Eal.create mem ~region in
  (mem, Dpdk.Mbuf.pool_create eal ~name:"zc" ~n ~buf_len)

let borrow_reads_in_place () =
  let mem, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  ignore (Dpdk.Mbuf.append m 4);
  Dpdk.Mbuf.write mem m ~off:0 (Bytes.of_string "abcd");
  let s = Dpdk.Mbuf.borrow mem m in
  Alcotest.(check int) "borrow covers data region" 4 (Dsim.Slice.length s);
  Alcotest.(check int) "reads the payload" (Char.code 'c')
    (Dsim.Slice.get_u8 s 2);
  Alcotest.(check int) "absolute address matches data_addr"
    (Dpdk.Mbuf.data_addr m) (Dsim.Slice.absolute s)

(* The protection argument for one-check-per-frame: an access escaping
   the borrowed window raises the same typed fault an individual
   capability-checked access would have. *)
let borrow_oob_is_capability_fault () =
  let mem, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  ignore (Dpdk.Mbuf.append m 16);
  let s = Dpdk.Mbuf.borrow mem m in
  (match Dsim.Slice.get_u8 s 16 with
  | _ -> Alcotest.fail "out-of-window read did not trap"
  | exception e ->
    (match fault_kind e with
    | Some Cheri.Fault.Out_of_bounds -> ()
    | _ -> Alcotest.fail "expected Out_of_bounds capability fault"));
  (match Dsim.Slice.check s ~off:8 ~len:9 with
  | _ -> Alcotest.fail "overlong check did not trap"
  | exception e ->
    (match fault_kind e with
    | Some Cheri.Fault.Out_of_bounds -> ()
    | _ -> Alcotest.fail "expected Out_of_bounds capability fault"))

let borrow_fault_address_is_absolute () =
  let mem, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  ignore (Dpdk.Mbuf.append m 8);
  let s = Dpdk.Mbuf.borrow mem m in
  match Dsim.Slice.get_u8 s 11 with
  | _ -> Alcotest.fail "expected fault"
  | exception Cheri.Fault.Capability_fault f ->
    Alcotest.(check int) "address = data_addr + offset"
      (Dpdk.Mbuf.data_addr m + 11)
      f.Cheri.Fault.address

let borrow_frame_write_and_prepend () =
  let mem, pool = make_pool () in
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  let fs = Dpdk.Mbuf.borrow_frame mem m in
  Alcotest.(check int) "whole buffer" (Dpdk.Mbuf.buf_len m)
    (Dsim.Slice.length fs);
  (* Lay a payload at the data offset, then prepend a "header" into the
     headroom — the TX discipline. *)
  let data_off = Dpdk.Mbuf.headroom m in
  ignore (Dpdk.Mbuf.append m 4);
  Dsim.Slice.blit_from fs ~off:data_off ~src:(Bytes.of_string "pay!") ~src_off:0
    ~len:4;
  ignore (Dpdk.Mbuf.prepend m 2);
  Dsim.Slice.set_u8 fs (data_off - 2) 0xaa;
  Dsim.Slice.set_u8 fs (data_off - 1) 0xbb;
  Alcotest.(check string) "contents = header + payload" "\xaa\xbbpay!"
    (Bytes.to_string (Dpdk.Mbuf.contents mem m))

let free_clears_flow () =
  let _, pool = make_pool () in
  let ft = Dsim.Flowtrace.create ~enabled:true ~sample_every:1 () in
  let flow = Dsim.Flowtrace.origin ft ~at:Dsim.Time.zero ~flow:"f" App in
  Alcotest.(check bool) "trace sampled" true (flow <> None);
  let m = Option.get (Dpdk.Mbuf.alloc pool) in
  Dpdk.Mbuf.set_flow m flow;
  Dpdk.Mbuf.free m;
  let m' = Option.get (Dpdk.Mbuf.alloc pool) in
  Alcotest.(check bool) "recycled mbuf carries no stale trace" true
    (Dpdk.Mbuf.flow m' = None)

(* ------------------------------------------------------------------ *)
(* Determinism of the published figures                                 *)
(* ------------------------------------------------------------------ *)

(* Golden medians captured on the pre-refactor (copy-per-layer) code at
   the quick profile. The zero-copy path must reproduce them bit for
   bit: it reorders no events and perturbs no timestamps — it only
   removes copies. *)
let golden_fig4 = [ (Core.Measurement.Baseline, 128.14924632342786);
                    (Core.Measurement.Scenario1, 253.29499468615037) ]

let float_exact = Alcotest.testable Fmt.float (fun a b -> a = b)

let fig4_medians_bit_identical () =
  let p = Core.Experiment.quick in
  List.iter
    (fun (path, expected) ->
      let r =
        Core.Measurement.run ~iterations:p.Core.Experiment.iterations path
      in
      Alcotest.check float_exact "median unchanged by zero-copy path"
        expected r.Core.Measurement.boxplot.Dsim.Stats.median)
    golden_fig4

let bandwidth_samples_bit_identical () =
  let p = Core.Experiment.quick in
  let run built =
    Core.Bandwidth.run built ~warmup:p.Core.Experiment.warmup
      ~duration:p.Core.Experiment.duration ()
    |> List.map (fun s -> s.Core.Bandwidth.mbit_s)
  in
  Alcotest.(check (list float_exact))
    "scenario1 receive goodputs"
    [ 658.00981333333334; 658.04842666666673 ]
    (run
       (Core.Scenarios.build_dual_port ~cheri:true
          ~direction:Core.Scenarios.Dut_receives ()));
  Alcotest.(check (list float_exact))
    "contended scenario2 send goodputs"
    [ 532.90261333333342; 408.07082666666668 ]
    (run
       (Core.Scenarios.build_scenario2 ~contended:true
          ~direction:Core.Scenarios.Dut_sends ()));
  Alcotest.(check (list float_exact))
    "udp blast offered/received"
    [ 950.00917333333337; 950.00917333333337 ]
    (run (Core.Scenarios.build_udp_blast ~offered_mbit:950. ()))

(* ------------------------------------------------------------------ *)
(* Allocation budget of the Fig. 4 data path                            *)
(* ------------------------------------------------------------------ *)

(* Minor words per DUT NIC packet on the Fig. 4 data path (ff_write ->
   segment -> wire -> ACK). The budget was last tightened when the event
   heap became arrays of ints and the NIC and PMD stopped allocating
   per frame (224 words/packet, from 529). Before that it was 600, ~10%
   above 544 words/packet once untraced frames stopped formatting flow
   labels and virtual time was unboxed; the zero-copy path measured 912
   when it landed, and the copy-per-layer code before it 1880.
   Reintroducing one per-frame copy (a 1.5 KiB frame is ~190 words) or
   a per-frame label trips it. *)
let fig4_minor_words_budget = 350.0

let dut_nic_packets (b : Core.Scenarios.built) =
  let nic = Core.Topology.nic b.Core.Scenarios.dut in
  let total = ref 0 in
  for i = 0 to Nic.Igb.num_ports nic - 1 do
    let st = Nic.Igb.stats (Nic.Igb.port nic i) in
    total := !total + st.Nic.Port_stats.tx_packets + st.Nic.Port_stats.rx_packets
  done;
  !total

(* Words per DUT NIC packet allocated straight into the major heap,
   which the minor-word count cannot see: buffers above the 2 KiB
   minor-heap limit skip it. The data path allocates none per packet
   (0.36 when this budget landed); one buffer of the read size per
   [ff_read] call (128 KiB for iperf) reads about 11,800 here. *)
let fig4_major_words_budget = 16.0

(* iperf-style streaming with the peer loops live: one 4 x 1448-byte
   ff_write per 50 us slice, just under the 1 Gb/s wire rate, so the
   figure reflects the packet path rather than idle polling. Every
   registry is off — instrumentation allocates by design — and only Gc
   counters are read, never the wall clock. One window serves three
   budgets: (minor words, direct major words) per packet, and the
   resident pages of both nodes before and after. *)
let fig4_alloc_per_packet =
  lazy
    (Dsim.Metrics.set_enabled Dsim.Metrics.default false;
     Dsim.Flowtrace.set_enabled Dsim.Flowtrace.default false;
     Dsim.Profile.set_enabled Dsim.Profile.default false;
     Dsim.Audit.set_enabled Dsim.Audit.default false;
     Dsim.Sampler.set_enabled Dsim.Sampler.default false;
     Dsim.Journal.stop ();
     let chunk = 4 * 1448 in
     let mt, fd, buf =
       Core.Measurement.setup_connected ~seed:52L ~mode:`Direct
         ~write_size:chunk ()
     in
     let built = mt.Core.Scenarios.mt_built in
     let engine = built.Core.Scenarios.engine in
     let ff = mt.Core.Scenarios.mt_ff in
     let pages () =
       List.map
         (fun n -> Cheri.Tagged_memory.resident_pages (Core.Topology.node_mem n))
         [ built.Core.Scenarios.dut; built.Core.Scenarios.peer ]
     in
     let once () =
       ignore (Netstack.Ff_api.ff_write ff fd ~buf ~nbytes:chunk);
       Dsim.Engine.run engine
         ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.us 50))
     in
     for _ = 1 to 64 do once () done;
     let packets0 = dut_nic_packets built in
     let direct_major () =
       let st = Gc.quick_stat () in
       st.Gc.major_words -. st.Gc.promoted_words
     in
     let pages0 = pages () in
     let major0 = direct_major () in
     let minor0 = Gc.minor_words () in
     for _ = 1 to 2_000 do once () done;
     let minor = Gc.minor_words () -. minor0 in
     let major = direct_major () -. major0 in
     let packets = dut_nic_packets built - packets0 in
     let pages1 = pages () in
     built.Core.Scenarios.stop ();
     Alcotest.(check bool) "packets flowed" true (packets > 0);
     ( minor /. float_of_int packets,
       major /. float_of_int packets,
       (pages0, pages1) ))

let within_budget ~kind per_packet budget =
  Alcotest.(check bool)
    (Printf.sprintf "%.2f %s words/packet within budget %.0f" per_packet kind
       budget)
    true (per_packet <= budget)

let fig4_minor_word_budget () =
  let minor, _, _ = Lazy.force fig4_alloc_per_packet in
  within_budget ~kind:"minor" minor fig4_minor_words_budget

let fig4_major_word_budget () =
  let _, major, _ = Lazy.force fig4_alloc_per_packet in
  within_budget ~kind:"direct major" major fig4_major_words_budget

(* Memzones are populated when reserved, so the packet path never
   creates a page: a lazily created mbuf page is a direct major
   allocation of 2 MiB. *)
let fig4_window_creates_no_page () =
  let _, _, (before, after) = Lazy.force fig4_alloc_per_packet in
  Alcotest.(check (list int)) "resident pages (DUT, peer) unchanged" before after

(* ------------------------------------------------------------------ *)
(* Resident-page budget                                                 *)
(* ------------------------------------------------------------------ *)

(* Pages each node of the Table II S1 dual-port build may hold. It
   holds 8 of its 32 after build — its two 8 MiB mbuf pools — and 10
   after 350 ms. *)
let node_page_budget = 12

let table2_s1_page_budget () =
  let b =
    Core.Scenarios.build_dual_port ~cheri:true
      ~direction:Core.Scenarios.Dut_receives ()
  in
  let check_nodes phase =
    List.iter
      (fun (name, node) ->
        let mem = Core.Topology.node_mem node in
        let n = Cheri.Tagged_memory.resident_pages mem in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %d of %d pages within budget %d" name phase n
             (Cheri.Tagged_memory.size mem / Cheri.Tagged_memory.page_size)
             node_page_budget)
          true (n <= node_page_budget))
      [ ("DUT", b.Core.Scenarios.dut); ("peer", b.Core.Scenarios.peer) ]
  in
  check_nodes "after build";
  let engine = b.Core.Scenarios.engine in
  Dsim.Engine.run engine
    ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.ms 350));
  check_nodes "after 350 ms";
  b.Core.Scenarios.stop ()

let suite =
  [
    Alcotest.test_case "slice: accessors and narrowing" `Quick slice_accessors;
    Alcotest.test_case "slice: bounds discipline" `Quick slice_bounds;
    Alcotest.test_case "mbuf: borrow reads in place" `Quick
      borrow_reads_in_place;
    Alcotest.test_case "mbuf: out-of-window access is a capability fault"
      `Quick borrow_oob_is_capability_fault;
    Alcotest.test_case "mbuf: fault reports the absolute address" `Quick
      borrow_fault_address_is_absolute;
    Alcotest.test_case "mbuf: frame borrow builds headers in place" `Quick
      borrow_frame_write_and_prepend;
    Alcotest.test_case "mbuf: free clears the flow context" `Quick
      free_clears_flow;
    Alcotest.test_case "determinism: Fig.4 medians bit-identical" `Slow
      fig4_medians_bit_identical;
    Alcotest.test_case "determinism: bandwidth samples bit-identical" `Slow
      bandwidth_samples_bit_identical;
    Alcotest.test_case "fig4 data path within minor-word budget" `Slow
      fig4_minor_word_budget;
    Alcotest.test_case "fig4 data path within major-word budget" `Slow
      fig4_major_word_budget;
    Alcotest.test_case "fig4 data path creates no page" `Slow
      fig4_window_creates_no_page;
    Alcotest.test_case "table II S1 nodes within page budget" `Slow
      table2_s1_page_budget;
  ]
