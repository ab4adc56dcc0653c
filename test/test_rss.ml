(* Tests for the RSS steering function the red-team corpus aims with:
   Toeplitz classification stability, spread across the queues of a
   reset-RETA port, the Microsoft verification vectors and the
   fragment fall-back. *)

(* ------------------------------------------------------------------ *)
(* Frame construction                                                   *)
(* ------------------------------------------------------------------ *)

(* A minimal broadcast IPv4/UDP Ethernet frame carrying the given
   5-tuple; [tag] lands in the first payload byte, outside the tuple. *)
let ipv4_udp_frame ?(proto = 17) ?(tag = 0) ~src_ip ~dst_ip ~sport ~dport () =
  let b = Bytes.make 60 '\000' in
  Bytes.blit_string (Nic.Mac_addr.to_bytes Nic.Mac_addr.broadcast) 0 b 0 6;
  Bytes.set_uint8 b 12 0x08;
  Bytes.set_uint8 b 13 0x00;
  Bytes.set_uint8 b 14 0x45;
  Bytes.set_uint8 b 23 proto;
  Bytes.set_int32_be b 26 src_ip;
  Bytes.set_int32_be b 30 dst_ip;
  Bytes.set_uint16_be b 34 sport;
  Bytes.set_uint16_be b 36 dport;
  Bytes.set_uint8 b 38 (tag land 0xff);
  b

let flow_frame ?tag i =
  ipv4_udp_frame ?tag
    ~src_ip:(Int32.of_int (0x0a000000 lor (i * 7919)))
    ~dst_ip:0x0a630001l
    ~sport:(1024 + (i mod 50000))
    ~dport:5400 ()

(* ------------------------------------------------------------------ *)
(* Classification                                                       *)
(* ------------------------------------------------------------------ *)

let queue_of ~queues f =
  match Nic.Rss.probe ~queues f with
  | Some (_, q) -> q
  | None -> Alcotest.fail "expected IPv4 tuple"

let hash_of f =
  match Nic.Rss.five_tuple f with
  | Some t -> Nic.Rss.hash_input t
  | None -> Alcotest.fail "expected IPv4 tuple"

let rss_same_tuple_same_queue () =
  for i = 0 to 199 do
    (* Two independently built frames with the same 5-tuple must land
       on the same queue, whatever the rest of the frame holds. *)
    let a = flow_frame ~tag:1 i and b = flow_frame ~tag:200 i in
    Bytes.set b 50 'x';
    Alcotest.(check int)
      (Printf.sprintf "flow %d stable" i)
      (queue_of ~queues:4 a) (queue_of ~queues:4 b)
  done

let rss_uniform_spread () =
  let queues = 4 in
  let counts = Array.make queues 0 in
  let flows = 1000 in
  for i = 0 to flows - 1 do
    let q = queue_of ~queues (flow_frame i) in
    counts.(q) <- counts.(q) + 1
  done;
  let expect = flows / queues in
  Array.iteri
    (fun q c ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %d within 20%% of uniform (%d)" q c)
        true
        (float_of_int (abs (c - expect)) <= 0.2 *. float_of_int expect))
    counts;
  Alcotest.(check int) "every flow classified" flows
    (Array.fold_left ( + ) 0 counts)

let rss_non_ip_no_hash () =
  let arp = Bytes.make 60 '\000' in
  Bytes.set_uint8 arp 12 0x08;
  Bytes.set_uint8 arp 13 0x06;
  Alcotest.(check bool) "arp has no hash" true (Nic.Rss.probe ~queues:4 arp = None);
  let runt = Bytes.make 20 '\000' in
  Alcotest.(check bool) "runt has no hash" true (Nic.Rss.probe ~queues:4 runt = None)

(* The Toeplitz property the key exists for: permuting the input
   changes the hash (so port scans spread), and the hash depends on
   every tuple field. *)
let rss_hash_sensitivity () =
  let base = flow_frame 1 in
  let tweaks =
    [
      ("src ip", fun f -> Bytes.set_uint8 f 29 9);
      ("dst ip", fun f -> Bytes.set_uint8 f 33 9);
      ("sport", fun f -> Bytes.set_uint16_be f 34 9999);
      ("dport", fun f -> Bytes.set_uint16_be f 36 9999);
    ]
  in
  let h0 = hash_of base in
  List.iter
    (fun (name, tweak) ->
      let f = flow_frame 1 in
      tweak f;
      Alcotest.(check bool) (name ^ " perturbs hash") true (hash_of f <> h0))
    tweaks

let ip a b c d =
  Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)

(* The Microsoft RSS verification suite for the default key:
   (src, sport, dst, dport, TCP/IPv4 hash, IPv4-only hash). Pins the
   hash input layout — 12-byte (src ip, dst ip, src port, dst port)
   for TCP, 8-byte 2-tuple otherwise — to the values real NICs
   compute. *)
let microsoft_vectors =
  [
    ((66, 9, 149, 187), 2794, (161, 142, 100, 80), 1766, 0x51ccc178, 0x323e8fc2);
    ((199, 92, 111, 2), 14230, (65, 69, 140, 83), 4739, 0xc626b0ea, 0xd718262a);
    ((24, 19, 198, 95), 12898, (12, 22, 207, 184), 38024, 0x5c2b394a, 0xd2d0a5de);
    ((38, 27, 205, 30), 48228, (209, 142, 163, 6), 2217, 0xafc7327f, 0x82989176);
    ((153, 39, 163, 191), 44251, (202, 188, 127, 2), 1303, 0x10e828a2, 0x5d1809c5);
  ]

let rss_matches_microsoft_vectors () =
  List.iter
    (fun ((sa, sb, sc, sd), sport, (da, db, dc, dd), dport, tcp_h, ip_h) ->
      let src_ip = ip sa sb sc sd and dst_ip = ip da db dc dd in
      let tcp = ipv4_udp_frame ~proto:6 ~src_ip ~dst_ip ~sport ~dport () in
      Alcotest.(check int) "TCP/IPv4 hash matches vector" tcp_h (hash_of tcp);
      (* Non-TCP/UDP hashes the 2-tuple: the IPv4-only vector. *)
      let other =
        ipv4_udp_frame ~proto:99 ~src_ip ~dst_ip ~sport:0 ~dport:0 ()
      in
      Alcotest.(check int) "IPv4-only hash matches vector" ip_h (hash_of other))
    microsoft_vectors

(* Fragments carry no trustworthy L4 header, so they hash the 2-tuple:
   every fragment of a datagram — whatever bytes sit at the port
   offsets — steers to the same queue as the rest of its flow's
   fragments. *)
let rss_fragments_fall_back_to_2tuple () =
  let src_ip = ip 10 1 2 3 and dst_ip = ip 10 99 0 1 in
  (* First fragment: MF set, offset 0, real UDP header. *)
  let first = ipv4_udp_frame ~src_ip ~dst_ip ~sport:7777 ~dport:5400 () in
  Bytes.set_uint16_be first 20 0x2000;
  (* Later fragment: payload bytes where the ports would be. *)
  let later = ipv4_udp_frame ~src_ip ~dst_ip ~sport:0xdead ~dport:0xbeef () in
  Bytes.set_uint16_be later 20 0x00b9;
  (match Nic.Rss.five_tuple later with
  | Some t -> Alcotest.(check int) "fragment tuple is the 2-tuple" 8 (Bytes.length t)
  | None -> Alcotest.fail "expected IPv4 tuple");
  let q_first = queue_of ~queues:4 first
  and q_later = queue_of ~queues:4 later in
  Alcotest.(check int) "all fragments on one queue" q_first q_later;
  (* And that queue is the flow's 2-tuple queue, shared with other
     non-TCP/UDP traffic between the same endpoints. *)
  let icmpish = ipv4_udp_frame ~proto:1 ~src_ip ~dst_ip ~sport:0 ~dport:0 () in
  Alcotest.(check int) "fragments follow the 2-tuple steering"
    (queue_of ~queues:4 icmpish) q_first

let suite =
  [
    Alcotest.test_case "rss: same 5-tuple same queue" `Quick
      rss_same_tuple_same_queue;
    Alcotest.test_case "rss: 1k flows spread within 20% of uniform" `Quick
      rss_uniform_spread;
    Alcotest.test_case "rss: non-IP frames have no hash" `Quick
      rss_non_ip_no_hash;
    Alcotest.test_case "rss: hash depends on every tuple field" `Quick
      rss_hash_sensitivity;
    Alcotest.test_case "rss: Microsoft verification vectors" `Quick
      rss_matches_microsoft_vectors;
    Alcotest.test_case "rss: fragments fall back to the 2-tuple" `Quick
      rss_fragments_fall_back_to_2tuple;
  ]
