(* Tests for the protocol wire formats: checksum, addresses, Ethernet,
   ARP, IPv4, ICMP, UDP, TCP headers, sequence arithmetic, ring buffer. *)

let ip = Netstack.Ipv4_addr.of_string_exn
let mac = Nic.Mac_addr.of_string_exn

let reason =
  Alcotest.testable (Fmt.of_to_string Dsim.Flowtrace.reason_name) ( = )
let fail_reason r = Alcotest.fail (Dsim.Flowtrace.reason_name r)

(* A parser's verdict on malformed input: a typed reject with exactly
   the drop reason the stack files it under. *)
let check_reject what expected = function
  | Ok _ -> Alcotest.failf "%s: parsed, expected a reject" what
  | Error r -> Alcotest.check reason what expected r

(* Rewrite the 16-bit checksum field at [field] so the region
   [off, off + len) sums to zero again, after [init]. *)
let fix_checksum ?(init = 0) b ~off ~len ~field =
  Bytes.set_uint16_be b field 0;
  Bytes.set_uint16_be b field (Netstack.Checksum.compute ~init b ~off ~len)

(* ------------------------------------------------------------------ *)
(* Checksum                                                             *)
(* ------------------------------------------------------------------ *)

let checksum_rfc1071_example () =
  (* The classic example: 0001 f203 f4f5 f6f7 -> checksum 0x220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071" 0x220d (Netstack.Checksum.compute b ~off:0 ~len:8)

let checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0102 + 0300 = 0402 -> complement 0xfbfd *)
  Alcotest.(check int) "odd tail padded" 0xfbfd (Netstack.Checksum.compute b ~off:0 ~len:3)

let checksum_verify () =
  let b = Bytes.of_string "\x45\x00\x00\x1c\x00\x01\x40\x00\x40\x01\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let c = Netstack.Checksum.compute b ~off:0 ~len:20 in
  Bytes.set b 10 (Char.chr (c lsr 8));
  Bytes.set b 11 (Char.chr (c land 0xff));
  Alcotest.(check bool) "validates" true (Netstack.Checksum.valid b ~off:0 ~len:20);
  Bytes.set b 0 '\x46';
  Alcotest.(check bool) "corruption detected" false (Netstack.Checksum.valid b ~off:0 ~len:20)

(* Reference kernels in their plainest form, RFC 1071 over byte pairs
   and CRC-32 a byte at a time, for the word-at-a-time ones to match. *)
let byte_pair_sum ~init b ~off ~len =
  let sum = ref init in
  let i = ref off in
  while !i + 1 < off + len do
    sum := !sum + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < off + len then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  !sum

let crc32_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_bytewise b =
  let crc = ref 0xFFFFFFFF in
  Bytes.iter
    (fun c -> crc := crc32_table.((!crc lxor Char.code c) land 0xff) lxor (!crc lsr 8))
    b;
  !crc lxor 0xFFFFFFFF

let fcs_known_answers () =
  Alcotest.(check int) "check value" 0xCBF43926
    (Nic.Fcs.compute (Bytes.of_string "123456789"));
  Alcotest.(check int) "empty frame" 0 (Nic.Fcs.compute Bytes.empty)

(* Lengths 0-2048, with the fold's boundaries drawn often: under and at
   16 and 64 bytes (where the fold starts), one 16-byte step past 64,
   and full-size frames. Each case also checks its fifteen shorter
   prefixes, so every tail length 0-15 behind the 16-byte fold and
   every tail 0-7 behind the eight-byte table steps is covered. *)
let fcs_matches_bytewise_prop =
  let len =
    QCheck.Gen.(
      frequency
        [ (1, int_range 0 2048);
          (1, oneofl [ 15; 16; 63; 64; 65; 79; 80; 1514; 1518; 2048 ]) ])
  in
  QCheck.Test.make ~name:"fcs: slicing-by-8 = byte-at-a-time" ~count:500
    (QCheck.string_of_size len)
    (fun s ->
      let b = Bytes.of_string s in
      List.for_all
        (fun k ->
          let p = Bytes.sub b 0 (max 0 (Bytes.length b - k)) in
          Nic.Fcs.compute p = crc32_bytewise p)
        (List.init 16 Fun.id))

(* A buffer (random, all 0x00 or all 0xFF), a window at offset 0-7 of
   any parity, an [init], and a split point where the sum is chained. *)
let checksum_matches_byte_pairs_prop =
  let gen =
    QCheck.Gen.(
      let* fill = oneofl [ `Random; `Zero; `Ones ] in
      let* n = int_range 0 1600 in
      let* bytes =
        match fill with
        | `Random -> string_size (return n)
        | `Zero -> return (String.make n '\x00')
        | `Ones -> return (String.make n '\xff')
      in
      let* off = int_range 0 (min 7 n) in
      let* len = int_range 0 (n - off) in
      let* split = int_range 0 len in
      let* init = oneof [ return 0; int_bound 0xFFFFF ] in
      return (Bytes.of_string bytes, off, len, split, init))
  in
  QCheck.Test.make ~name:"checksum: word sum = byte-pair sum" ~count:500
    (QCheck.make gen) (fun (b, off, len, split, init) ->
      let open Netstack.Checksum in
      let whole = compute ~init b ~off ~len in
      let chained =
        compute
          ~init:(ones_complement_sum ~init b ~off ~len:split)
          b ~off:(off + split) ~len:(len - split)
      in
      let ref_chained =
        byte_pair_sum
          ~init:(byte_pair_sum ~init b ~off ~len:split)
          b ~off:(off + split) ~len:(len - split)
      in
      whole = finish (byte_pair_sum ~init b ~off ~len)
      && chained = finish ref_chained
      && ones_complement_sum ~init b ~off ~len:0 = init
      && ones_complement_sum ~init b ~off ~len:(-3) = init)

let checksum_window_past_buffer () =
  let b = Bytes.make 10 '\x5a' in
  let raises ~off ~len =
    match Netstack.Checksum.compute b ~off ~len with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "window ending at the buffer end" false (raises ~off:2 ~len:8);
  List.iter
    (fun (off, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "off %d len %d raises" off len)
        true (raises ~off ~len))
    [ (0, 11); (3, 8); (7, 4); (9, 2); (10, 1); (12, 2); (-1, 4);
      (* [off + len] wraps past [max_int] here: the check must not. *)
      (2, max_int); (1, max_int); (9, max_int - 8); (10, max_int - 9);
      (max_int, 1); (max_int, max_int); (min_int, 4); (-1, max_int) ]

(* ------------------------------------------------------------------ *)
(* IPv4 addresses                                                       *)
(* ------------------------------------------------------------------ *)

let addr_roundtrip () =
  Alcotest.(check string) "pp" "10.1.2.3" (Netstack.Ipv4_addr.to_string (ip "10.1.2.3"));
  Alcotest.(check bool) "equal" true
    (Netstack.Ipv4_addr.equal (ip "255.255.255.255") Netstack.Ipv4_addr.broadcast);
  Alcotest.(check bool) "parse error" true
    (match Netstack.Ipv4_addr.of_string_exn "1.2.3" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "octet range" true
    (match Netstack.Ipv4_addr.make 256 0 0 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let addr_subnets () =
  Alcotest.(check bool) "same /24" true
    (Netstack.Ipv4_addr.in_same_subnet (ip "10.0.0.1") (ip "10.0.0.200") ~prefix:24);
  Alcotest.(check bool) "different /24" false
    (Netstack.Ipv4_addr.in_same_subnet (ip "10.0.0.1") (ip "10.0.1.1") ~prefix:24);
  Alcotest.(check bool) "/16 spans" true
    (Netstack.Ipv4_addr.in_same_subnet (ip "10.0.0.1") (ip "10.0.1.1") ~prefix:16);
  Alcotest.(check bool) "/0 everything" true
    (Netstack.Ipv4_addr.in_same_subnet (ip "1.1.1.1") (ip "200.2.2.2") ~prefix:0);
  Alcotest.(check bool) "/32 exact" false
    (Netstack.Ipv4_addr.in_same_subnet (ip "10.0.0.1") (ip "10.0.0.2") ~prefix:32)

(* ------------------------------------------------------------------ *)
(* Ethernet                                                             *)
(* ------------------------------------------------------------------ *)

let ethernet_roundtrip () =
  let h =
    { Netstack.Ethernet.dst = mac "02:00:00:00:00:02";
      src = mac "02:00:00:00:00:01";
      ethertype = Netstack.Ethernet.Ipv4 }
  in
  let frame = Netstack.Ethernet.build h ~payload:(Bytes.of_string "payload") in
  (match Netstack.Ethernet.parse frame with
  | Ok (h', off) ->
    Alcotest.(check bool) "dst" true (Nic.Mac_addr.equal h.Netstack.Ethernet.dst h'.Netstack.Ethernet.dst);
    Alcotest.(check bool) "src" true (Nic.Mac_addr.equal h.Netstack.Ethernet.src h'.Netstack.Ethernet.src);
    Alcotest.(check bool) "ethertype" true (h'.Netstack.Ethernet.ethertype = Netstack.Ethernet.Ipv4);
    Alcotest.(check int) "payload offset" 14 off
  | Error e -> fail_reason e);
  check_reject "short frame" Dsim.Flowtrace.Parse_error
    (Netstack.Ethernet.parse (Bytes.create 10))

let ethernet_ethertypes () =
  Alcotest.(check int) "ipv4" 0x0800 (Netstack.Ethernet.ethertype_to_int Netstack.Ethernet.Ipv4);
  Alcotest.(check int) "arp" 0x0806 (Netstack.Ethernet.ethertype_to_int Netstack.Ethernet.Arp);
  Alcotest.(check bool) "unknown survives roundtrip" true
    (Netstack.Ethernet.ethertype_of_int 0x86dd = Netstack.Ethernet.Unknown 0x86dd)

(* ------------------------------------------------------------------ *)
(* ARP                                                                  *)
(* ------------------------------------------------------------------ *)

let arp_roundtrip () =
  let req =
    Netstack.Arp.request ~sender_mac:(mac "02:00:00:00:00:01")
      ~sender_ip:(ip "10.0.0.1") ~target_ip:(ip "10.0.0.2")
  in
  let b = Netstack.Arp.build req in
  Alcotest.(check int) "packet length" Netstack.Arp.packet_len (Bytes.length b);
  (match Netstack.Arp.parse b ~off:0 with
  | Ok p ->
    Alcotest.(check bool) "op" true (p.Netstack.Arp.op = Netstack.Arp.Request);
    Alcotest.(check bool) "sender ip" true
      (Netstack.Ipv4_addr.equal p.Netstack.Arp.sender_ip (ip "10.0.0.1"));
    Alcotest.(check bool) "target ip" true
      (Netstack.Ipv4_addr.equal p.Netstack.Arp.target_ip (ip "10.0.0.2"))
  | Error e -> fail_reason e);
  let rep = Netstack.Arp.reply_to req ~mac:(mac "02:00:00:00:00:02") in
  Alcotest.(check bool) "reply op" true (rep.Netstack.Arp.op = Netstack.Arp.Reply);
  Alcotest.(check bool) "reply targets requester" true
    (Netstack.Ipv4_addr.equal rep.Netstack.Arp.target_ip (ip "10.0.0.1"));
  Alcotest.(check bool) "reply advertises our ip" true
    (Netstack.Ipv4_addr.equal rep.Netstack.Arp.sender_ip (ip "10.0.0.2"))

let arp_parse_errors () =
  let parse_error = Dsim.Flowtrace.Parse_error in
  check_reject "truncated" parse_error
    (Netstack.Arp.parse (Bytes.create 10) ~off:0);
  let build () =
    Netstack.Arp.build
      (Netstack.Arp.request ~sender_mac:Nic.Mac_addr.zero
         ~sender_ip:(ip "1.1.1.1") ~target_ip:(ip "2.2.2.2"))
  in
  let b = build () in
  Bytes.set b 7 '\x09' (* bogus op *);
  check_reject "bad op" parse_error (Netstack.Arp.parse b ~off:0);
  let b = build () in
  Bytes.set_uint16_be b 2 0x86dd (* IPv6 protocol type *);
  check_reject "not ethernet/ipv4" parse_error (Netstack.Arp.parse b ~off:0)

let arp_cache_behaviour () =
  let c = Netstack.Arp_cache.create ~entry_lifetime:(Dsim.Time.ms 10) () in
  let now = Dsim.Time.zero in
  Alcotest.(check bool) "miss" true
    (Netstack.Arp_cache.lookup c ~now (ip "10.0.0.2") = None);
  Netstack.Arp_cache.insert c ~now (ip "10.0.0.2") (mac "02:00:00:00:00:02");
  Alcotest.(check bool) "hit" true
    (Netstack.Arp_cache.lookup c ~now (ip "10.0.0.2") <> None);
  Alcotest.(check bool) "expired" true
    (Netstack.Arp_cache.lookup c ~now:(Dsim.Time.ms 20) (ip "10.0.0.2") = None)

let arp_cache_pending () =
  let c = Netstack.Arp_cache.create ~max_pending_per_ip:2 () in
  Alcotest.(check bool) "queue 1" true
    (Netstack.Arp_cache.enqueue_pending c (ip "10.0.0.2") (Bytes.of_string "a"));
  Alcotest.(check bool) "queue 2" true
    (Netstack.Arp_cache.enqueue_pending c (ip "10.0.0.2") (Bytes.of_string "b"));
  Alcotest.(check bool) "bounded" false
    (Netstack.Arp_cache.enqueue_pending c (ip "10.0.0.2") (Bytes.of_string "c"));
  Alcotest.(check (list string)) "drained in order" [ "a"; "b" ]
    (List.map Bytes.to_string (Netstack.Arp_cache.take_pending c (ip "10.0.0.2")));
  Alcotest.(check (list reject)) "drained once" []
    (Netstack.Arp_cache.take_pending c (ip "10.0.0.2"))

let arp_request_rate_limit () =
  let c = Netstack.Arp_cache.create () in
  Alcotest.(check bool) "first request goes out" false
    (Netstack.Arp_cache.request_outstanding c ~now:Dsim.Time.zero (ip "10.0.0.2"));
  Alcotest.(check bool) "second suppressed" true
    (Netstack.Arp_cache.request_outstanding c ~now:(Dsim.Time.us 10) (ip "10.0.0.2"));
  Alcotest.(check bool) "still in flight later" true
    (Netstack.Arp_cache.request_outstanding c ~now:(Dsim.Time.ms 200) (ip "10.0.0.2"));
  (* Retransmits are owned by the cache's backoff schedule, not the
     caller: one retry is due once the interval has elapsed, and it is
     not offered twice for the same deadline. *)
  Alcotest.(check int) "retry due after the interval" 1
    (List.length (Netstack.Arp_cache.due_retries c ~now:(Dsim.Time.ms 200)));
  Alcotest.(check int) "marked resent" 0
    (List.length (Netstack.Arp_cache.due_retries c ~now:(Dsim.Time.ms 200)))

(* ------------------------------------------------------------------ *)
(* IPv4                                                                 *)
(* ------------------------------------------------------------------ *)

let ipv4_roundtrip () =
  let payload = Bytes.of_string "some-transport-data" in
  let h =
    { Netstack.Ipv4.src = ip "10.0.0.1"; dst = ip "10.0.0.2";
      protocol = Netstack.Ipv4.Tcp; ttl = 64; ident = 99;
      total_len = Netstack.Ipv4.header_len + Bytes.length payload }
  in
  let pkt = Netstack.Ipv4.build h ~payload in
  match Netstack.Ipv4.parse pkt ~off:0 ~len:(Bytes.length pkt) with
  | Ok (h', off) ->
    Alcotest.(check bool) "src" true (Netstack.Ipv4_addr.equal h'.Netstack.Ipv4.src (ip "10.0.0.1"));
    Alcotest.(check bool) "dst" true (Netstack.Ipv4_addr.equal h'.Netstack.Ipv4.dst (ip "10.0.0.2"));
    Alcotest.(check bool) "proto" true (h'.Netstack.Ipv4.protocol = Netstack.Ipv4.Tcp);
    Alcotest.(check int) "ident" 99 h'.Netstack.Ipv4.ident;
    Alcotest.(check int) "total" (20 + 19) h'.Netstack.Ipv4.total_len;
    Alcotest.(check string) "payload intact" "some-transport-data"
      (Bytes.sub_string pkt off 19)
  | Error e -> fail_reason e

let ipv4_parse_errors () =
  let payload = Bytes.of_string "x" in
  let h =
    { Netstack.Ipv4.src = ip "1.1.1.1"; dst = ip "2.2.2.2";
      protocol = Netstack.Ipv4.Udp; ttl = 1; ident = 0; total_len = 21 }
  in
  let pkt = Netstack.Ipv4.build h ~payload in
  let parse b = Netstack.Ipv4.parse b ~off:0 ~len:21 in
  (* [edit] rewrites a copy, then re-checksums the header unless
     [csum] is false, so the check under test is the one that fails. *)
  let edited ?(csum = true) edit =
    let b = Bytes.copy pkt in
    edit b;
    if csum then fix_checksum b ~off:0 ~len:20 ~field:10;
    b
  in
  check_reject "checksum detects ttl change" Dsim.Flowtrace.Bad_checksum
    (parse (edited ~csum:false (fun b -> Bytes.set b 8 '\x63')));
  check_reject "wrong version" Dsim.Flowtrace.Parse_error
    (parse (edited (fun b -> Bytes.set b 0 '\x65')));
  check_reject "truncated" Dsim.Flowtrace.Bad_length
    (Netstack.Ipv4.parse pkt ~off:0 ~len:10);
  check_reject "ihl below 5" Dsim.Flowtrace.Parse_error
    (parse (edited (fun b -> Bytes.set b 0 '\x44')));
  check_reject "options past the packet" Dsim.Flowtrace.Bad_option
    (parse (edited ~csum:false (fun b -> Bytes.set b 0 '\x46')));
  check_reject "fragment" Dsim.Flowtrace.Frag_unsupported
    (parse (edited (fun b -> Bytes.set_uint16_be b 6 0x2000 (* MF *))));
  check_reject "total length past the buffer" Dsim.Flowtrace.Bad_length
    (parse (edited (fun b -> Bytes.set_uint16_be b 2 22)))

(* RFC 791's option walk over a 4-byte option area (IHL 6): a lying
   length is rejected like a lying TCP option, never skipped. *)
let ipv4_option_walk () =
  let with_options opts =
    let h =
      { Netstack.Ipv4.src = ip "1.1.1.1"; dst = ip "2.2.2.2";
        protocol = Netstack.Ipv4.Udp; ttl = 1; ident = 0; total_len = 25 }
    in
    let b = Bytes.create 25 in
    Netstack.Ipv4.build_into h b ~off:0;
    Bytes.set b 0 '\x46';
    Bytes.blit_string opts 0 b 20 4;
    Bytes.set b 24 'x';
    fix_checksum b ~off:0 ~len:24 ~field:10;
    Netstack.Ipv4.parse b ~off:0 ~len:25
  in
  check_reject "timestamp claiming 255 bytes (44 ff 05 00)"
    Dsim.Flowtrace.Bad_option
    (with_options "\x44\xff\x05\x00");
  check_reject "length below 2" Dsim.Flowtrace.Bad_option
    (with_options "\x07\x01\x00\x00");
  check_reject "type byte with no length byte" Dsim.Flowtrace.Bad_option
    (with_options "\x01\x01\x01\x07");
  let parses what opts =
    match with_options opts with
    | Ok (_, poff) -> Alcotest.(check int) (what ^ ": payload after IHL") 24 poff
    | Error r -> fail_reason r
  in
  parses "timestamp filling the area" "\x44\x04\x05\x00";
  parses "NOPs then EOL" "\x01\x01\x01\x00";
  parses "EOL hides the bytes after it" "\x00\xff\xff\xff"

(* ------------------------------------------------------------------ *)
(* ICMP                                                                 *)
(* ------------------------------------------------------------------ *)

let icmp_roundtrip () =
  let msg = Netstack.Icmp.Echo_request { ident = 7; seq = 3; data = Bytes.of_string "ping" } in
  let b = Netstack.Icmp.build msg in
  (match Netstack.Icmp.parse b ~off:0 ~len:(Bytes.length b) with
  | Ok (Netstack.Icmp.Echo_request { ident; seq; data }) ->
    Alcotest.(check int) "ident" 7 ident;
    Alcotest.(check int) "seq" 3 seq;
    Alcotest.(check string) "data" "ping" (Bytes.to_string data)
  | Ok _ -> Alcotest.fail "wrong message type"
  | Error e -> fail_reason e);
  (match Netstack.Icmp.reply_to msg with
  | Some (Netstack.Icmp.Echo_reply { ident = 7; seq = 3; _ }) -> ()
  | _ -> Alcotest.fail "expected an echo reply");
  Alcotest.(check bool) "reply to reply is none" true
    (Netstack.Icmp.reply_to (Netstack.Icmp.Echo_reply { ident = 1; seq = 1; data = Bytes.empty }) = None)

let icmp_checksum () =
  let b = Netstack.Icmp.build (Netstack.Icmp.Echo_request { ident = 1; seq = 1; data = Bytes.empty }) in
  check_reject "truncated" Dsim.Flowtrace.Bad_length
    (Netstack.Icmp.parse b ~off:0 ~len:7);
  Bytes.set b 4 '\xFF';
  check_reject "corruption detected" Dsim.Flowtrace.Bad_checksum
    (Netstack.Icmp.parse b ~off:0 ~len:(Bytes.length b))

(* ------------------------------------------------------------------ *)
(* UDP                                                                  *)
(* ------------------------------------------------------------------ *)

let udp_roundtrip () =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let d = Netstack.Udp.build ~src ~dst ~src_port:1234 ~dst_port:53 ~payload:(Bytes.of_string "query") in
  match Netstack.Udp.parse ~src ~dst d ~off:0 ~len:(Bytes.length d) with
  | Ok (h, off) ->
    Alcotest.(check int) "src port" 1234 h.Netstack.Udp.src_port;
    Alcotest.(check int) "dst port" 53 h.Netstack.Udp.dst_port;
    Alcotest.(check int) "length" 13 h.Netstack.Udp.length;
    Alcotest.(check string) "payload" "query" (Bytes.sub_string d off 5)
  | Error e -> fail_reason e

let udp_checksum_pseudo_header () =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let d = Netstack.Udp.build ~src ~dst ~src_port:1 ~dst_port:2 ~payload:(Bytes.of_string "x") in
  (* Same datagram checked against different addresses must fail: the
     pseudo-header is part of the checksum. *)
  let len = Bytes.length d in
  check_reject "wrong pseudo header" Dsim.Flowtrace.Bad_checksum
    (Netstack.Udp.parse ~src:(ip "10.0.0.9") ~dst d ~off:0 ~len);
  check_reject "truncated" Dsim.Flowtrace.Bad_length
    (Netstack.Udp.parse ~src ~dst d ~off:0 ~len:7);
  Bytes.set_uint16_be d 4 (len + 1);
  check_reject "length past the buffer" Dsim.Flowtrace.Bad_length
    (Netstack.Udp.parse ~src ~dst d ~off:0 ~len)

(* ------------------------------------------------------------------ *)
(* TCP sequence arithmetic                                              *)
(* ------------------------------------------------------------------ *)

let seq_wraparound () =
  let near_max = Netstack.Tcp_seq.of_int 0xFFFFFFF0 in
  let wrapped = Netstack.Tcp_seq.add near_max 0x20 in
  Alcotest.(check int) "wraps" 0x10 wrapped;
  Alcotest.(check bool) "lt across wrap" true (Netstack.Tcp_seq.lt near_max wrapped);
  Alcotest.(check int) "sub across wrap" 0x20 (Netstack.Tcp_seq.sub wrapped near_max);
  Alcotest.(check int) "negative distance" (-0x20) (Netstack.Tcp_seq.sub near_max wrapped);
  Alcotest.(check bool) "between across wrap" true
    (Netstack.Tcp_seq.between (Netstack.Tcp_seq.of_int 0xFFFFFFFF)
       ~low:near_max ~high:wrapped)

let seq_ordering_props =
  QCheck.Test.make ~name:"tcp_seq: lt/gt antisymmetric near values" ~count:300
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFF))
    (fun (base, delta) ->
      let a = Netstack.Tcp_seq.of_int base in
      let b = Netstack.Tcp_seq.add a (delta + 1) in
      Netstack.Tcp_seq.lt a b && Netstack.Tcp_seq.gt b a
      && Netstack.Tcp_seq.sub b a = delta + 1)

(* ------------------------------------------------------------------ *)
(* TCP wire format                                                      *)
(* ------------------------------------------------------------------ *)

let tcp_header src_port =
  {
    Netstack.Tcp_wire.src_port;
    dst_port = 5201;
    seq = Netstack.Tcp_seq.of_int 1000;
    ack = Netstack.Tcp_seq.of_int 2000;
    flags = Netstack.Tcp_wire.flag ~ack:true ~psh:true ();
    window = 0x1234;
    options =
      [ Netstack.Tcp_wire.Mss 1448;
        Netstack.Tcp_wire.Wscale 4;
        Netstack.Tcp_wire.Timestamps { tsval = 111; tsecr = 222 } ];
  }

let tcp_wire_roundtrip () =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let h = tcp_header 40000 in
  let seg = Netstack.Tcp_wire.build ~src ~dst h ~payload:(Bytes.of_string "DATA") in
  match Netstack.Tcp_wire.parse ~src ~dst seg ~off:0 ~len:(Bytes.length seg) with
  | Ok (h', off) ->
    Alcotest.(check int) "src port" 40000 h'.Netstack.Tcp_wire.src_port;
    Alcotest.(check int) "dst port" 5201 h'.Netstack.Tcp_wire.dst_port;
    Alcotest.(check int) "seq" 1000 h'.Netstack.Tcp_wire.seq;
    Alcotest.(check int) "ack" 2000 h'.Netstack.Tcp_wire.ack;
    Alcotest.(check bool) "flags" true
      (h'.Netstack.Tcp_wire.flags.Netstack.Tcp_wire.ack
      && h'.Netstack.Tcp_wire.flags.Netstack.Tcp_wire.psh
      && not h'.Netstack.Tcp_wire.flags.Netstack.Tcp_wire.syn);
    Alcotest.(check int) "window" 0x1234 h'.Netstack.Tcp_wire.window;
    Alcotest.(check (option int)) "mss" (Some 1448) (Netstack.Tcp_wire.find_mss h');
    Alcotest.(check (option int)) "wscale" (Some 4) (Netstack.Tcp_wire.find_wscale h');
    Alcotest.(check (option (pair int int))) "timestamps" (Some (111, 222))
      (Netstack.Tcp_wire.find_timestamps h');
    Alcotest.(check string) "payload" "DATA" (Bytes.sub_string seg off 4)
  | Error e -> fail_reason e

let tcp_wire_checksum () =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let seg = Netstack.Tcp_wire.build ~src ~dst (tcp_header 40000) ~payload:(Bytes.of_string "DATA") in
  let len = Bytes.length seg in
  let parse b = Netstack.Tcp_wire.parse ~src ~dst b ~off:0 ~len in
  let init =
    Netstack.Ipv4.pseudo_header_sum ~src ~dst ~protocol:Netstack.Ipv4.Tcp ~len
  in
  (* Options start at byte 20: MSS (kind, length at 21), NOP and
     window scale (length at 26), two NOPs and timestamps (length at
     31); see [tcp_header]. *)
  let edited edit =
    let b = Bytes.copy seg in
    edit b;
    fix_checksum ~init b ~off:0 ~len ~field:16;
    b
  in
  check_reject "truncated header" Dsim.Flowtrace.Bad_length
    (Netstack.Tcp_wire.parse ~src ~dst seg ~off:0 ~len:19);
  check_reject "data offset below 20" Dsim.Flowtrace.Parse_error
    (parse (edited (fun b -> Bytes.set b 12 '\x40')));
  check_reject "option length below 2" Dsim.Flowtrace.Bad_option
    (parse (edited (fun b -> Bytes.set b 26 '\x01')));
  check_reject "option length past the header" Dsim.Flowtrace.Bad_option
    (parse (edited (fun b -> Bytes.set b 31 '\x0b')));
  check_reject "option length byte missing" Dsim.Flowtrace.Bad_option
    (parse
       (edited (fun b ->
            Bytes.set b 12 '\x60' (* 24-byte header: options 20-23 *);
            Bytes.blit_string "\x01\x01\x01\x02" 0 b 20 4)));
  Bytes.set seg (len - 1) 'X';
  check_reject "payload corruption detected" Dsim.Flowtrace.Bad_checksum
    (parse seg)

let tcp_wire_mss_1448 () =
  (* 20 IP + 20 TCP + 12 timestamp option + 1448 payload = 1500 MTU. *)
  let h = { (tcp_header 1) with Netstack.Tcp_wire.options = [ Netstack.Tcp_wire.Timestamps { tsval = 0; tsecr = 0 } ] } in
  Alcotest.(check int) "data segment header is 32 bytes" 32 (Netstack.Tcp_wire.header_len h);
  Alcotest.(check int) "1448 + headers = MTU" 1500
    (Netstack.Ipv4.header_len + Netstack.Tcp_wire.header_len h + 1448)

let tcp_wire_no_options () =
  let src = ip "1.1.1.1" and dst = ip "2.2.2.2" in
  let h = { (tcp_header 1) with Netstack.Tcp_wire.options = [] } in
  let seg = Netstack.Tcp_wire.build ~src ~dst h ~payload:Bytes.empty in
  Alcotest.(check int) "bare header" 20 (Bytes.length seg);
  match Netstack.Tcp_wire.parse ~src ~dst seg ~off:0 ~len:20 with
  | Ok (h', off) ->
    Alcotest.(check int) "no options" 0 (List.length h'.Netstack.Tcp_wire.options);
    Alcotest.(check int) "payload offset" 20 off
  | Error e -> fail_reason e

let tcp_wire_roundtrip_prop =
  QCheck.Test.make ~name:"tcp_wire: build/parse roundtrips seq numbers" ~count:100
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFF))
    (fun (seq, window) ->
      let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
      let h =
        { (tcp_header 999) with
          Netstack.Tcp_wire.seq = Netstack.Tcp_seq.of_int seq; window }
      in
      let seg = Netstack.Tcp_wire.build ~src ~dst h ~payload:Bytes.empty in
      match Netstack.Tcp_wire.parse ~src ~dst seg ~off:0 ~len:(Bytes.length seg) with
      | Ok (h', _) ->
        h'.Netstack.Tcp_wire.seq = seq && h'.Netstack.Tcp_wire.window = window
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                          *)
(* ------------------------------------------------------------------ *)

let rb_write_read () =
  let rb = Netstack.Ring_buf.create ~capacity:8 in
  let src = Bytes.of_string "abcdef" in
  Alcotest.(check int) "write all" 6 (Netstack.Ring_buf.write rb src ~off:0 ~len:6);
  Alcotest.(check int) "length" 6 (Netstack.Ring_buf.length rb);
  Alcotest.(check int) "free" 2 (Netstack.Ring_buf.free_space rb);
  Alcotest.(check string) "peek" "cde" (Bytes.to_string (Netstack.Ring_buf.peek rb ~off:2 ~len:3));
  let dst = Bytes.create 4 in
  Alcotest.(check int) "read_into" 4 (Netstack.Ring_buf.read_into rb ~dst ~dst_off:0 ~len:4);
  Alcotest.(check string) "consumed head" "abcd" (Bytes.to_string dst);
  Alcotest.(check int) "remaining" 2 (Netstack.Ring_buf.length rb)

let rb_short_write () =
  let rb = Netstack.Ring_buf.create ~capacity:4 in
  let n = Netstack.Ring_buf.write rb (Bytes.of_string "abcdef") ~off:0 ~len:6 in
  Alcotest.(check int) "short write" 4 n;
  Alcotest.(check int) "full write refused" 0
    (Netstack.Ring_buf.write rb (Bytes.of_string "x") ~off:0 ~len:1)

let rb_wraparound () =
  let rb = Netstack.Ring_buf.create ~capacity:8 in
  ignore (Netstack.Ring_buf.write rb (Bytes.of_string "abcdef") ~off:0 ~len:6);
  Netstack.Ring_buf.drop rb 5;
  (* head at index 5, write 6 more wraps around the end *)
  Alcotest.(check int) "wrap write" 6 (Netstack.Ring_buf.write rb (Bytes.of_string "ghijkl") ~off:0 ~len:6);
  Alcotest.(check string) "wrapped content" "fghijkl"
    (Bytes.to_string (Netstack.Ring_buf.peek rb ~off:0 ~len:7))

let rb_errors () =
  let rb = Netstack.Ring_buf.create ~capacity:4 in
  ignore (Netstack.Ring_buf.write rb (Bytes.of_string "ab") ~off:0 ~len:2);
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  expect_invalid "peek beyond data" (fun () -> Netstack.Ring_buf.peek rb ~off:1 ~len:2);
  expect_invalid "drop beyond data" (fun () -> Netstack.Ring_buf.drop rb 3);
  expect_invalid "bad source range" (fun () ->
      Netstack.Ring_buf.write rb (Bytes.of_string "a") ~off:0 ~len:2);
  expect_invalid "zero capacity" (fun () -> Netstack.Ring_buf.create ~capacity:0)

let rb_clear () =
  let rb = Netstack.Ring_buf.create ~capacity:4 in
  ignore (Netstack.Ring_buf.write rb (Bytes.of_string "ab") ~off:0 ~len:2);
  Netstack.Ring_buf.clear rb;
  Alcotest.(check bool) "empty after clear" true (Netstack.Ring_buf.is_empty rb)

(* Model-based: the ring behaves like a byte FIFO. *)
let rb_model_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (3, map (fun n -> `Write n) (int_range 1 10));
          (2, map (fun n -> `Read n) (int_range 1 10));
          (1, return `Drop1) ])
  in
  QCheck.Test.make ~name:"ring_buf behaves like a byte FIFO" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let rb = Netstack.Ring_buf.create ~capacity:16 in
      let model = Buffer.create 64 in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Write n ->
            let src = Bytes.init n (fun i -> Char.chr ((!next + i) land 0xff)) in
            let accepted = Netstack.Ring_buf.write rb src ~off:0 ~len:n in
            Buffer.add_subbytes model src 0 accepted;
            next := !next + accepted;
            (* model holds everything; ring holds the tail after reads *)
            ()
          | `Read n ->
            let dst = Bytes.create n in
            let got = Netstack.Ring_buf.read_into rb ~dst ~dst_off:0 ~len:n in
            let expected_len = min got (Buffer.length model) in
            if got <> expected_len then ok := false
            else begin
              let expected = Buffer.sub model 0 got in
              if Bytes.sub_string dst 0 got <> expected then ok := false;
              let rest = Buffer.sub model got (Buffer.length model - got) in
              Buffer.clear model;
              Buffer.add_string model rest
            end
          | `Drop1 ->
            if Netstack.Ring_buf.length rb > 0 then begin
              Netstack.Ring_buf.drop rb 1;
              let rest = Buffer.sub model 1 (Buffer.length model - 1) in
              Buffer.clear model;
              Buffer.add_string model rest
            end)
        ops;
      !ok && Netstack.Ring_buf.length rb = Buffer.length model)

(* ------------------------------------------------------------------ *)
(* Parser fuzzing                                                       *)
(* ------------------------------------------------------------------ *)

(* The drop reasons each parser may file a malformed frame under. *)
let eth_reasons = Dsim.Flowtrace.[ Parse_error ]
let arp_reasons = Dsim.Flowtrace.[ Parse_error ]

let ipv4_reasons =
  Dsim.Flowtrace.
    [ Bad_length; Parse_error; Bad_option; Bad_checksum; Frag_unsupported ]

let icmp_reasons = Dsim.Flowtrace.[ Bad_length; Bad_checksum ]
let udp_reasons = Dsim.Flowtrace.[ Bad_length; Bad_checksum ]

let tcp_reasons =
  Dsim.Flowtrace.[ Bad_length; Bad_checksum; Parse_error; Bad_option ]

(* Valid frames to start from: ARP, and ICMP echo, UDP and a TCP
   segment carrying MSS, window-scale and timestamp options over IPv4,
   each behind an Ethernet header. *)
let fuzz_seeds =
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  let eth ethertype payload =
    Netstack.Ethernet.build
      { Netstack.Ethernet.dst = mac "02:00:00:00:00:02";
        src = mac "02:00:00:00:00:01"; ethertype }
      ~payload
  in
  let over_ip protocol transport =
    eth Netstack.Ethernet.Ipv4
      (Netstack.Ipv4.build
         { Netstack.Ipv4.src; dst; protocol; ttl = 64; ident = 7;
           total_len = Netstack.Ipv4.header_len + Bytes.length transport }
         ~payload:transport)
  in
  [|
    eth Netstack.Ethernet.Arp
      (Netstack.Arp.build
         (Netstack.Arp.request ~sender_mac:(mac "02:00:00:00:00:01")
            ~sender_ip:src ~target_ip:dst));
    over_ip Netstack.Ipv4.Icmp
      (Netstack.Icmp.build
         (Netstack.Icmp.Echo_request
            { ident = 1; seq = 2; data = Bytes.of_string "ping" }));
    over_ip Netstack.Ipv4.Udp
      (Netstack.Udp.build ~src ~dst ~src_port:5000 ~dst_port:53
         ~payload:(Bytes.of_string "query"));
    over_ip Netstack.Ipv4.Tcp
      (Netstack.Tcp_wire.build ~src ~dst (tcp_header 40000)
         ~payload:(Bytes.of_string "DATA"));
  |]

type mutation =
  | Set of int * int  (** Overwrite the byte at this offset (mod length). *)
  | Truncate of int  (** Keep at most this many bytes. *)
  | Fit_ip_length
      (** Rewrite the IPv4 total length to the bytes actually present,
          so a truncation is not simply refused as [Bad_length]. *)
  | Option_length of int * int
      (** Give the n-th TCP option of the seed segment this length. *)
  | Ip_option of int * int
      (** Grow the IPv4 header by a 4-byte option area holding an option
          of this type and length. *)

let pp_mutation = function
  | Set (pos, v) -> Printf.sprintf "set %d=0x%02x" pos v
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Fit_ip_length -> "fit ip length"
  | Option_length (i, v) -> Printf.sprintf "option %d length %d" i v
  | Ip_option (k, v) -> Printf.sprintf "ip option type %d length %d" k v

(* The seed TCP segment's option-length bytes: Ethernet 14 + IPv4 20 +
   TCP 20, then MSS (length at +1), NOP + window scale (+6), two NOPs
   + timestamps (+11). *)
let option_length_offsets = [| 55; 60; 65 |]

let mutate b = function
  | Set (pos, v) ->
    if Bytes.length b > 0 then Bytes.set_uint8 b (pos mod Bytes.length b) v;
    b
  | Truncate n -> Bytes.sub b 0 (min n (Bytes.length b))
  | Fit_ip_length ->
    if Bytes.length b >= 18 then Bytes.set_uint16_be b 16 (Bytes.length b - 14);
    b
  | Option_length (i, v) ->
    let pos = option_length_offsets.(i) in
    if pos < Bytes.length b then Bytes.set_uint8 b pos v;
    b
  | Ip_option (kind, olen) ->
    let len = Bytes.length b in
    let vihl = if len > 14 then Bytes.get_uint8 b 14 else 0 in
    let ihl = (vihl land 0xf) * 4 in
    if len < 18 || vihl lsr 4 <> 4 || ihl < 20 || ihl > 56 || 14 + ihl > len
    then b
    else begin
      (* The area goes after the present header; the total length
         grows with it, so only the option walk can object. *)
      let at = 14 + ihl in
      let b' = Bytes.make (len + 4) '\000' in
      Bytes.blit b 0 b' 0 at;
      Bytes.set_uint8 b' at kind;
      Bytes.set_uint8 b' (at + 1) olen;
      Bytes.blit b at b' (at + 4) (len - at);
      Bytes.set_uint8 b' 14 (vihl + 1);
      Bytes.set_uint16_be b' 16 ((Bytes.get_uint16_be b 16 + 4) land 0xffff);
      b'
    end

(* Re-checksum whatever the mutated header bytes still describe — the
   IPv4 header, then the transport its total length covers — so a
   mutation is judged by the check it aims at, not by the checksum. *)
let fix_checksums b =
  let len = Bytes.length b in
  if len >= 34 then begin
    let ihl = (Bytes.get_uint8 b 14 land 0xf) * 4 in
    if ihl >= 20 && 14 + ihl <= len then begin
      fix_checksum b ~off:14 ~len:ihl ~field:24;
      let total = Bytes.get_uint16_be b 16 in
      let toff = 14 + ihl and tlen = total - ihl in
      if tlen >= 0 && 14 + total <= len then begin
        let addr off = Netstack.Ipv4_addr.of_int32 (Bytes.get_int32_be b off) in
        let pseudo protocol len =
          Netstack.Ipv4.pseudo_header_sum ~src:(addr 26) ~dst:(addr 30)
            ~protocol ~len
        in
        match Netstack.Ipv4.protocol_of_int (Bytes.get_uint8 b 23) with
        | Netstack.Ipv4.Tcp when tlen >= 18 ->
          fix_checksum b ~init:(pseudo Netstack.Ipv4.Tcp tlen) ~off:toff
            ~len:tlen ~field:(toff + 16)
        | Netstack.Ipv4.Udp when tlen >= 8 ->
          let ulen = Bytes.get_uint16_be b (toff + 4) in
          if ulen >= 8 && ulen <= tlen then
            fix_checksum b ~init:(pseudo Netstack.Ipv4.Udp ulen) ~off:toff
              ~len:ulen ~field:(toff + 6)
        | Netstack.Ipv4.Icmp when tlen >= 4 ->
          fix_checksum b ~off:toff ~len:tlen ~field:(toff + 2)
        | _ -> ()
      end
    end
  end

(* Parse [frame] layer by layer, as [Stack.handle_frame] does: every
   verdict must be [Ok] or a reject in that parser's reason set. *)
let verdicts_typed frame =
  let typed reasons = function Ok _ -> true | Error r -> List.mem r reasons in
  match Netstack.Ethernet.parse frame with
  | Error r -> List.mem r eth_reasons
  | Ok (eth, off) -> (
    match eth.Netstack.Ethernet.ethertype with
    | Netstack.Ethernet.Arp -> typed arp_reasons (Netstack.Arp.parse frame ~off)
    | Netstack.Ethernet.Unknown _ -> true
    | Netstack.Ethernet.Ipv4 -> (
      match Netstack.Ipv4.parse frame ~off ~len:(Bytes.length frame - off) with
      | Error r -> List.mem r ipv4_reasons
      | Ok (h, poff) -> (
        let len = h.Netstack.Ipv4.total_len - (poff - off) in
        let src = h.Netstack.Ipv4.src and dst = h.Netstack.Ipv4.dst in
        match h.Netstack.Ipv4.protocol with
        | Netstack.Ipv4.Tcp ->
          typed tcp_reasons
            (Netstack.Tcp_wire.parse ~src ~dst frame ~off:poff ~len)
        | Netstack.Ipv4.Udp ->
          typed udp_reasons (Netstack.Udp.parse ~src ~dst frame ~off:poff ~len)
        | Netstack.Ipv4.Icmp ->
          typed icmp_reasons (Netstack.Icmp.parse frame ~off:poff ~len)
        | Netstack.Ipv4.Unknown_proto _ -> true)))

let parsers_reject_typed_prop =
  let mutation =
    QCheck.Gen.(
      frequency
        [ (6, map2 (fun pos v -> Set (pos, v)) (int_bound 79) (int_bound 255));
          (1, map (fun n -> Truncate n) (int_bound 100));
          (1, return Fit_ip_length);
          ( 2,
            map2 (fun i v -> Option_length (i, v)) (int_bound 2) (int_bound 255)
          );
          ( 2,
            map2
              (fun k v -> Ip_option (k, v))
              (oneofl [ 0; 1; 7; 0x44; 0x83; 0x94 ])
              (int_bound 8) ) ])
  in
  let print (seed, ms, fix) =
    Printf.sprintf "seed %d, [%s], checksums %s" seed
      (String.concat "; " (List.map pp_mutation ms))
      (if fix then "recomputed" else "left")
  in
  QCheck.Test.make ~count:3000
    ~name:"parsers: mutated frames reject with a typed reason"
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (int_bound (Array.length fuzz_seeds - 1))
           (list_size (int_range 1 4) mutation)
           (frequency [ (3, return true); (1, return false) ])))
    (fun (seed, ms, fix) ->
      let frame = List.fold_left mutate (Bytes.copy fuzz_seeds.(seed)) ms in
      if fix then fix_checksums frame;
      verdicts_typed frame)

let suite =
  [
    Alcotest.test_case "checksum: RFC 1071 example" `Quick checksum_rfc1071_example;
    Alcotest.test_case "checksum: odd length" `Quick checksum_odd_length;
    Alcotest.test_case "checksum: verification" `Quick checksum_verify;
    Alcotest.test_case "ipv4 addr: roundtrip + errors" `Quick addr_roundtrip;
    Alcotest.test_case "ipv4 addr: subnets" `Quick addr_subnets;
    Alcotest.test_case "ethernet: roundtrip" `Quick ethernet_roundtrip;
    Alcotest.test_case "ethernet: ethertypes" `Quick ethernet_ethertypes;
    Alcotest.test_case "arp: roundtrip + reply" `Quick arp_roundtrip;
    Alcotest.test_case "arp: parse errors" `Quick arp_parse_errors;
    Alcotest.test_case "arp cache: insert/expiry" `Quick arp_cache_behaviour;
    Alcotest.test_case "arp cache: pending queue" `Quick arp_cache_pending;
    Alcotest.test_case "arp cache: request rate limit" `Quick arp_request_rate_limit;
    Alcotest.test_case "ipv4: roundtrip" `Quick ipv4_roundtrip;
    Alcotest.test_case "ipv4: parse errors" `Quick ipv4_parse_errors;
    Alcotest.test_case "icmp: echo roundtrip" `Quick icmp_roundtrip;
    Alcotest.test_case "icmp: checksum" `Quick icmp_checksum;
    Alcotest.test_case "udp: roundtrip" `Quick udp_roundtrip;
    Alcotest.test_case "udp: pseudo-header checksum" `Quick udp_checksum_pseudo_header;
    Alcotest.test_case "tcp_seq: wraparound" `Quick seq_wraparound;
    QCheck_alcotest.to_alcotest seq_ordering_props;
    Alcotest.test_case "tcp_wire: roundtrip with options" `Quick tcp_wire_roundtrip;
    Alcotest.test_case "tcp_wire: checksum" `Quick tcp_wire_checksum;
    Alcotest.test_case "tcp_wire: MSS 1448 fills the MTU" `Quick tcp_wire_mss_1448;
    Alcotest.test_case "tcp_wire: no options" `Quick tcp_wire_no_options;
    QCheck_alcotest.to_alcotest tcp_wire_roundtrip_prop;
    Alcotest.test_case "ring_buf: write/peek/read" `Quick rb_write_read;
    Alcotest.test_case "ring_buf: short writes" `Quick rb_short_write;
    Alcotest.test_case "ring_buf: wraparound" `Quick rb_wraparound;
    Alcotest.test_case "ring_buf: errors" `Quick rb_errors;
    Alcotest.test_case "ring_buf: clear" `Quick rb_clear;
    QCheck_alcotest.to_alcotest rb_model_prop;
    Alcotest.test_case "fcs: known answers" `Quick fcs_known_answers;
    QCheck_alcotest.to_alcotest fcs_matches_bytewise_prop;
    QCheck_alcotest.to_alcotest checksum_matches_byte_pairs_prop;
    Alcotest.test_case "checksum: window past the buffer" `Quick
      checksum_window_past_buffer;
    QCheck_alcotest.to_alcotest parsers_reject_typed_prop;
    Alcotest.test_case "ipv4: option walk" `Quick ipv4_option_walk;
  ]

(* ------------------------------------------------------------------ *)
(* Socket table / epoll units                                           *)
(* ------------------------------------------------------------------ *)

let dummy_udp fd =
  Netstack.Socket.Udp
    { Netstack.Socket.ufd = fd; uport = None; rcv_q = Queue.create (); max_rcv_q = 4 }

let socket_table_limits () =
  let t = Netstack.Socket.create_table ~max_fds:2 () in
  let fd1 = match Netstack.Socket.alloc t dummy_udp with
    | Ok (fd, _) -> fd
    | Error _ -> Alcotest.fail "alloc 1"
  in
  let _fd2 = match Netstack.Socket.alloc t dummy_udp with
    | Ok (fd, _) -> fd
    | Error _ -> Alcotest.fail "alloc 2"
  in
  Alcotest.(check bool) "EMFILE when full" true
    (match Netstack.Socket.alloc t dummy_udp with
    | Error Netstack.Errno.EMFILE -> true
    | _ -> false);
  Netstack.Socket.release t fd1;
  Alcotest.(check bool) "slot reusable after release" true
    (Result.is_ok (Netstack.Socket.alloc t dummy_udp));
  Alcotest.(check int) "live count" 2 (Netstack.Socket.live_count t);
  Alcotest.(check int) "fds listed" 2 (List.length (Netstack.Socket.fds t))

let socket_find_kinds () =
  let t = Netstack.Socket.create_table () in
  let fd = match Netstack.Socket.alloc t dummy_udp with
    | Ok (fd, _) -> fd
    | Error _ -> Alcotest.fail "alloc"
  in
  Alcotest.(check bool) "find_udp ok" true
    (Result.is_ok (Netstack.Socket.find_udp t fd));
  Alcotest.(check bool) "find_tcp wrong kind" true
    (match Netstack.Socket.find_tcp t fd with
    | Error Netstack.Errno.EOPNOTSUPP -> true
    | _ -> false);
  Alcotest.(check bool) "find_tcp bad fd" true
    (match Netstack.Socket.find_tcp t 999 with
    | Error Netstack.Errno.EBADF -> true
    | _ -> false)

let epoll_rotation_fairness () =
  let ep = Netstack.Epoll.create () in
  let open Netstack.Epoll in
  ignore (ctl_add ep ~fd:3 epollin);
  ignore (ctl_add ep ~fd:4 epollin);
  (* Both always ready; with max=1 successive waits must alternate. *)
  let ready _ = epollin in
  let w () = match wait ep ~readiness:ready ~max:1 with
    | [ (fd, _) ] -> fd
    | _ -> Alcotest.fail "expected exactly one"
  in
  let a = w () and b = w () in
  Alcotest.(check bool) "rotation alternates" true (a <> b)

let epoll_err_always_reported () =
  let ep = Netstack.Epoll.create () in
  let open Netstack.Epoll in
  ignore (ctl_add ep ~fd:5 epollout) (* interested in OUT only *);
  let ready _ = epollerr in
  (match wait ep ~readiness:ready ~max:4 with
  | [ (5, ev) ] -> Alcotest.(check bool) "ERR delivered unrequested" true (has ev epollerr)
  | _ -> Alcotest.fail "expected the error event");
  Alcotest.(check string) "events pp" "IN|ERR"
    (Format.asprintf "%a" pp_events (epollin lor epollerr))

(* The full-scan [Epoll.wait] the ready list replaced, kept as the
   reference it must reproduce: every registered fd in ascending order,
   the start rotated by one rank per call, truncated at [max]. *)
module Scan_epoll = struct
  open Netstack.Epoll

  type t = { mutable interests : (int * events) list; mutable rotation : int }

  let create () = { interests = []; rotation = 0 }
  let mem t fd = List.mem_assoc fd t.interests

  let ctl_add t ~fd ev =
    if mem t fd then Error Netstack.Errno.EINVAL
    else begin
      t.interests <- List.sort compare ((fd, ev) :: t.interests);
      Ok ()
    end

  let ctl_mod t ~fd ev =
    if not (mem t fd) then Error Netstack.Errno.EINVAL
    else begin
      t.interests <-
        List.map (fun (f, e) -> if f = fd then (f, ev) else (f, e)) t.interests;
      Ok ()
    end

  let ctl_del t ~fd =
    if not (mem t fd) then Error Netstack.Errno.EINVAL
    else begin
      t.interests <- List.remove_assoc fd t.interests;
      Ok ()
    end

  let forget t ~fd = t.interests <- List.remove_assoc fd t.interests

  let wait t ~readiness ~max =
    let arr = Array.of_list t.interests in
    let n = Array.length arr in
    if n = 0 || max <= 0 then []
    else begin
      let start = t.rotation mod n in
      t.rotation <- t.rotation + 1;
      let out = ref [] and count = ref 0 in
      for i = 0 to n - 1 do
        if !count < max then begin
          let fd, want = arr.((start + i) mod n) in
          let reported = readiness fd land (want lor epollerr lor epollhup) in
          if reported <> 0 then begin
            out := (fd, reported) :: !out;
            incr count
          end
        end
      done;
      List.rev !out
    end
end

type epoll_op =
  | Ep_add of int * int
  | Ep_mod of int * int
  | Ep_del of int
  | Ep_forget of int
  | Ep_flip of int * int  (** New readiness for an fd, then its notify. *)
  | Ep_wait of int

let pp_epoll_op = function
  | Ep_add (fd, ev) -> Printf.sprintf "add %d 0x%x" fd ev
  | Ep_mod (fd, ev) -> Printf.sprintf "mod %d 0x%x" fd ev
  | Ep_del fd -> Printf.sprintf "del %d" fd
  | Ep_forget fd -> Printf.sprintf "forget %d" fd
  | Ep_flip (fd, ev) -> Printf.sprintf "ready %d 0x%x" fd ev
  | Ep_wait max -> Printf.sprintf "wait %d" max

(* Random registrations, readiness flips (each followed by the notify
   the contract asks for) and waits over a dozen fds: every wait of the
   ready list must equal the full scan's, rotation and truncation
   included, and so must every ctl verdict. *)
let epoll_matches_scan_prop =
  let nfds = 12 in
  let op =
    QCheck.Gen.(
      let fd = int_range 3 (2 + nfds) in
      let events = map (fun m -> m land 0x1d) (int_bound 31) in
      frequency
        [ (3, map2 (fun fd ev -> Ep_add (fd, ev)) fd events);
          (2, map2 (fun fd ev -> Ep_mod (fd, ev)) fd events);
          (1, map (fun fd -> Ep_del fd) fd);
          (1, map (fun fd -> Ep_forget fd) fd);
          (4, map2 (fun fd ev -> Ep_flip (fd, ev)) fd events);
          (3, map (fun m -> Ep_wait m) (int_range 1 (nfds + 2))) ])
  in
  QCheck.Test.make ~count:1000 ~name:"epoll: ready list matches a full scan"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_epoll_op ops))
       QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let open Netstack in
      let ep = Epoll.create () and scan = Scan_epoll.create () in
      let ready = Array.make (3 + nfds) 0 in
      let readiness fd = ready.(fd) in
      List.for_all
        (function
          | Ep_add (fd, ev) -> Epoll.ctl_add ep ~fd ev = Scan_epoll.ctl_add scan ~fd ev
          | Ep_mod (fd, ev) -> Epoll.ctl_mod ep ~fd ev = Scan_epoll.ctl_mod scan ~fd ev
          | Ep_del fd -> Epoll.ctl_del ep ~fd = Scan_epoll.ctl_del scan ~fd
          | Ep_forget fd ->
            Epoll.forget ep ~fd;
            Scan_epoll.forget scan ~fd;
            true
          | Ep_flip (fd, ev) ->
            ready.(fd) <- ev;
            Epoll.notify ep ~fd;
            true
          | Ep_wait max ->
            Epoll.wait ep ~readiness ~max = Scan_epoll.wait scan ~readiness ~max)
        ops
      && Epoll.registered ep = scan.Scan_epoll.interests)

(* A wait's cost follows the ready list: once a first wait has found 500
   fresh registrations idle, the next evaluates none of them (the full
   scan evaluated all 500 on every call), and a notified fd is the only
   one looked at. *)
let epoll_idle_interests_cost_nothing () =
  let open Netstack.Epoll in
  let ep = create () in
  for fd = 3 to 502 do
    ignore (ctl_add ep ~fd epollin)
  done;
  let calls = ref 0 and hot = ref (-1) in
  let readiness fd =
    incr calls;
    if fd = !hot then epollin else 0
  in
  Alcotest.(check int) "fresh registrations idle" 0
    (List.length (wait ep ~readiness ~max:64));
  Alcotest.(check int) "each fresh registration evaluated once" 500 !calls;
  calls := 0;
  Alcotest.(check int) "still idle" 0 (List.length (wait ep ~readiness ~max:64));
  Alcotest.(check int) "idle interests evaluated" 0 !calls;
  hot := 250;
  notify ep ~fd:250;
  (match wait ep ~readiness ~max:64 with
  | [ (250, ev) ] -> Alcotest.(check bool) "IN" true (has ev epollin)
  | evs -> Alcotest.failf "expected fd 250 alone, got %d fds" (List.length evs));
  Alcotest.(check int) "only the notified fd evaluated" 1 !calls

let unit_suite =
  [
    Alcotest.test_case "socket table: limits and reuse" `Quick socket_table_limits;
    Alcotest.test_case "socket table: kind lookups" `Quick socket_find_kinds;
    Alcotest.test_case "epoll: rotation fairness" `Quick epoll_rotation_fairness;
    Alcotest.test_case "epoll: ERR always reported" `Quick epoll_err_always_reported;
    QCheck_alcotest.to_alcotest epoll_matches_scan_prop;
    Alcotest.test_case "epoll: idle interests cost nothing" `Quick
      epoll_idle_interests_cost_nothing;
  ]

(* ------------------------------------------------------------------ *)
(* Kernel allocation                                                    *)
(* ------------------------------------------------------------------ *)

(* The FCS and checksum kernels are [@@noalloc] C stubs over untagged
   ints: a thousand calls, on both FCS paths (a full-size frame folds,
   a minimum-size one takes the tables), leave the minor heap alone. *)
let kernels_allocate_nothing () =
  let frame = Bytes.init 1514 (fun i -> Char.chr (i land 0xff)) in
  let runt = Bytes.sub frame 0 60 in
  let sink = ref 0 in
  let words_over_1000 f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      sink := !sink lxor f ()
    done;
    Gc.minor_words () -. before
  in
  let cases =
    [ ("fcs, 1514 bytes", fun () -> Nic.Fcs.compute frame);
      ("fcs, 60 bytes", fun () -> Nic.Fcs.compute runt);
      ( "checksum sum",
        fun () -> Netstack.Checksum.ones_complement_sum frame ~off:14 ~len:1500 );
      ("checksum", fun () -> Netstack.Checksum.compute frame ~off:1 ~len:1513) ]
  in
  List.iter
    (fun (what, f) ->
      Alcotest.(check (float 0.)) (what ^ ": minor words") 0. (words_over_1000 f))
    cases;
  ignore (Sys.opaque_identity !sink)

let kernel_suite =
  [ Alcotest.test_case "kernels: no allocation per call" `Quick
      kernels_allocate_nothing ]

(* ------------------------------------------------------------------ *)
(* Window checks near max_int                                           *)
(* ------------------------------------------------------------------ *)

(* Every entry point below takes an [(off, len)] window and documents
   when it accepts it: [off >= lo], [len >= 0] and [off + len <= hi]
   ([lo] is a capability's base and 0 otherwise; [hi] is a capability's
   limit or the buffer's size). The oracle computes that in Int64,
   where the sum of two 63-bit ints cannot overflow. Each entry point
   must accept exactly when the oracle holds, and otherwise raise its
   own typed error and nothing else. Offsets and lengths come from the
   edges an overflow hides behind (0, +-1, min_int, max_int, lo and hi
   +-1, hi - off, max_int - off and max_int - off + 1) and from random
   ints. *)

exception Slice_oob

let fits ~lo ~hi ~off ~len =
  let open Int64 in
  let off = of_int off and len = of_int len in
  compare off (of_int lo) >= 0
  && compare len 0L >= 0
  && compare (add off len) (of_int hi) <= 0

let window_gen =
  QCheck.Gen.(
    pair (oneofl [ 0; 1; 0x1000 ]) (int_range 0 64) >>= fun (lo, size) ->
    let hi = lo + size in
    let edge =
      [ 0; 1; -1; min_int; max_int; lo - 1; lo; lo + 1; hi - 1; hi; hi + 1 ]
    in
    let pick extra =
      oneof [ oneofl (extra @ edge); int; int_range (lo - 8) (hi + 8) ]
    in
    pick [] >>= fun off ->
    pick
      [ hi - off; hi - off - 1; hi - off + 1; max_int - off; max_int - off + 1 ]
    >>= fun len -> return (lo, size, off, len))

let window_checks_match_contract =
  QCheck.Test.make ~count:2000
    ~name:"bounds: window checks accept exactly their contract"
    (QCheck.make
       ~print:(fun (lo, size, off, len) ->
         Printf.sprintf "lo=%d size=%d off=%d len=%d" lo size off len)
       window_gen)
    (fun (lo, size, off, len) ->
      (* [Some true]: accepted; [Some false]: the typed error; [None]:
         any other exception, or a wrong side effect. *)
      let outcome is_typed f =
        match f () with
        | () -> Some true
        | exception e -> if is_typed e then Some false else None
      in
      let invalid_arg = function Invalid_argument _ -> true | _ -> false in
      let in_buffer = fits ~lo:0 ~hi:size ~off ~len in
      let cap =
        Cheri.Capability.root ~base:lo ~length:size ~perms:Cheri.Perms.data
      in
      let cap_fault = function
        | Cheri.Fault.Capability_fault f ->
          f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds
        | _ -> false
      in
      let window =
        Dsim.Slice.make (Bytes.create (size + 8)) ~off:4 ~len:size
          ~oob:
            { Dsim.Slice.raise_oob =
                (fun ~addr:_ ~len:_ ~detail:_ -> raise Slice_oob) }
      in
      let ring = Netstack.Ring_buf.create ~capacity:64 in
      (* Wrap the head around so the window straddles the ring's end. *)
      ignore (Netstack.Ring_buf.write ring (Bytes.make 37 'x') ~off:0 ~len:37);
      Netstack.Ring_buf.drop ring 37;
      let data = Bytes.init size (fun i -> Char.chr (i land 0xff)) in
      ignore (Netstack.Ring_buf.write ring data ~off:0 ~len:size);
      let checks =
        [ ( "Capability.in_bounds",
            Some (Cheri.Capability.in_bounds cap ~addr:off ~len),
            fits ~lo ~hi:(lo + size) ~off ~len );
          ( "Capability.check_access",
            outcome cap_fault (fun () ->
                Cheri.Capability.check_access cap Cheri.Capability.Load
                  ~addr:off ~len),
            fits ~lo ~hi:(lo + size) ~off ~len );
          ( "Slice.make",
            outcome invalid_arg (fun () ->
                ignore (Dsim.Slice.make (Bytes.create size) ~off ~len)),
            in_buffer );
          ( "Slice.check",
            outcome (( = ) Slice_oob) (fun () ->
                Dsim.Slice.check window ~off ~len),
            in_buffer );
          ( "Ring_buf.peek",
            outcome invalid_arg (fun () ->
                let got = Netstack.Ring_buf.peek ring ~off ~len in
                if not (in_buffer && Bytes.equal got (Bytes.sub data off len))
                then failwith "Ring_buf.peek: wrong window"),
            in_buffer );
          ( "Ring_buf.blit_to",
            (* A refused window writes nothing, and [dst] holds the whole
               ring, so a check that passed a wrapped sum would show. *)
            (let dst = Bytes.make 64 '\xee' in
             match
               outcome invalid_arg (fun () ->
                   Netstack.Ring_buf.blit_to ring ~off ~len ~dst ~dst_off:0)
             with
             | Some false when Bytes.exists (( <> ) '\xee') dst -> None
             | Some true when Bytes.sub dst 0 len <> Bytes.sub data off len ->
               None
             | got -> got),
            in_buffer );
          ( "Checksum.compute",
            outcome invalid_arg (fun () ->
                ignore (Netstack.Checksum.compute data ~off ~len)),
            len <= 0 || in_buffer ) ]
      in
      List.for_all
        (fun (what, got, expected) ->
          got = Some expected
          || QCheck.Test.fail_reportf "%s: %s, the contract says %s" what
               (match got with
               | Some true -> "accepted"
               | Some false -> "rejected"
               | None -> "an untyped exception or a wrong write")
               (if expected then "accept" else "reject"))
        checks)

let kernel_suite =
  kernel_suite @ [ QCheck_alcotest.to_alcotest window_checks_match_contract ]
