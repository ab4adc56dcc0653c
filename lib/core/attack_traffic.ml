(* Red-team network-borne attack generator with blast-radius gates.

   A seeded, deterministic corpus of hostile traffic and hostile app
   behaviour, organised along the taxonomy of [cls]:

   - parser-bounds: crafted frames whose headers lie about the bytes
     actually on the wire (truncations, bad IHL/data-offset, lying
     total/UDP lengths, option overflows, fragments);
   - temporal: connection-close races — blind RST/SYN/FIN against a
     live connection, a stale capability dereference inside the
     supervised ff_* boundary, a closed fd left in an epoll set;
   - resource: floods and mbuf exhaust-and-spray driving pools into
     typed backpressure;
   - cross-tenant: probes at sibling cVMs through the Scenario 2
     shared stack (port scans, forged 5-tuples, RSS-steering abuse).

   Hostile frames enter at the [Nic.Link.inject] tamper point — they
   share the legitimate traffic's serialisation queue, FCS and
   propagation, so attacked runs stay deterministic. Hostile app
   behaviour enters through the scenario [app_hook], inside the
   supervisor's trap boundary with the Scenario 2 mutex held.

   Every launch must end in a typed verdict: in the CHERI scenarios a
   Flowtrace (stage, reason) drop, a typed backpressure symptom or a
   supervisor-contained [Cheri.Fault.Capability_fault]; in the
   MMU-only baseline the memory attacks are *expected* to leak, and the
   ledger records the silent corruption. The PR 4 blast-radius gate
   extends to attacked runs: sibling goodput outside quarantine must
   stay >= 0.9x the undisturbed twin in every phase. *)

module V = Dsim.Verdict
module Ft = Dsim.Flowtrace
module Time = Dsim.Time
module Engine = Dsim.Engine
module Sup = Capvm.Supervisor
module Br = Blast_radius

let k_redteam stage =
  Dsim.Profile.(key default) ~component:"redteam" ~cvm:"-" ~stage

let labels =
  { Br.arm = k_redteam "warmup_arm"; tick = k_redteam "sample_tick" }

let k_inject = k_redteam "inject"
let k_check = k_redteam "verdict_check"

type cls = Parser_bounds | Temporal | Resource | Cross_tenant

let cls_name = function
  | Parser_bounds -> "parser_bounds"
  | Temporal -> "temporal"
  | Resource -> "resource"
  | Cross_tenant -> "cross_tenant"

let all_classes = [ Parser_bounds; Temporal; Resource; Cross_tenant ]

type profile = {
  window : Br.window;
  sample_every : Time.t;
  exhaust_window : Time.t;  (** How long the mbuf spray holds the pool. *)
}

let quick =
  {
    window = { warmup = Time.ms 6; duration = Time.ms 30 };
    sample_every = Time.ms 1;
    exhaust_window = Time.us 300;
  }

let full =
  {
    window = { warmup = Time.ms 20; duration = Time.ms 120 };
    sample_every = Time.ms 2;
    exhaust_window = Time.us 400;
  }

type phase = {
  ap_common : Br.phase;
  ap_ids : int list;  (** Ledger ids launched during this phase. *)
  ap_mutex_free : bool;  (** Shared mutex not left held by the victim. *)
  ap_pool_recovered : bool;  (** Mbufs available again after the spray. *)
  ap_rst_sent : int;  (** RSTs the stack answered probes with. *)
}

type report = {
  seed : int64;
  launched : int;
  caught : int;
  leaked : int;
  pending : int;
  counts : (cls * V.tally) list;
  phases : phase list;
  cheri_caught : int;  (** Caught launches in the CHERI phases. *)
  cheri_launched : int;
  baseline_leaks : int;  (** Leaked launches in the Baseline phase. *)
  pass : bool;
  text : string;
  json : Dsim.Json.t;
}

(* ------------------------------------------------------------------ *)
(* Frame forge                                                         *)
(* ------------------------------------------------------------------ *)

(* Raw header construction, deliberately independent of the stack's own
   builders: the attacker controls every byte, and the well-formed
   parts (checksums over lying fields) must be computed over exactly
   what is on the wire. *)

let set8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let set16 b off v =
  set8 b off (v lsr 8);
  set8 b (off + 1) v

let set32 b off v =
  set16 b off ((v lsr 16) land 0xffff);
  set16 b (off + 2) (v land 0xffff)

let write_ip b off ip =
  let v = Int32.to_int (Netstack.Ipv4_addr.to_int32 ip) land 0xffffffff in
  set32 b off v

type forge = {
  fg_dst_mac : string;  (** 6 raw bytes: the victim port's MAC. *)
  fg_src_mac : string;
  fg_dst_ip : Netstack.Ipv4_addr.t;
  fg_src_ip : Netstack.Ipv4_addr.t;
}

let attacker_mac = Nic.Mac_addr.make 0x02 0xbd 0x0d 0x00 0x00 0x01

(* Ethernet header (IPv4 ethertype) into a fresh frame of [len]. *)
let eth_frame fg len =
  let b = Bytes.make len '\000' in
  Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
  Bytes.blit_string fg.fg_src_mac 0 b 6 6;
  set16 b 12 0x0800;
  b

(* IPv4 header at offset 14. The checksum is computed last, over the
   header exactly as crafted — so a lying [total_len] still carries a
   valid checksum and must be rejected by the length check itself. *)
let ipv4_at b ?(src = Netstack.Ipv4_addr.any) ?(dst = Netstack.Ipv4_addr.any)
    ?(vihl = 0x45) ?(frag = 0x4000) ?total_len ~proto () =
  let total_len =
    match total_len with Some l -> l | None -> Bytes.length b - 14
  in
  set8 b 14 vihl;
  set16 b 16 total_len;
  set16 b 18 0x2bad (* ident *);
  set16 b 20 frag;
  set8 b 22 64 (* ttl *);
  set8 b 23 proto;
  write_ip b 26 src;
  write_ip b 30 dst;
  set16 b 24 0;
  set16 b 24 (Netstack.Checksum.compute b ~off:14 ~len:20)

let f_fin = 0x01
let f_syn = 0x02
let f_rst = 0x04
let f_ack = 0x10

(* Full TCP frame: 14 eth + 20 ip + header of [data_words] words +
   [payload_len] zero bytes. The TCP checksum (over the pseudo-header)
   is valid unless the caller corrupts it afterwards. *)
let tcp_frame fg ~src_port ~dst_port ~seq ~ack_seq ~flags
    ?(data_words = 5) ?(payload_len = 0) () =
  let tcp_len = (data_words * 4) + payload_len in
  let b = eth_frame fg (34 + tcp_len) in
  ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
  set16 b 34 src_port;
  set16 b 36 dst_port;
  set32 b 38 seq;
  set32 b 42 ack_seq;
  set8 b 46 (data_words lsl 4);
  set8 b 47 flags;
  set16 b 48 4096 (* window *);
  let sum =
    Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
      ~protocol:Netstack.Ipv4.Tcp ~len:tcp_len
  in
  set16 b 50 (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:tcp_len);
  b

(* UDP frame; checksum 0 = "not computed" (legal for UDP/IPv4), so the
   length field alone is under test. *)
let udp_frame fg ~src_port ~dst_port ~udp_len ~payload_len =
  let b = eth_frame fg (42 + payload_len) in
  ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:17 ();
  set16 b 34 src_port;
  set16 b 36 dst_port;
  set16 b 38 udp_len;
  set16 b 40 0;
  b

(* ------------------------------------------------------------------ *)
(* Wire corpus                                                         *)
(* ------------------------------------------------------------------ *)

(* One corpus entry: the frames to inject and the typed (stage, reason)
   artifacts the stack is allowed to convert them into — the attack
   resolves on whichever acceptable drop counter moves first, and an
   entry whose frames produce none of them stays Pending (gate
   failure). *)
type wire_attack = {
  wa_name : string;
  wa_cls : cls;
  wa_expect : (Ft.stage * Ft.reason) list;
  wa_frames : bytes list;
  wa_note : string;
}

let rand_seq rng = Dsim.Rng.int rng 0x40000000 + 0x1000000

(* The parser-bounds corpus: every entry is a frame whose headers lie
   about the bytes present. [sp] forges distinct source ports so
   entries never collide into one flow. *)
let parser_corpus rng fg =
  let sp () = 20000 + Dsim.Rng.int rng 8000 in
  let plain_tcp ?data_words ?payload_len () =
    tcp_frame fg ~src_port:(sp ()) ~dst_port:5201 ~seq:(rand_seq rng)
      ~ack_seq:0 ~flags:f_syn ?data_words ?payload_len ()
  in
  let runt =
    let b = Bytes.make 10 '\x5a' in
    Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
    b
  in
  let arp_runt =
    let b = eth_frame fg 24 in
    set16 b 12 0x0806;
    b
  in
  let ipv4_trunc =
    let b = eth_frame fg 24 in
    set8 b 14 0x45;
    b
  in
  let bad_ihl =
    let b = eth_frame fg 34 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~vihl:0x44 ~proto:6 ();
    b
  in
  let opt_overflow =
    (* IHL claims 60 bytes of header; only 20 are on the wire. *)
    let b = eth_frame fg 34 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~vihl:0x4f ~proto:6 ();
    b
  in
  let lying_total_len =
    let b = plain_tcp () in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6
      ~total_len:(Bytes.length b - 14 + 48)
      ();
    b
  in
  let ip_bad_csum =
    let b = plain_tcp () in
    set16 b 24 0xdead;
    b
  in
  let fragment =
    let b = plain_tcp () in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ~frag:0x2000 ();
    b
  in
  let tcp_trunc =
    (* IP says 8 bytes of TCP; the TCP parser needs 20. *)
    let b = eth_frame fg 42 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
    set16 b 34 (sp ());
    set16 b 36 5201;
    b
  in
  let tcp_bad_data_off =
    (* data_off claims 60 bytes of TCP header in a 20-byte segment;
       checksum is valid over the bytes actually present. *)
    let b = eth_frame fg 54 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6 ();
    set16 b 34 (sp ());
    set16 b 36 5201;
    set32 b 38 (rand_seq rng);
    set8 b 46 (15 lsl 4);
    set8 b 47 f_syn;
    let sum =
      Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
        ~protocol:Netstack.Ipv4.Tcp ~len:20
    in
    set16 b 50 (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:20);
    b
  in
  let tcp_opt_overflow =
    (* 24-byte header: one option of kind MSS claiming 44 bytes. *)
    let b = tcp_frame fg ~src_port:(sp ()) ~dst_port:5201 ~seq:(rand_seq rng)
        ~ack_seq:0 ~flags:f_syn ~data_words:6 ()
    in
    set8 b 54 2;
    set8 b 55 44;
    let sum =
      Netstack.Ipv4.pseudo_header_sum ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip
        ~protocol:Netstack.Ipv4.Tcp ~len:24
    in
    set16 b 50 0;
    set16 b 50 (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:24);
    b
  in
  let tcp_bad_csum =
    let b = plain_tcp () in
    set16 b 50 0xbeef;
    b
  in
  let udp_trunc =
    let b = eth_frame fg 38 in
    ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:17 ();
    b
  in
  let udp_lying_len =
    udp_frame fg ~src_port:(sp ()) ~dst_port:5353 ~udp_len:200 ~payload_len:4
  in
  let e name expect frame note =
    { wa_name = name; wa_cls = Parser_bounds; wa_expect = [ expect ];
      wa_frames = [ frame ]; wa_note = note }
  in
  [
    e "eth_runt" (Ft.Eth_rx, Ft.Parse_error) runt
      "10-byte frame; ethernet parse rejects before any field read";
    e "arp_runt" (Ft.Eth_rx, Ft.Bad_length) arp_runt
      "ARP body shorter than the fixed packet length";
    e "ipv4_truncated_header" (Ft.Ip_rx, Ft.Bad_length) ipv4_trunc
      "10 bytes of IPv4 header on the wire";
    e "ipv4_bad_ihl" (Ft.Ip_rx, Ft.Parse_error) bad_ihl
      "IHL below the minimum header length";
    e "ipv4_options_overflow" (Ft.Ip_rx, Ft.Bad_option) opt_overflow
      "IHL claims 40 bytes of options that are not present";
    e "ipv4_lying_total_len" (Ft.Ip_rx, Ft.Bad_length) lying_total_len
      "total_len 48 bytes past the frame; checksum valid";
    e "ipv4_bad_checksum" (Ft.Ip_rx, Ft.Bad_checksum) ip_bad_csum
      "header checksum corrupted";
    e "ipv4_fragment" (Ft.Ip_rx, Ft.Frag_unsupported) fragment
      "MF set; reassembly is a typed reject, not a misparse";
    e "tcp_truncated" (Ft.Tcp_in, Ft.Bad_length) tcp_trunc
      "IP delivers 8 bytes where TCP needs 20";
    e "tcp_bad_data_off" (Ft.Tcp_in, Ft.Parse_error) tcp_bad_data_off
      "data offset past the segment; checksum valid";
    e "tcp_option_overflow" (Ft.Tcp_in, Ft.Bad_option) tcp_opt_overflow
      "MSS option length 44 overruns the header";
    e "tcp_bad_checksum" (Ft.Tcp_in, Ft.Bad_checksum) tcp_bad_csum
      "segment checksum corrupted";
    e "udp_truncated" (Ft.Udp_in, Ft.Bad_length) udp_trunc
      "4 bytes of UDP header on the wire";
    e "udp_lying_length" (Ft.Udp_in, Ft.Bad_length) udp_lying_len
      "UDP length field 200 in a 12-byte datagram";
  ]

(* Blind in-window guesses against a live connection: the attacker
   knows the 4-tuple but not the sequence state. The hardened TCP input
   answers each with a challenge ACK and a typed drop — Out_of_window
   for a wild guess, Dup_segment when the wild sequence happens to land
   below rcv_nxt — never a teardown. *)
let blind_expect = [ (Ft.Tcp_in, Ft.Out_of_window); (Ft.Tcp_in, Ft.Dup_segment) ]

let blind_corpus rng fg ~src_port ~dst_port =
  let seg flags =
    tcp_frame fg ~src_port ~dst_port ~seq:(rand_seq rng)
      ~ack_seq:(rand_seq rng) ~flags ()
  in
  let e name flags note =
    { wa_name = name; wa_cls = Temporal; wa_expect = blind_expect;
      wa_frames = [ seg flags ]; wa_note = note }
  in
  [
    e "blind_rst" f_rst
      "forged RST, guessed sequence: challenge-ACK, connection survives";
    e "blind_syn" (f_syn : int)
      "SYN into an established connection: no reset, typed drop";
    e "blind_fin" (f_fin lor f_ack)
      "forged FIN mid-transfer: close race refused outside rcv_nxt";
  ]

(* SYN flood from one unroutable forged source: every SYN spawns an
   embryo connection whose SYN-ACK parks in the ARP pending queue for
   the forged next hop. The queue is bounded (16 per IP), so the flood
   overflows it and the overflow is squashed into typed Arp_unresolved
   drops — bounded state, no amplification. *)
let syn_flood rng fg ~server_port ~n =
  let forged_src = Netstack.Ipv4_addr.make 10 0 0 100 in
  let frames =
    List.init n (fun _ ->
        let b =
          tcp_frame fg
            ~src_port:(1024 + Dsim.Rng.int rng 60000)
            ~dst_port:server_port ~seq:(rand_seq rng) ~ack_seq:0
            ~flags:f_syn ()
        in
        ipv4_at b ~src:forged_src ~dst:fg.fg_dst_ip ~proto:6 ();
        let sum =
          Netstack.Ipv4.pseudo_header_sum ~src:forged_src ~dst:fg.fg_dst_ip
            ~protocol:Netstack.Ipv4.Tcp ~len:20
        in
        set16 b 50 0;
        set16 b 50 (Netstack.Checksum.compute ~init:sum b ~off:34 ~len:20);
        b)
  in
  {
    wa_name = "syn_flood";
    wa_cls = Resource;
    wa_expect = [ (Ft.Ip_out, Ft.Arp_unresolved) ];
    wa_frames = frames;
    wa_note =
      "SYN/ACK amplification to a forged source overflows the bounded ARP \
       pending queue";
  }

let frag_flood rng fg ~n =
  let frames =
    List.init n (fun _ ->
        let b =
          tcp_frame fg ~src_port:(1024 + Dsim.Rng.int rng 60000)
            ~dst_port:5201 ~seq:(rand_seq rng) ~ack_seq:0 ~flags:f_ack
            ~payload_len:64 ()
        in
        ipv4_at b ~src:fg.fg_src_ip ~dst:fg.fg_dst_ip ~proto:6
          ~frag:(0x2000 lor Dsim.Rng.int rng 0x1fff)
          ();
        b)
  in
  {
    wa_name = "fragment_flood";
    wa_cls = Resource;
    wa_expect = [ (Ft.Ip_rx, Ft.Frag_unsupported) ];
    wa_frames = frames;
    wa_note = "pathological reassembly load is refused per-fragment";
  }

let port_scan rng fg ~n =
  let frames =
    List.init n (fun i ->
        tcp_frame fg
          ~src_port:(30000 + Dsim.Rng.int rng 20000)
          ~dst_port:(7000 + i) ~seq:(rand_seq rng) ~ack_seq:0 ~flags:f_syn ())
  in
  {
    wa_name = "port_scan";
    wa_cls = Cross_tenant;
    wa_expect = [ (Ft.Tcp_in, Ft.No_socket) ];
    wa_frames = frames;
    wa_note = "scan of closed sibling ports: typed No_socket + RST each";
  }

let forged_5tuple rng fg ~src_ports ~dst_ports =
  let frames =
    List.map2
      (fun sp dp ->
        tcp_frame fg ~src_port:sp ~dst_port:dp ~seq:(rand_seq rng)
          ~ack_seq:(rand_seq rng) ~flags:(f_ack : int) ~payload_len:16 ())
      src_ports dst_ports
  in
  {
    wa_name = "forged_5tuple";
    wa_cls = Cross_tenant;
    wa_expect = blind_expect;
    wa_frames = frames;
    wa_note =
      "data injection into a sibling's connection via its forged 5-tuple";
  }

(* RSS-steering abuse: the Toeplitz hash is a pure function of the
   frame bytes, so the attacker computes which forged source ports the
   82576's reset RSS function for a 4-queue port would put on the
   victim's RX queue and aims the probes there. The DUT runs one queue,
   so what the probes meet is the stack's [No_socket] guard. *)
let rss_steer rng fg ~victim_src_port ~victim_dst_port =
  let victim_frame =
    tcp_frame fg ~src_port:victim_src_port ~dst_port:victim_dst_port ~seq:0
      ~ack_seq:0 ~flags:f_ack ()
  in
  let vhash, vq =
    match Nic.Rss.probe ~queues:4 victim_frame with
    | Some (h, q) -> (h, q)
    | None -> (0, 0)
  in
  let rec pick acc tries =
    if List.length acc >= 2 || tries > 512 then List.rev acc
    else
      let p = 40000 + Dsim.Rng.int rng 20000 in
      let f =
        tcp_frame fg ~src_port:p ~dst_port:7777 ~seq:(rand_seq rng)
          ~ack_seq:0 ~flags:f_syn ()
      in
      match Nic.Rss.probe ~queues:4 f with
      | Some (_, q) when q = vq -> pick (f :: acc) (tries + 1)
      | _ -> pick acc (tries + 1)
  in
  {
    wa_name = "rss_steer_probe";
    wa_cls = Cross_tenant;
    wa_expect = [ (Ft.Tcp_in, Ft.No_socket) ];
    wa_frames = pick [] 0;
    wa_note =
      Printf.sprintf
        "probes steered onto the victim's RX queue %d (victim hash 0x%08x)"
        vq vhash;
  }

(* A 10-byte runt addressed to the victim port: consumes one armed RX
   descriptor, then is rejected at ethernet parse without creating any
   state — the cheapest possible descriptor-eater for the exhaust
   spray. *)
let spray_runt fg =
  let b = Bytes.make 10 '\x5a' in
  Bytes.blit_string fg.fg_dst_mac 0 b 0 6;
  b

(* ------------------------------------------------------------------ *)
(* Launch/verdict plumbing                                             *)
(* ------------------------------------------------------------------ *)

let drop_count key =
  match List.assoc_opt key (Ft.drop_table Ft.default) with
  | Some n -> n
  | None -> 0

let caught_at ledger id (st, re) ~provenance =
  V.resolve ledger id ~provenance
    (V.Caught { stage = Ft.stage_name st; reason = Ft.reason_name re })

let leaked ledger id detail = V.resolve ledger id (V.Leaked { detail })

(* Register, inject and schedule the verdict check for one wire attack.
   Injected frames share the legitimate traffic's serialisation queue
   and the stack's poll cadence, so the typed drop lands a few hundred
   microseconds after injection: the check snapshots every acceptable
   (stage, reason) counter at inject time and re-polls until one moves,
   resolving with that key. A launch none of whose counters ever move
   stays Pending and fails the gate at [until]. *)
let launch_wire ledger engine link ~target ~stack_name attack ~at ~until ids =
  Engine.schedule_at engine ~at ~label:k_inject (fun () ->
      if attack.wa_frames = [] then ()
      else begin
        let at_ns = Time.to_float_ns (Engine.now engine) in
        let id =
          V.record ledger attack.wa_cls ~name:attack.wa_name ~at_ns ~target
        in
        ids := id :: !ids;
        let before =
          List.map (fun k -> (k, drop_count k)) attack.wa_expect
        in
        List.iter
          (fun f ->
            ignore (Nic.Link.inject link ~into:Nic.Link.A (Bytes.copy f)))
          attack.wa_frames;
        let rec check () =
          match
            List.find_opt (fun (k, b) -> drop_count k > b) before
          with
          | Some ((st, re), b) ->
            caught_at ledger id (st, re)
              ~provenance:
                (Printf.sprintf
                   "%s; attributed at %s's %s/%s guard (+%d typed drops)"
                   attack.wa_note stack_name (Ft.stage_name st)
                   (Ft.reason_name re)
                   (drop_count (st, re) - b))
          | None ->
            if Time.(Engine.now engine < until) then
              Engine.schedule engine ~delay:(Time.us 100) ~label:k_check check
        in
        Engine.schedule engine ~delay:(Time.us 100) ~label:k_check check
      end)

let exhaust_expect =
  [ (Ft.Eth_tx, Ft.Mbuf_exhausted); (Ft.Rx_dma, Ft.Rx_ring_full) ]

(* Mbuf exhaust-and-spray: drain the pool, keep it pinned dry for the
   window, and optionally spray a burst of hostile runt frames while it
   is dry. On a transmitting stack the next data/ACK alloc fails as
   typed Eth_tx/Mbuf_exhausted. On a receiving stack the pin alone is
   not enough — TX-completion mbufs are reaped and restocked into the
   ring within a single loop iteration — so the spray consumes the
   armed RX descriptors faster than that trickle re-arms them and the
   ring collapses into typed Rx_dma/Rx_ring_full backpressure. Either
   way the symptom is typed, and the pool must be usable again after
   the window. *)
let launch_exhaust ledger engine pool ~target ~at ~window ~until ?spray ids
    recovered_flag =
  Engine.schedule_at engine ~at ~label:k_inject (fun () ->
      let at_ns = Time.to_float_ns (Engine.now engine) in
      let id =
        V.record ledger Resource ~name:"mbuf_exhaust_spray" ~at_ns ~target
      in
      ids := id :: !ids;
      let before = List.map (fun k -> (k, drop_count k)) exhaust_expect in
      let stolen = ref [] in
      let held = ref 0 in
      let steal () =
        let rec go () =
          match Dpdk.Mbuf.alloc pool with
          | Some m ->
            stolen := m :: !stolen;
            incr held;
            go ()
          | None -> ()
        in
        go ()
      in
      steal ();
      let t_free = Time.add (Engine.now engine) window in
      (* Re-steal on a cadence faster than the stack's loop gap:
         mbufs released by the victim's own RX/TX processing must be
         gone again before the next iteration's descriptor restock
         can re-arm the ring from them. *)
      let rec pin () =
        if Time.(Engine.now engine < t_free) then begin
          steal ();
          Engine.schedule engine ~delay:(Time.us 1) ~label:k_inject pin
        end
      in
      Engine.schedule engine ~delay:(Time.us 1) ~label:k_inject pin;
      let sprayed =
        match spray with
        | Some (link, frame, n) ->
          for _ = 1 to n do
            ignore (Nic.Link.inject link ~into:Nic.Link.A (Bytes.copy frame))
          done;
          n
        | None -> 0
      in
      Engine.schedule_at engine ~at:t_free ~label:k_inject (fun () ->
          List.iter Dpdk.Mbuf.free !stolen;
          stolen := []);
      let resolved = ref false in
      let rec check () =
        (match
           List.find_opt (fun (k, b) -> drop_count k > b) before
         with
        | Some ((st, re), b) when not !resolved ->
          resolved := true;
          caught_at ledger id (st, re)
            ~provenance:
              (Printf.sprintf
                 "drained %d mbufs out of the rx pool%s; typed \
                  backpressure (%s/%s drops +%d)"
                 !held
                 (if sprayed > 0 then
                    Printf.sprintf " and sprayed %d runt frames" sprayed
                  else "")
                 (Ft.stage_name st) (Ft.reason_name re)
                 (drop_count (st, re) - b))
        | _ -> ());
        if
          (not !recovered_flag)
          && !stolen = []
          && Dpdk.Mbuf.available pool > 0
        then recovered_flag := true;
        if
          ((not !resolved) || not !recovered_flag)
          && Time.(Engine.now engine < until)
        then
          Engine.schedule engine ~delay:(Time.us 100) ~label:k_check check
      in
      Engine.schedule engine ~delay:(Time.us 100) ~label:k_check check)

(* ------------------------------------------------------------------ *)
(* Phase: baseline dual-port (MMU-only model)                          *)
(* ------------------------------------------------------------------ *)

let forge_for built ~subnet =
  {
    fg_dst_mac =
      Nic.Mac_addr.to_bytes (Nic.Igb.mac (Topology.port built.Scenarios.dut 0));
    fg_src_mac = Nic.Mac_addr.to_bytes attacker_mac;
    fg_dst_ip = Netstack.Ipv4_addr.make 10 0 subnet 1;
    fg_src_ip = Netstack.Ipv4_addr.make 10 0 subnet 2;
  }

let secret = "DRONE-TELEMETRY-KEY-0xC4FE"

(* The MMU-only model of the same attacks: where the CHERI scenarios
   trap, a flat address space lets the access through. The ledger
   records what actually leaked/corrupted — the baseline's expected
   outcome, and the paper's motivation. *)
let mmu_attacks ledger engine iv mem ~at ids =
  Engine.schedule_at engine ~at ~label:k_inject (fun () ->
      let at_ns = Time.to_float_ns (Engine.now engine) in
      let attacker =
        Capvm.Intravisor.create_cvm iv ~name:"redteam" ~size:(1 lsl 20)
      in
      let lid name cls =
        let id =
          V.record ledger cls ~name ~at_ns ~target:"process memory"
        in
        ids := id :: !ids;
        id
      in
      (* Lying-length overread: the bytes past the rx buffer are an
         adjacent component's secret. *)
      let buf = Capvm.Cvm.malloc attacker 256 in
      let neighbour = Capvm.Cvm.malloc attacker (String.length secret) in
      Cheri.Tagged_memory.store_bytes mem ~cap:neighbour
        ~addr:(Cheri.Capability.base neighbour)
        (Bytes.of_string secret);
      let id = lid "mmu_lying_len_overread" Parser_bounds in
      let leak = Bytes.create 16 in
      Cheri.Tagged_memory.unchecked_blit_out mem
        ~addr:(Cheri.Capability.base buf + 256)
        ~dst:leak ~dst_off:0 ~len:16;
      leaked ledger id
        (Printf.sprintf "read past rx buffer: %S" (Bytes.to_string leak));
      (* Use-after-close write through a stale pointer. *)
      let stale = Capvm.Cvm.malloc attacker 64 in
      let stale_base = Cheri.Capability.base stale in
      Capvm.Cvm.free attacker stale;
      let id = lid "mmu_use_after_close" Temporal in
      Cheri.Tagged_memory.unchecked_blit_in mem ~addr:stale_base
        ~src:(Bytes.make 16 'X') ~src_off:0 ~len:16;
      leaked ledger id
        "wrote 16 bytes through a freed buffer pointer; no trap, \
         successor allocation silently corrupted";
      (* Cross-tenant read of the network process's private region. *)
      match Capvm.Intravisor.cvms iv with
      | victim :: _ ->
        let id = lid "mmu_cross_tenant_read" Cross_tenant in
        let b = Bytes.create 32 in
        Cheri.Tagged_memory.unchecked_blit_out mem
          ~addr:(Cheri.Capability.base (Capvm.Cvm.region victim))
          ~dst:b ~dst_off:0 ~len:32;
        leaked ledger id
          (Printf.sprintf "read 32 bytes of %s's region with no grant"
             (Capvm.Cvm.name victim))
      | [] -> ())

let phase_baseline ledger rng profile ~seed =
  let topo_seed = Int64.add seed 3L in
  let direction = Scenarios.Dut_receives in
  let w = profile.window and sample_every = profile.sample_every in
  let build () =
    Scenarios.build_dual_port ~cheri:false ~seed:topo_seed ~direction ()
  in
  let twin = Br.twin labels w ~sample_every build in
  let built = build () in
  let engine = built.Scenarios.engine in
  let victim = (List.nth built.Scenarios.flows 0).Scenarios.label in
  let sibling = (List.nth built.Scenarios.flows 1).Scenarios.label in
  let fg = forge_for built ~subnet:0 in
  let link0 = List.hd built.Scenarios.links in
  let nif = List.hd built.Scenarios.dut_netifs in
  let stack_name = victim in
  let ids = ref [] in
  let t_end = Time.add w.warmup w.duration in
  (* The parser checks are software and present in both models: a
     representative slice of the wire corpus is caught here too. The
     memory attacks are where the models diverge. *)
  let wire =
    List.filter
      (fun a ->
        List.mem a.wa_name
          [ "eth_runt"; "ipv4_lying_total_len"; "ipv4_fragment";
            "tcp_bad_checksum" ])
      (parser_corpus rng fg)
  in
  List.iteri
    (fun i a ->
      launch_wire ledger engine link0 ~target:victim ~stack_name a
        ~at:(Br.frac w (0.10 +. (0.03 *. float_of_int i)))
        ~until:t_end ids)
    wire;
  mmu_attacks ledger engine
    (Topology.intravisor built.Scenarios.dut)
    (Topology.node_mem built.Scenarios.dut)
    ~at:(Br.frac w 0.45) ids;
  let pool_recovered = ref false in
  launch_exhaust ledger engine nif.Topology.pool ~target:victim
    ~at:(Br.frac w 0.60) ~window:(Time.ms 3) ~until:t_end
    ~spray:(link0, spray_runt fg, 800) ids pool_recovered;
  let samples = Br.drive labels w ~sample_every ~after_warmup:ignore built in
  {
    ap_common =
      Br.measure
        ~title:
          "phase 1: Baseline dual-port (MMU-only) - wire corpus caught, \
           memory corpus leaks silently"
        ~victim ~sibling ~windows:[] ~samples ~twin;
    ap_ids = List.rev !ids;
    ap_mutex_free = true;
    ap_pool_recovered = !pool_recovered;
    ap_rst_sent = (Netstack.Stack.counters nif.Topology.stack).rst_sent;
  }

(* ------------------------------------------------------------------ *)
(* Phase: Scenario 1 dual-port                                         *)
(* ------------------------------------------------------------------ *)

let phase_s1 ledger rng profile ~seed =
  let topo_seed = Int64.add seed 1L in
  let direction = Scenarios.Dut_receives in
  let w = profile.window and sample_every = profile.sample_every in
  let build () = Scenarios.build_dual_port ~seed:topo_seed ~direction () in
  let twin = Br.twin labels w ~sample_every build in
  let built = build () in
  let engine = built.Scenarios.engine in
  let victim = (List.nth built.Scenarios.flows 0).Scenarios.label in
  let sibling = (List.nth built.Scenarios.flows 1).Scenarios.label in
  let fg = forge_for built ~subnet:0 in
  let link0 = List.hd built.Scenarios.links in
  let nif = List.hd built.Scenarios.dut_netifs in
  let rst_before = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  let ids = ref [] in
  let t_end = Time.add w.warmup w.duration in
  let wire =
    parser_corpus rng fg
    @ blind_corpus rng fg ~src_port:49152 ~dst_port:5201
    @ [
        syn_flood rng fg ~server_port:5201 ~n:20;
        frag_flood rng fg ~n:24;
        port_scan rng fg ~n:8;
      ]
  in
  (* Wire injections finish (and their drops land) before the exhaust
     spray starts: a frame arriving during the ring-drain outage would
     be counted as Rx_ring_full instead of its own typed parse drop. *)
  List.iteri
    (fun i a ->
      launch_wire ledger engine link0 ~target:victim ~stack_name:victim a
        ~at:(Br.frac w (0.08 +. (0.02 *. float_of_int i)))
        ~until:t_end ids)
    wire;
  let pool_recovered = ref false in
  launch_exhaust ledger engine nif.Topology.pool ~target:victim
    ~at:(Br.frac w 0.55) ~window:(Time.ms 3) ~until:t_end
    ~spray:(link0, spray_runt fg, 800) ids pool_recovered;
  let samples = Br.drive labels w ~sample_every ~after_warmup:ignore built in
  let rst_after = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  {
    ap_common =
      Br.measure
        ~title:
          "phase 2: Scenario 1 dual-port (CHERI) - full wire corpus against \
           port 0, port 1 is the control"
        ~victim ~sibling ~windows:[] ~samples ~twin;
    ap_ids = List.rev !ids;
    ap_mutex_free = true;
    ap_pool_recovered = !pool_recovered;
    ap_rst_sent = rst_after - rst_before;
  }

(* ------------------------------------------------------------------ *)
(* Phase: Scenario 2 shared stack                                      *)
(* ------------------------------------------------------------------ *)

let phase_s2 ledger rng profile ~seed ~blackbox_dir =
  let topo_seed = Int64.add seed 2L in
  (* Dut_sends, like the chaos harness: the DUT apps are clients, so a
     supervised restart reconnects from a fresh ephemeral port instead
     of re-binding a listener whose closing connections still hold the
     port. *)
  let direction = Scenarios.Dut_sends in
  let w = profile.window and sample_every = profile.sample_every in
  let build ?supervise ?app_hook () =
    Scenarios.build_scenario2 ~seed:topo_seed ~contended:true
      ~lock_policy:Capvm.Umtx.Fifo ?supervise ?app_hook ~direction ()
  in
  let twin = Br.twin labels w ~sample_every build in
  let ids = ref [] in
  (* The close-race attack: a hostile app step inside the supervised
     ff_* boundary, holding the shared mutex. The app frees its rx
     buffer (socket teardown racing the epoll wakeup), then dereferences
     past the stale capability — the CHERI bounds trap it inside the
     compartment; the supervisor must contain it and free the mutex. *)
  let race_armed = ref false in
  let race_id = ref (-1) in
  let race_provenance = ref "" in
  (* The hook runs before the builder returns, so the clock it stamps
     the launch with and the tagged memory it dereferences through are
     resolved via a ref filled in after build. *)
  let node_ref = ref None in
  let app_hook cvm =
    match !node_ref with
    | Some (engine, mem) when !race_armed && Capvm.Cvm.name cvm = "cVM3" ->
      race_armed := false;
      let id =
        V.record ledger Temporal ~name:"close_race_stale_cap"
          ~at_ns:(Time.to_float_ns (Engine.now engine))
          ~target:"cVM3"
      in
      race_id := id;
      ids := id :: !ids;
      let buf = Capvm.Cvm.malloc cvm 64 in
      let base = Cheri.Capability.base buf in
      Capvm.Cvm.free cvm buf;
      (match Cheri.Provenance.find buf with
      | Some node ->
        race_provenance :=
          Printf.sprintf
            "capability [0x%x,+0x%x) owner=%s label=%s revoked=%s stopped \
             the dereference"
            node.Cheri.Provenance.base node.Cheri.Provenance.length
            node.Cheri.Provenance.owner node.Cheri.Provenance.label
            (match node.Cheri.Provenance.revoked with
            | Some r -> r
            | None -> "pending-revocation")
      | None ->
        race_provenance :=
          Printf.sprintf
            "capability [0x%x,+0x40) bounds stopped the dereference" base);
      ignore
        (Cheri.Tagged_memory.load_bytes mem ~cap:buf ~addr:(base + 64) ~len:16)
    | _ -> ()
  in
  let supervise, sup_ref =
    Br.supervisor ~policy:Br.restart_once ~seed:(Int64.add seed 102L) ()
  in
  let built = build ~supervise ~app_hook () in
  let engine = built.Scenarios.engine in
  node_ref := Some (engine, Topology.node_mem built.Scenarios.dut);
  let sup = Br.get_sup sup_ref in
  Sup.set_blackbox_dir sup blackbox_dir;
  let blackbox =
    Option.map
      (fun dir -> Filename.concat dir "cVM3.blackbox.json")
      blackbox_dir
  in
  let race_caught reason =
    V.resolve ledger !race_id ~provenance:!race_provenance ?blackbox
      (V.Caught { stage = "supervisor"; reason })
  in
  Sup.set_on_transition sup
    (Some
       (fun ~cvm ~old_state st ->
         if cvm = "cVM3" then
           match (old_state, st) with
           | Sup.Restarting, Sup.Running -> race_caught "capability_fault"
           | _, Sup.Dead -> race_caught "quarantined"
           | _ -> ()));
  let victim = (List.nth built.Scenarios.flows 1).Scenarios.label in
  let sibling = (List.nth built.Scenarios.flows 0).Scenarios.label in
  let victim_cvm = List.nth built.Scenarios.app_cvms 1 in
  let fg = forge_for built ~subnet:0 in
  let link0 = List.hd built.Scenarios.links in
  let nif = List.hd built.Scenarios.dut_netifs in
  let rst_before = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  (* The DUT's clients connect in flow order through the shared stack's
     ephemeral allocator: cVM2 local 49152 -> peer :5201, cVM3 local
     49153 -> peer :5202. Attack frames arrive at the DUT, so forged
     segments claim the peer end of those 5-tuples. *)
  let wire =
    List.filter
      (fun a ->
        List.mem a.wa_name
          [ "eth_runt"; "ipv4_lying_total_len"; "ipv4_options_overflow";
            "ipv4_fragment"; "tcp_option_overflow"; "udp_lying_length" ])
      (parser_corpus rng fg)
    @ [
        List.hd (blind_corpus rng fg ~src_port:5202 ~dst_port:49153);
        frag_flood rng fg ~n:12;
        port_scan rng fg ~n:10;
        forged_5tuple rng fg ~src_ports:[ 5201; 5202 ]
          ~dst_ports:[ 49152; 49153 ];
        rss_steer rng fg ~victim_src_port:5202 ~victim_dst_port:49153;
      ]
  in
  let t_end = Time.add w.warmup w.duration in
  List.iteri
    (fun i a ->
      launch_wire ledger engine link0 ~target:"cVM1 (shared stack)"
        ~stack_name:"cVM1" a
        ~at:(Br.frac w (0.08 +. (0.03 *. float_of_int i)))
        ~until:t_end ids)
    wire;
  (* Arm the close race mid-transfer. *)
  Engine.schedule_at engine ~at:(Br.frac w 0.45) ~label:k_inject
    (fun () ->
      race_armed := true);
  (* Stale-fd epoll probe against the shared stack's own API: close an
     fd that is still in an epoll interest set, then verify no stale
     wakeup ever surfaces. *)
  let ff = nif.Topology.ff in
  Engine.schedule_at engine ~at:(Br.frac w 0.55) ~label:k_inject
    (fun () ->
      let at_ns = Time.to_float_ns (Engine.now engine) in
      let id =
        V.record ledger Temporal ~name:"epoll_stale_fd" ~at_ns
          ~target:"cVM1 (shared stack)"
      in
      ids := id :: !ids;
      match
        (Netstack.Ff_api.ff_socket ff, Netstack.Ff_api.ff_epoll_create ff)
      with
      | Ok fd, Ok ep ->
        ignore
          (Netstack.Ff_api.ff_epoll_ctl ff ~epfd:ep ~op:`Add ~fd
             Netstack.Epoll.epollin);
        ignore (Netstack.Ff_api.ff_close ff fd);
        (match Netstack.Ff_api.ff_epoll_wait ff ~epfd:ep ~max:8 with
        | Ok evs ->
          if List.exists (fun (f, _) -> f = fd) evs then
            leaked ledger id "stale wakeup for a closed fd escaped epoll"
          else
            V.resolve ledger id
              ~provenance:
                "socket close revoked the fd from every epoll interest \
                 set before reuse"
              (V.Caught { stage = "sock"; reason = "fd_forgotten_on_close" })
        | Error _ -> leaked ledger id "epoll_wait failed");
        ignore (Netstack.Ff_api.ff_close ff ep)
      | _ -> leaked ledger id "could not allocate probe fds");
  let pool_recovered = ref false in
  launch_exhaust ledger engine nif.Topology.pool ~target:"cVM1 (shared stack)"
    ~at:(Br.frac w 0.70) ~window:profile.exhaust_window ~until:t_end ids
    pool_recovered;
  let samples = Br.drive labels w ~sample_every ~after_warmup:ignore built in
  let rst_after = (Netstack.Stack.counters nif.Topology.stack).rst_sent in
  let mutex_free =
    match built.Scenarios.mutex with
    | Some m -> Capvm.Umtx.holder m <> Some "cVM3"
    | None -> true
  in
  {
    ap_common =
      Br.measure
        ~title:
          "phase 3: Scenario 2 shared stack (CHERI) - cross-tenant probes, \
           close races and floods against cVM1"
        ~victim ~sibling
        ~windows:(Sup.quarantine_windows sup ~cvm:victim_cvm)
        ~samples ~twin;
    ap_ids = List.rev !ids;
    ap_mutex_free = mutex_free;
    ap_pool_recovered = !pool_recovered;
    ap_rst_sent = rst_after - rst_before;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let outcome_line ledger b id =
  match V.find ledger id with
  | None -> ()
  | Some e ->
    let verdict, detail =
      match e.V.outcome with
      | V.Caught { stage; reason } ->
        ("caught ", Printf.sprintf "-> %s/%s" stage reason)
      | V.Leaked { detail } -> ("LEAKED ", Printf.sprintf "-> %s" detail)
      | V.Recovered { ttr_ns } ->
        ("recovered", Printf.sprintf "-> after %.0fns" ttr_ns)
      | V.Pending -> ("PENDING", "-> no typed verdict recorded")
    in
    Printf.bprintf b "  [%s] %-13s %-24s %s\n" verdict (cls_name e.V.kind)
      e.V.name detail;
    (match e.V.provenance with
    | Some p -> Printf.bprintf b "            provenance: %s\n" p
    | None -> ());
    match e.V.blackbox with
    | Some p -> Printf.bprintf b "            blackbox: %s\n" p
    | None -> ()

let phase_section ledger b p =
  Printf.bprintf b "-- %s --\n" p.ap_common.Br.title;
  List.iter (outcome_line ledger b) p.ap_ids;
  Br.drop_lines b p.ap_common;
  if p.ap_rst_sent > 0 then
    Printf.bprintf b "  RSTs answered to probes: %d\n" p.ap_rst_sent;
  Printf.bprintf b "  mbuf pool recovered after spray: %s\n"
    (if p.ap_pool_recovered then "yes" else "NO");
  if not p.ap_mutex_free then
    Printf.bprintf b "  shared mutex: LEFT HELD BY VICTIM\n";
  Br.goodput_lines b p.ap_common

(* ------------------------------------------------------------------ *)
(* JSON (netrepro-attack-net/1)                                        *)
(* ------------------------------------------------------------------ *)

module J = Dsim.Json

let outcome_json = function
  | V.Pending -> J.Obj [ ("verdict", J.String "pending") ]
  | V.Recovered { ttr_ns } ->
    J.Obj [ ("verdict", J.String "recovered"); ("ttr_ns", J.Float ttr_ns) ]
  | V.Caught { stage; reason } ->
    J.Obj
      [
        ("verdict", J.String "caught");
        ("stage", J.String stage);
        ("reason", J.String reason);
      ]
  | V.Leaked { detail } ->
    J.Obj [ ("verdict", J.String "leaked"); ("detail", J.String detail) ]

let entry_json e =
  let opt = function None -> J.Null | Some s -> J.String s in
  J.Obj
    [
      ("id", J.Int e.V.id);
      ("class", J.String (cls_name e.V.kind));
      ("name", J.String e.V.name);
      ("at_ns", J.Float e.V.at_ns);
      ("target", J.String e.V.target);
      ("outcome", outcome_json e.V.outcome);
      ("provenance", opt e.V.provenance);
      ("blackbox", opt e.V.blackbox);
    ]

let tally_fields (t : V.tally) =
  [
    ("launched", J.Int t.total);
    ("caught", J.Int t.caught);
    ("leaked", J.Int t.leaked);
    ("pending", J.Int t.pending);
  ]

let ledger_json ~seed ledger counts =
  let seed = ("seed", J.String (Int64.to_string seed)) in
  J.Obj
    ((seed :: tally_fields (V.tally ledger))
    @ [
        ( "classes",
          J.List
            (List.map
               (fun (c, t) ->
                 J.Obj (("class", J.String (cls_name c)) :: tally_fields t))
               counts) );
        ("attacks", J.List (List.map entry_json (V.entries ledger)));
      ])

let phase_json p =
  let c = p.ap_common in
  J.Obj
    [
      ("title", J.String c.Br.title);
      ("victim", J.String c.Br.victim);
      ("sibling", J.String c.Br.sibling);
      ("sibling_ratio", J.Float (Br.ratio c.Br.sibling_rate c.Br.sibling_ref));
      ("victim_ratio", J.Float (Br.ratio c.Br.victim_rate c.Br.victim_ref));
      ("sibling_ok", J.Bool (Br.sibling_ok c));
      ("mutex_free", J.Bool p.ap_mutex_free);
      ("pool_recovered", J.Bool p.ap_pool_recovered);
      ("rst_sent", J.Int p.ap_rst_sent);
      ( "drops",
        J.List
          (List.map
             (fun ((st, r), n) ->
               J.Obj
                 [
                   ("stage", J.String (Ft.stage_name st));
                   ("reason", J.String (Ft.reason_name r));
                   ("frames", J.Int n);
                 ])
             c.Br.drops) );
    ]

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

let run ?(profile = quick) ?blackbox_dir ~seed () =
  let ledger = V.create () in
  (* All attack randomness (probe ports, forged sequence numbers, flood
     sizes) comes from this one stream, so the seed pins the corpus. *)
  let rng = Dsim.Rng.create ~seed in
  let p1, p2, p3 =
    Br.with_flowtrace (fun () ->
        (* Provenance cross-references need the audit DAG recording in
           both the twin and the attacked run (identical settings keep
           the pair comparable). *)
        let audit_was = Dsim.Audit.(enabled default) in
        Dsim.Audit.(set_enabled default true);
        let p1 = phase_baseline ledger rng profile ~seed in
        let p2 = phase_s1 ledger rng profile ~seed in
        let p3 = phase_s2 ledger rng profile ~seed ~blackbox_dir in
        Dsim.Audit.(set_enabled default audit_was);
        (p1, p2, p3))
  in
  let phases = [ p1; p2; p3 ] in
  let counts = List.map (fun c -> (c, V.tally ~kind:c ledger)) all_classes in
  let total = V.tally ledger in
  let count_ids ids verdict =
    List.length
      (List.filter
         (fun id ->
           match V.find ledger id with
           | Some e -> verdict e.V.outcome
           | None -> false)
         ids)
  in
  let cheri_ids = p2.ap_ids @ p3.ap_ids in
  let cheri_launched = List.length cheri_ids in
  let cheri_caught =
    count_ids cheri_ids (function V.Caught _ -> true | _ -> false)
  in
  let baseline_leaks =
    count_ids p1.ap_ids (function V.Leaked _ -> true | _ -> false)
  in
  let pass =
    total.pending = 0 && total.total > 0
    && cheri_caught = cheri_launched
    && baseline_leaks >= 1
    && List.for_all (fun p -> Br.sibling_ok p.ap_common) phases
    && List.for_all (fun p -> p.ap_mutex_free && p.ap_pool_recovered) phases
  in
  let b = Buffer.create 8192 in
  Printf.bprintf b "=== red-team attack report (seed %Ld) ===\n" seed;
  Printf.bprintf b "-- attack corpus ledger --\n";
  Printf.bprintf b "  %-15s %9s %7s %7s %8s\n" "class" "launched" "caught"
    "leaked" "pending";
  List.iter
    (fun (c, (t : V.tally)) ->
      Printf.bprintf b "  %-15s %9d %7d %7d %8d\n" (cls_name c) t.total
        t.caught t.leaked t.pending)
    counts;
  List.iter (phase_section ledger b) phases;
  Printf.bprintf b "caught-and-attributed (CHERI scenarios): %.1f%% (%d/%d)\n"
    (if cheri_launched = 0 then 0.
     else 100. *. float_of_int cheri_caught /. float_of_int cheri_launched)
    cheri_caught cheri_launched;
  Printf.bprintf b "baseline silent corruption/leaks recorded: %d\n"
    baseline_leaks;
  Printf.bprintf b "unresolved attacks: %d\n" total.pending;
  Printf.bprintf b "verdict: %s\n" (if pass then "PASS" else "FAIL");
  let json =
    J.Obj
      [
        ("schema", J.String "netrepro-attack-net/1");
        ("ledger", ledger_json ~seed ledger counts);
        ("phases", J.List (List.map phase_json phases));
        ("cheri_caught", J.Int cheri_caught);
        ("cheri_launched", J.Int cheri_launched);
        ("baseline_leaks", J.Int baseline_leaks);
        ("pass", J.Bool pass);
      ]
  in
  {
    seed;
    launched = total.total;
    caught = total.caught;
    leaked = total.leaked;
    pending = total.pending;
    counts;
    phases;
    cheri_caught;
    cheri_launched;
    baseline_leaks;
    pass;
    text = Buffer.contents b;
    json;
  }
