type direction = Rx | Tx

type entry = { at : Dsim.Time.t; dir : direction; frame : bytes }

type t = { limit : int; mutable entries : entry list; mutable count : int }

let create ?(limit = 4096) () = { limit; entries = []; count = 0 }

let record t ~at dir frame =
  t.count <- t.count + 1;
  if t.count <= t.limit then t.entries <- { at; dir; frame } :: t.entries

let entries t = List.rev t.entries
let count t = t.count

let clear t =
  t.entries <- [];
  t.count <- 0

let tcp_flags_string (f : Tcp_wire.flags) =
  let parts =
    List.filter_map
      (fun (b, s) -> if b then Some s else None)
      [ (f.Tcp_wire.syn, "S"); (f.Tcp_wire.fin, "F"); (f.Tcp_wire.rst, "R");
        (f.Tcp_wire.psh, "P"); (f.Tcp_wire.ack, ".") ]
  in
  String.concat "" parts

let summarize_tcp ~src ~dst buf ~off ~len =
  match Tcp_wire.parse ~src ~dst buf ~off ~len with
  | Error e -> Printf.sprintf "TCP <%s>" (Dsim.Flowtrace.reason_name e)
  | Ok (h, payload_off) ->
    Printf.sprintf "IP %s.%d > %s.%d: Flags [%s], seq %u, ack %u, win %d, length %d"
      (Ipv4_addr.to_string src) h.Tcp_wire.src_port (Ipv4_addr.to_string dst)
      h.Tcp_wire.dst_port (tcp_flags_string h.Tcp_wire.flags) h.Tcp_wire.seq
      h.Tcp_wire.ack h.Tcp_wire.window
      (off + len - payload_off)

let summarize_udp ~src ~dst buf ~off ~len =
  match Udp.parse ~src ~dst buf ~off ~len with
  | Error e -> Printf.sprintf "UDP <%s>" (Dsim.Flowtrace.reason_name e)
  | Ok (h, _) ->
    Printf.sprintf "IP %s.%d > %s.%d: UDP, length %d" (Ipv4_addr.to_string src)
      h.Udp.src_port (Ipv4_addr.to_string dst) h.Udp.dst_port
      (h.Udp.length - Udp.header_len)

let summarize_icmp ~src ~dst buf ~off ~len =
  match Icmp.parse buf ~off ~len with
  | Error e -> Printf.sprintf "ICMP <%s>" (Dsim.Flowtrace.reason_name e)
  | Ok msg ->
    Printf.sprintf "IP %s > %s: ICMP %s" (Ipv4_addr.to_string src)
      (Ipv4_addr.to_string dst)
      (Format.asprintf "%a" Icmp.pp msg)

let summarize frame =
  match Ethernet.parse frame with
  | Error e -> Printf.sprintf "<%s>" (Dsim.Flowtrace.reason_name e)
  | Ok (eth, off) -> (
    match eth.Ethernet.ethertype with
    | Ethernet.Arp -> (
      match Arp.parse frame ~off with
      | Error e -> Printf.sprintf "ARP <%s>" (Dsim.Flowtrace.reason_name e)
      | Ok p -> Format.asprintf "ARP, %a" Arp.pp p)
    | Ethernet.Unknown v -> Printf.sprintf "ethertype 0x%04x, length %d" v (Bytes.length frame)
    | Ethernet.Ipv4 -> (
      match Ipv4.parse frame ~off ~len:(Bytes.length frame - off) with
      | Error e -> Printf.sprintf "IP <%s>" (Dsim.Flowtrace.reason_name e)
      | Ok (ip, poff) -> (
        let plen = ip.Ipv4.total_len - (poff - off) in
        let src = ip.Ipv4.src and dst = ip.Ipv4.dst in
        match ip.Ipv4.protocol with
        | Ipv4.Tcp -> summarize_tcp ~src ~dst frame ~off:poff ~len:plen
        | Ipv4.Udp -> summarize_udp ~src ~dst frame ~off:poff ~len:plen
        | Ipv4.Icmp -> summarize_icmp ~src ~dst frame ~off:poff ~len:plen
        | Ipv4.Unknown_proto p ->
          Printf.sprintf "IP %s > %s: protocol %d" (Ipv4_addr.to_string src)
            (Ipv4_addr.to_string dst) p)))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let matching t needle =
  List.filter (fun e -> contains (summarize e.frame) needle) (entries t)
