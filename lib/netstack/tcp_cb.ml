type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

type event =
  | Connected
  | Data_readable
  | Writable
  | Peer_closed
  | Conn_refused
  | Conn_reset
  | Closed_done

(* Notable protocol happenings reported up to the owning stack, which
   mirrors them into its per-host metric counters; the TCP machinery
   itself stays registry-agnostic. [Rx_drop] carries the typed reason a
   received segment (or part of it) was discarded, so the stack can
   attribute the drop to the in-flight flow trace. *)
type stat =
  | Retransmit
  | Delayed_ack
  | Window_stall
  | Rx_drop of Dsim.Flowtrace.reason

(* Where an outgoing segment's payload bytes live. [Payload_ring] points
   straight into the send buffer, so the emitter can blit the data into
   the frame under construction without an intermediate copy. *)
type payload =
  | Payload_none
  | Payload_bytes of bytes
  | Payload_ring of { ring : Ring_buf.t; off : int; len : int }

let payload_len = function
  | Payload_none -> 0
  | Payload_bytes b -> Bytes.length b
  | Payload_ring { len; _ } -> len

let payload_blit p dst ~dst_off =
  match p with
  | Payload_none -> ()
  | Payload_bytes b -> Bytes.blit b 0 dst dst_off (Bytes.length b)
  | Payload_ring { ring; off; len } -> Ring_buf.blit_to ring ~off ~len ~dst ~dst_off

let payload_to_bytes = function
  | Payload_none -> Bytes.empty
  | Payload_bytes b -> b
  | Payload_ring { ring; off; len } -> Ring_buf.peek ring ~off ~len

type ctx = {
  now : unit -> Dsim.Time.t;
  emit : Tcp_wire.header -> payload -> unit;
  on_event : event -> unit;
  stat : stat -> unit;
}

type config = {
  mss : int;
  snd_buf_size : int;
  rcv_buf_size : int;
  window_scale : int;
  initial_cwnd_segments : int;
  rto_min : Dsim.Time.t;
  rto_max : Dsim.Time.t;
  rto_initial : Dsim.Time.t;
  time_wait_duration : Dsim.Time.t;
  delayed_ack_timeout : Dsim.Time.t;
  ack_every_segments : int;
  max_ooo_segments : int;
}

let default_config =
  {
    mss = 1448;
    snd_buf_size = 256 * 1024;
    rcv_buf_size = 256 * 1024;
    window_scale = 4;
    initial_cwnd_segments = 10;
    rto_min = Dsim.Time.ms 1;
    rto_max = Dsim.Time.sec 4;
    rto_initial = Dsim.Time.ms 10;
    time_wait_duration = Dsim.Time.ms 50;
    delayed_ack_timeout = Dsim.Time.us 500;
    ack_every_segments = 2;
    max_ooo_segments = 64;
  }

type t = {
  config : config;
  local_ip : Ipv4_addr.t;
  mutable local_port : int;
  mutable remote_ip : Ipv4_addr.t;
  mutable remote_port : int;
  mutable state : state;
  mutable iss : Tcp_seq.t;
  mutable snd_una : Tcp_seq.t;
  mutable snd_nxt : Tcp_seq.t;
  mutable snd_max : Tcp_seq.t;
  mutable snd_wnd : int;
  snd_buf : Ring_buf.t;
  mutable snd_buf_seq : Tcp_seq.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable irs : Tcp_seq.t;
  mutable rcv_nxt : Tcp_seq.t;
  rcv_buf : Ring_buf.t;
  mutable ooo_queue : (Tcp_seq.t * bytes) list;
  mutable fin_received : bool;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  mutable recover : Tcp_seq.t;
  mutable in_fast_recovery : bool;
  mutable srtt_ns : float;
  mutable rttvar_ns : float;
  mutable rto : Dsim.Time.t;
  mutable rtx_deadline : Dsim.Time.t option;
  mutable rtx_backoff : int;
  mutable segs_since_ack : int;
  mutable ack_deadline : Dsim.Time.t option;
  mutable need_ack_now : bool;
  mutable ts_recent : int;
  mutable mss : int;
  mutable snd_wscale : int;
  mutable rcv_wscale : int;
  mutable time_wait_deadline : Dsim.Time.t option;
  mutable retransmissions : int;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable tx_traces : (Tcp_seq.t * int) list;
}

let create ?(config = default_config) ~local_ip ~local_port () =
  {
    config;
    local_ip;
    local_port;
    remote_ip = Ipv4_addr.any;
    remote_port = 0;
    state = Closed;
    iss = 0;
    snd_una = 0;
    snd_nxt = 0;
    snd_max = 0;
    snd_wnd = 0;
    snd_buf = Ring_buf.create ~capacity:config.snd_buf_size;
    snd_buf_seq = 0;
    fin_queued = false;
    fin_sent = false;
    irs = 0;
    rcv_nxt = 0;
    rcv_buf = Ring_buf.create ~capacity:config.rcv_buf_size;
    ooo_queue = [];
    fin_received = false;
    cwnd = config.initial_cwnd_segments * config.mss;
    ssthresh = max_int / 2;
    dup_acks = 0;
    recover = 0;
    in_fast_recovery = false;
    srtt_ns = 0.;
    rttvar_ns = 0.;
    rto = config.rto_initial;
    rtx_deadline = None;
    rtx_backoff = 0;
    segs_since_ack = 0;
    ack_deadline = None;
    need_ack_now = false;
    ts_recent = 0;
    mss = config.mss;
    snd_wscale = 0;
    rcv_wscale = 0;
    time_wait_deadline = None;
    retransmissions = 0;
    segments_in = 0;
    segments_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    tx_traces = [];
  }

(* Retransmit lineage: remember the trace id of the last few transmitted
   data segments, keyed by starting sequence, so a retransmission links
   back to the original transmission's trace. Bounded; stale entries
   fall off the tail. *)
let tx_trace_limit = 64

let tx_trace_remember t seq trace_id =
  let rec keep n = function
    | [] -> []
    | _ when n = 0 -> []
    | ((s, _) as hd) :: rest ->
      if s = seq then keep n rest else hd :: keep (n - 1) rest
  in
  t.tx_traces <- (seq, trace_id) :: keep (tx_trace_limit - 1) t.tx_traces

let tx_trace_find t seq = List.assoc_opt seq t.tx_traces

let ts_now ctx =
  Dsim.Time.to_ns (ctx.now ()) / 1000 mod 0x100000000

let flight_size t = Tcp_seq.sub t.snd_nxt t.snd_una

let send_window t =
  let w = Int.min t.cwnd t.snd_wnd - flight_size t in
  Int.max w 0

(* Receive window to advertise, in bytes (the wire encoding shifts it
   right by [rcv_wscale]). *)
let rcv_window t =
  Int.min (Ring_buf.free_space t.rcv_buf) (0xffff lsl t.rcv_wscale)

(* The 16-bit value to place in an outgoing non-SYN header. *)
let rcv_window_field t = rcv_window t lsr t.rcv_wscale
let readable_bytes t = Ring_buf.length t.rcv_buf
let writable_space t = Ring_buf.free_space t.snd_buf

let open_active t ctx ~remote_ip ~remote_port ~iss =
  t.remote_ip <- remote_ip;
  t.remote_port <- remote_port;
  t.iss <- iss;
  t.snd_una <- iss;
  t.snd_nxt <- Tcp_seq.add iss 1;
  t.snd_max <- t.snd_nxt;
  t.snd_buf_seq <- Tcp_seq.add iss 1;
  t.state <- Syn_sent;
  let header =
    {
      Tcp_wire.src_port = t.local_port;
      dst_port = remote_port;
      seq = iss;
      ack = 0;
      flags = Tcp_wire.flag ~syn:true ();
      window = rcv_window t;
      options =
        [ Tcp_wire.Mss t.config.mss;
          Tcp_wire.Wscale t.config.window_scale;
          Tcp_wire.Timestamps { tsval = ts_now ctx; tsecr = 0 } ];
    }
  in
  t.segments_out <- t.segments_out + 1;
  t.rtx_deadline <- Some (Dsim.Time.add (ctx.now ()) t.rto);
  ctx.emit header Payload_none

let open_passive t = t.state <- Listen

let enter_time_wait t ctx =
  t.state <- Time_wait;
  t.rtx_deadline <- None;
  t.time_wait_deadline <- Some (Dsim.Time.add (ctx.now ()) t.config.time_wait_duration)

let to_closed t ctx =
  t.state <- Closed;
  t.rtx_deadline <- None;
  t.ack_deadline <- None;
  t.time_wait_deadline <- None;
  ctx.on_event Closed_done
