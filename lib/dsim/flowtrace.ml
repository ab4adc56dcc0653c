type stage =
  | App
  | Ff_api
  | Tcp_out
  | Ip_out
  | Eth_tx
  | Tx_ring
  | Tx_dma
  | Wire
  | Rx_dma
  | Rx_ring
  | Eth_rx
  | Ip_rx
  | Tcp_in
  | Udp_in
  | Sock
  | Clock_ret
  | Tramp_in
  | Umtx_wait
  | Ff_write
  | Tramp_out
  | Clock_entry

type reason =
  | Tx_ring_full
  | Rx_ring_full
  | Mac_filter
  | Link_down
  | Bad_checksum
  | Parse_error
  | Out_of_window
  | Dup_segment
  | Rcv_buf_full
  | Mbuf_exhausted
  | No_socket
  | Sock_queue_full
  | Capability_fault
  | Unknown_proto
  | Fcs_error
  | Dma_error
  | Chaos_injected
  | Arp_unresolved
  | Bad_length
  | Bad_option
  | Frag_unsupported

let all_stages =
  [
    App; Ff_api; Tcp_out; Ip_out; Eth_tx; Tx_ring; Tx_dma; Wire; Rx_dma;
    Rx_ring; Eth_rx; Ip_rx; Tcp_in; Udp_in; Sock; Clock_ret; Tramp_in;
    Umtx_wait; Ff_write; Tramp_out; Clock_entry;
  ]

let stage_name = function
  | App -> "app"
  | Ff_api -> "ff_api"
  | Tcp_out -> "tcp_out"
  | Ip_out -> "ip_out"
  | Eth_tx -> "eth_tx"
  | Tx_ring -> "tx_ring"
  | Tx_dma -> "tx_dma"
  | Wire -> "wire"
  | Rx_dma -> "rx_dma"
  | Rx_ring -> "rx_ring"
  | Eth_rx -> "eth_rx"
  | Ip_rx -> "ip_rx"
  | Tcp_in -> "tcp_in"
  | Udp_in -> "udp_in"
  | Sock -> "sock"
  | Clock_ret -> "clock_ret"
  | Tramp_in -> "tramp_in"
  | Umtx_wait -> "umtx_wait"
  | Ff_write -> "ff_write"
  | Tramp_out -> "tramp_out"
  | Clock_entry -> "clock_entry"

let stage_of_name s =
  List.find_opt (fun st -> String.equal (stage_name st) s) all_stages

let all_reasons =
  [
    Tx_ring_full; Rx_ring_full; Mac_filter; Link_down; Bad_checksum;
    Parse_error; Out_of_window; Dup_segment; Rcv_buf_full; Mbuf_exhausted;
    No_socket; Sock_queue_full; Capability_fault; Unknown_proto; Fcs_error;
    Dma_error; Chaos_injected; Arp_unresolved; Bad_length; Bad_option;
    Frag_unsupported;
  ]

let reason_name = function
  | Tx_ring_full -> "tx_ring_full"
  | Rx_ring_full -> "rx_ring_full"
  | Mac_filter -> "mac_filter"
  | Link_down -> "link_down"
  | Bad_checksum -> "bad_checksum"
  | Parse_error -> "parse_error"
  | Out_of_window -> "out_of_window"
  | Dup_segment -> "dup_segment"
  | Rcv_buf_full -> "rcv_buf_full"
  | Mbuf_exhausted -> "mbuf_exhausted"
  | No_socket -> "no_socket"
  | Sock_queue_full -> "sock_queue_full"
  | Capability_fault -> "capability_fault"
  | Unknown_proto -> "unknown_proto"
  | Fcs_error -> "fcs_error"
  | Dma_error -> "dma_error"
  | Chaos_injected -> "chaos_injected"
  | Arp_unresolved -> "arp_unresolved"
  | Bad_length -> "bad_length"
  | Bad_option -> "bad_option"
  | Frag_unsupported -> "frag_unsupported"

let reason_of_name s =
  List.find_opt (fun r -> String.equal (reason_name r) s) all_reasons

type ctx = {
  tr_id : int;
  tr_parent : int option;
  tr_flow : string;
  mutable tr_hops : (stage * float) list;  (* reversed *)
  mutable tr_drop : (stage * reason) option;
}

(* Same shared-switch trick as Metrics: a disabled registry costs one
   load and one branch at every entry point, allocates nothing, and
   never touches the engine or an RNG — so enabling the library cannot
   perturb simulated time. *)
type t = {
  mutable on : bool;
  mutable every : int;
  capacity : int;
  mutable tick : int;
  mutable n_origins : int;
  mutable n_sampled : int;
  mutable n_dropped : int;
  mutable next_id : int;
  mutable traces_rev : ctx list;
  drops : (stage * reason, int ref) Hashtbl.t;
  mutable drop_order : (stage * reason) list;  (* reversed *)
}

let create ?(enabled = false) ?(sample_every = 64) ?(capacity = 65536) () =
  if sample_every < 1 then invalid_arg "Flowtrace.create: sample_every < 1";
  {
    on = enabled;
    every = sample_every;
    capacity;
    tick = 0;
    n_origins = 0;
    n_sampled = 0;
    n_dropped = 0;
    next_id = 1;
    traces_rev = [];
    drops = Hashtbl.create 16;
    drop_order = [];
  }

let default = create ()

let enabled t = t.on
let set_enabled t b = t.on <- b
let sample_every t = t.every

let set_sample_every t n =
  if n < 1 then invalid_arg "Flowtrace.set_sample_every: n < 1";
  t.every <- n

let clear t =
  t.tick <- 0;
  t.n_origins <- 0;
  t.n_sampled <- 0;
  t.n_dropped <- 0;
  t.next_id <- 1;
  t.traces_rev <- [];
  Hashtbl.reset t.drops;
  t.drop_order <- []

let origin_ns t ~at_ns ~flow ?parent stage =
  if not t.on then None
  else begin
    t.n_origins <- t.n_origins + 1;
    let hit = t.tick = 0 in
    t.tick <- (t.tick + 1) mod t.every;
    if (not hit) || t.n_sampled >= t.capacity then None
    else begin
      let c =
        {
          tr_id = t.next_id;
          tr_parent = parent;
          tr_flow = flow;
          tr_hops = [ (stage, at_ns) ];
          tr_drop = None;
        }
      in
      t.next_id <- t.next_id + 1;
      t.n_sampled <- t.n_sampled + 1;
      t.traces_rev <- c :: t.traces_rev;
      Some c
    end
  end

let origin t ~at ~flow ?parent stage =
  origin_ns t ~at_ns:(Time.to_float_ns at) ~flow ?parent stage

let hop_ns flow stage ~at_ns =
  match flow with
  | None -> ()
  | Some c -> c.tr_hops <- (stage, at_ns) :: c.tr_hops

let hop flow stage ~at = hop_ns flow stage ~at_ns:(Time.to_float_ns at)

let drop t ?(flow = None) stage reason =
  if t.on then begin
    let key = (stage, reason) in
    (match Hashtbl.find_opt t.drops key with
    | Some r -> incr r
    | None ->
      Hashtbl.replace t.drops key (ref 1);
      t.drop_order <- key :: t.drop_order);
    t.n_dropped <- t.n_dropped + 1;
    match flow with
    | Some c when c.tr_drop = None -> c.tr_drop <- Some key
    | _ -> ()
  end

let id c = c.tr_id
let parent c = c.tr_parent
let flow_label c = c.tr_flow
let hops c = List.rev c.tr_hops
let dropped_at c = c.tr_drop

let origins t = t.n_origins
let sampled t = t.n_sampled
let dropped_frames t = t.n_dropped
let traces t = List.rev t.traces_rev

let drop_table t =
  List.rev_map (fun key -> (key, !(Hashtbl.find t.drops key))) t.drop_order

let to_json t =
  let trace_json c =
    Json.Obj
      [
        ("id", Json.Int c.tr_id);
        ( "parent",
          match c.tr_parent with None -> Json.Null | Some p -> Json.Int p );
        ("flow", Json.String c.tr_flow);
        ( "hops",
          Json.List
            (List.map
               (fun (st, at_ns) ->
                 Json.Obj
                   [
                     ("stage", Json.String (stage_name st));
                     ("at_ns", Json.Float at_ns);
                   ])
               (hops c)) );
        ( "drop",
          match c.tr_drop with
          | None -> Json.Null
          | Some (st, r) ->
            Json.Obj
              [
                ("stage", Json.String (stage_name st));
                ("reason", Json.String (reason_name r));
              ] );
      ]
  in
  let drop_json ((st, r), n) =
    Json.Obj
      [
        ("stage", Json.String (stage_name st));
        ("reason", Json.String (reason_name r));
        ("count", Json.Int n);
      ]
  in
  Json.Obj
    [
      ("sample_every", Json.Int t.every);
      ("origins", Json.Int t.n_origins);
      ("sampled", Json.Int t.n_sampled);
      ("dropped_frames", Json.Int t.n_dropped);
      ("traces", Json.List (List.map trace_json (traces t)));
      ("drops", Json.List (List.map drop_json (drop_table t)));
    ]

(* chrome://tracing and Perfetto want microsecond timestamps; the hop
   stamps are virtual nanoseconds. Each hop interval is named by the
   stage it ends in — the attribution [analyze] uses — so the X events
   of one trace tile its end-to-end time exactly. *)
let to_chrome_trace t =
  let tids = Hashtbl.create 16 in
  let meta = ref [] and events = ref [] in
  let tid_of label =
    match Hashtbl.find_opt tids label with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids label tid;
      meta :=
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.String label) ]);
          ]
        :: !meta;
      tid
  in
  let us ns = Json.Float (ns /. 1_000.) in
  List.iter
    (fun c ->
      let tid = tid_of c.tr_flow in
      let rec go = function
        | (_, t0) :: ((st, t1) :: _ as rest) ->
          events :=
            Json.Obj
              [
                ("name", Json.String (stage_name st));
                ("cat", Json.String "flow");
                ("ph", Json.String "X");
                ("pid", Json.Int 1);
                ("tid", Json.Int tid);
                ("ts", us t0);
                ("dur", us (t1 -. t0));
                ("args", Json.Obj [ ("trace", Json.Int c.tr_id) ]);
              ]
            :: !events;
          go rest
        | [ _ ] | [] -> ()
      in
      go (hops c))
    (traces t);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev_append !meta (List.rev !events))) ]
