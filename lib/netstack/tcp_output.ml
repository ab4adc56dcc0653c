open Tcp_cb

let base_options cb ctx =
  ignore cb;
  [ Tcp_wire.Timestamps { tsval = ts_now ctx; tsecr = cb.ts_recent } ]

let make_header cb ctx ~seq ~flags =
  {
    Tcp_wire.src_port = cb.local_port;
    dst_port = cb.remote_port;
    seq;
    ack = cb.rcv_nxt;
    flags;
    window = rcv_window_field cb;
    options = base_options cb ctx;
  }

let note_segment cb ~payload_len =
  cb.segments_out <- cb.segments_out + 1;
  cb.bytes_out <- cb.bytes_out + payload_len

let clear_ack_state cb =
  cb.need_ack_now <- false;
  cb.segs_since_ack <- 0;
  cb.ack_deadline <- None

let arm_rtx cb ctx =
  if Option.is_none cb.rtx_deadline then
    cb.rtx_deadline <- Some (Dsim.Time.add (ctx.now ()) cb.rto)

(* Bytes of [snd_buf] already streamed out (excludes the FIN's sequence
   slot when it has been sent). *)
let sent_bytes cb =
  let n = Tcp_seq.sub cb.snd_nxt cb.snd_buf_seq in
  if cb.fin_sent then n - 1 else n

let can_send_data cb =
  match cb.state with
  | Established | Close_wait -> true
  | Fin_wait_1 | Closing | Last_ack ->
    (* Data queued before close still drains. *)
    true
  | Closed | Listen | Syn_sent | Syn_received | Fin_wait_2 | Time_wait -> false

let send_ack cb ctx =
  let header = make_header cb ctx ~seq:cb.snd_nxt ~flags:(Tcp_wire.flag ~ack:true ()) in
  note_segment cb ~payload_len:0;
  clear_ack_state cb;
  ctx.emit header Payload_none

let send_syn_ack cb ctx =
  let header =
    {
      Tcp_wire.src_port = cb.local_port;
      dst_port = cb.remote_port;
      seq = cb.iss;
      ack = cb.rcv_nxt;
      flags = Tcp_wire.flag ~syn:true ~ack:true ();
      (* The window in a SYN is never scaled. *)
      window = Int.min (rcv_window cb) 0xffff;
      options =
        Tcp_wire.Mss cb.config.mss
        :: Tcp_wire.Wscale cb.config.window_scale
        :: [ Tcp_wire.Timestamps { tsval = ts_now ctx; tsecr = cb.ts_recent } ];
    }
  in
  note_segment cb ~payload_len:0;
  arm_rtx cb ctx;
  ctx.emit header Payload_none

let send_data_segment cb ctx ~seq ~len ~push =
  let off = Tcp_seq.sub seq cb.snd_buf_seq in
  let flags = Tcp_wire.flag ~ack:true ~psh:push () in
  let header = make_header cb ctx ~seq ~flags in
  note_segment cb ~payload_len:len;
  clear_ack_state cb;
  arm_rtx cb ctx;
  (* No copy here: the emitter blits straight out of the send buffer
     into the frame it is building. *)
  ctx.emit header (Payload_ring { ring = cb.snd_buf; off; len })

let send_fin cb ctx =
  let flags = Tcp_wire.flag ~ack:true ~fin:true () in
  let header = make_header cb ctx ~seq:cb.snd_nxt ~flags in
  note_segment cb ~payload_len:0;
  clear_ack_state cb;
  cb.fin_sent <- true;
  cb.snd_nxt <- Tcp_seq.add cb.snd_nxt 1;
  cb.snd_max <- Tcp_seq.max cb.snd_max cb.snd_nxt;
  arm_rtx cb ctx;
  ctx.emit header Payload_none

let flush cb ctx =
  if can_send_data cb then begin
    (* Data: stream out whatever both windows allow. *)
    let continue = ref true in
    while !continue do
      let window = send_window cb in
      let unsent = Ring_buf.length cb.snd_buf - sent_bytes cb in
      let len = Int.min (Int.min cb.mss unsent) window in
      (* Nagle + sender-side silly-window avoidance: emit a sub-MSS
         segment only when nothing is in flight (so the small piece is
         not delaying anything) or when it is the final data before a
         queued FIN. Keeps the wire full of maximum-size segments under
         streaming load. *)
      let sendable =
        len > 0
        && (len >= cb.mss || flight_size cb = 0
           || (cb.fin_queued && len = unsent))
      in
      if (not sendable) || cb.fin_sent then continue := false
      else begin
        let push = len = unsent in
        send_data_segment cb ctx ~seq:cb.snd_nxt ~len ~push;
        cb.snd_nxt <- Tcp_seq.add cb.snd_nxt len;
        cb.snd_max <- Tcp_seq.max cb.snd_max cb.snd_nxt
      end
    done;
    (* FIN once everything buffered has been put on the wire. *)
    if
      cb.fin_queued && (not cb.fin_sent)
      && sent_bytes cb = Ring_buf.length cb.snd_buf
      && send_window cb > 0
    then send_fin cb ctx;
    (* Zero-window persist: with data or the FIN pending, no flight and
       a closed peer window, nothing will ever arm the retransmission
       timer — arm it here so Tcp_timer probes. *)
    if
      cb.snd_wnd = 0 && flight_size cb = 0
      && (Ring_buf.length cb.snd_buf - sent_bytes cb > 0
         || (cb.fin_queued && not cb.fin_sent))
    then begin
      ctx.stat Window_stall;
      arm_rtx cb ctx
    end
  end;
  (* Pure ACK when input processing asked for one. *)
  let deadline_due =
    match cb.ack_deadline with
    | Some d -> Dsim.Time.(ctx.now () >= d)
    | None -> false
  in
  let ack_due =
    cb.need_ack_now
    || cb.segs_since_ack >= cb.config.ack_every_segments
    || deadline_due
  in
  if ack_due then
    match cb.state with
    | Closed | Listen | Syn_sent -> ()
    | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait
    | Closing | Last_ack | Time_wait ->
      (* An ACK emitted only because the delayed-ack timer expired. *)
      if
        deadline_due && (not cb.need_ack_now)
        && cb.segs_since_ack < cb.config.ack_every_segments
      then ctx.stat Delayed_ack;
      send_ack cb ctx

let retransmit_head cb ctx =
  match cb.state with
  | Syn_sent ->
    let header =
      {
        Tcp_wire.src_port = cb.local_port;
        dst_port = cb.remote_port;
        seq = cb.iss;
        ack = 0;
        flags = Tcp_wire.flag ~syn:true ();
        window = Int.min (rcv_window cb) 0xffff;
        options =
          [ Tcp_wire.Mss cb.config.mss;
            Tcp_wire.Timestamps { tsval = ts_now ctx; tsecr = 0 } ];
      }
    in
    cb.retransmissions <- cb.retransmissions + 1;
    ctx.stat Retransmit;
    note_segment cb ~payload_len:0;
    ctx.emit header Payload_none
  | Syn_received ->
    cb.retransmissions <- cb.retransmissions + 1;
    ctx.stat Retransmit;
    send_syn_ack cb ctx
  | _ ->
    let buffered = Ring_buf.length cb.snd_buf in
    let head_off = Tcp_seq.sub cb.snd_una cb.snd_buf_seq in
    let avail = buffered - head_off in
    let len = Int.min cb.mss avail in
    if len > 0 then begin
      cb.retransmissions <- cb.retransmissions + 1;
      ctx.stat Retransmit;
      send_data_segment cb ctx ~seq:cb.snd_una ~len ~push:(len = avail)
    end
    else if cb.fin_sent && Tcp_seq.lt cb.snd_una cb.snd_nxt then begin
      (* Only the FIN is outstanding. *)
      cb.retransmissions <- cb.retransmissions + 1;
      ctx.stat Retransmit;
      let flags = Tcp_wire.flag ~ack:true ~fin:true () in
      let header = make_header cb ctx ~seq:cb.snd_una ~flags in
      note_segment cb ~payload_len:0;
      ctx.emit header Payload_none
    end

let send_window_probe cb ctx =
  let head_off = Tcp_seq.sub cb.snd_nxt cb.snd_buf_seq in
  if Ring_buf.length cb.snd_buf - head_off > 0 then begin
    send_data_segment cb ctx ~seq:cb.snd_nxt ~len:1 ~push:false;
    cb.snd_nxt <- Tcp_seq.add cb.snd_nxt 1;
    cb.snd_max <- Tcp_seq.max cb.snd_max cb.snd_nxt
  end

(* Abort: RST|ACK at snd_nxt, the sequence the peer expects next, so it
   lands in the peer's window. *)
let send_reset cb ctx =
  let header =
    make_header cb ctx ~seq:cb.snd_nxt ~flags:(Tcp_wire.flag ~rst:true ~ack:true ())
  in
  note_segment cb ~payload_len:0;
  ctx.emit header Payload_none

let make_rst ~to_header ~payload_len =
  let open Tcp_wire in
  if to_header.flags.rst then None
  else begin
    let flags, seq, ack =
      if to_header.flags.ack then (flag ~rst:true (), to_header.ack, 0)
      else begin
        let consumed =
          payload_len
          + (if to_header.flags.syn then 1 else 0)
          + if to_header.flags.fin then 1 else 0
        in
        ( flag ~rst:true ~ack:true (),
          0,
          Tcp_seq.add to_header.seq consumed )
      end
    in
    Some
      {
        src_port = to_header.dst_port;
        dst_port = to_header.src_port;
        seq;
        ack;
        flags;
        window = 0;
        options = [];
      }
  end
