open Tcp_cb

let min_rtt_sample_ns = 1_000.

(* RFC 6298 with timestamp-based samples: every ACK carrying a sane echo
   updates the estimator. *)
let sample_rtt cb ctx tsecr =
  if tsecr <> 0 then begin
    let now_us = ts_now ctx in
    let delta_us = (now_us - tsecr) land 0xFFFFFFFF in
    (* Discard wrapped / insane samples (> 60 s). *)
    if delta_us >= 0 && delta_us < 60_000_000 then begin
      let sample = Float.max (float_of_int delta_us *. 1000.) min_rtt_sample_ns in
      if cb.srtt_ns = 0. then begin
        cb.srtt_ns <- sample;
        cb.rttvar_ns <- sample /. 2.
      end
      else begin
        let delta = Float.abs (cb.srtt_ns -. sample) in
        cb.rttvar_ns <- (0.75 *. cb.rttvar_ns) +. (0.25 *. delta);
        cb.srtt_ns <- (0.875 *. cb.srtt_ns) +. (0.125 *. sample)
      end;
      let rto_ns = cb.srtt_ns +. Float.max (4. *. cb.rttvar_ns) 1000. in
      let rto = Dsim.Time.of_float_ns rto_ns in
      cb.rto <- Dsim.Time.max cb.config.rto_min (Dsim.Time.min rto cb.config.rto_max)
    end
  end

let update_ts_recent cb (hdr : Tcp_wire.header) =
  match Tcp_wire.find_timestamps hdr with
  | Some (tsval, _) when Tcp_seq.le hdr.seq cb.rcv_nxt -> cb.ts_recent <- tsval
  | _ -> ()

let negotiate_wscale cb hdr =
  match Tcp_wire.find_wscale hdr with
  | Some peer_shift ->
    cb.snd_wscale <- Int.min peer_shift 14;
    cb.rcv_wscale <- cb.config.window_scale
  | None ->
    (* Peer did not offer: both sides fall back to unscaled. *)
    cb.snd_wscale <- 0;
    cb.rcv_wscale <- 0

let negotiated_mss cb hdr =
  match Tcp_wire.find_mss hdr with
  | Some peer_mss -> Int.min cb.config.mss peer_mss
  | None -> Int.min cb.config.mss 536

let enter_established cb ctx =
  cb.state <- Established;
  cb.rtx_deadline <- None;
  cb.rtx_backoff <- 0;
  ctx.on_event Connected

(* Our FIN (if sent) is fully acknowledged once snd_una caught up. *)
let fin_acked cb = cb.fin_sent && Tcp_seq.ge cb.snd_una cb.snd_nxt

let post_ack_state_transitions cb ctx =
  match cb.state with
  | Fin_wait_1 when fin_acked cb -> cb.state <- Fin_wait_2
  | Closing when fin_acked cb -> enter_time_wait cb ctx
  | Last_ack when fin_acked cb -> to_closed cb ctx
  | _ -> ()

let congestion_on_new_ack cb ~acked =
  if cb.in_fast_recovery then begin
    if Tcp_seq.ge cb.snd_una cb.recover then begin
      cb.in_fast_recovery <- false;
      cb.cwnd <- cb.ssthresh;
      cb.dup_acks <- 0
    end
  end
  else if cb.cwnd < cb.ssthresh then cb.cwnd <- cb.cwnd + Int.min acked cb.mss
  else cb.cwnd <- cb.cwnd + Int.max 1 (cb.mss * cb.mss / cb.cwnd)

let enter_fast_retransmit cb ctx =
  cb.ssthresh <- Int.max (flight_size cb / 2) (2 * cb.mss);
  cb.recover <- cb.snd_nxt;
  cb.in_fast_recovery <- true;
  Tcp_output.retransmit_head cb ctx;
  cb.cwnd <- cb.ssthresh + (3 * cb.mss)

let process_ack cb ctx (hdr : Tcp_wire.header) ~payload_len =
  if Tcp_seq.gt hdr.ack cb.snd_max then
    (* Acknowledges data we never sent: ack and drop. *)
    cb.need_ack_now <- true
  else if Tcp_seq.gt hdr.ack cb.snd_una then begin
    let acked = Tcp_seq.sub hdr.ack cb.snd_una in
    cb.snd_una <- hdr.ack;
    (* After a go-back-N rollback, the peer's reassembly queue may ack
       past the rolled-back snd_nxt; catch it up. *)
    if Tcp_seq.gt cb.snd_una cb.snd_nxt then cb.snd_nxt <- cb.snd_una;
    cb.snd_wnd <- hdr.window lsl cb.snd_wscale;
    (* Release acknowledged bytes from the send buffer. SYN/FIN occupy
       sequence slots but no buffer bytes, hence the clamping. *)
    let buf_acked =
      let d = Tcp_seq.sub hdr.ack cb.snd_buf_seq in
      Int.max 0 (Int.min d (Ring_buf.length cb.snd_buf))
    in
    if buf_acked > 0 then begin
      Ring_buf.drop cb.snd_buf buf_acked;
      cb.snd_buf_seq <- Tcp_seq.add cb.snd_buf_seq buf_acked
    end;
    (match Tcp_wire.find_timestamps hdr with
    | Some (_, tsecr) -> sample_rtt cb ctx tsecr
    | None -> ());
    congestion_on_new_ack cb ~acked;
    cb.dup_acks <- 0;
    cb.rtx_backoff <- 0;
    cb.rtx_deadline <-
      (if flight_size cb > 0 then Some (Dsim.Time.add (ctx.now ()) cb.rto)
       else None);
    if buf_acked > 0 then ctx.on_event Writable;
    post_ack_state_transitions cb ctx
  end
  else begin
    (* hdr.ack = snd_una: window update or duplicate. *)
    let scaled_wnd = hdr.window lsl cb.snd_wscale in
    let is_dup =
      payload_len = 0 && flight_size cb > 0 && scaled_wnd = cb.snd_wnd
      && not hdr.flags.syn && not hdr.flags.fin
    in
    cb.snd_wnd <- scaled_wnd;
    if is_dup then begin
      cb.dup_acks <- cb.dup_acks + 1;
      if cb.dup_acks = 3 && not cb.in_fast_recovery then
        enter_fast_retransmit cb ctx
    end
  end

let fin_transition cb ctx =
  cb.fin_received <- true;
  cb.rcv_nxt <- Tcp_seq.add cb.rcv_nxt 1;
  cb.need_ack_now <- true;
  ctx.on_event Peer_closed;
  match cb.state with
  | Established -> cb.state <- Close_wait
  | Fin_wait_1 -> if fin_acked cb then enter_time_wait cb ctx else cb.state <- Closing
  | Fin_wait_2 -> enter_time_wait cb ctx
  | Syn_received -> cb.state <- Close_wait
  | Closed | Listen | Syn_sent | Close_wait | Closing | Last_ack | Time_wait -> ()

(* Reassembly queue: segments ahead of rcv_nxt wait (sorted, bounded)
   until the gap fills, then drain in order. *)
let ooo_insert cb ctx ~seq payload =
  if List.length cb.ooo_queue < cb.config.max_ooo_segments then begin
    let rec insert = function
      | [] -> [ (seq, payload) ]
      | ((s, _) as hd) :: rest ->
        if Tcp_seq.lt seq s then (seq, payload) :: hd :: rest
        else if s = seq then hd :: rest (* duplicate: keep the first *)
        else hd :: insert rest
    in
    cb.ooo_queue <- insert cb.ooo_queue
  end
  else
    (* Queue full, drop — the sender retransmits. *)
    ctx.stat (Rx_drop Dsim.Flowtrace.Out_of_window)

(* The in-order payload is a region of [buf] — on the live RX path the
   borrowed frame itself — consumed here with a single blit into the
   receive ring. *)
let rec accept_in_order cb ctx ~seq ~buf ~off ~len =
  (* Trim any prefix we already consumed (retransmission overlap). *)
  let skip = Int.min len (Int.max 0 (Tcp_seq.sub cb.rcv_nxt seq)) in
  let fresh = len - skip in
  if fresh > 0 then begin
    let accepted = Ring_buf.write cb.rcv_buf buf ~off:(off + skip) ~len:fresh in
    if accepted > 0 then begin
      cb.rcv_nxt <- Tcp_seq.add cb.rcv_nxt accepted;
      cb.bytes_in <- cb.bytes_in + accepted;
      ctx.on_event Data_readable
    end;
    if accepted < fresh then begin
      (* Receive buffer overrun: the tail will be retransmitted. *)
      ctx.stat (Rx_drop Dsim.Flowtrace.Rcv_buf_full);
      cb.need_ack_now <- true
    end
    else drain_ooo cb ctx
  end

and drain_ooo cb ctx =
  match cb.ooo_queue with
  | (seq, payload) :: rest when Tcp_seq.le seq cb.rcv_nxt ->
    cb.ooo_queue <- rest;
    if Tcp_seq.ge (Tcp_seq.add seq (Bytes.length payload)) cb.rcv_nxt then begin
      accept_in_order cb ctx ~seq ~buf:payload ~off:0
        ~len:(Bytes.length payload);
      cb.need_ack_now <- true
    end
    else drain_ooo cb ctx (* fully stale entry *)
  | _ -> ()

let process_payload cb ctx (hdr : Tcp_wire.header) ~buf ~off ~len =
  let seg_fin = hdr.flags.fin in
  if len = 0 && not seg_fin then ()
  else begin
    let seq = hdr.seq in
    if Tcp_seq.gt seq cb.rcv_nxt then begin
      (* Ahead of the expected sequence: park it in the reassembly
         queue and duplicate-ACK so the sender fast-retransmits the
         missing piece. The copy is mandatory — the reassembly queue
         outlives the borrowed frame. *)
      if len > 0 then ooo_insert cb ctx ~seq (Bytes.sub buf off len);
      cb.need_ack_now <- true
    end
    else begin
      let fresh = len - Int.min len (Tcp_seq.sub cb.rcv_nxt seq) in
      if fresh > 0 then begin
        accept_in_order cb ctx ~seq ~buf ~off ~len;
        cb.segs_since_ack <- cb.segs_since_ack + 1;
        if cb.segs_since_ack >= cb.config.ack_every_segments then
          cb.need_ack_now <- true
        else if Option.is_none cb.ack_deadline then
          cb.ack_deadline <-
            Some (Dsim.Time.add (ctx.now ()) cb.config.delayed_ack_timeout)
      end
      else if len > 0 then begin
        (* Pure duplicate segment. *)
        ctx.stat (Rx_drop Dsim.Flowtrace.Dup_segment);
        cb.need_ack_now <- true
      end;
      (* The FIN is consumable only when it sits exactly at the left
         window edge: all bytes before it held, none beyond it claimed.
         (A FIN whose data was parked in the reassembly queue loses its
         flag; the peer's FIN retransmission recovers it.) A FIN whose
         edge lands *before* rcv_nxt on a connection that never saw the
         peer's FIN is a blind close forgery — the genuine peer cannot
         place its FIN under data it already had acknowledged — so it
         gets a typed drop and a challenge ACK instead of a teardown. *)
      if seg_fin && not cb.fin_received then begin
        let fin_edge = Tcp_seq.add seq len in
        if fin_edge = cb.rcv_nxt then fin_transition cb ctx
        else if Tcp_seq.lt fin_edge cb.rcv_nxt then begin
          ctx.stat (Rx_drop Dsim.Flowtrace.Out_of_window);
          cb.need_ack_now <- true
        end
      end
    end
  end

let process_syn_sent cb ctx (hdr : Tcp_wire.header) =
  if hdr.flags.rst then begin
    if hdr.flags.ack && hdr.ack = cb.snd_nxt then begin
      ctx.on_event Conn_refused;
      to_closed cb ctx
    end
  end
  else if hdr.flags.syn && hdr.flags.ack && hdr.ack = cb.snd_nxt then begin
    cb.irs <- hdr.seq;
    cb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
    cb.snd_una <- hdr.ack;
    (* The SYN-ACK's own window field is unscaled. *)
    cb.snd_wnd <- hdr.window;
    cb.mss <- negotiated_mss cb hdr;
    negotiate_wscale cb hdr;
    (match Tcp_wire.find_timestamps hdr with
    | Some (tsval, tsecr) ->
      cb.ts_recent <- tsval;
      sample_rtt cb ctx tsecr
    | None -> ());
    enter_established cb ctx;
    cb.need_ack_now <- true
  end
  (* Simultaneous open is not supported; a bare SYN is ignored. *)

let process_time_wait cb ctx (hdr : Tcp_wire.header) =
  if hdr.flags.fin then begin
    (* Retransmitted FIN: re-ACK and restart 2MSL. *)
    cb.need_ack_now <- true;
    enter_time_wait cb ctx
  end

let process cb ctx (hdr : Tcp_wire.header) ~buf ~off ~len =
  cb.segments_in <- cb.segments_in + 1;
  match cb.state with
  | Closed | Listen -> ()
  | Syn_sent -> process_syn_sent cb ctx hdr
  | Time_wait -> process_time_wait cb ctx hdr
  | Syn_received | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack ->
    if hdr.flags.rst then begin
      if
        Tcp_seq.between hdr.seq ~low:cb.rcv_nxt
          ~high:(Tcp_seq.add cb.rcv_nxt (Int.max 1 (rcv_window cb)))
        || hdr.seq = cb.rcv_nxt
      then begin
        ctx.on_event Conn_reset;
        to_closed cb ctx
      end
      else begin
        (* RFC 5961 §3: an out-of-window RST is a blind-reset guess.
           Typed drop plus a challenge ACK — the genuine peer (if it
           really did reset) answers the challenge with an in-window
           RST; an attacker learns nothing. *)
        ctx.stat (Rx_drop Dsim.Flowtrace.Out_of_window);
        cb.need_ack_now <- true
      end
    end
    else if hdr.flags.syn then begin
      (* RFC 5961 §4: a SYN in a synchronised state must never tear the
         connection down — a blind attacker would need exactly one
         forged segment otherwise. A duplicate of the original SYN in
         Syn_received means our SYN-ACK was lost: resend it. Everything
         else draws a typed drop and a challenge ACK. *)
      if cb.state = Syn_received && hdr.seq = cb.irs then
        Tcp_output.send_syn_ack cb ctx
      else begin
        ctx.stat (Rx_drop Dsim.Flowtrace.Out_of_window);
        cb.need_ack_now <- true
      end
    end
    else if not hdr.flags.ack then ()
    else begin
      update_ts_recent cb hdr;
      (if cb.state = Syn_received then begin
         if hdr.ack = cb.snd_nxt then enter_established cb ctx
         else if Tcp_seq.gt hdr.ack cb.snd_nxt then cb.need_ack_now <- true
       end);
      if cb.state <> Syn_received then begin
        process_ack cb ctx hdr ~payload_len:len;
        process_payload cb ctx hdr ~buf ~off ~len
      end
    end

let accept_syn cb ctx (hdr : Tcp_wire.header) ~iss =
  cb.irs <- hdr.seq;
  cb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
  cb.iss <- iss;
  cb.snd_una <- iss;
  cb.snd_nxt <- Tcp_seq.add iss 1;
  cb.snd_max <- cb.snd_nxt;
  cb.snd_buf_seq <- Tcp_seq.add iss 1;
  cb.snd_wnd <- hdr.window;
  cb.mss <- negotiated_mss cb hdr;
  negotiate_wscale cb hdr;
  (match Tcp_wire.find_timestamps hdr with
  | Some (tsval, _) -> cb.ts_recent <- tsval
  | None -> ());
  cb.state <- Syn_received;
  Tcp_output.send_syn_ack cb ctx
