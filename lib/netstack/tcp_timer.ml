open Tcp_cb

let max_backoff = 8

let give_up cb ctx =
  let event =
    match cb.state with Syn_sent | Syn_received -> Conn_refused | _ -> Conn_reset
  in
  ctx.on_event event;
  to_closed cb ctx

let backoff_rto cb =
  cb.rtx_backoff <- cb.rtx_backoff + 1;
  cb.rto <- Dsim.Time.min (Dsim.Time.mul cb.rto 2) cb.config.rto_max

let on_rto cb ctx =
  if cb.rtx_backoff >= max_backoff then give_up cb ctx
  else begin
    backoff_rto cb;
    (match cb.state with
    | Syn_sent | Syn_received -> Tcp_output.retransmit_head cb ctx
    | _ ->
      if cb.snd_wnd = 0 && flight_size cb = 0 && Ring_buf.length cb.snd_buf > 0
      then
        (* Persist: probe the closed window with one byte. *)
        Tcp_output.send_window_probe cb ctx
      else if cb.snd_wnd = 0 && flight_size cb = 0 && cb.fin_queued
              && not cb.fin_sent
      then
        (* Persist with only the FIN left: the FIN is the probe. Like the
           one-byte probe it takes one sequence number, and a receiver
           that has drained its buffer takes it at once. *)
        Tcp_output.send_fin cb ctx
      else begin
        (* RFC 5681 timeout: collapse to one segment and go back to
           snd_una; flush (called right after by the loop) resends. *)
        cb.ssthresh <- Int.max (flight_size cb / 2) (2 * cb.mss);
        cb.cwnd <- cb.mss;
        cb.in_fast_recovery <- false;
        cb.dup_acks <- 0;
        (* Rolling back snd_nxt un-sends the FIN if it was out. *)
        if cb.fin_sent && Tcp_seq.lt cb.snd_una cb.snd_nxt then
          cb.fin_sent <- false;
        cb.snd_nxt <- cb.snd_una;
        cb.retransmissions <- cb.retransmissions + 1
      end);
    cb.rtx_deadline <- Some (Dsim.Time.add (ctx.now ()) cb.rto)
  end

let check cb ctx =
  let now = ctx.now () in
  (match cb.time_wait_deadline with
  | Some d when Dsim.Time.(now >= d) -> to_closed cb ctx
  | _ -> ());
  (match cb.rtx_deadline with
  | Some d when Dsim.Time.(now >= d) && cb.state <> Closed -> on_rto cb ctx
  | _ -> ());
  match cb.ack_deadline with
  | Some d when Dsim.Time.(now >= d) -> cb.need_ack_now <- true
  | _ -> ()
