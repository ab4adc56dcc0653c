module Ff = Netstack.Ff_api

let get = function
  | Ok v -> v
  | Error e -> invalid_arg ("iperf setup failed: " ^ Netstack.Errno.to_string e)

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

type server = {
  s_ff : Ff.t;
  s_buf : Cheri.Capability.t;
  s_epfd : int;
  s_lfd : int;
  mutable s_conns : int list;
  mutable s_rx : int;
  mutable s_rx_mark : int;
}

let max_reads_per_conn = 32

let server ff ~buf ~port =
  let lfd = get (Ff.ff_socket ff) in
  get (Ff.ff_bind ff lfd ~port);
  get (Ff.ff_listen ff lfd ~backlog:8);
  let epfd = get (Ff.ff_epoll_create ff) in
  get (Ff.ff_epoll_ctl ff ~epfd ~op:`Add ~fd:lfd Netstack.Epoll.epollin);
  {
    s_ff = ff;
    s_buf = buf;
    s_epfd = epfd;
    s_lfd = lfd;
    s_conns = [];
    s_rx = 0;
    s_rx_mark = 0;
  }

let server_drop_conn s fd =
  ignore (Ff.ff_close s.s_ff fd);
  ignore
    (Ff.ff_epoll_ctl s.s_ff ~epfd:s.s_epfd ~op:`Del ~fd Netstack.Epoll.epollin);
  s.s_conns <- List.filter (fun c -> c <> fd) s.s_conns

let server_read_conn s fd =
  let nbytes = Cheri.Capability.length s.s_buf in
  let rec go n =
    if n < max_reads_per_conn then begin
      match Ff.ff_read s.s_ff fd ~buf:s.s_buf ~nbytes with
      | Ok 0 -> server_drop_conn s fd
      | Ok got ->
        s.s_rx <- s.s_rx + got;
        go (n + 1)
      | Error Netstack.Errno.EAGAIN -> ()
      | Error _ -> server_drop_conn s fd
    end
  in
  go 0

let server_step s =
  match Ff.ff_epoll_wait s.s_ff ~epfd:s.s_epfd ~max:16 with
  | Error _ -> ()
  | Ok events ->
    List.iter
      (fun (fd, ev) ->
        if fd = s.s_lfd then begin
          let rec accept_all () =
            match Ff.ff_accept s.s_ff s.s_lfd with
            | Ok (cfd, _ip, _port) ->
              ignore
                (Ff.ff_epoll_ctl s.s_ff ~epfd:s.s_epfd ~op:`Add ~fd:cfd
                   Netstack.Epoll.epollin);
              s.s_conns <- cfd :: s.s_conns;
              accept_all ()
            | Error _ -> ()
          in
          accept_all ()
        end
        else if Netstack.Epoll.has ev Netstack.Epoll.epollin then
          server_read_conn s fd
        else if
          Netstack.Epoll.has ev Netstack.Epoll.epollhup
          || Netstack.Epoll.has ev Netstack.Epoll.epollerr
        then server_drop_conn s fd)
      events

let server_take_rx s =
  let delta = s.s_rx - s.s_rx_mark in
  s.s_rx_mark <- s.s_rx;
  delta

let server_stop s =
  List.iter (fun fd -> server_drop_conn s fd) s.s_conns;
  ignore (Ff.ff_close s.s_ff s.s_lfd);
  ignore (Ff.ff_close s.s_ff s.s_epfd)

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

type client_state = Connecting | Running | Stopped

type client = {
  c_ff : Ff.t;
  c_buf : Cheri.Capability.t;
  c_epfd : int;
  c_fd : int;
  c_write_size : int;
  c_max_writes : int;
  mutable c_state : client_state;
  mutable c_tx : int;
  mutable c_tx_mark : int;
}

let client ff ~buf ~server_ip ~port ?write_size ?(max_writes_per_step = 16) ()
    =
  let write_size =
    match write_size with Some n -> n | None -> Cheri.Capability.length buf
  in
  if write_size > Cheri.Capability.length buf then
    invalid_arg "iperf client: write_size exceeds the buffer capability";
  let fd = get (Ff.ff_socket ff) in
  let epfd = get (Ff.ff_epoll_create ff) in
  (match Ff.ff_connect ff fd ~ip:server_ip ~port with
  | Ok () | Error Netstack.Errno.EINPROGRESS -> ()
  | Error e -> invalid_arg ("iperf connect: " ^ Netstack.Errno.to_string e));
  get (Ff.ff_epoll_ctl ff ~epfd ~op:`Add ~fd Netstack.Epoll.epollout);
  {
    c_ff = ff;
    c_buf = buf;
    c_epfd = epfd;
    c_fd = fd;
    c_write_size = write_size;
    c_max_writes = max_writes_per_step;
    c_state = Connecting;
    c_tx = 0;
    c_tx_mark = 0;
  }

let client_pump c =
  let rec go n =
    if n < c.c_max_writes then begin
      match Ff.ff_write c.c_ff c.c_fd ~buf:c.c_buf ~nbytes:c.c_write_size with
      | Ok sent ->
        c.c_tx <- c.c_tx + sent;
        if sent = c.c_write_size then go (n + 1)
      | Error Netstack.Errno.EAGAIN -> ()
      | Error _ -> c.c_state <- Stopped
    end
  in
  go 0

let client_step c =
  match c.c_state with
  | Stopped -> ()
  | Connecting | Running -> (
    match Ff.ff_epoll_wait c.c_ff ~epfd:c.c_epfd ~max:4 with
    | Error _ -> ()
    | Ok events ->
      List.iter
        (fun (_fd, ev) ->
          if
            Netstack.Epoll.has ev Netstack.Epoll.epollerr
            || Netstack.Epoll.has ev Netstack.Epoll.epollhup
          then c.c_state <- Stopped
          else if Netstack.Epoll.has ev Netstack.Epoll.epollout then begin
            if c.c_state = Connecting then c.c_state <- Running;
            client_pump c
          end)
        events)

let client_take_tx c =
  let delta = c.c_tx - c.c_tx_mark in
  c.c_tx_mark <- c.c_tx;
  delta

let client_stop c =
  if c.c_state <> Stopped then begin
    c.c_state <- Stopped;
    ignore (Ff.ff_close c.c_ff c.c_fd)
  end
