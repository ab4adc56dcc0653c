type tcp_sock = {
  fd : int;
  cb : Tcp_cb.t;
  mutable listening : bool;
  mutable backlog : int;
  accept_q : tcp_sock Queue.t;
  mutable pending_error : Errno.t option;
  mutable connect_started : bool;
  mutable closed_by_app : bool;
  mutable parked_until : Dsim.Time.t;
}

type udp_sock = {
  ufd : int;
  mutable uport : int option;
  rcv_q : (Ipv4_addr.t * int * bytes) Queue.t;
  max_rcv_q : int;
}

type sock = Tcp of tcp_sock | Udp of udp_sock | Epoll_inst of Epoll.t

type table = {
  socks : (int, sock) Hashtbl.t;
  max_fds : int;
  mutable next_hint : int;
}

(* fds start at 3, as stdin/stdout/stderr are taken in the cVM. *)
let first_fd = 3

let create_table ?(max_fds = 1024) () =
  { socks = Hashtbl.create 64; max_fds; next_hint = first_fd }

let alloc t build =
  if Hashtbl.length t.socks >= t.max_fds then Error Errno.EMFILE
  else begin
    let rec probe fd =
      let fd = if fd >= first_fd + t.max_fds then first_fd else fd in
      if Hashtbl.mem t.socks fd then probe (fd + 1) else fd
    in
    let fd = probe t.next_hint in
    t.next_hint <- fd + 1;
    let sock = build fd in
    Hashtbl.replace t.socks fd sock;
    Ok (fd, sock)
  end

let find t fd = Hashtbl.find_opt t.socks fd

let find_tcp t fd =
  match find t fd with
  | Some (Tcp s) -> Ok s
  | Some _ -> Error Errno.EOPNOTSUPP
  | None -> Error Errno.EBADF

let find_udp t fd =
  match find t fd with
  | Some (Udp s) -> Ok s
  | Some _ -> Error Errno.EOPNOTSUPP
  | None -> Error Errno.EBADF

let find_epoll t fd =
  match find t fd with
  | Some (Epoll_inst e) -> Ok e
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let release t fd = Hashtbl.remove t.socks fd
let fds t = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.socks [] |> List.sort compare
let live_count t = Hashtbl.length t.socks

let iter_tcp t f =
  Hashtbl.iter (fun _ s -> match s with Tcp ts -> f ts | Udp _ | Epoll_inst _ -> ()) t.socks

let tcp_readiness s =
  let open Tcp_cb in
  let ev = ref 0 in
  if s.listening then begin
    if not (Queue.is_empty s.accept_q) then ev := !ev lor Epoll.epollin
  end
  else begin
    let cb = s.cb in
    if readable_bytes cb > 0 then ev := !ev lor Epoll.epollin;
    (* EOF is readable: read() returns 0. *)
    if cb.fin_received && readable_bytes cb = 0 then
      ev := !ev lor Epoll.epollin lor Epoll.epollhup;
    (match cb.state with
    | Established | Close_wait ->
      if writable_space cb > 0 then ev := !ev lor Epoll.epollout
    | Closed | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2
    | Closing | Last_ack | Time_wait -> ());
    (match cb.state with
    | Closed when s.connect_started -> ev := !ev lor Epoll.epollhup
    | _ -> ())
  end;
  if s.pending_error <> None then ev := !ev lor Epoll.epollerr lor Epoll.epollin;
  !ev

let udp_readiness s =
  let ev = ref Epoll.epollout in
  if not (Queue.is_empty s.rcv_q) then ev := !ev lor Epoll.epollin;
  !ev
