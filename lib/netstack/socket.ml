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
  mutable armed : bool;
  mutable ctx : Tcp_cb.ctx option;
}

type udp_sock = {
  ufd : int;
  mutable uport : int option;
  rcv_q : (Ipv4_addr.t * int * bytes) Queue.t;
  max_rcv_q : int;
}

type sock = Tcp of tcp_sock | Udp of udp_sock | Epoll_inst of Epoll.t

(* Slots are indexed by fd; the first [first_fd] are never used. *)
type table = {
  socks : sock option array;
  max_fds : int;
  mutable live : int;
  mutable next_hint : int;
}

(* fds start at 3, as stdin/stdout/stderr are taken in the cVM. *)
let first_fd = 3

let create_table ?(max_fds = 1024) () =
  { socks = Array.make (first_fd + max_fds) None; max_fds; live = 0;
    next_hint = first_fd }

let alloc t build =
  if t.live >= t.max_fds then Error Errno.EMFILE
  else begin
    let rec probe fd =
      let fd = if fd >= first_fd + t.max_fds then first_fd else fd in
      if Option.is_some t.socks.(fd) then probe (fd + 1) else fd
    in
    let fd = probe t.next_hint in
    t.next_hint <- fd + 1;
    let sock = build fd in
    t.socks.(fd) <- Some sock;
    t.live <- t.live + 1;
    Ok (fd, sock)
  end

let find t fd = if fd < 0 || fd >= Array.length t.socks then None else t.socks.(fd)

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

let release t fd =
  if Option.is_some (find t fd) then begin
    t.socks.(fd) <- None;
    t.live <- t.live - 1
  end

let fds t =
  let acc = ref [] in
  for fd = Array.length t.socks - 1 downto first_fd do
    if Option.is_some t.socks.(fd) then acc := fd :: !acc
  done;
  !acc

let live_count t = t.live

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
  if Option.is_some s.pending_error then ev := !ev lor Epoll.epollerr lor Epoll.epollin;
  !ev

let udp_readiness s =
  let ev = ref Epoll.epollout in
  if not (Queue.is_empty s.rcv_q) then ev := !ev lor Epoll.epollin;
  !ev
