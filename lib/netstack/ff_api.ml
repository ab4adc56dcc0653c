(* [staging] is [ff_read]'s landing buffer, grown to the largest
   [nbytes] seen and reused, so a read allocates nothing per call. *)
type t = { stack : Stack.t; mem : Cheri.Tagged_memory.t; mutable staging : bytes }

let attach stack mem = { stack; mem; staging = Bytes.empty }

(* Capability violations at the F-Stack API boundary still raise (the
   compartment dies, as on hardware), but the flow-trace drop table
   records that the packet's journey ended here and why. Each faulting
   call is matched where it is made: a [guard (fun () -> ...)] wrapper
   would allocate its closure on every call. *)
let drop_and_reraise e =
  Dsim.Flowtrace.(drop default Ff_api Capability_fault);
  raise e

(* Probe a store through [buf] right away, so a rogue buffer faults
   even when no data is pending. *)
let probe_store buf ~addr ~nbytes =
  match
    Cheri.Capability.check_access buf Cheri.Capability.Store ~addr ~len:nbytes
  with
  | () -> ()
  | exception (Cheri.Fault.Capability_fault _ as e) -> drop_and_reraise e

let ff_socket t = Stack.socket_stream t.stack
let ff_bind t fd ~port = Stack.bind t.stack fd ~port
let ff_listen t fd ~backlog = Stack.listen t.stack fd ~backlog
let ff_accept t fd = Stack.accept t.stack fd
let ff_connect t fd ~ip ~port = Stack.connect t.stack fd ~ip ~port

let ff_write t fd ~buf ~nbytes =
  if nbytes < 0 then Error Errno.EINVAL
  else begin
    (* The capability check happens before the stack sees anything: an
       overlong [nbytes] traps here, it cannot leak adjacent memory
       into the socket. One check covers the whole write — the send
       buffer then copies straight from the checked window, with no
       staging allocation on the hot path. *)
    let addr = Cheri.Capability.cursor buf in
    let s =
      match Cheri.Tagged_memory.borrow t.mem ~cap:buf ~addr ~len:nbytes with
      | s -> s
      | exception (Cheri.Fault.Capability_fault _ as e) -> drop_and_reraise e
    in
    Stack.write t.stack fd ~buf:(Dsim.Slice.base s)
      ~off:(Dsim.Slice.base_off s) ~len:nbytes
  end

let ff_read t fd ~buf ~nbytes =
  if nbytes < 0 then Error Errno.EINVAL
  else begin
    let addr = Cheri.Capability.cursor buf in
    probe_store buf ~addr ~nbytes;
    Cheri.Provenance.record_exercise buf ~address:addr;
    if Bytes.length t.staging < nbytes then t.staging <- Bytes.create nbytes;
    match Stack.read t.stack fd ~buf:t.staging ~off:0 ~len:nbytes with
    | Error _ as e -> e
    | Ok n ->
      (* Only the [n] bytes this read filled reach the window. *)
      if n > 0 then
        Cheri.Tagged_memory.blit_in t.mem ~cap:buf ~addr ~src:t.staging
          ~src_off:0 ~len:n;
      Ok n
  end

let ff_close t fd = Stack.close t.stack fd
let ff_epoll_create t = Stack.epoll_create t.stack
let ff_epoll_ctl t ~epfd ~op ~fd events = Stack.epoll_ctl t.stack ~epfd ~op ~fd events
let ff_epoll_wait t ~epfd ~max = Stack.epoll_wait t.stack ~epfd ~max
