type pool = {
  name : string;
  mem : Cheri.Tagged_memory.t;
  (* The free list: a FIFO in a fixed array of [capacity], so [alloc]
     and [free] allocate nothing. A double free is refused before it
     reaches the array, so [free_count] never exceeds [capacity]. *)
  mutable free_ring : t array;
  mutable free_head : int;
  mutable free_count : int;
  capacity : int;
  in_use_metric : Dsim.Metrics.gauge;
  alloc_fail_metric : Dsim.Metrics.counter;
  exhausted : Dsim.Metrics.counter;
}

and t = {
  pool : pool;
  bcap : Cheri.Capability.t;
  buf_addr : int;
  buf_len : int;
  mutable data_off : int;
  mutable data_len : int;
  mutable in_use : bool;
  mutable flow : Dsim.Flowtrace.ctx option;
}

(* RTE_PKTMBUF_HEADROOM. *)
let default_headroom = 128

let pool_create eal ~name ~n ~buf_len =
  if n <= 0 || buf_len <= 0 then invalid_arg "Mbuf.pool_create: bad geometry";
  if default_headroom >= buf_len then
    invalid_arg "Mbuf.pool_create: headroom >= buf_len";
  let labels = [ ("pool", name) ] in
  let zone = Eal.memzone_reserve eal ~name:("mbuf-" ^ name) ~size:(n * buf_len) in
  (* As in DPDK since 19.11, no buffer straddles a page: a frame borrow
     lends one page's bytes. *)
  for i = 0 to n - 1 do
    let addr = Cheri.Capability.base zone + (i * buf_len) in
    if not (Cheri.Tagged_memory.within_page ~addr ~len:buf_len) then
      invalid_arg
        (Printf.sprintf "Mbuf.pool_create: buffer at 0x%x straddles a page" addr)
  done;
  let mem = Eal.mem eal in
  let pool =
    {
      name;
      mem;
      free_ring = [||];
      free_head = 0;
      free_count = 0;
      capacity = n;
      in_use_metric =
        Dsim.Metrics.gauge Dsim.Metrics.default
          ~help:"Mbufs currently allocated from the pool." ~capacity:n ~labels
          "dpdk_mbuf_in_use";
      alloc_fail_metric =
        Dsim.Metrics.counter Dsim.Metrics.default
          ~help:"Allocation attempts refused because the pool was empty."
          ~labels "dpdk_mbuf_alloc_failures_total";
      exhausted =
        Dsim.Metrics.stall Dsim.Metrics.default ~labels
          ~resource:"dpdk_mbuf_in_use" ~kind:"pool_exhausted" ();
    }
  in
  pool.free_ring <-
    Array.init n (fun i ->
        let off = i * buf_len in
        let bcap =
          Cheri.Capability.derive zone ~offset:off ~length:buf_len
            ~perms:Cheri.Perms.data
        in
        Cheri.Provenance.record_derive ~label:"mbuf" ~parent:zone bcap;
        {
          pool;
          bcap;
          buf_addr = Cheri.Capability.base bcap;
          buf_len;
          data_off = default_headroom;
          data_len = 0;
          in_use = false;
          flow = None;
        });
  pool.free_count <- n;
  pool

let pool_name p = p.name
let available p = p.free_count
let capacity p = p.capacity

let reset m =
  m.data_off <- default_headroom;
  m.data_len <- 0;
  m.flow <- None

let flow m = m.flow
let set_flow m f = m.flow <- f

(* Set absolutely, not by deltas, so enabling the registry mid-run
   still reads the true level. *)
let sync_in_use p =
  Dsim.Metrics.set p.in_use_metric (p.capacity - p.free_count)

let alloc p =
  if p.free_count = 0 then begin
    (* Exhaustion is a counted, recoverable condition — callers turn the
       [None] into a typed drop, never an exception. *)
    Dsim.Metrics.incr p.alloc_fail_metric;
    Dsim.Metrics.incr p.exhausted;
    None
  end
  else begin
    let m = p.free_ring.(p.free_head) in
    p.free_head <-
      (if p.free_head + 1 = p.capacity then 0 else p.free_head + 1);
    p.free_count <- p.free_count - 1;
    m.in_use <- true;
    reset m;
    sync_in_use p;
    Some m
  end

let free m =
  if not m.in_use then
    (* A second free is a use of a revoked reference: raise it as the
       tag violation it models so the supervisor can contain it to the
       offending compartment instead of unwinding the whole simulation. *)
    Cheri.Fault.raise_fault Cheri.Fault.Tag_violation ~address:m.buf_addr
      ~detail:"Mbuf.free: double free";
  m.in_use <- false;
  (* Drop the trace context now, not at the next alloc: a free pool
     buffer must not pin trace records live across reuse. *)
  m.flow <- None;
  let p = m.pool in
  let j = p.free_head + p.free_count in
  p.free_ring.(if j >= p.capacity then j - p.capacity else j) <- m;
  p.free_count <- p.free_count + 1;
  sync_in_use p

let buf_addr m = m.buf_addr
let buf_len m = m.buf_len
let data_addr m = m.buf_addr + m.data_off
let data_len m = m.data_len
let headroom m = m.data_off
let tailroom m = m.buf_len - m.data_off - m.data_len
let cap m = m.bcap

let append m n =
  if n < 0 || n > tailroom m then
    invalid_arg (Printf.sprintf "Mbuf.append: %d exceeds tailroom %d" n (tailroom m));
  let addr = data_addr m + m.data_len in
  m.data_len <- m.data_len + n;
  addr

let prepend m n =
  if n < 0 || n > m.data_off then
    invalid_arg (Printf.sprintf "Mbuf.prepend: %d exceeds headroom %d" n m.data_off);
  m.data_off <- m.data_off - n;
  m.data_len <- m.data_len + n;
  data_addr m

let trim m n =
  if n < 0 || n > m.data_len then invalid_arg "Mbuf.trim: beyond data length";
  m.data_len <- m.data_len - n

let adj m n =
  if n < 0 || n > m.data_len then invalid_arg "Mbuf.adj: beyond data length";
  m.data_off <- m.data_off + n;
  m.data_len <- m.data_len - n

let write mem m ~off b =
  let len = Bytes.length b in
  if off < 0 || off + len > m.data_len then
    invalid_arg "Mbuf.write: outside data region";
  Cheri.Tagged_memory.blit_in mem ~cap:m.bcap ~addr:(data_addr m + off) ~src:b
    ~src_off:0 ~len

let read mem m ~off ~len =
  if off < 0 || len < 0 || off + len > m.data_len then
    invalid_arg "Mbuf.read: outside data region";
  let dst = Bytes.create len in
  Cheri.Tagged_memory.blit_out mem ~cap:m.bcap ~addr:(data_addr m + off) ~dst
    ~dst_off:0 ~len;
  dst

let contents mem m = read mem m ~off:0 ~len:m.data_len

let borrow mem m =
  Cheri.Tagged_memory.borrow mem ~cap:m.bcap ~addr:(data_addr m) ~len:m.data_len

let borrow_frame mem m =
  Cheri.Tagged_memory.borrow_mut mem ~cap:m.bcap ~addr:m.buf_addr ~len:m.buf_len
