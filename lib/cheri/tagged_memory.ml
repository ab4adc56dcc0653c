(* The address space is cut into 2 MiB pages, DPDK's hugepage size. A
   page is [Bytes.empty] until the first write into it and reads as
   zeros while absent; its tag bytes (one per granule) likewise appear
   at the first capability store into it. The last page is only as long
   as the memory. *)
type t = {
  size : int;
  pages : bytes array;
  tags : bytes array;  (* per page: one byte per granule, 0 or 1 *)
  caps : (int, Capability.t) Hashtbl.t;  (* granule-aligned address -> cap *)
}

let granule = 16
let page_bits = 21
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let tag_writes =
  Dsim.Metrics.counter Dsim.Metrics.default
    ~help:"Capabilities stored to memory (granule tag set)."
    "cheri_tag_writes_total"

let tag_clears =
  Dsim.Metrics.counter Dsim.Metrics.default
    ~help:"Granule tags destroyed by raw data writes."
    "cheri_tag_clears_total"

let create ~size =
  if size <= 0 then invalid_arg "Tagged_memory.create: size must be positive";
  let n = (size + page_size - 1) / page_size in
  {
    size;
    pages = Array.make n Bytes.empty;
    tags = Array.make n Bytes.empty;
    caps = Hashtbl.create 256;
  }

let size t = t.size

let page_of addr = addr lsr page_bits
let offset addr = addr land page_mask

(* Bytes of [\[addr, addr+len)] that lie in [addr]'s page. *)
let chunk addr len =
  let room = page_size - offset addr in
  if len < room then len else room

let within_page ~addr ~len = len > 0 && page_of addr = page_of (addr + len - 1)

let page_len t i =
  let rest = t.size - (i * page_size) in
  if rest < page_size then rest else page_size

(* Page [i], created zero-filled on first use. *)
let page_w t i =
  let p = t.pages.(i) in
  if Bytes.length p > 0 then p
  else begin
    let p = Bytes.make (page_len t i) '\000' in
    t.pages.(i) <- p;
    p
  end

let resident_pages t =
  Array.fold_left (fun n p -> if Bytes.length p > 0 then n + 1 else n) 0 t.pages

(* Written as [len <= size - addr], not [addr + len <= size]: a length
   near [max_int] would wrap the sum negative and pass. *)
let phys_check t ~addr ~len =
  if not (len >= 0 && addr >= 0 && addr <= t.size && len <= t.size - addr) then
    Fault.raise_fault Out_of_bounds ~address:addr
      ~detail:(Printf.sprintf "physical access [0x%x,+0x%x) beyond memory" addr len)

let populate t ~addr ~len =
  phys_check t ~addr ~len;
  if len > 0 then
    for i = page_of addr to page_of (addr + len - 1) do
      ignore (page_w t i)
    done

(* The page walks below take a range already passed by [phys_check]
   and handle it one page at a time. *)

let rec read_into t addr dst dst_off len =
  if len > 0 then begin
    let n = chunk addr len in
    let p = t.pages.(page_of addr) in
    if Bytes.length p = 0 then Bytes.fill dst dst_off n '\000'
    else Bytes.blit p (offset addr) dst dst_off n;
    read_into t (addr + n) dst (dst_off + n) (len - n)
  end

let rec write_from t addr src src_off len =
  if len > 0 then begin
    let n = chunk addr len in
    Bytes.blit src src_off (page_w t (page_of addr)) (offset addr) n;
    write_from t (addr + n) src (src_off + n) (len - n)
  end

let rec fill_pages t addr len c =
  if len > 0 then begin
    let n = chunk addr len in
    let i = page_of addr in
    (* An absent page already reads as zeros: zeroing leaves it absent. *)
    if c <> '\000' || Bytes.length t.pages.(i) > 0 then
      Bytes.fill (page_w t i) (offset addr) n c;
    fill_pages t (addr + n) (len - n) c
  end

let rec clear_tags t addr len =
  if len > 0 then begin
    let n = chunk addr len in
    let tags = t.tags.(page_of addr) in
    if Bytes.length tags > 0 then begin
      let page_base = addr - offset addr in
      for g = offset addr / granule to (offset addr + n - 1) / granule do
        if Bytes.get tags g <> '\000' then begin
          Bytes.set tags g '\000';
          Hashtbl.remove t.caps (page_base + (g * granule));
          Dsim.Metrics.incr tag_clears
        end
      done
    end;
    clear_tags t (addr + n) (len - n)
  end

let byte t addr =
  let p = t.pages.(page_of addr) in
  if Bytes.length p = 0 then 0 else Char.code (Bytes.get p (offset addr))

let set_byte t addr v =
  Bytes.set (page_w t (page_of addr)) (offset addr) (Char.chr (v land 0xff))

let load_bytes t ~cap ~addr ~len =
  Capability.check_access cap Load ~addr ~len;
  phys_check t ~addr ~len;
  let b = Bytes.create len in
  read_into t addr b 0 len;
  b

let store_bytes t ~cap ~addr b =
  let len = Bytes.length b in
  Capability.check_access cap Store ~addr ~len;
  phys_check t ~addr ~len;
  clear_tags t addr len;
  write_from t addr b 0 len

let blit_out t ~cap ~addr ~dst ~dst_off ~len =
  Capability.check_access cap Load ~addr ~len;
  phys_check t ~addr ~len;
  read_into t addr dst dst_off len

let blit_in t ~cap ~addr ~src ~src_off ~len =
  Capability.check_access cap Store ~addr ~len;
  phys_check t ~addr ~len;
  clear_tags t addr len;
  write_from t addr src src_off len

let get_u8 t ~cap ~addr =
  Capability.check_access cap Load ~addr ~len:1;
  phys_check t ~addr ~len:1;
  byte t addr

let set_u8 t ~cap ~addr v =
  Capability.check_access cap Store ~addr ~len:1;
  phys_check t ~addr ~len:1;
  clear_tags t addr 1;
  set_byte t addr v

let get_u16_be t ~cap ~addr =
  Capability.check_access cap Load ~addr ~len:2;
  phys_check t ~addr ~len:2;
  (byte t addr lsl 8) lor byte t (addr + 1)

let set_u16_be t ~cap ~addr v =
  Capability.check_access cap Store ~addr ~len:2;
  phys_check t ~addr ~len:2;
  clear_tags t addr 2;
  set_byte t addr (v lsr 8);
  set_byte t (addr + 1) v

let get_u32_be t ~cap ~addr =
  Capability.check_access cap Load ~addr ~len:4;
  phys_check t ~addr ~len:4;
  let b i = byte t (addr + i) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let set_u32_be t ~cap ~addr v =
  Capability.check_access cap Store ~addr ~len:4;
  phys_check t ~addr ~len:4;
  clear_tags t addr 4;
  set_byte t addr (v lsr 24);
  set_byte t (addr + 1) (v lsr 16);
  set_byte t (addr + 2) (v lsr 8);
  set_byte t (addr + 3) v

let get_u64_le t ~cap ~addr =
  Capability.check_access cap Load ~addr ~len:8;
  phys_check t ~addr ~len:8;
  if within_page ~addr ~len:8 then begin
    let p = t.pages.(page_of addr) in
    if Bytes.length p = 0 then 0L else Bytes.get_int64_le p (offset addr)
  end
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t (addr + i)))
    done;
    !v
  end

let set_u64_le t ~cap ~addr v =
  Capability.check_access cap Store ~addr ~len:8;
  phys_check t ~addr ~len:8;
  clear_tags t addr 8;
  if within_page ~addr ~len:8 then
    Bytes.set_int64_le (page_w t (page_of addr)) (offset addr) v
  else
    for i = 0 to 7 do
      set_byte t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let fill t ~cap ~addr ~len c =
  Capability.check_access cap Store ~addr ~len;
  phys_check t ~addr ~len;
  clear_tags t addr len;
  fill_pages t addr len c

let aligned addr = addr mod granule = 0

(* A granule never straddles a page: pages are granule multiples. *)
let tag_set t addr =
  let tags = t.tags.(page_of addr) in
  Bytes.length tags > 0 && Bytes.get tags (offset addr / granule) = '\001'

let store_cap t ~cap ~addr stored =
  Capability.check_access cap Store_cap ~addr ~len:granule;
  phys_check t ~addr ~len:granule;
  if not (aligned addr) then
    Fault.raise_fault Out_of_bounds ~address:addr
      ~detail:"capability store must be 16-byte aligned";
  if Capability.is_tagged stored && not (Capability.perms stored).Perms.global then
    Fault.raise_fault Permission_violation ~address:addr
      ~detail:"store of a local (non-global) capability to memory";
  Provenance.record_exercise cap ~address:addr;
  Hashtbl.replace t.caps addr stored;
  let i = page_of addr and g = offset addr / granule in
  if Capability.is_tagged stored then begin
    Dsim.Metrics.incr tag_writes;
    if Bytes.length t.tags.(i) = 0 then
      t.tags.(i) <- Bytes.make ((page_len t i + granule - 1) / granule) '\000';
    Bytes.set t.tags.(i) g '\001'
  end
  else if Bytes.length t.tags.(i) > 0 then Bytes.set t.tags.(i) g '\000'

let load_cap t ~cap ~addr =
  Capability.check_access cap Load_cap ~addr ~len:granule;
  phys_check t ~addr ~len:granule;
  if not (aligned addr) then
    Fault.raise_fault Out_of_bounds ~address:addr
      ~detail:"capability load must be 16-byte aligned";
  match Hashtbl.find_opt t.caps addr with
  | None -> Capability.null
  | Some c ->
    if tag_set t addr then c
    else (* tag cleared by an intervening data write *) Capability.null

let tag_at t ~addr =
  phys_check t ~addr ~len:1;
  tag_set t addr

(* Escaping a borrow window faults exactly like the per-access checks the
   borrow replaced: same exception, same kind, the absolute address of
   the offending byte. *)
let borrow_oob =
  {
    Dsim.Slice.raise_oob =
      (fun ~addr ~len ~detail ->
        Fault.raise_fault Out_of_bounds ~address:addr
          ~detail:
            (Printf.sprintf "slice access [0x%x,+0x%x) %s" addr len detail));
  }

(* The window in place, over its page's own bytes; [within_page]. *)
let lend t ~addr ~len =
  Dsim.Slice.make (page_w t (page_of addr)) ~off:(offset addr) ~len ~abs:addr
    ~oob:borrow_oob

let borrow t ~cap ~addr ~len =
  Capability.check_access cap Load ~addr ~len;
  phys_check t ~addr ~len;
  Provenance.record_exercise cap ~address:addr;
  if within_page ~addr ~len then lend t ~addr ~len
  else begin
    (* No one page holds the window: lend a copy, at the same absolute
       address and with the same fault handler. *)
    let copy = Bytes.create len in
    read_into t addr copy 0 len;
    Dsim.Slice.make copy ~off:0 ~len ~abs:addr ~oob:borrow_oob
  end

let borrow_mut t ~cap ~addr ~len =
  Capability.check_access cap Store ~addr ~len;
  phys_check t ~addr ~len;
  if not (within_page ~addr ~len) then
    invalid_arg
      (Printf.sprintf
         "Tagged_memory.borrow_mut: window [0x%x,+0x%x) is not inside one page"
         addr len);
  Provenance.record_exercise cap ~address:addr;
  (* A mutable borrow is a bulk raw store: any capability tags in the
     window are destroyed up front, as each individual checked store
     would have destroyed them. *)
  clear_tags t addr len;
  lend t ~addr ~len

let unchecked_blit_out t ~addr ~dst ~dst_off ~len =
  phys_check t ~addr ~len;
  read_into t addr dst dst_off len

let unchecked_blit_in t ~addr ~src ~src_off ~len =
  phys_check t ~addr ~len;
  clear_tags t addr len;
  write_from t addr src src_off len
