(* Tests for the CHERI capability machine model. *)

let expect_fault name kind f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a capability fault" name
  | exception Cheri.Fault.Capability_fault fault ->
    if fault.Cheri.Fault.kind <> kind then
      Alcotest.failf "%s: expected %s, got %s" name
        (Cheri.Fault.kind_to_string kind)
        (Cheri.Fault.kind_to_string fault.Cheri.Fault.kind)

(* ------------------------------------------------------------------ *)
(* Perms                                                                *)
(* ------------------------------------------------------------------ *)

let perms_lattice () =
  let open Cheri.Perms in
  Alcotest.(check bool) "none subset of all" true (subset none all);
  Alcotest.(check bool) "all not subset of none" false (subset all none);
  Alcotest.(check bool) "ro subset of rw" true (subset read_only read_write);
  Alcotest.(check bool) "rw not subset of ro" false (subset read_write read_only);
  Alcotest.(check bool) "intersect idempotent" true
    (equal (intersect read_write read_write) read_write);
  Alcotest.(check bool) "intersect commutes to smaller" true
    (subset (intersect read_write read_only) read_only);
  Alcotest.(check bool) "data has no cap transfer" false
    data.load_cap

let perms_pp () =
  Alcotest.(check string) "all" "rwxRWsuG"
    (Format.asprintf "%a" Cheri.Perms.pp Cheri.Perms.all);
  Alcotest.(check string) "none" "--------"
    (Format.asprintf "%a" Cheri.Perms.pp Cheri.Perms.none)

(* ------------------------------------------------------------------ *)
(* Capability                                                           *)
(* ------------------------------------------------------------------ *)

let root_cap () = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.all

(* A length past [max_int - addr] wraps [addr + len] negative, which an
   [addr + len <= limit] check lets through: both the largest length
   and the smallest overflowing one must fault. *)
let overflowing_lens addr = [ max_int; max_int - addr + 1 ]

let cap_root_fields () =
  let c = root_cap () in
  Alcotest.(check int) "base" 0x1000 (Cheri.Capability.base c);
  Alcotest.(check int) "length" 0x1000 (Cheri.Capability.length c);
  Alcotest.(check int) "limit" 0x2000 (Cheri.Capability.limit c);
  Alcotest.(check int) "cursor at base" 0x1000 (Cheri.Capability.cursor c);
  Alcotest.(check bool) "tagged" true (Cheri.Capability.is_tagged c);
  Alcotest.(check bool) "unsealed" false (Cheri.Capability.is_sealed c)

let cap_null () =
  let c = Cheri.Capability.null in
  Alcotest.(check bool) "untagged" false (Cheri.Capability.is_tagged c);
  expect_fault "deref of null" Cheri.Fault.Tag_violation (fun () ->
      Cheri.Capability.check_deref c Cheri.Capability.Load ~len:1)

let cap_set_bounds_shrink () =
  let c = root_cap () in
  let n = Cheri.Capability.set_bounds c ~base:0x1100 ~length:0x100 in
  Alcotest.(check int) "narrowed base" 0x1100 (Cheri.Capability.base n);
  Alcotest.(check int) "narrowed length" 0x100 (Cheri.Capability.length n);
  Alcotest.(check int) "cursor moved" 0x1100 (Cheri.Capability.cursor n)

let cap_set_bounds_monotonic () =
  let c = root_cap () in
  expect_fault "grow base" Cheri.Fault.Monotonicity_violation (fun () ->
      Cheri.Capability.set_bounds c ~base:0x800 ~length:0x100);
  expect_fault "grow limit" Cheri.Fault.Monotonicity_violation (fun () ->
      Cheri.Capability.set_bounds c ~base:0x1f00 ~length:0x200);
  expect_fault "negative length" Cheri.Fault.Monotonicity_violation (fun () ->
      Cheri.Capability.set_bounds c ~base:0x1100 ~length:(-1));
  List.iter
    (fun length ->
      expect_fault (Printf.sprintf "set_bounds to 0x%x bytes" length)
        Cheri.Fault.Monotonicity_violation (fun () ->
          Cheri.Capability.set_bounds c ~base:0x1100 ~length);
      expect_fault (Printf.sprintf "derive of 0x%x bytes" length)
        Cheri.Fault.Monotonicity_violation (fun () ->
          Cheri.Capability.derive c ~offset:0x100 ~length
            ~perms:Cheri.Perms.read_only))
    (overflowing_lens 0x1100)

let cap_and_perms_monotonic () =
  let c = root_cap () in
  let ro = Cheri.Capability.and_perms c Cheri.Perms.read_only in
  Alcotest.(check bool) "store dropped" false (Cheri.Capability.perms ro).Cheri.Perms.store;
  (* Re-adding permissions is silently an intersection, never a grant. *)
  let again = Cheri.Capability.and_perms ro Cheri.Perms.all in
  Alcotest.(check bool) "store cannot come back" false
    (Cheri.Capability.perms again).Cheri.Perms.store

let cap_cursor () =
  let c = root_cap () in
  let m = Cheri.Capability.set_cursor c 0x1800 in
  Alcotest.(check int) "cursor moved" 0x1800 (Cheri.Capability.cursor m);
  Alcotest.(check bool) "still tagged" true (Cheri.Capability.is_tagged m);
  let inc = Cheri.Capability.incr_cursor m 8 in
  Alcotest.(check int) "incremented" 0x1808 (Cheri.Capability.cursor inc);
  (* Slightly out of bounds stays tagged (deref would fault)... *)
  let near = Cheri.Capability.set_cursor c 0x2010 in
  Alcotest.(check bool) "near-oob keeps tag" true (Cheri.Capability.is_tagged near);
  (* ...far out of the representable window clears the tag. *)
  let far = Cheri.Capability.set_cursor c 0x200000 in
  Alcotest.(check bool) "far-oob clears tag" false (Cheri.Capability.is_tagged far)

let cap_derive () =
  let c = root_cap () in
  let d = Cheri.Capability.derive c ~offset:0x10 ~length:0x20 ~perms:Cheri.Perms.read_only in
  Alcotest.(check int) "derived base" 0x1010 (Cheri.Capability.base d);
  Alcotest.(check int) "derived length" 0x20 (Cheri.Capability.length d);
  Alcotest.(check bool) "derived perms" false (Cheri.Capability.perms d).Cheri.Perms.store

let cap_check_access_faults () =
  let c =
    Cheri.Capability.root ~base:0x1000 ~length:0x100 ~perms:Cheri.Perms.read_only
  in
  (* in bounds, permitted *)
  Cheri.Capability.check_access c Cheri.Capability.Load ~addr:0x1000 ~len:0x100;
  expect_fault "oob" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Capability.check_access c Cheri.Capability.Load ~addr:0x10ff ~len:2);
  expect_fault "below base" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Capability.check_access c Cheri.Capability.Load ~addr:0xfff ~len:1);
  expect_fault "store via ro" Cheri.Fault.Permission_violation (fun () ->
      Cheri.Capability.check_access c Cheri.Capability.Store ~addr:0x1000 ~len:1);
  expect_fault "execute without X" Cheri.Fault.Permission_violation (fun () ->
      Cheri.Capability.check_access c Cheri.Capability.Execute ~addr:0x1000 ~len:4);
  List.iter
    (fun len ->
      expect_fault (Printf.sprintf "load of 0x%x bytes" len)
        Cheri.Fault.Out_of_bounds (fun () ->
          Cheri.Capability.check_access c Cheri.Capability.Load ~addr:0x1000
            ~len))
    (overflowing_lens 0x1000)

let cap_seal_unseal () =
  let c = root_cap () in
  let sealer =
    Cheri.Capability.set_cursor
      (Cheri.Capability.root ~base:0 ~length:64
         ~perms:{ Cheri.Perms.none with Cheri.Perms.seal = true; unseal = true })
      7
  in
  let sealed = Cheri.Capability.seal ~sealer c in
  Alcotest.(check bool) "sealed" true (Cheri.Capability.is_sealed sealed);
  (match Cheri.Capability.otype sealed with
  | Some ot -> Alcotest.(check int) "otype from sealer cursor" 7 (Cheri.Otype.to_int ot)
  | None -> Alcotest.fail "expected an otype");
  expect_fault "deref while sealed" Cheri.Fault.Seal_violation (fun () ->
      Cheri.Capability.check_deref sealed Cheri.Capability.Load ~len:1);
  expect_fault "set_bounds while sealed" Cheri.Fault.Seal_violation (fun () ->
      Cheri.Capability.set_bounds sealed ~base:0x1000 ~length:1);
  let unsealed = Cheri.Capability.unseal ~unsealer:sealer sealed in
  Alcotest.(check bool) "unsealed again" false (Cheri.Capability.is_sealed unsealed);
  Alcotest.(check bool) "equal to original" true (Cheri.Capability.equal unsealed c)

let cap_seal_faults () =
  let c = root_cap () in
  let no_auth = Cheri.Capability.set_cursor (root_cap ()) 0x1000 in
  expect_fault "seal without permission" Cheri.Fault.Permission_violation
    (fun () ->
      Cheri.Capability.seal
        ~sealer:(Cheri.Capability.and_perms no_auth Cheri.Perms.read_only)
        c);
  let sealer =
    Cheri.Capability.set_cursor
      (Cheri.Capability.root ~base:0 ~length:64
         ~perms:{ Cheri.Perms.none with Cheri.Perms.seal = true; unseal = true })
      7
  in
  let sealed = Cheri.Capability.seal ~sealer c in
  let wrong = Cheri.Capability.set_cursor sealer 8 in
  expect_fault "unseal with wrong otype" Cheri.Fault.Unseal_violation (fun () ->
      Cheri.Capability.unseal ~unsealer:wrong sealed);
  expect_fault "unseal of unsealed" Cheri.Fault.Unseal_violation (fun () ->
      Cheri.Capability.unseal ~unsealer:sealer c);
  expect_fault "sealer cursor out of otype space" Cheri.Fault.Out_of_bounds
    (fun () ->
      Cheri.Capability.seal ~sealer:(Cheri.Capability.set_cursor sealer 100) c)

let cap_monotonic_prop =
  QCheck.Test.make ~name:"set_bounds within bounds never amplifies" ~count:300
    QCheck.(triple (int_range 0 0xfff) (int_range 0 0xfff) (int_range 0 0xfff))
    (fun (off, len, _) ->
      let c = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.all in
      if off + len <= 0x1000 then begin
        let d = Cheri.Capability.set_bounds c ~base:(0x1000 + off) ~length:len in
        Cheri.Capability.base d >= Cheri.Capability.base c
        && Cheri.Capability.limit d <= Cheri.Capability.limit c
      end
      else
        match Cheri.Capability.set_bounds c ~base:(0x1000 + off) ~length:len with
        | _ -> false
        | exception Cheri.Fault.Capability_fault _ -> true)

(* ------------------------------------------------------------------ *)
(* Tagged memory                                                        *)
(* ------------------------------------------------------------------ *)

let mem_and_cap () =
  let mem = Cheri.Tagged_memory.create ~size:0x10000 in
  let cap = Cheri.Capability.root ~base:0x100 ~length:0x1000 ~perms:Cheri.Perms.all in
  (mem, cap)

let mem_bytes_roundtrip () =
  let mem, cap = mem_and_cap () in
  Cheri.Tagged_memory.store_bytes mem ~cap ~addr:0x200 (Bytes.of_string "hello");
  Alcotest.(check string) "roundtrip" "hello"
    (Bytes.to_string (Cheri.Tagged_memory.load_bytes mem ~cap ~addr:0x200 ~len:5))

let mem_scalar_accessors () =
  let mem, cap = mem_and_cap () in
  Cheri.Tagged_memory.set_u8 mem ~cap ~addr:0x100 0xAB;
  Alcotest.(check int) "u8" 0xAB (Cheri.Tagged_memory.get_u8 mem ~cap ~addr:0x100);
  Cheri.Tagged_memory.set_u16_be mem ~cap ~addr:0x102 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Cheri.Tagged_memory.get_u16_be mem ~cap ~addr:0x102);
  Cheri.Tagged_memory.set_u32_be mem ~cap ~addr:0x104 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Cheri.Tagged_memory.get_u32_be mem ~cap ~addr:0x104);
  Cheri.Tagged_memory.set_u64_le mem ~cap ~addr:0x108 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L
    (Cheri.Tagged_memory.get_u64_le mem ~cap ~addr:0x108);
  (* big-endian byte order on the wire-facing accessors *)
  Alcotest.(check int) "be order" 0xDE (Cheri.Tagged_memory.get_u8 mem ~cap ~addr:0x104)

let mem_fill () =
  let mem, cap = mem_and_cap () in
  Cheri.Tagged_memory.fill mem ~cap ~addr:0x300 ~len:16 'z';
  Alcotest.(check string) "filled" "zzzz"
    (Bytes.to_string (Cheri.Tagged_memory.load_bytes mem ~cap ~addr:0x30c ~len:4))

let mem_capability_checks () =
  let mem, _ = mem_and_cap () in
  let ro =
    Cheri.Capability.root ~base:0x100 ~length:0x100 ~perms:Cheri.Perms.read_only
  in
  expect_fault "store via ro" Cheri.Fault.Permission_violation (fun () ->
      Cheri.Tagged_memory.store_bytes mem ~cap:ro ~addr:0x100 (Bytes.of_string "x"));
  expect_fault "load oob" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Tagged_memory.load_bytes mem ~cap:ro ~addr:0x1ff ~len:2);
  List.iter
    (fun len ->
      expect_fault (Printf.sprintf "borrow of 0x%x bytes" len)
        Cheri.Fault.Out_of_bounds (fun () ->
          Cheri.Tagged_memory.borrow mem ~cap:ro ~addr:0x100 ~len))
    (overflowing_lens 0x100)

let mem_physical_bounds () =
  let mem = Cheri.Tagged_memory.create ~size:0x100 in
  let over =
    Cheri.Capability.root ~base:0 ~length:0x1000 ~perms:Cheri.Perms.all
  in
  expect_fault "beyond physical memory" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Tagged_memory.load_bytes mem ~cap:over ~addr:0xf0 ~len:0x20)

let mem_cap_store_load () =
  let mem, cap = mem_and_cap () in
  let stored = Cheri.Capability.set_bounds cap ~base:0x400 ~length:0x10 in
  Cheri.Tagged_memory.store_cap mem ~cap ~addr:0x500 stored;
  Alcotest.(check bool) "granule tagged" true (Cheri.Tagged_memory.tag_at mem ~addr:0x500);
  let loaded = Cheri.Tagged_memory.load_cap mem ~cap ~addr:0x500 in
  Alcotest.(check bool) "roundtrip equal" true (Cheri.Capability.equal loaded stored)

let mem_tag_cleared_by_raw_write () =
  let mem, cap = mem_and_cap () in
  let stored = Cheri.Capability.set_bounds cap ~base:0x400 ~length:0x10 in
  Cheri.Tagged_memory.store_cap mem ~cap ~addr:0x500 stored;
  (* A single byte written into the granule invalidates the capability. *)
  Cheri.Tagged_memory.set_u8 mem ~cap ~addr:0x507 0xFF;
  Alcotest.(check bool) "tag gone" false (Cheri.Tagged_memory.tag_at mem ~addr:0x500);
  let loaded = Cheri.Tagged_memory.load_cap mem ~cap ~addr:0x500 in
  Alcotest.(check bool) "load yields untagged" false (Cheri.Capability.is_tagged loaded)

let mem_cap_store_rules () =
  let mem, cap = mem_and_cap () in
  expect_fault "misaligned cap store" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Tagged_memory.store_cap mem ~cap ~addr:0x501 cap);
  let local =
    Cheri.Capability.and_perms cap { Cheri.Perms.all with Cheri.Perms.global = false }
  in
  expect_fault "local cap cannot be stored" Cheri.Fault.Permission_violation
    (fun () -> Cheri.Tagged_memory.store_cap mem ~cap ~addr:0x500 local);
  let no_caps = Cheri.Capability.and_perms cap Cheri.Perms.data in
  expect_fault "store_cap needs permission" Cheri.Fault.Permission_violation
    (fun () -> Cheri.Tagged_memory.store_cap mem ~cap:no_caps ~addr:0x500 cap);
  expect_fault "load_cap needs permission" Cheri.Fault.Permission_violation
    (fun () -> ignore (Cheri.Tagged_memory.load_cap mem ~cap:no_caps ~addr:0x500))

(* Paged backing: two 2 MiB pages under one all-powerful capability. *)
let page = Cheri.Tagged_memory.page_size

let paged () =
  let mem = Cheri.Tagged_memory.create ~size:(2 * page) in
  (mem, Cheri.Capability.root ~base:0 ~length:(2 * page) ~perms:Cheri.Perms.all)

let mem_absent_pages_read_zero () =
  let module M = Cheri.Tagged_memory in
  let mem, cap = paged () in
  let addr = page + 0x100 in
  let resident what n = Alcotest.(check int) what n (M.resident_pages mem) in
  Alcotest.(check string) "load_bytes" (String.make 8 '\000')
    (Bytes.to_string (M.load_bytes mem ~cap ~addr ~len:8));
  Alcotest.(check int) "get_u8" 0 (M.get_u8 mem ~cap ~addr);
  Alcotest.(check int) "get_u16_be" 0 (M.get_u16_be mem ~cap ~addr);
  Alcotest.(check int) "get_u32_be" 0 (M.get_u32_be mem ~cap ~addr);
  Alcotest.(check int64) "get_u64_le" 0L (M.get_u64_le mem ~cap ~addr);
  let dst = Bytes.make 8 'x' in
  M.blit_out mem ~cap ~addr ~dst ~dst_off:0 ~len:8;
  Alcotest.(check string) "blit_out" (String.make 8 '\000') (Bytes.to_string dst);
  Alcotest.(check bool) "load_cap untagged" false
    (Cheri.Capability.is_tagged (M.load_cap mem ~cap ~addr));
  Alcotest.(check bool) "tag_at" false (M.tag_at mem ~addr);
  resident "reads create no page" 0;
  M.fill mem ~cap ~addr:page ~len:page '\000';
  resident "zero fill leaves the page absent" 0;
  M.set_u8 mem ~cap ~addr 1;
  resident "a write creates its page" 1;
  Alcotest.(check int) "and only its page: page 0 still reads zeros" 0
    (M.get_u8 mem ~cap ~addr:0)

(* Bytes [2 MiB - 7, 2 MiB + 8] through every accessor family. *)
let mem_page_boundary_roundtrip () =
  let module M = Cheri.Tagged_memory in
  let mem, cap = paged () in
  let lo = page - 7 and len = 16 in
  let load () = Bytes.to_string (M.load_bytes mem ~cap ~addr:lo ~len) in
  let pattern c0 = String.init len (fun i -> Char.chr (c0 + i)) in
  M.store_bytes mem ~cap ~addr:lo (Bytes.of_string (pattern 0x10));
  Alcotest.(check string) "store_bytes" (pattern 0x10) (load ());
  M.blit_in mem ~cap ~addr:lo ~src:(Bytes.of_string ("..." ^ pattern 0x40))
    ~src_off:3 ~len;
  let dst = Bytes.make (len + 2) '.' in
  M.blit_out mem ~cap ~addr:lo ~dst ~dst_off:2 ~len;
  Alcotest.(check string) "blit_in/blit_out" (".." ^ pattern 0x40)
    (Bytes.to_string dst);
  M.fill mem ~cap ~addr:lo ~len 'q';
  Alcotest.(check string) "fill" (String.make len 'q') (load ());
  for addr = lo to lo + len - 2 do
    M.set_u16_be mem ~cap ~addr 0xbeef;
    Alcotest.(check int) (Printf.sprintf "u16 at %+d" (addr - page)) 0xbeef
      (M.get_u16_be mem ~cap ~addr);
    Alcotest.(check int) "u16 big-endian" 0xbe (M.get_u8 mem ~cap ~addr)
  done;
  for addr = lo to lo + len - 4 do
    M.set_u32_be mem ~cap ~addr 0xdeadbeef;
    Alcotest.(check int) (Printf.sprintf "u32 at %+d" (addr - page)) 0xdeadbeef
      (M.get_u32_be mem ~cap ~addr);
    Alcotest.(check int) "u32 big-endian" 0xef (M.get_u8 mem ~cap ~addr:(addr + 3))
  done;
  for addr = lo to lo + len - 8 do
    M.set_u64_le mem ~cap ~addr 0x1122334455667788L;
    Alcotest.(check int64) (Printf.sprintf "u64 at %+d" (addr - page))
      0x1122334455667788L (M.get_u64_le mem ~cap ~addr);
    Alcotest.(check int) "u64 little-endian" 0x88 (M.get_u8 mem ~cap ~addr);
    Alcotest.(check int) "u64 top byte" 0x11 (M.get_u8 mem ~cap ~addr:(addr + 7))
  done;
  Alcotest.(check int) "both pages resident" 2 (M.resident_pages mem)

let mem_tag_cleared_across_page () =
  let module M = Cheri.Tagged_memory in
  let mem, cap = paged () in
  M.store_cap mem ~cap ~addr:page cap;
  Alcotest.(check bool) "page 1 granule tagged" true (M.tag_at mem ~addr:page);
  M.blit_in mem ~cap ~addr:(page - 8) ~src:(Bytes.make 16 'z') ~src_off:0 ~len:16;
  Alcotest.(check bool) "tag cleared by a blit from page 0" false
    (M.tag_at mem ~addr:page);
  Alcotest.(check bool) "load yields untagged" false
    (Cheri.Capability.is_tagged (M.load_cap mem ~cap ~addr:page))

let mem_borrow_across_page () =
  let module M = Cheri.Tagged_memory in
  let mem, cap = paged () in
  let addr = page - 32 and len = 64 in
  M.store_bytes mem ~cap ~addr (Bytes.init len Char.chr);
  let s = M.borrow mem ~cap ~addr ~len in
  Alcotest.(check string) "same bytes as load_bytes"
    (Bytes.to_string (M.load_bytes mem ~cap ~addr ~len))
    (Bytes.to_string (Dsim.Slice.to_bytes s));
  Alcotest.(check int) "absolute address" addr (Dsim.Slice.absolute s);
  (* Escaping the copied window faults where a per-access check over
     the same window would. *)
  let window = Cheri.Capability.set_bounds cap ~base:addr ~length:len in
  let fault_addr f =
    match f () with
    | _ -> Alcotest.fail "expected a capability fault"
    | exception Cheri.Fault.Capability_fault f ->
      Alcotest.(check bool) "out of bounds" true
        (f.Cheri.Fault.kind = Cheri.Fault.Out_of_bounds);
      f.Cheri.Fault.address
  in
  Alcotest.(check int) "fault address"
    (fault_addr (fun () -> M.get_u8 mem ~cap:window ~addr:(addr + len)))
    (fault_addr (fun () -> Dsim.Slice.get_u8 s len));
  Alcotest.(check bool) "borrow_mut refuses a crossing window" true
    (match M.borrow_mut mem ~cap ~addr ~len with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Inside one page both borrows lend the page itself. *)
  Alcotest.(check bool) "in-page borrows share the page" true
    (Dsim.Slice.base (M.borrow mem ~cap ~addr:page ~len)
    == Dsim.Slice.base (M.borrow_mut mem ~cap ~addr:(page + len) ~len))

let mem_unchecked () =
  let mem, cap = mem_and_cap () in
  Cheri.Tagged_memory.store_bytes mem ~cap ~addr:0x200 (Bytes.of_string "dma!");
  let dst = Bytes.create 4 in
  Cheri.Tagged_memory.unchecked_blit_out mem ~addr:0x200 ~dst ~dst_off:0 ~len:4;
  Alcotest.(check string) "unchecked read" "dma!" (Bytes.to_string dst)

(* ------------------------------------------------------------------ *)
(* Alloc                                                                *)
(* ------------------------------------------------------------------ *)

let alloc_fixture () =
  let mem = Cheri.Tagged_memory.create ~size:0x10000 in
  let region = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.all in
  (mem, Cheri.Alloc.create ~region ())

let alloc_basic () =
  let _, a = alloc_fixture () in
  let c1 = Cheri.Alloc.malloc a 100 in
  let c2 = Cheri.Alloc.malloc a 100 in
  Alcotest.(check int) "c1 length exact" 100 (Cheri.Capability.length c1);
  Alcotest.(check bool) "aligned" true
    (Cheri.Capability.base c1 mod Cheri.Tagged_memory.granule = 0);
  Alcotest.(check bool) "disjoint" true
    (Cheri.Capability.base c2 >= Cheri.Capability.base c1 + 100);
  Alcotest.(check int) "two live" 2 (Cheri.Alloc.allocations a)

let alloc_free_reuse () =
  let _, a = alloc_fixture () in
  let c1 = Cheri.Alloc.malloc a 256 in
  let base1 = Cheri.Capability.base c1 in
  Cheri.Alloc.free a c1;
  let c2 = Cheri.Alloc.malloc a 256 in
  Alcotest.(check int) "freed space reused" base1 (Cheri.Capability.base c2)

(* Pins today's temporal behaviour: [free] only records the revocation
   in the provenance DAG. The freed capability keeps its tag, the next
   [malloc] of the same size gets the same slot, and an in-bounds load
   through the stale capability reads what the new owner stored. A
   revocation mechanism (quarantine plus sweep) would turn that load
   into a fault. *)
let alloc_stale_cap_reads_successor () =
  let mem, a = alloc_fixture () in
  let stale = Cheri.Alloc.malloc a 64 in
  Cheri.Alloc.free a stale;
  let fresh = Cheri.Alloc.malloc a 64 in
  let base = Cheri.Capability.base fresh in
  Alcotest.(check int) "same base" (Cheri.Capability.base stale) base;
  Alcotest.(check bool) "stale equals fresh" true
    (Cheri.Capability.equal stale fresh);
  Alcotest.(check bool) "stale still tagged" true
    (Cheri.Capability.is_tagged stale);
  Cheri.Tagged_memory.store_bytes mem ~cap:fresh ~addr:base
    (Bytes.of_string "SECRET");
  Alcotest.(check string) "stale load reads the new owner's bytes" "SECRET"
    (Bytes.to_string
       (Cheri.Tagged_memory.load_bytes mem ~cap:stale ~addr:base ~len:6))

let alloc_double_free () =
  let _, a = alloc_fixture () in
  let c = Cheri.Alloc.malloc a 64 in
  Cheri.Alloc.free a c;
  Alcotest.(check bool) "double free raises" true
    (match Cheri.Alloc.free a c with
    | () -> false
    | exception Invalid_argument _ -> true)

let alloc_oom () =
  let _, a = alloc_fixture () in
  Alcotest.(check bool) "oom raises" true
    (match Cheri.Alloc.malloc a 0x2000 with
    | _ -> false
    | exception Out_of_memory -> true)

let alloc_coalesce () =
  let _, a = alloc_fixture () in
  let c1 = Cheri.Alloc.malloc a 0x700 in
  let c2 = Cheri.Alloc.malloc a 0x700 in
  (* Neither hole alone fits 0xE00; after coalescing both do. *)
  Cheri.Alloc.free a c1;
  Cheri.Alloc.free a c2;
  let big = Cheri.Alloc.malloc a 0xE00 in
  Alcotest.(check int) "coalesced allocation" 0xE00 (Cheri.Capability.length big)

let alloc_calloc_zeroes () =
  let mem, a = alloc_fixture () in
  (* Dirty the memory first through a root capability. *)
  let root = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.all in
  Cheri.Tagged_memory.fill mem ~cap:root ~addr:0x1000 ~len:0x100 'x';
  let c = Cheri.Alloc.calloc a mem 64 in
  let b = Cheri.Tagged_memory.load_bytes mem ~cap:c ~addr:(Cheri.Capability.base c) ~len:64 in
  Alcotest.(check bool) "zeroed" true (Bytes.for_all (fun ch -> ch = '\000') b)

let alloc_accounting () =
  let _, a = alloc_fixture () in
  let before_free = Cheri.Alloc.free_bytes a in
  let c = Cheri.Alloc.malloc a 100 in
  Alcotest.(check int) "live rounds to granule" 112 (Cheri.Alloc.live_bytes a);
  Alcotest.(check int) "free shrank" (before_free - 112) (Cheri.Alloc.free_bytes a);
  Cheri.Alloc.free a c;
  Alcotest.(check int) "live back to zero" 0 (Cheri.Alloc.live_bytes a)

let alloc_no_overlap_prop =
  QCheck.Test.make ~name:"allocations never overlap" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let _, a = alloc_fixture () in
      let caps =
        List.filter_map
          (fun n -> match Cheri.Alloc.malloc a n with c -> Some c | exception Out_of_memory -> None)
          sizes
      in
      let ranges =
        List.map (fun c -> (Cheri.Capability.base c, Cheri.Capability.limit c)) caps
      in
      List.for_all
        (fun (b1, l1) ->
          List.for_all
            (fun (b2, l2) -> (b1, l1) = (b2, l2) || l1 <= b2 || l2 <= b1)
            ranges)
        ranges)

(* ------------------------------------------------------------------ *)
(* Compartment / Otype                                                  *)
(* ------------------------------------------------------------------ *)

let compartment_ddc () =
  let mem = Cheri.Tagged_memory.create ~size:0x10000 in
  let ddc = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.read_write in
  let pcc = Cheri.Capability.root ~base:0x1000 ~length:0x1000 ~perms:Cheri.Perms.execute_only in
  let c = Cheri.Compartment.make ~ddc ~pcc in
  Cheri.Compartment.store_bytes c mem ~addr:0x1100 (Bytes.of_string "in");
  Alcotest.(check string) "in-bounds access" "in"
    (Bytes.to_string (Cheri.Compartment.load_bytes c mem ~addr:0x1100 ~len:2));
  Alcotest.(check bool) "can_access inside" true
    (Cheri.Compartment.can_access c ~addr:0x1100 ~len:2 ~write:true);
  Alcotest.(check bool) "can_access outside" false
    (Cheri.Compartment.can_access c ~addr:0x3000 ~len:1 ~write:false);
  expect_fault "hybrid access outside DDC" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Compartment.load_bytes c mem ~addr:0x3000 ~len:1);
  Cheri.Compartment.check_fetch c ~addr:0x1000;
  expect_fault "fetch outside PCC" Cheri.Fault.Out_of_bounds (fun () ->
      Cheri.Compartment.check_fetch c ~addr:0x5000)

let otype_allocator () =
  let a = Cheri.Otype.allocator () in
  let o1 = Cheri.Otype.fresh a and o2 = Cheri.Otype.fresh a in
  Alcotest.(check bool) "fresh otypes distinct" false (Cheri.Otype.equal o1 o2);
  Alcotest.(check bool) "of_int_exn rejects negatives" true
    (match Cheri.Otype.of_int_exn (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "perms: lattice" `Quick perms_lattice;
    Alcotest.test_case "perms: printing" `Quick perms_pp;
    Alcotest.test_case "capability: root fields" `Quick cap_root_fields;
    Alcotest.test_case "capability: null" `Quick cap_null;
    Alcotest.test_case "capability: set_bounds shrink" `Quick cap_set_bounds_shrink;
    Alcotest.test_case "capability: set_bounds monotonicity" `Quick cap_set_bounds_monotonic;
    Alcotest.test_case "capability: and_perms monotonicity" `Quick cap_and_perms_monotonic;
    Alcotest.test_case "capability: cursor & representability" `Quick cap_cursor;
    Alcotest.test_case "capability: derive" `Quick cap_derive;
    Alcotest.test_case "capability: access fault taxonomy" `Quick cap_check_access_faults;
    Alcotest.test_case "capability: seal/unseal roundtrip" `Quick cap_seal_unseal;
    Alcotest.test_case "capability: sealing faults" `Quick cap_seal_faults;
    QCheck_alcotest.to_alcotest cap_monotonic_prop;
    Alcotest.test_case "memory: byte roundtrip" `Quick mem_bytes_roundtrip;
    Alcotest.test_case "memory: scalar accessors" `Quick mem_scalar_accessors;
    Alcotest.test_case "memory: fill" `Quick mem_fill;
    Alcotest.test_case "memory: capability checks" `Quick mem_capability_checks;
    Alcotest.test_case "memory: physical bounds" `Quick mem_physical_bounds;
    Alcotest.test_case "memory: capability store/load" `Quick mem_cap_store_load;
    Alcotest.test_case "memory: raw write clears tag" `Quick mem_tag_cleared_by_raw_write;
    Alcotest.test_case "memory: capability store rules" `Quick mem_cap_store_rules;
    Alcotest.test_case "memory: unchecked DMA path" `Quick mem_unchecked;
    Alcotest.test_case "memory: absent pages read zeros" `Quick
      mem_absent_pages_read_zero;
    Alcotest.test_case "memory: page boundary round trips" `Quick
      mem_page_boundary_roundtrip;
    Alcotest.test_case "memory: tags cleared across a page" `Quick
      mem_tag_cleared_across_page;
    Alcotest.test_case "memory: borrows across a page" `Quick
      mem_borrow_across_page;
    Alcotest.test_case "alloc: basic carving" `Quick alloc_basic;
    Alcotest.test_case "alloc: free and reuse" `Quick alloc_free_reuse;
    Alcotest.test_case "alloc: freed cap reads the next owner" `Quick
      alloc_stale_cap_reads_successor;
    Alcotest.test_case "alloc: double free" `Quick alloc_double_free;
    Alcotest.test_case "alloc: out of memory" `Quick alloc_oom;
    Alcotest.test_case "alloc: coalescing" `Quick alloc_coalesce;
    Alcotest.test_case "alloc: calloc zeroes" `Quick alloc_calloc_zeroes;
    Alcotest.test_case "alloc: accounting" `Quick alloc_accounting;
    QCheck_alcotest.to_alcotest alloc_no_overlap_prop;
    Alcotest.test_case "compartment: DDC/PCC enforcement" `Quick compartment_ddc;
    Alcotest.test_case "otype: allocator" `Quick otype_allocator;
  ]
