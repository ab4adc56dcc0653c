type t = {
  name : string;
  id : int;
  region : Cheri.Capability.t;
  compartment : Cheri.Compartment.t;
  heap : Cheri.Alloc.t;
  entry_otype : Cheri.Otype.t;
  sealed_entry : Cheri.Capability.t;
  mutable trampolines : int;
  tramp_metric : Dsim.Metrics.counter;
  heap_metric : Dsim.Metrics.gauge;
}

let make ~name ~id ~region ~entry_otype ~sealed_entry =
  let ddc = Cheri.Capability.and_perms region Cheri.Perms.read_write in
  let pcc = Cheri.Capability.and_perms region Cheri.Perms.execute_only in
  Cheri.Provenance.record_derive ~label:"ddc" ~parent:region ddc;
  Cheri.Provenance.record_derive ~label:"pcc" ~parent:region pcc;
  (* Per-compartment accounting: the series exist (at zero) from the
     moment the cVM does, so a run that never faults still reports it. *)
  Cheri.Fault.register_compartment name;
  let tramp_metric =
    Dsim.Metrics.counter Dsim.Metrics.default
      ~help:"Domain crossings through the Intravisor trampoline, per compartment."
      ~labels:[ ("cvm", name) ] "trampoline_crossings_total"
  in
  let heap_metric =
    Dsim.Metrics.gauge Dsim.Metrics.default
      ~help:"Live bytes in the compartment heap." ~labels:[ ("cvm", name) ]
      "cvm_heap_live_bytes"
  in
  {
    name;
    id;
    region;
    compartment = Cheri.Compartment.make ~ddc ~pcc;
    heap = Cheri.Alloc.create ~region:ddc ();
    entry_otype;
    sealed_entry;
    trampolines = 0;
    tramp_metric;
    heap_metric;
  }

let name t = t.name
let id t = t.id
let region t = t.region
let compartment t = t.compartment
let entry_otype t = t.entry_otype
let sealed_entry t = t.sealed_entry
let heap_live_bytes t = Cheri.Alloc.live_bytes t.heap
let sync_heap_metric t = Dsim.Metrics.set t.heap_metric (heap_live_bytes t)

let malloc t ?perms n =
  let cap = Cheri.Alloc.malloc t.heap ?perms n in
  sync_heap_metric t;
  cap

let calloc t ?perms mem n =
  let cap = Cheri.Alloc.calloc t.heap ?perms mem n in
  sync_heap_metric t;
  cap

let free t cap =
  Cheri.Alloc.free t.heap cap;
  sync_heap_metric t

let sub_region t ~size =
  let cap = Cheri.Alloc.malloc t.heap size in
  sync_heap_metric t;
  cap

let note_trampoline t =
  t.trampolines <- t.trampolines + 1;
  Dsim.Metrics.incr t.tramp_metric
let trampoline_calls t = t.trampolines
let can_access t ~addr ~len ~write = Cheri.Compartment.can_access t.compartment ~addr ~len ~write

let pp fmt t =
  Format.fprintf fmt "cVM%d(%s) region=[0x%x,+0x%x) heap_live=%d tramp=%d" t.id
    t.name
    (Cheri.Capability.base t.region)
    (Cheri.Capability.length t.region)
    (heap_live_bytes t) t.trampolines
