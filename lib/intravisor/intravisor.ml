type t = {
  engine : Dsim.Engine.t;
  mem : Cheri.Tagged_memory.t;
  host : Host_os.t;
  cost : Dsim.Cost_model.t;
  root : Cheri.Capability.t;
  sealer : Cheri.Capability.t;
  otypes : Cheri.Otype.allocator;
  region_alloc : Cheri.Alloc.t;
  mutable cvms : Cvm.t list;
  mutable next_id : int;
  mutable trampolines : int;
  (* Round-trip crossings grouped by the calling compartment's fault
     context: the per-tenant attribution a fleet of app cVMs sharing
     one stack cVM needs ([total_trampolines] only says how busy the
     boundary is, not who drove it). *)
  crossings_by_caller : (string, int ref) Hashtbl.t;
}

(* The otype space is disjoint from data addresses; 1024 entry otypes
   is plenty for a handful of cVMs. *)
let otype_space = 1024

let create engine ~mem_size ~cost =
  let mem = Cheri.Tagged_memory.create ~size:mem_size in
  let root =
    Cheri.Capability.root ~base:0 ~length:mem_size ~perms:Cheri.Perms.all
  in
  let sealer =
    Cheri.Capability.root ~base:0 ~length:otype_space
      ~perms:{ Cheri.Perms.none with seal = true; unseal = true }
  in
  Cheri.Provenance.record_mint root ~owner:"intravisor" ~label:"root";
  Cheri.Provenance.record_mint sealer ~owner:"intravisor" ~label:"sealer";
  {
    engine;
    mem;
    host = Host_os.create engine ~cost;
    cost;
    root;
    sealer;
    otypes = Cheri.Otype.allocator ();
    region_alloc = Cheri.Alloc.create ~region:root ();
    cvms = [];
    next_id = 1;
    trampolines = 0;
    crossings_by_caller = Hashtbl.create 64;
  }

let note_crossing t ~caller =
  match Hashtbl.find_opt t.crossings_by_caller caller with
  | Some r -> r := !r + 2 (* in + out *)
  | None -> Hashtbl.replace t.crossings_by_caller caller (ref 2)

let mem t = t.mem
let host t = t.host
let cost_model t = t.cost
let cvms t = t.cvms
let seal_authority t = t.sealer

let create_cvm t ~name ~size =
  (* cVMs never receive sealing authority: strip seal/unseal from the
     region before handing it out, so no capability derivable inside the
     compartment can unseal an entry. *)
  let cvm_perms =
    { Cheri.Perms.all with Cheri.Perms.seal = false; unseal = false }
  in
  let raw_region = Cheri.Alloc.malloc t.region_alloc size in
  let region = Cheri.Capability.and_perms raw_region cvm_perms in
  (* The region is the cVM's endowment: derive + grant are what the
     confinement checker later matches exercises against. *)
  Cheri.Provenance.record_derive ~owner:name ~label:"region"
    ~parent:raw_region region;
  Cheri.Provenance.record_grant region ~cvm:name;
  let entry_otype = Cheri.Otype.fresh t.otypes in
  (* The entry point is an execute capability at the region base, sealed
     with the cVM's otype; only the Intravisor's authority unseals it. *)
  let entry =
    Cheri.Capability.and_perms region Cheri.Perms.execute_only
  in
  Cheri.Provenance.record_derive ~label:"entry" ~parent:region entry;
  let sealing_cap =
    Cheri.Capability.set_cursor t.sealer (Cheri.Otype.to_int entry_otype)
  in
  let sealed_entry = Cheri.Capability.seal ~sealer:sealing_cap entry in
  Cheri.Provenance.record_seal ~parent:entry sealed_entry;
  let cvm = Cvm.make ~name ~id:t.next_id ~region ~entry_otype ~sealed_entry in
  t.next_id <- t.next_id + 1;
  t.cvms <- t.cvms @ [ cvm ];
  cvm

let trampoline_cost_ns t = 2. *. t.cost.Dsim.Cost_model.tramp_oneway_ns

let trampoline t ?(flow = None) ~into f =
  Dsim.Flowtrace.hop flow Tramp_in ~at:(Dsim.Engine.now t.engine);
  (* The control transfer: unseal the target entry with the Intravisor
     authority (this is where a forged entry capability faults), check
     it is executable, then run the body in the target compartment. *)
  let unsealer =
    Cheri.Capability.set_cursor t.sealer
      (Cheri.Otype.to_int (Cvm.entry_otype into))
  in
  let entry = Cheri.Capability.unseal ~unsealer (Cvm.sealed_entry into) in
  Cheri.Provenance.record_unseal ~parent:(Cvm.sealed_entry into) entry;
  Cheri.Capability.check_access entry Cheri.Capability.Execute
    ~addr:(Cheri.Capability.base entry) ~len:4;
  t.trampolines <- t.trampolines + 2 (* in + out *);
  Cvm.note_trampoline into;
  (* Run the body under the target compartment's fault-attribution
     context; restored even when the body traps. The open crossing is
     what lets the confinement checker explain the callee touching the
     caller's buffers (e.g. cVM2's app buffer inside cVM1's stack). *)
  let saved = Cheri.Fault.current_context () in
  note_crossing t ~caller:saved;
  Cheri.Provenance.crossing_begin ~from_cvm:saved ~into:(Cvm.name into);
  Cheri.Fault.set_context (Cvm.name into);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Cheri.Fault.set_context saved;
        Cheri.Provenance.crossing_end ())
      f
  in
  (result, trampoline_cost_ns t)

let total_trampolines t = t.trampolines

let crossings_from t ~caller =
  match Hashtbl.find_opt t.crossings_by_caller caller with
  | Some r -> !r
  | None -> 0

type sys_value = Vtime of Dsim.Time.t | Vint of int | Vunit

let execute_kernel t sc =
  Host_os.count_syscall t.host sc;
  let value =
    match sc with
    | Syscall.Clock_gettime -> Vtime (Host_os.clock_monotonic_raw t.host)
    | Syscall.Getpid -> Vint 1
    | Syscall.Nanosleep _ | Syscall.Futex_wait | Syscall.Futex_wake
    | Syscall.Umtx_wait | Syscall.Umtx_wake | Syscall.Write_console _ -> Vunit
  in
  (value, Host_os.syscall_body_ns t.host sc)

let syscall t ~from sc =
  Cvm.note_trampoline from;
  t.trampolines <- t.trampolines + 2;
  note_crossing t ~caller:(Cvm.name from);
  let translated = Syscall.translate_musl sc in
  let value, body_ns = execute_kernel t translated in
  (value, trampoline_cost_ns t +. body_ns)

let direct_syscall t sc =
  let value, body_ns = execute_kernel t sc in
  (value, Host_os.svc_entry_exit_ns t.host +. body_ns)
