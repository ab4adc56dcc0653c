(* Tests for the CAP-VM layer: Intravisor, cVMs, trampolines, syscall
   proxying, the umtx mutex and the musl shim. *)

(* Every event is scheduled under a profiler label; these tests need
   only one. *)
let k_test =
  Dsim.Profile.key Dsim.Profile.default ~component:"test" ~cvm:"-"
    ~stage:"event"

let make_iv ?(mem_size = 4 * 1024 * 1024) () =
  let engine = Dsim.Engine.create () in
  (engine, Capvm.Intravisor.create engine ~mem_size ~cost:Dsim.Cost_model.default)

(* ------------------------------------------------------------------ *)
(* Intravisor / cVMs                                                    *)
(* ------------------------------------------------------------------ *)

let cvm_regions_disjoint () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let b = Capvm.Intravisor.create_cvm iv ~name:"b" ~size:0x10000 in
  let ra = Capvm.Cvm.region a and rb = Capvm.Cvm.region b in
  Alcotest.(check bool) "disjoint" true
    (Cheri.Capability.limit ra <= Cheri.Capability.base rb
    || Cheri.Capability.limit rb <= Cheri.Capability.base ra);
  Alcotest.(check int) "two cvms listed" 2 (List.length (Capvm.Intravisor.cvms iv));
  Alcotest.(check bool) "distinct ids" true (Capvm.Cvm.id a <> Capvm.Cvm.id b)

let cvm_no_sealing_authority () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let p = Cheri.Capability.perms (Capvm.Cvm.region a) in
  Alcotest.(check bool) "no seal" false p.Cheri.Perms.seal;
  Alcotest.(check bool) "no unseal" false p.Cheri.Perms.unseal

let cvm_confinement () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let b = Capvm.Intravisor.create_cvm iv ~name:"b" ~size:0x10000 in
  let b_base = Cheri.Capability.base (Capvm.Cvm.region b) in
  Alcotest.(check bool) "a cannot reach b" false
    (Capvm.Cvm.can_access a ~addr:b_base ~len:1 ~write:false);
  let a_base = Cheri.Capability.base (Capvm.Cvm.region a) in
  Alcotest.(check bool) "a reaches itself" true
    (Capvm.Cvm.can_access a ~addr:a_base ~len:16 ~write:true)

let cvm_heap () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let buf = Capvm.Cvm.malloc a 256 in
  Alcotest.(check bool) "buffer inside region" true
    (Cheri.Capability.base buf >= Cheri.Capability.base (Capvm.Cvm.region a)
    && Cheri.Capability.limit buf <= Cheri.Capability.limit (Capvm.Cvm.region a));
  Alcotest.(check int) "live accounting" 256 (Capvm.Cvm.heap_live_bytes a);
  Capvm.Cvm.free a buf;
  Alcotest.(check int) "freed" 0 (Capvm.Cvm.heap_live_bytes a);
  let z = Capvm.Cvm.calloc a (Capvm.Intravisor.mem iv) 64 in
  let b =
    Cheri.Tagged_memory.load_bytes (Capvm.Intravisor.mem iv) ~cap:z
      ~addr:(Cheri.Capability.base z) ~len:64
  in
  Alcotest.(check bool) "calloc zeroes" true (Bytes.for_all (fun c -> c = '\000') b)

let trampoline_mechanics () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let result, cost = Capvm.Intravisor.trampoline iv ~into:a (fun () -> 40 + 2) in
  Alcotest.(check int) "body ran" 42 result;
  Alcotest.(check (float 0.01)) "cost is a round trip"
    (Capvm.Intravisor.trampoline_cost_ns iv) cost;
  Alcotest.(check int) "jumps counted" 2 (Capvm.Intravisor.total_trampolines iv);
  Alcotest.(check int) "per-cvm count" 1 (Capvm.Cvm.trampoline_calls a)

let trampoline_rejects_forged_entry () =
  let _, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let b = Capvm.Intravisor.create_cvm iv ~name:"b" ~size:0x10000 in
  (* Swap b's otype under a forged cvm record: unsealing must fail
     because the sealed entry was made with a's otype. *)
  let forged =
    Capvm.Cvm.make ~name:"forged" ~id:99 ~region:(Capvm.Cvm.region b)
      ~entry_otype:(Capvm.Cvm.entry_otype b)
      ~sealed_entry:(Capvm.Cvm.sealed_entry a)
  in
  Alcotest.(check bool) "wrong-otype entry traps" true
    (match Capvm.Intravisor.trampoline iv ~into:forged (fun () -> ()) with
    | _ -> false
    | exception Cheri.Fault.Capability_fault f ->
      f.Cheri.Fault.kind = Cheri.Fault.Unseal_violation)

(* ------------------------------------------------------------------ *)
(* Syscalls                                                             *)
(* ------------------------------------------------------------------ *)

let syscall_translation () =
  Alcotest.(check string) "futex wait -> umtx" "_umtx_op(WAIT)"
    (Capvm.Syscall.name (Capvm.Syscall.translate_musl Capvm.Syscall.Futex_wait));
  Alcotest.(check string) "futex wake -> umtx" "_umtx_op(WAKE)"
    (Capvm.Syscall.name (Capvm.Syscall.translate_musl Capvm.Syscall.Futex_wake));
  Alcotest.(check string) "clock passes through" "clock_gettime"
    (Capvm.Syscall.name (Capvm.Syscall.translate_musl Capvm.Syscall.Clock_gettime))

let syscall_paths () =
  let engine, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  Dsim.Engine.schedule engine ~delay:(Dsim.Time.us 5) ~label:k_test
    (fun () -> ());
  Dsim.Engine.run engine;
  (* cVM path: trampolines + kernel body. *)
  let v, cvm_cost = Capvm.Intravisor.syscall iv ~from:a Capvm.Syscall.Clock_gettime in
  (match v with
  | Capvm.Intravisor.Vtime t -> Alcotest.(check int) "clock value" 5_000 t
  | _ -> Alcotest.fail "expected a time");
  (* Baseline path: SVC entry/exit only. *)
  let _, direct_cost = Capvm.Intravisor.direct_syscall iv Capvm.Syscall.Clock_gettime in
  Alcotest.(check bool) "cvm path is more expensive" true (cvm_cost > direct_cost);
  let cm = Capvm.Intravisor.cost_model iv in
  Alcotest.(check (float 0.01)) "difference is trampolines minus svc"
    (Capvm.Intravisor.trampoline_cost_ns iv -. cm.Dsim.Cost_model.mmu_syscall_extra_ns)
    (cvm_cost -. direct_cost);
  Alcotest.(check int) "host counted both" 2
    (Capvm.Host_os.syscalls_served (Capvm.Intravisor.host iv))

let musl_shim_calls () =
  let engine, iv = make_iv () in
  let a = Capvm.Intravisor.create_cvm iv ~name:"a" ~size:0x10000 in
  let shim = Capvm.Musl_shim.create iv a in
  Dsim.Engine.schedule engine ~delay:(Dsim.Time.us 3) ~label:k_test
    (fun () -> ());
  Dsim.Engine.run engine;
  let t, cost = Capvm.Musl_shim.clock_gettime shim in
  Alcotest.(check int) "time value" 3_000 t;
  Alcotest.(check bool) "cost positive" true (cost > 0.);
  let pid, _ = Capvm.Musl_shim.getpid shim in
  Alcotest.(check int) "pid" 1 pid;
  ignore (Capvm.Musl_shim.futex_wake shim);
  ignore (Capvm.Musl_shim.write_console shim "boot");
  Alcotest.(check int) "calls counted" 4 (Capvm.Musl_shim.calls shim)

(* ------------------------------------------------------------------ *)
(* Umtx                                                                 *)
(* ------------------------------------------------------------------ *)

let umtx_uncontended () =
  let engine = Dsim.Engine.create () in
  let mu = Capvm.Umtx.create engine () in
  let granted = ref false in
  Capvm.Umtx.acquire mu ~owner:"a" (fun ~wait_ns ->
      granted := true;
      Alcotest.(check (float 0.)) "no wait" 0. wait_ns);
  Alcotest.(check bool) "granted immediately" true !granted;
  Alcotest.(check bool) "locked" true (Capvm.Umtx.locked mu);
  Alcotest.(check (option string)) "holder" (Some "a") (Capvm.Umtx.holder mu);
  Capvm.Umtx.release mu;
  Alcotest.(check bool) "released" false (Capvm.Umtx.locked mu);
  Alcotest.(check int) "one acquisition" 1 (Capvm.Umtx.acquisitions mu);
  Alcotest.(check int) "no contention" 0 (Capvm.Umtx.contended_acquisitions mu)

let umtx_contended_wait () =
  let engine = Dsim.Engine.create () in
  let mu = Capvm.Umtx.create engine ~wake_ns:100. () in
  Capvm.Umtx.acquire mu ~owner:"loop" (fun ~wait_ns:_ -> ());
  let waited = ref (-1.) in
  Capvm.Umtx.acquire mu ~owner:"app" (fun ~wait_ns -> waited := wait_ns);
  Alcotest.(check int) "queued" 1 (Capvm.Umtx.waiters mu);
  (* Hold for 5us of simulated time, then release. *)
  Dsim.Engine.schedule engine ~delay:(Dsim.Time.us 5) ~label:k_test
    (fun () -> Capvm.Umtx.release mu);
  Dsim.Engine.run engine;
  Alcotest.(check (float 1.)) "waited hold + wake" 5_100. !waited;
  Alcotest.(check (option string)) "handed off" (Some "app") (Capvm.Umtx.holder mu);
  Alcotest.(check int) "contended counted" 1 (Capvm.Umtx.contended_acquisitions mu);
  Alcotest.(check bool) "total wait accumulated" true (Capvm.Umtx.total_wait_ns mu > 0.)

let umtx_policies () =
  let order policy =
    let engine = Dsim.Engine.create () in
    let mu = Capvm.Umtx.create engine ~policy ~wake_ns:0. () in
    let log = ref [] in
    Capvm.Umtx.acquire mu ~owner:"holder" (fun ~wait_ns:_ -> ());
    List.iter
      (fun name ->
        Capvm.Umtx.acquire mu ~owner:name (fun ~wait_ns:_ ->
            log := name :: !log;
            Capvm.Umtx.release mu))
      [ "first"; "second"; "third" ];
    Capvm.Umtx.release mu;
    Dsim.Engine.run engine;
    List.rev !log
  in
  Alcotest.(check (list string)) "fifo order" [ "first"; "second"; "third" ]
    (order Capvm.Umtx.Fifo);
  Alcotest.(check (list string)) "barging (LIFO) order" [ "third"; "second"; "first" ]
    (order Capvm.Umtx.Barging)

let umtx_try_acquire () =
  let engine = Dsim.Engine.create () in
  let mu = Capvm.Umtx.create engine () in
  Alcotest.(check bool) "free try succeeds" true (Capvm.Umtx.try_acquire mu ~owner:"a");
  Alcotest.(check bool) "held try fails" false (Capvm.Umtx.try_acquire mu ~owner:"b");
  Capvm.Umtx.release mu;
  Alcotest.(check bool) "release of unheld raises" true
    (match Capvm.Umtx.release mu with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "cvm: regions disjoint" `Quick cvm_regions_disjoint;
    Alcotest.test_case "cvm: no sealing authority" `Quick cvm_no_sealing_authority;
    Alcotest.test_case "cvm: DDC confinement" `Quick cvm_confinement;
    Alcotest.test_case "cvm: heap allocation" `Quick cvm_heap;
    Alcotest.test_case "trampoline: mechanics + accounting" `Quick trampoline_mechanics;
    Alcotest.test_case "trampoline: forged entry rejected" `Quick trampoline_rejects_forged_entry;
    Alcotest.test_case "syscall: musl translation" `Quick syscall_translation;
    Alcotest.test_case "syscall: cvm vs baseline cost" `Quick syscall_paths;
    Alcotest.test_case "musl shim: calls + clock" `Quick musl_shim_calls;
    Alcotest.test_case "umtx: uncontended" `Quick umtx_uncontended;
    Alcotest.test_case "umtx: contended wait accounting" `Quick umtx_contended_wait;
    Alcotest.test_case "umtx: hand-off policies" `Quick umtx_policies;
    Alcotest.test_case "umtx: try_acquire/release errors" `Quick umtx_try_acquire;
  ]
