(* Syscall accounting is pre-registered per syscall number so the hot
   measurement loops (two clock_gettime per iteration) update a counter
   without any lookup or allocation. *)
let sc_slots =
  [|
    Syscall.Clock_gettime;
    Syscall.Nanosleep Dsim.Time.zero;
    Syscall.Futex_wait;
    Syscall.Futex_wake;
    Syscall.Umtx_wait;
    Syscall.Umtx_wake;
    Syscall.Write_console 0;
    Syscall.Getpid;
  |]

let sc_index = function
  | Syscall.Clock_gettime -> 0
  | Syscall.Nanosleep _ -> 1
  | Syscall.Futex_wait -> 2
  | Syscall.Futex_wake -> 3
  | Syscall.Umtx_wait -> 4
  | Syscall.Umtx_wake -> 5
  | Syscall.Write_console _ -> 6
  | Syscall.Getpid -> 7

type t = {
  engine : Dsim.Engine.t;
  cost : Dsim.Cost_model.t;
  mutable served : int;
  sc_counters : Dsim.Metrics.counter array;
}

let create engine ~cost =
  {
    engine;
    cost;
    served = 0;
    sc_counters =
      Array.map
        (fun sc ->
          Dsim.Metrics.counter Dsim.Metrics.default
            ~help:"Syscalls served by the host kernel, by number."
            ~labels:[ ("nr", Syscall.name sc) ]
            "syscalls_total")
        sc_slots;
  }

let clock_monotonic_raw t = Dsim.Engine.now t.engine
let syscall_body_ns t sc = Syscall.kernel_cost_ns t.cost sc
let svc_entry_exit_ns t = t.cost.Dsim.Cost_model.mmu_syscall_extra_ns
let syscalls_served t = t.served

let count_syscall t sc =
  t.served <- t.served + 1;
  Dsim.Metrics.incr t.sc_counters.(sc_index sc)
