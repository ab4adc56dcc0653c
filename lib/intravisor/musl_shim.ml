(* Chaos hook for transient syscall failure: [should_fail ~attempt]
   decides whether attempt N (0-based) of one logical call gets EINTR
   back; [note_recovery] fires once the call finally succeeds. *)
type transient = {
  should_fail : attempt:int -> bool;
  note_recovery : retries:int -> backoff_ns:float -> unit;
}

type t = {
  iv : Intravisor.t;
  cvm : Cvm.t;
  mutable calls : int;
  mutable transient : transient option;
  retry_metric : Dsim.Metrics.counter;
}

let create iv cvm =
  {
    iv;
    cvm;
    calls = 0;
    transient = None;
    retry_metric =
      Dsim.Metrics.counter Dsim.Metrics.default
        ~help:"Syscalls retried after a transient (EINTR-class) failure."
        ~labels:[ ("cvm", Cvm.name cvm) ]
        "musl_eintr_retries_total";
  }

let set_transient t tr = t.transient <- tr

(* musl's TEMP_FAILURE_RETRY discipline, with a small exponential
   backoff so a burst of EINTRs does not spin the trampoline path. *)
let max_attempts = 16
let backoff_base_ns = 500.

let invoke t sc =
  t.calls <- t.calls + 1;
  (* The shim is a boundary crossing like the trampoline: the syscall
     transfers control (and argument buffers) into the Intravisor. *)
  Cheri.Provenance.record_transfer ~from_cvm:(Cvm.name t.cvm)
    ~into:"intravisor";
  match t.transient with
  | None -> Intravisor.syscall t.iv ~from:t.cvm sc
  | Some tr ->
    (* Each failed attempt pays the full trampoline round trip (the call
       reached the Intravisor and came back -EINTR without running the
       kernel body) plus its backoff before the retry. *)
    let rec go attempt extra_ns =
      if attempt < max_attempts - 1 && tr.should_fail ~attempt then begin
        Dsim.Metrics.incr t.retry_metric;
        let backoff =
          backoff_base_ns *. float_of_int (1 lsl min attempt 6)
        in
        go (attempt + 1)
          (extra_ns +. Intravisor.trampoline_cost_ns t.iv +. backoff)
      end
      else begin
        let v, cost = Intravisor.syscall t.iv ~from:t.cvm sc in
        if attempt > 0 then
          tr.note_recovery ~retries:attempt ~backoff_ns:extra_ns;
        (v, cost +. extra_ns)
      end
    in
    go 0 0.

let clock_gettime t =
  match invoke t Syscall.Clock_gettime with
  | Intravisor.Vtime time, cost -> (time, cost)
  | (Intravisor.Vint _ | Intravisor.Vunit), _ ->
    invalid_arg "musl clock_gettime: kernel returned a non-time value"

let getpid t =
  match invoke t Syscall.Getpid with
  | Intravisor.Vint pid, cost -> (pid, cost)
  | (Intravisor.Vtime _ | Intravisor.Vunit), _ ->
    invalid_arg "musl getpid: kernel returned a non-int value"

let futex_wake t = snd (invoke t Syscall.Futex_wake)
let write_console t s = snd (invoke t (Syscall.Write_console (String.length s)))
let calls t = t.calls
