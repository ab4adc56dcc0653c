type event =
  | Mint
  | Derive
  | Seal
  | Unseal
  | Grant
  | Transfer
  | Exercise
  | Revoke
  | Restore
  | Chaos_injection

let all_events =
  [
    Mint; Derive; Seal; Unseal; Grant; Transfer; Exercise; Revoke; Restore;
    Chaos_injection;
  ]

let event_index = function
  | Mint -> 0
  | Derive -> 1
  | Seal -> 2
  | Unseal -> 3
  | Grant -> 4
  | Transfer -> 5
  | Exercise -> 6
  | Revoke -> 7
  | Restore -> 8
  | Chaos_injection -> 9

let event_name = function
  | Mint -> "mint"
  | Derive -> "derive"
  | Seal -> "seal"
  | Unseal -> "unseal"
  | Grant -> "grant"
  | Transfer -> "transfer"
  | Exercise -> "exercise"
  | Revoke -> "revoke"
  | Restore -> "restore"
  | Chaos_injection -> "chaos_injection"

type violation_kind =
  | Bounds_widening
  | Perm_widening
  | Revoked_parent
  | Confinement
  | Hw_fault

let violation_kind_name = function
  | Bounds_widening -> "bounds_widening"
  | Perm_widening -> "perm_widening"
  | Revoked_parent -> "revoked_parent"
  | Confinement -> "confinement"
  | Hw_fault -> "hw_fault"

type violation = {
  v_id : int;
  v_kind : violation_kind;
  v_cvm : string;
  v_address : int;
  v_detail : string;
  v_source : string;
}

exception Audit_fault of violation

let () =
  Printexc.register_printer (function
    | Audit_fault v ->
      Some
        (Printf.sprintf "Audit_fault: %s by %s at 0x%x (%s)"
           (violation_kind_name v.v_kind)
           v.v_cvm v.v_address v.v_detail)
    | _ -> None)

type t = {
  mutable enabled : bool;
  mutable strict : bool;
  mutable sample_every : int;
  mutable sample_tick : int;
  counts : int array;  (* indexed by event_index *)
  mutable next_vid : int;
  mutable violations_rev : violation list;
}

let default =
  {
    enabled = false;
    strict = false;
    sample_every = 64;
    sample_tick = 0;
    counts = Array.make (List.length all_events) 0;
    next_vid = 1;
    violations_rev = [];
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let set_strict t b = t.strict <- b
let sample_every t = t.sample_every

let set_sample_every t n =
  if n < 1 then invalid_arg "Audit.set_sample_every: must be >= 1";
  t.sample_every <- n;
  t.sample_tick <- 0

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.next_vid <- 1;
  t.violations_rev <- [];
  t.sample_tick <- 0

let tick_sample t =
  t.enabled
  && begin
       t.sample_tick <- t.sample_tick + 1;
       if t.sample_tick >= t.sample_every then begin
         t.sample_tick <- 0;
         true
       end
       else false
     end

(* Metrics mirroring: one counter per event kind, violations labelled by
   kind and compartment, live caps a per-cVM gauge. All get-or-create
   lookups happen on the recording (already audit-enabled) path and the
   update itself is branch-checked inside Metrics, so a metrics-disabled
   audit run pays only the hash lookup. *)
let event_metric kind =
  Metrics.counter Metrics.default
    ~help:"Capability provenance events recorded by the audit ledger."
    ~labels:[ ("kind", event_name kind) ]
    "audit_events_total"

let violation_metric kind cvm =
  Metrics.counter Metrics.default
    ~help:"Capability audit violations, by kind and charged compartment."
    ~labels:[ ("kind", violation_kind_name kind); ("cvm", cvm) ]
    "audit_violations_total"

let live_caps_metric cvm =
  Metrics.gauge Metrics.default
    ~help:"Live (unrevoked) tracked capabilities held per compartment."
    ~labels:[ ("cvm", cvm) ] "audit_live_caps"

let record_event t ?(n = 1) kind =
  if t.enabled then begin
    let i = event_index kind in
    t.counts.(i) <- t.counts.(i) + n;
    if Metrics.enabled Metrics.default then
      Metrics.incr_by (event_metric kind) n
  end

let record_violation t ~kind ~cvm ~address ~detail ~source =
  if t.enabled then begin
    let v =
      {
        v_id = t.next_vid;
        v_kind = kind;
        v_cvm = cvm;
        v_address = address;
        v_detail = detail;
        v_source = source;
      }
    in
    t.next_vid <- t.next_vid + 1;
    t.violations_rev <- v :: t.violations_rev;
    if Metrics.enabled Metrics.default then
      Metrics.incr (violation_metric kind cvm);
    (* Hw_fault records ride along with an already-raising capability
       fault; replacing that exception would mask the hardware trap. *)
    if t.strict && kind <> Hw_fault then raise (Audit_fault v)
  end

let set_live_caps t ~cvm n =
  if t.enabled && Metrics.enabled Metrics.default then
    Metrics.set (live_caps_metric cvm) n

let event_count t kind = t.counts.(event_index kind)
let events_total t = Array.fold_left ( + ) 0 t.counts
let violations t = List.rev t.violations_rev

let violation_count ?kind t =
  match kind with
  | None -> List.length t.violations_rev
  | Some k ->
    List.fold_left
      (fun n v -> if v.v_kind = k then n + 1 else n)
      0 t.violations_rev

let invariant_violations t =
  List.filter (fun v -> v.v_kind <> Hw_fault) (violations t)
