type kind =
  | Wire_bit_flip
  | Dma_bit_flip
  | Frame_drop
  | Frame_dup
  | Frame_reorder
  | Link_flap
  | Mbuf_exhaust
  | Dma_desc_error
  | Syscall_eintr
  | Cap_fault

let all_kinds =
  [
    Wire_bit_flip; Dma_bit_flip; Frame_drop; Frame_dup; Frame_reorder;
    Link_flap; Mbuf_exhaust; Dma_desc_error; Syscall_eintr; Cap_fault;
  ]

let kind_name = function
  | Wire_bit_flip -> "wire_bit_flip"
  | Dma_bit_flip -> "dma_bit_flip"
  | Frame_drop -> "frame_drop"
  | Frame_dup -> "frame_dup"
  | Frame_reorder -> "frame_reorder"
  | Link_flap -> "link_flap"
  | Mbuf_exhaust -> "mbuf_exhaust"
  | Dma_desc_error -> "dma_desc_error"
  | Syscall_eintr -> "syscall_eintr"
  | Cap_fault -> "cap_fault"

type frame_action =
  | Pass
  | Flip of { byte : int; bit : int; post_fcs : bool }
  | Drop_frame
  | Dup_frame
  | Hold_frame of { extra_ns : float }

type rates = {
  wire_flip : float;
  dma_flip : float;
  drop : float;
  dup : float;
  reorder : float;
}

let zero_rates =
  { wire_flip = 0.; dma_flip = 0.; drop = 0.; dup = 0.; reorder = 0. }

type t = {
  rng : Rng.t;
  mutable rates : rates;
  mutable armed : bool;
  ledger : kind Verdict.t;
  ttr_metric : kind -> Metrics.histogram;
}

let create ~seed =
  let ttr_metric kind =
    Metrics.histogram Metrics.default
      ~help:"Time from fault injection to recovered service, in nanoseconds."
      ~labels:[ ("kind", kind_name kind) ]
      ~lo:1_000. ~ratio:2. ~buckets:28 "chaos_ttr_ns"
  in
  (* Pre-register every kind: a run that recovers nothing still exposes
     the zero-valued series (same discipline as Cheri.Fault). *)
  List.iter (fun k -> ignore (ttr_metric k)) all_kinds;
  {
    rng = Rng.create ~seed;
    rates = zero_rates;
    armed = false;
    ledger = Verdict.create ();
    ttr_metric;
  }

let set_rates t r = t.rates <- r
let set_armed t b = t.armed <- b
let armed t = t.armed
let ledger t = t.ledger

let inject t kind ~at_ns ~target =
  let id = Verdict.record t.ledger kind ~name:(kind_name kind) ~at_ns ~target in
  (* Mirror into the audit ledger: an audit report over a chaos run can
     cross-reference injected capability faults against audited
     hardware faults by cVM and kind. *)
  Audit.record_event Audit.default Audit.Chaos_injection;
  Journal.note_chaos ~kind:(kind_name kind) ~id ~at_ns ~target;
  id

let resolve t id outcome =
  match Verdict.find t.ledger id with
  | Some e when e.Verdict.outcome = Verdict.Pending -> (
    Verdict.resolve t.ledger id outcome;
    match outcome with
    | Verdict.Recovered { ttr_ns } ->
      Metrics.observe (t.ttr_metric e.Verdict.kind) ttr_ns
    | _ -> ())
  | Some _ | None -> ()

let resolve_pending t ?(limit = max_int) kind outcome =
  List.filter
    (fun e -> e.Verdict.kind = kind && e.Verdict.outcome = Verdict.Pending)
    (Verdict.entries t.ledger)
  |> List.iteri (fun i e -> if i < limit then resolve t e.Verdict.id outcome)

(* Generic Bernoulli draw for non-frame opportunities (EINTR etc.). *)
let draw t ~p = p > 0. && Rng.float t.rng 1.0 < p
let uniform_ns t ~lo ~hi = lo +. Rng.float t.rng (Float.max 0. (hi -. lo))

(* Per-frame fault lottery, consulted by the link at delivery time.  One
   uniform draw decides among the enabled mechanisms (cumulative
   thresholds), so the schedule is a pure function of the seed and the
   frame sequence.  DMA flips (which must survive the FCS and be caught
   by the IP/TCP/UDP checksums instead) are only aimed at IPv4 payload
   bytes past the IP version/IHL octet — corrupting the Ethernet header
   or an ARP packet (no transport checksum) is the wire-flip case, where
   the FCS is the detector. *)
let dma_flip_min_off = 15

let frame_opportunity t ~at_ns ~ipv4 ~len ~target =
  let r = t.rates in
  if
    (not t.armed) || len <= 0
    || r.drop +. r.dup +. r.reorder +. r.wire_flip +. r.dma_flip <= 0.
  then Pass
  else begin
    let u = Rng.float t.rng 1.0 in
    let c1 = r.drop in
    let c2 = c1 +. r.dup in
    let c3 = c2 +. r.reorder in
    let c4 = c3 +. r.wire_flip in
    let c5 = c4 +. r.dma_flip in
    if u < c1 then begin
      let id = inject t Frame_drop ~at_ns ~target in
      (* The link drops it on the spot and records the typed drop; the
         attribution is by construction. *)
      resolve t id
        (Verdict.Caught { stage = "wire"; reason = "chaos_injected" });
      Drop_frame
    end
    else if u < c2 then begin
      ignore (inject t Frame_dup ~at_ns ~target);
      Dup_frame
    end
    else if u < c3 then begin
      ignore (inject t Frame_reorder ~at_ns ~target);
      Hold_frame { extra_ns = uniform_ns t ~lo:10_000. ~hi:50_000. }
    end
    else if u < c4 then begin
      ignore (inject t Wire_bit_flip ~at_ns ~target);
      Flip { byte = Rng.int t.rng len; bit = Rng.int t.rng 8; post_fcs = false }
    end
    else if u < c5 then
      if ipv4 && len > dma_flip_min_off then begin
        ignore (inject t Dma_bit_flip ~at_ns ~target);
        Flip
          {
            byte = dma_flip_min_off + Rng.int t.rng (len - dma_flip_min_off);
            bit = Rng.int t.rng 8;
            post_fcs = true;
          }
      end
      else begin
        (* No transport checksum behind this frame: downgrade to a wire
           flip so the FCS stays the detector. *)
        ignore (inject t Wire_bit_flip ~at_ns ~target);
        Flip
          { byte = Rng.int t.rng len; bit = Rng.int t.rng 8; post_fcs = false }
      end
    else Pass
  end
