type entry = { mac : Nic.Mac_addr.t; expires : Dsim.Time.t }

(* In-flight resolution state: [attempts] requests sent so far, the next
   retransmit (or failure-expiry, once the budget is spent) due at
   [next_retry]. *)
type resolve = { mutable attempts : int; mutable next_retry : Dsim.Time.t }

(* The resolved-entry table is looked up for every transmitted packet,
   so its addresses hash to themselves rather than through the
   polymorphic hash. The other tables are off the frame path. *)
module Ip_tbl = Hashtbl.Make (struct
  type t = Ipv4_addr.t

  let equal = Ipv4_addr.equal
  let hash ip = Int32.to_int (Ipv4_addr.to_int32 ip)
end)

type t = {
  entry_lifetime : Dsim.Time.t;
  max_pending : int;
  max_attempts : int;
  negative_lifetime : Dsim.Time.t;
  table : entry Ip_tbl.t;
  pending : (Ipv4_addr.t, bytes Queue.t) Hashtbl.t;
  requests : (Ipv4_addr.t, resolve) Hashtbl.t;
  negative : (Ipv4_addr.t, Dsim.Time.t) Hashtbl.t;
}

let request_interval = Dsim.Time.ms 100

(* Retry backoff doubles per attempt from [request_interval], capped. *)
let retry_cap = Dsim.Time.ms 800

let create ?(entry_lifetime = Dsim.Time.sec 60) ?(max_pending_per_ip = 16)
    ?(max_attempts = 5) ?(negative_lifetime = Dsim.Time.sec 10) () =
  {
    entry_lifetime;
    max_pending = max_pending_per_ip;
    max_attempts;
    negative_lifetime;
    table = Ip_tbl.create 16;
    pending = Hashtbl.create 8;
    requests = Hashtbl.create 8;
    negative = Hashtbl.create 8;
  }

let lookup t ~now ip =
  match Ip_tbl.find_opt t.table ip with
  | None -> None
  | Some e ->
    if Dsim.Time.(now > e.expires) then begin
      Ip_tbl.remove t.table ip;
      None
    end
    else Some e.mac

let insert t ~now ip mac =
  Hashtbl.remove t.requests ip;
  Hashtbl.remove t.negative ip;
  Ip_tbl.replace t.table ip
    { mac; expires = Dsim.Time.add now t.entry_lifetime }

let enqueue_pending t ip pkt =
  let q =
    match Hashtbl.find_opt t.pending ip with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.pending ip q;
      q
  in
  if Queue.length q >= t.max_pending then false
  else begin
    Queue.push pkt q;
    true
  end

let take_pending t ip =
  match Hashtbl.find_opt t.pending ip with
  | None -> []
  | Some q ->
    Hashtbl.remove t.pending ip;
    List.rev (Queue.fold (fun acc x -> x :: acc) [] q)

let request_outstanding t ~now ip =
  match Hashtbl.find_opt t.requests ip with
  | Some _ -> true
  | None ->
    Hashtbl.replace t.requests ip
      { attempts = 1; next_retry = Dsim.Time.add now request_interval };
    false

let outstanding t = Hashtbl.length t.requests

let is_negative t ~now ip =
  match Hashtbl.find_opt t.negative ip with
  | Some until when Dsim.Time.(now <= until) -> true
  | Some _ ->
    Hashtbl.remove t.negative ip;
    false
  | None -> false

let due_retries t ~now =
  if Hashtbl.length t.requests = 0 then []
  else
    Hashtbl.fold
      (fun ip st acc ->
        if st.attempts < t.max_attempts && Dsim.Time.(st.next_retry <= now)
        then begin
          let delay =
            Dsim.Time.min
              (Dsim.Time.mul request_interval (1 lsl min st.attempts 6))
              retry_cap
          in
          st.attempts <- st.attempts + 1;
          st.next_retry <- Dsim.Time.add now delay;
          ip :: acc
        end
        else acc)
      t.requests []

let expire_failed t ~now =
  if Hashtbl.length t.requests = 0 then []
  else begin
    let failed =
      Hashtbl.fold
        (fun ip st acc ->
          if st.attempts >= t.max_attempts && Dsim.Time.(st.next_retry <= now)
          then ip :: acc
          else acc)
        t.requests []
    in
    List.map
      (fun ip ->
        Hashtbl.remove t.requests ip;
        Hashtbl.replace t.negative ip (Dsim.Time.add now t.negative_lifetime);
        (ip, take_pending t ip))
      failed
  end
