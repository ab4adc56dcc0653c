type attack =
  | Overflow_read
  | Overflow_write
  | Ddc_escape
  | Forge_capability
  | Unseal_entry
  | Escalate_perms

let all_attacks =
  [ Overflow_read; Overflow_write; Ddc_escape; Forge_capability; Unseal_entry;
    Escalate_perms ]

let attack_name = function
  | Overflow_read -> "overflow-read"
  | Overflow_write -> "overflow-write"
  | Ddc_escape -> "ddc-escape"
  | Forge_capability -> "forge-capability"
  | Unseal_entry -> "unseal-entry"
  | Escalate_perms -> "escalate-perms"

let attack_description = function
  | Overflow_read -> "read 16 bytes past the end of an owned packet buffer"
  | Overflow_write -> "write past the end of an owned buffer (CVE-style overflow)"
  | Ddc_escape -> "hybrid-mode load from the network cVM's private region"
  | Forge_capability -> "fabricate a capability bit pattern in memory and dereference it"
  | Unseal_entry -> "unseal cVM1's entry capability without the Intravisor authority"
  | Escalate_perms -> "store through a read-only capability view"

type outcome = Trapped of Cheri.Fault.t | Leaked of string

let outcome_is_trap = function Trapped _ -> true | Leaked _ -> false

let pp_outcome fmt = function
  | Trapped f -> Format.fprintf fmt "TRAPPED: %a" Cheri.Fault.pp f
  | Leaked s -> Format.fprintf fmt "LEAKED: %s" s

type report = {
  attack : attack;
  cheri : outcome;
  baseline : outcome option;
  victim_alive : bool;
  victim_mbit_before : float;
  victim_mbit_after : float;
}

let secret = "DRONE-TELEMETRY-KEY-0xC4FE"

let hex bytes =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (Bytes.length bytes) (Bytes.get bytes))))

(* Run [f]; a capability fault is the expected (good) outcome. *)
let catching f =
  match f () with
  | leaked -> Leaked leaked
  | exception Cheri.Fault.Capability_fault fault -> Trapped fault

let cheri_attack kind ~mem ~attacker ~victim_cvm ~stack_data ~iv =
  let buf = Capvm.Cvm.malloc attacker 256 in
  let base = Cheri.Capability.base buf in
  match kind with
  | Overflow_read ->
    catching (fun () ->
        let b = Cheri.Tagged_memory.load_bytes mem ~cap:buf ~addr:(base + 256) ~len:16 in
        hex b)
  | Overflow_write ->
    catching (fun () ->
        Cheri.Tagged_memory.store_bytes mem ~cap:buf ~addr:(base + 256)
          (Bytes.make 16 'X');
        "overwrote 16 bytes past the buffer")
  | Ddc_escape ->
    catching (fun () ->
        let b =
          Cheri.Compartment.load_bytes
            (Capvm.Cvm.compartment attacker)
            mem ~addr:stack_data ~len:32
        in
        hex b)
  | Forge_capability ->
    catching (fun () ->
        (* Craft what looks like a capability to the victim region, as
           raw bytes; the store clears the granule tag, so the reload
           comes back untagged and the dereference faults. *)
        let slot = base in
        Cheri.Tagged_memory.store_bytes mem ~cap:buf ~addr:slot
          (Bytes.make Cheri.Tagged_memory.granule '\xAA');
        let forged = Cheri.Tagged_memory.load_cap mem ~cap:buf ~addr:slot in
        let b = Cheri.Tagged_memory.load_bytes mem ~cap:forged ~addr:0 ~len:16 in
        hex b)
  | Unseal_entry ->
    catching (fun () ->
        let sealed = Capvm.Cvm.sealed_entry victim_cvm in
        (* The attacker's best available authority: a capability derived
           from its own region. Monotonicity means it cannot carry the
           unseal permission. *)
        let fake_authority =
          Cheri.Capability.and_perms (Capvm.Cvm.region attacker) Cheri.Perms.all
        in
        let entered = Cheri.Capability.unseal ~unsealer:fake_authority sealed in
        ignore (Capvm.Intravisor.seal_authority iv);
        Format.asprintf "unsealed entry: %a" Cheri.Capability.pp entered)
  | Escalate_perms ->
    catching (fun () ->
        let ro = Cheri.Capability.and_perms buf Cheri.Perms.read_only in
        Cheri.Tagged_memory.store_bytes mem ~cap:ro ~addr:base (Bytes.of_string "pwn");
        "stored through a read-only view")

(* The same access patterns on a flat, MMU-process view of memory: what
   a conventional single-address-space system would allow. Expressible
   only for the memory-safety attacks; the capability-machinery attacks
   have no baseline analogue. *)
let baseline_attack kind ~mem ~attacker ~stack_data =
  let buf = Capvm.Cvm.malloc attacker 256 in
  let base = Cheri.Capability.base buf in
  (* Adjacent allocation standing in for another component's state. *)
  let neighbour = Capvm.Cvm.malloc attacker (String.length secret) in
  Cheri.Tagged_memory.store_bytes mem ~cap:neighbour
    ~addr:(Cheri.Capability.base neighbour)
    (Bytes.of_string secret);
  match kind with
  | Overflow_read ->
    let b = Bytes.create 16 in
    Cheri.Tagged_memory.unchecked_blit_out mem ~addr:(base + 256) ~dst:b
      ~dst_off:0 ~len:16;
    Some (Leaked (Printf.sprintf "read past buffer: %S" (Bytes.to_string b)))
  | Overflow_write ->
    Cheri.Tagged_memory.unchecked_blit_in mem ~addr:(base + 256)
      ~src:(Bytes.make 16 'X') ~src_off:0 ~len:16;
    Some (Leaked "silently corrupted the adjacent component's state")
  | Ddc_escape ->
    let b = Bytes.create 32 in
    Cheri.Tagged_memory.unchecked_blit_out mem ~addr:stack_data ~dst:b
      ~dst_off:0 ~len:32;
    Some (Leaked (Printf.sprintf "read network-stack memory: %s" (hex b)))
  | Forge_capability | Unseal_entry | Escalate_perms -> None

(* What ddc-escape reads: data the network stack's cVM1 holds. It is
   the data room of the first mbuf of the DUT pool's memzone (past
   DPDK's 128-byte RTE_PKTMBUF_HEADROOM), which the DMA of a received
   frame, or the stack's TX path, has filled by the time of the attack. *)
let stack_data (nif : Topology.netif) =
  let zone = "mbuf-" ^ Dpdk.Mbuf.pool_name nif.Topology.pool in
  match Dpdk.Eal.memzone_lookup nif.Topology.eal ~name:zone with
  | Some cap -> Cheri.Capability.base cap + 128
  | None -> invalid_arg "attack: no DUT mbuf zone"

let measure_flow engine flow ~window =
  let t0 = Dsim.Engine.now engine in
  ignore (flow.Scenarios.take_bytes ());
  Dsim.Engine.run engine ~until:(Dsim.Time.add t0 window);
  let elapsed = Dsim.Time.to_float_sec (Dsim.Time.sub (Dsim.Engine.now engine) t0) in
  float_of_int (flow.Scenarios.take_bytes ()) *. 8. /. elapsed /. 1e6

let run ?(seed = 46L) kind =
  (* Victim: a Scenario 2 server under live load in cVM2 (traffic from
     the peer); attacker: a fresh co-resident cVM. *)
  let built =
    Scenarios.build_scenario2 ~seed ~direction:Scenarios.Dut_receives ()
  in
  let engine = built.Scenarios.engine in
  let iv = Topology.intravisor built.Scenarios.dut in
  let mem = Topology.node_mem built.Scenarios.dut in
  let flow = List.hd built.Scenarios.flows in
  (* Warm up the victim traffic. *)
  Dsim.Engine.run engine ~until:(Dsim.Time.ms 300);
  let before = measure_flow engine flow ~window:(Dsim.Time.ms 200) in
  let victim_cvm =
    match Capvm.Intravisor.cvms iv with
    | cvm1 :: _ -> cvm1
    | [] -> invalid_arg "attack: no victim cVM"
  in
  let attacker = Capvm.Intravisor.create_cvm iv ~name:"attacker" ~size:(1 lsl 20) in
  let stack_data = stack_data (List.hd built.Scenarios.dut_netifs) in
  let cheri = cheri_attack kind ~mem ~attacker ~victim_cvm ~stack_data ~iv in
  let baseline = baseline_attack kind ~mem ~attacker ~stack_data in
  (* The attacker compartment is dead; the victim must not notice. *)
  let after = measure_flow engine flow ~window:(Dsim.Time.ms 200) in
  built.Scenarios.stop ();
  {
    attack = kind;
    cheri;
    baseline;
    victim_alive = after > 0.8 *. before;
    victim_mbit_before = before;
    victim_mbit_after = after;
  }

let run_all ?seed () = List.map (fun k -> run ?seed k) all_attacks

let pp_report fmt r =
  Format.fprintf fmt "@[<v2>%s (%s):@ CHERI: %a@ %a victim: %.0f -> %.0f Mbit/s (%s)@]"
    (attack_name r.attack)
    (attack_description r.attack)
    pp_outcome r.cheri
    (fun fmt -> function
      | Some b -> Format.fprintf fmt "Baseline: %a@ " pp_outcome b
      | None -> Format.fprintf fmt "Baseline: (not expressible)@ ")
    r.baseline r.victim_mbit_before r.victim_mbit_after
    (if r.victim_alive then "unaffected" else "DEGRADED")
