(* Drone telemetry: the paper's motivating workload.

   A drone (PX4-style autopilot) streams MAVLink heartbeats and attitude
   over UDP through the compartmentalized stack to a ground station.
   Mid-flight, an attacker sends the CVE-2024-38951-shaped frame — a
   MAVLink header whose length field lies. The ground station's
   vulnerable decode path copies the declared length into its receive
   buffer:

   - under CHERI the copy trips the buffer capability and the parser
     compartment traps (the telemetry keeps flowing);
   - on a flat memory system the same code overruns the buffer — the
     DoS/takeover of the CVE.

     dune exec examples/drone_telemetry.exe *)

open Netstack

let ip_drone = Ipv4_addr.make 10 10 0 1
let ip_ground = Ipv4_addr.make 10 10 0 2
let telemetry_port = 14550

let get = function
  | Ok v -> v
  | Error e -> failwith ("drone_telemetry: " ^ Errno.to_string e)

let () =
  Format.printf "== Drone telemetry over the compartmentalized stack ==@.@.";
  let engine = Dsim.Engine.create () in
  let drone_node = Core.Topology.make_node engine ~name:"drone" ~ports:1 () in
  let ground_node = Core.Topology.make_node engine ~name:"ground" ~ports:1 () in
  ignore (Core.Topology.link engine drone_node 0 ground_node 0);
  let bring_up node ip =
    let cvm =
      Capvm.Intravisor.create_cvm (Core.Topology.intravisor node) ~name:"net"
        ~size:(12 * 1024 * 1024)
    in
    let region = Capvm.Cvm.sub_region cvm ~size:Core.Topology.default_netif_region_size in
    let nif = Core.Topology.make_netif node ~region ~port_idx:0 ~ip () in
    Stack.start nif.Core.Topology.stack;
    (cvm, nif)
  in
  let drone_cvm, drone = bring_up drone_node ip_drone in
  let _, ground = bring_up ground_node ip_ground in

  (* Ground station: UDP socket + a bounded 64-byte parse buffer minted
     from its parser compartment. *)
  let gs = ground.Core.Topology.stack in
  let gfd = get (Stack.udp_socket gs) in
  get (Stack.udp_bind gs gfd ~port:telemetry_port);
  let parser_cvm =
    Capvm.Intravisor.create_cvm
      (Core.Topology.intravisor ground_node)
      ~name:"mavlink-parser" ~size:(1 lsl 20)
  in
  let parse_buf = Capvm.Cvm.calloc parser_cvm (Core.Topology.node_mem ground_node) 64 in
  let received = ref 0 and last = ref None in
  let ground_poll () =
    let rec drain () =
      match get (Stack.udp_recvfrom gs gfd) with
      | None -> ()
      | Some (_src, _port, data) ->
        (match Core.Mavlink.decode data with
        | Ok frame ->
          incr received;
          last := Some frame
        | Error e -> Format.printf "ground: rejected frame (%s)@." e);
        drain ()
    in
    drain ()
  in
  Stack.set_hook gs (Some (fun _ -> ground_poll ()));

  (* Drone: 10 Hz heartbeat + 50 Hz attitude. *)
  let ds = drone.Core.Topology.stack in
  let dfd = get (Stack.udp_socket ds) in
  let seq = ref 0 in
  let send message =
    incr seq;
    let frame = { Core.Mavlink.seq = !seq land 0xff; sysid = 1; compid = 1; message } in
    match
      Stack.udp_sendto ds dfd ~ip:ip_ground ~port:telemetry_port
        ~buf:(Core.Mavlink.encode frame)
    with
    | Ok () -> ()
    | Error e -> Format.printf "drone: send failed (%a)@." Errno.pp e
  in
  let drone_key stage =
    Dsim.Profile.key Dsim.Profile.default ~component:"app" ~cvm:"drone" ~stage
  in
  let k_heartbeat = drone_key "heartbeat" and k_attitude = drone_key "attitude" in
  let rec heartbeat () =
    send (Core.Mavlink.Heartbeat { vehicle_type = 2; autopilot = 12; base_mode = 81; status = 4 });
    Dsim.Engine.schedule engine ~delay:(Dsim.Time.ms 100) ~label:k_heartbeat
      heartbeat
  in
  let angle = ref 0 in
  let rec attitude () =
    angle := (!angle + 37) mod 36000;
    send
      (Core.Mavlink.Attitude
         { time_ms = Dsim.Time.to_float_ms (Dsim.Engine.now engine) |> int_of_float;
           roll_cdeg = (!angle mod 1200) - 600;
           pitch_cdeg = (!angle mod 800) - 400;
           yaw_cdeg = !angle - 18000 });
    Dsim.Engine.schedule engine ~delay:(Dsim.Time.ms 20) ~label:k_attitude
      attitude
  in
  heartbeat ();
  attitude ();
  ignore drone_cvm;

  let run_ms n =
    Dsim.Engine.run engine
      ~until:(Dsim.Time.add (Dsim.Engine.now engine) (Dsim.Time.ms n))
  in
  run_ms 1000;
  Format.printf "after 1s of flight: %d telemetry frames received@." !received;
  (match !last with
  | Some f -> Format.printf "latest: %a@." Core.Mavlink.pp f
  | None -> ());

  (* The attack: a frame declaring a 200-byte payload against the ground
     station's 64-byte parse buffer, through the CVE-shaped decoder. *)
  Format.printf "@.attacker sends an oversized-length MAVLink frame (CVE-2024-38951 shape)...@.";
  let evil = Core.Mavlink.forge_oversized ~declared_len:200 in
  (match
     Core.Mavlink.decode_into
       (Core.Topology.node_mem ground_node)
       ~dst:parse_buf evil
   with
  | Ok _ -> Format.printf "!! parser accepted it (bug)@."
  | Error e -> Format.printf "parser rejected it cleanly: %s@." e
  | exception Cheri.Fault.Capability_fault f ->
    Format.printf "CHERI trapped the overflow in the parser compartment:@.  %a@."
      Cheri.Fault.pp f);

  (* The safe decoder rejects the same frame without any copy at all. *)
  (match Core.Mavlink.decode evil with
  | Error e -> Format.printf "(the bounds-checked parser says: %s)@." e
  | Ok _ -> Format.printf "!! safe parser accepted the forgery@.");

  let before = !received in
  run_ms 500;
  Format.printf "@.telemetry after the attack: +%d frames in 500ms — the drone flies on.@."
    (!received - before)
