type sample = { label : string; mbit_s : float; efficiency_pct : float }

let theoretical_port_mbit = 1000.

let run (built : Scenarios.built) ?(warmup = Dsim.Time.ms 300)
    ?(duration = Dsim.Time.sec 2) ?(fair_share_mbit = theoretical_port_mbit) ()
    =
  let engine = built.Scenarios.engine in
  (* Periodic metric snapshots on the virtual clock (time-series export);
     no-op unless the default sampler has been enabled. *)
  Dsim.Sampler.attach Dsim.Sampler.default engine Dsim.Metrics.default;
  Dsim.Engine.run engine ~until:(Dsim.Time.add (Dsim.Engine.now engine) warmup);
  List.iter
    (fun f -> ignore (f.Scenarios.take_bytes ()))
    built.Scenarios.flows;
  let t0 = Dsim.Engine.now engine in
  Dsim.Engine.run engine ~until:(Dsim.Time.add t0 duration);
  let elapsed_s = Dsim.Time.to_float_sec (Dsim.Time.sub (Dsim.Engine.now engine) t0) in
  let samples =
    List.map
      (fun f ->
        let bytes = f.Scenarios.take_bytes () in
        let mbit_s = float_of_int bytes *. 8. /. elapsed_s /. 1e6 in
        {
          label = f.Scenarios.label;
          mbit_s;
          efficiency_pct = mbit_s /. fair_share_mbit *. 100.;
        })
      built.Scenarios.flows
  in
  built.Scenarios.stop ();
  samples

let pp_sample fmt s =
  Format.fprintf fmt "%-16s %7.0f Mbit/s  (%.1f%%)" s.label s.mbit_s
    s.efficiency_pct
