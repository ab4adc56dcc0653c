let () =
  Alcotest.run "cheri-netstack"
    [
      ("dsim", Test_dsim.suite);
      ("metrics", Test_metrics.suite);
      ("flowtrace", Test_flowtrace.suite);
      ("cheri", Test_cheri.suite);
      ("nic", Test_nic.suite);
      ("rss", Test_rss.suite);
      ("dpdk", Test_dpdk.suite);
      ("wire", Test_wire.suite @ Test_wire.unit_suite);
      ("tcp", Test_tcp.suite);
      ("stack", Test_stack.suite);
      ("capvm", Test_capvm.suite);
      ("core", Test_core.suite);
      ("mavlink", Test_mavlink.suite);
      ("faults", Test_faults.suite);
      ("zero_copy", Test_zero_copy.suite);
      ("chaos", Test_chaos.suite);
      ("redteam", Test_redteam.suite);
      ("audit", Test_audit.suite);
      ("profile", Test_profile.suite);
      ("journal", Test_journal.suite);
      ("fleet", Test_fleet.suite);
    ]
