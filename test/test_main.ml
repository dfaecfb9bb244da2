let () =
  Alcotest.run "nontree"
    (List.concat
       [ Test_rng.suites;
         Test_geom.suites;
         Test_graphs.suites;
         Test_routing.suites;
         Test_numeric.suites;
         Test_circuit.suites;
         Test_spice.suites;
         Test_delay.suites;
         Test_steiner.suites;
         Test_ert.suites;
         Test_nontree.suites;
         Test_pool.suites;
         Test_prop.suites;
         Test_obs.suites;
         Test_harness.suites;
         Test_robust.suites;
         Test_trees.suites;
         Test_pins.suites;
         Test_reference.suites ])
