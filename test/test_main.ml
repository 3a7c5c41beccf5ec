let () =
  Alcotest.run "mbu"
    [ Test_bitstring.suite; Test_circuit.suite; Test_simulator.suite;
      Test_adders.suite; Test_adder_generic.suite; Test_mod_add.suite;
      Test_mod_mul.suite; Test_resources.suite; Test_optimize.suite;
      Test_qasm.suite; Test_increment.suite; Test_qrom.suite;
      Test_decompose.suite; Test_properties.suite; Test_pebble.suite; Test_aqft.suite; Test_cla.suite; Test_mod_extras.suite; Test_draw.suite;
      Test_builder_edge.suite; Test_failure_injection.suite; Test_ft_estimate.suite; Test_mcx.suite; Test_unitary.suite; Test_divider.suite; Test_montgomery.suite; Test_coset.suite; Test_big_constants.suite; Test_trace.suite;
      Test_backends.suite; Test_dag.suite; Test_robustness.suite;
      Test_lint.suite; Test_telemetry.suite; Test_depth.suite;
      Test_catalogue.suite; Test_gate_paths.suite; Test_cli.suite;
      Test_rng.suite ]
