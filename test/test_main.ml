(* Aggregated test runner for the whole library. *)

let () =
  Alcotest.run "olsq2"
    (Test_util.suite @ Test_sat.suite @ Test_proof.suite @ Test_encode.suite @ Test_circuit.suite
   @ Test_device.suite @ Test_benchgen.suite @ Test_core.suite @ Test_baselines.suite
   @ Test_properties.suite @ Test_extensions.suite @ Test_edge_cases.suite
   @ Test_metrics.suite @ Test_obs.suite @ Test_plan.suite @ Test_budget.suite @ Test_window.suite @ Test_simplify.suite @ Test_parallel.suite
   @ Test_incremental.suite @ Test_serve.suite @ Test_evalbench.suite
   @ Test_integration.suite)
