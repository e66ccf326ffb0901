(* Tests for the success-rate metrics module. *)

module Core = Olsq2_core
module Metrics = Core.Metrics
module Instance = Core.Instance
module Result_ = Core.Result_
module Synthesis = Core.Synthesis
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen
module Sabre = Olsq2_heuristic.Sabre

let toffoli_result () =
  let inst = Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2 in
  match (Synth.swaps inst).Synthesis.result with
  | Some r -> (inst, r)
  | None -> Alcotest.fail "synthesis failed"

let test_counts () =
  let inst, r = toffoli_result () in
  let m = Metrics.of_result inst r in
  Alcotest.(check int) "1q gates" 9 m.Metrics.single_qubit_gates;
  Alcotest.(check int) "2q gates" 6 m.Metrics.two_qubit_gates;
  Alcotest.(check int) "swaps" 0 m.Metrics.swap_gates;
  Alcotest.(check int) "cnot equivalent" 6 m.Metrics.equivalent_cnots;
  Alcotest.(check int) "depth" r.Result_.depth m.Metrics.depth

let test_success_in_unit_interval () =
  let inst, r = toffoli_result () in
  let p = Metrics.success_probability (Metrics.of_result inst r) in
  Alcotest.(check bool) "0 < p <= 1" true (p > 0.0 && p <= 1.0)

let test_swaps_hurt_success () =
  let inst, r = toffoli_result () in
  let base = Metrics.of_result inst r in
  (* same schedule with two phantom swaps counted *)
  let worse = Metrics.of_result inst { r with Result_.swap_count = r.Result_.swap_count + 2 } in
  Alcotest.(check bool) "more swaps, lower success" true
    (Metrics.success_probability worse < Metrics.success_probability base);
  Alcotest.(check int) "+6 cnots" (base.Metrics.equivalent_cnots + 6) worse.Metrics.equivalent_cnots;
  Alcotest.(check bool) "ratio > 1" true (Metrics.success_ratio base worse > 1.0)

let test_depth_hurts_success () =
  let inst, r = toffoli_result () in
  let base = Metrics.of_result inst r in
  let deeper = Metrics.of_result inst { r with Result_.depth = r.Result_.depth * 10 } in
  Alcotest.(check bool) "deeper, lower success" true
    (deeper.Metrics.log_success < base.Metrics.log_success)

let test_perfect_model () =
  let inst, r = toffoli_result () in
  let model =
    { Metrics.single_qubit_fidelity = 1.0; two_qubit_fidelity = 1.0; coherence_steps = infinity }
  in
  let m = Metrics.of_result ~model inst r in
  Alcotest.(check (float 1e-9)) "perfect hardware: success 1" 1.0 (Metrics.success_probability m)

let test_exact_beats_heuristic_on_metric () =
  (* the end-to-end point of the paper: fewer swaps/depth means higher
     estimated success *)
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 8) (Devices.grid 3 3) in
  let sabre = Sabre.synthesize ~seed:5 inst in
  match (Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
  | Some exact ->
    let m_exact = Metrics.of_result inst exact in
    let m_sabre = Metrics.of_result inst sabre in
    Alcotest.(check bool) "exact success >= sabre success" true
      (m_exact.Metrics.log_success >= m_sabre.Metrics.log_success)
  | None -> Alcotest.fail "exact synthesis failed"

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "gate counts" `Quick test_counts;
        Alcotest.test_case "success in (0,1]" `Quick test_success_in_unit_interval;
        Alcotest.test_case "swaps hurt" `Quick test_swaps_hurt_success;
        Alcotest.test_case "depth hurts" `Quick test_depth_hurts_success;
        Alcotest.test_case "perfect model" `Quick test_perfect_model;
        Alcotest.test_case "exact beats heuristic" `Slow test_exact_beats_heuristic_on_metric;
      ] );
  ]
