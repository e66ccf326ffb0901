(* End-to-end integration tests: full pipelines across modules, mirroring
   the paper's workflows at miniature scale. *)

module Core = Olsq2_core
module Config = Core.Config
module Instance = Core.Instance
module Result_ = Core.Result_
module Validate = Core.Validate
module Synthesis = Core.Synthesis
module Circuit = Olsq2_circuit.Circuit
module Qasm = Olsq2_circuit.Qasm
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen
module Sabre = Olsq2_heuristic.Sabre
module Satmap = Olsq2_satmap.Satmap

(* Full round trip: generate -> QASM -> parse -> synthesize -> export ->
   re-parse -> check hardware conformance. *)
let test_full_pipeline_roundtrip () =
  let circuit0 = B.Qaoa.random ~seed:13 8 in
  let text = Qasm.print circuit0 in
  let circuit = Qasm.parse ~name:"QAOA" text in
  let device = Devices.grid 3 3 in
  let inst = Instance.make ~swap_duration:1 circuit device in
  match (Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
  | None -> Alcotest.fail "synthesis failed"
  | Some r ->
    Validate.check_exn inst r;
    let phys = Core.Export.physical_circuit inst r in
    let reparsed = Qasm.parse (Qasm.print phys) in
    Alcotest.(check int) "op count preserved" (Circuit.num_gates phys) (Circuit.num_gates reparsed);
    (* hardware conformance: every 2q op on a coupling edge *)
    List.iter
      (fun g ->
        let p, p' = Olsq2_circuit.Gate.pair g in
        if not (Olsq2_device.Coupling.are_adjacent device p p') then
          Alcotest.fail "exported circuit violates coupling")
      (Circuit.two_qubit_gates reparsed)

(* The three synthesis routes agree on validity and the expected quality
   ordering: optimal swaps <= TB swaps <= chunked <= heuristic-ish. *)
let test_quality_ordering () =
  let circuit = B.Qaoa.random ~seed:17 8 in
  let inst = Instance.make ~swap_duration:1 circuit (Devices.grid 3 3) in
  let exact =
    match (Synth.swaps ~budget:(Core.Budget.of_seconds 180.0) inst).Synthesis.result with
    | Some r -> r
    | None -> Alcotest.fail "exact failed"
  in
  let tb =
    match (Synth.tb_swaps ~budget:(Core.Budget.of_seconds 180.0) inst).Synthesis.result with
    | Some r -> r
    | None -> Alcotest.fail "tb failed"
  in
  let sabre = Sabre.synthesize ~seed:5 inst in
  Validate.check_exn inst exact;
  Validate.check_exn inst tb;
  Validate.check_exn inst sabre;
  Alcotest.(check bool) "exact <= sabre" true
    (exact.Result_.swap_count <= sabre.Result_.swap_count);
  Alcotest.(check bool) "tb <= sabre" true
    (tb.Result_.swap_count <= sabre.Result_.swap_count)

(* QUEKO end-to-end across two devices (Table III's protocol). *)
let test_queko_protocol () =
  List.iter
    (fun (device, depth, gates) ->
      let circuit = B.Queko.generate_counts ~seed:23 device ~depth ~total_gates:gates () in
      let inst = Instance.make ~swap_duration:3 circuit device in
      Alcotest.(check int) "T_LB equals construction depth" depth
        (Instance.depth_lower_bound inst);
      match (Synth.depth ~budget:(Core.Budget.of_seconds 300.0) inst).Synthesis.result with
      | Some r ->
        Validate.check_exn inst r;
        Alcotest.(check int)
          (Printf.sprintf "optimal depth on %s" device.Olsq2_device.Coupling.name)
          depth r.Result_.depth
      | None -> Alcotest.fail "depth synthesis failed")
    [ (Devices.qx2, 4, 12); (Devices.aspen4, 3, 12) ]

(* Eagle-scale smoke: TB-OLSQ2 handles a 127-qubit device.  The workload
   is a chain-shaped interaction graph (an Ising line), which embeds in
   the heavy-hex lattice, so the expected answer is 1 block / 0 SWAPs;
   random 3-regular QAOA graphs do not embed in a degree-3 lattice and
   would turn this smoke test into an UNSAT-proof stress test. *)
let test_eagle_tb_smoke () =
  let circuit = B.Standard.ising ~qubits:8 ~steps:1 in
  let inst = Instance.make ~swap_duration:3 circuit Devices.eagle127 in
  match (Synth.tb_swaps ~budget:(Core.Budget.of_seconds 300.0) inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "chain embeds with no swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "TB on eagle failed within budget"

(* Depth relaxation can trade depth for SWAPs (paper §III-B-2): the final
   best never has more swaps than the depth-optimal starting point. *)
let test_depth_swap_tradeoff () =
  let circuit = B.Qaoa.random ~seed:41 8 in
  let inst = Instance.make ~swap_duration:1 circuit (Devices.grid 3 3) in
  let depth_first =
    match (Synth.depth inst).Synthesis.result with
    | Some r -> r
    | None -> Alcotest.fail "depth failed"
  in
  match (Synth.swaps ~budget:(Core.Budget.of_seconds 180.0) inst).Synthesis.result with
  | Some swap_first ->
    Alcotest.(check bool) "swap-opt <= depth-opt swaps" true
      (swap_first.Result_.swap_count <= depth_first.Result_.swap_count)
  | None -> Alcotest.fail "swap failed"

(* Incremental reuse: optimizing twice on fresh encoders gives identical
   optima (determinism of the exact path). *)
let test_exact_determinism () =
  let circuit = B.Standard.qft 4 in
  let inst = Instance.make ~swap_duration:3 circuit Devices.qx2 in
  let options = Synthesis.Options.with_workers 1 Synth.classic in
  let d1 = (Synth.depth ~options inst).Synthesis.result in
  let d2 = (Synth.depth ~options inst).Synthesis.result in
  match (d1, d2) with
  | Some a, Some b -> Alcotest.(check int) "same optimal depth" a.Result_.depth b.Result_.depth
  | _ -> Alcotest.fail "depth synthesis failed"

(* The ising benchmark from Table IV: a 1-D chain embeds in a line with
   zero swaps; TB-OLSQ2 finds that. *)
let test_ising_zero_swaps () =
  let circuit = B.Standard.ising ~qubits:5 ~steps:2 in
  let inst = Instance.make ~swap_duration:3 circuit (Devices.grid 2 3) in
  match (Synth.tb_swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "ising chain needs no swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "tb failed"

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "full pipeline roundtrip" `Slow test_full_pipeline_roundtrip;
        Alcotest.test_case "quality ordering" `Slow test_quality_ordering;
        Alcotest.test_case "queko protocol" `Slow test_queko_protocol;
        Alcotest.test_case "eagle TB smoke" `Slow test_eagle_tb_smoke;
        Alcotest.test_case "depth/swap tradeoff" `Slow test_depth_swap_tradeoff;
        Alcotest.test_case "exact determinism" `Slow test_exact_determinism;
        Alcotest.test_case "ising zero swaps" `Slow test_ising_zero_swaps;
      ] );
  ]
