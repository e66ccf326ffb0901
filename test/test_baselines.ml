(* Tests for the SABRE heuristic and SATMap-style baselines: validity of
   every output, determinism, and quality relationships against the exact
   synthesizers. *)

module Core = Olsq2_core
module Instance = Core.Instance
module Result_ = Core.Result_
module Validate = Core.Validate
module Synthesis = Core.Synthesis
module Sabre = Olsq2_heuristic.Sabre
module Astar = Olsq2_heuristic.Astar_router
module Satmap = Olsq2_satmap.Satmap
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen

let fixtures () =
  [
    Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2;
    Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 8) (Devices.grid 3 3);
    Instance.make ~swap_duration:3 (B.Standard.qft 4) Devices.qx2;
    Instance.make ~swap_duration:3
      (B.Queko.generate_counts ~seed:5 Devices.aspen4 ~depth:4 ~total_gates:16 ())
      Devices.aspen4;
    Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:5 10) Devices.sycamore54;
  ]

let test_sabre_always_valid () =
  List.iter
    (fun inst ->
      let r = Sabre.synthesize ~seed:11 inst in
      Alcotest.(check (list string))
        (Instance.label inst ^ " valid")
        []
        (List.map Validate.violation_to_string (Validate.check inst r)))
    (fixtures ())

let test_sabre_deterministic () =
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 8) (Devices.grid 3 3) in
  let a = Sabre.synthesize ~seed:11 inst and b = Sabre.synthesize ~seed:11 inst in
  Alcotest.(check int) "same swaps" a.Result_.swap_count b.Result_.swap_count;
  Alcotest.(check int) "same depth" a.Result_.depth b.Result_.depth

let test_sabre_all_gates_scheduled () =
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:9 12) (Devices.grid 4 4) in
  let r = Sabre.synthesize ~seed:2 inst in
  Alcotest.(check int) "schedule covers all gates" (Instance.num_gates inst)
    (Array.length r.Result_.schedule);
  Validate.check_exn inst r

let test_sabre_more_trials_no_worse () =
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:21 10) (Devices.grid 3 4) in
  let p1 = { Sabre.default_params with Sabre.trials = 1 } in
  let p8 = { Sabre.default_params with Sabre.trials = 8 } in
  let r1 = Sabre.synthesize ~params:p1 ~seed:3 inst in
  let r8 = Sabre.synthesize ~params:p8 ~seed:3 inst in
  Alcotest.(check bool) "more trials no worse" true
    (r8.Result_.swap_count <= r1.Result_.swap_count)

let test_sabre_never_beats_optimal_swaps () =
  (* the exact SWAP optimum lower-bounds any heuristic *)
  List.iter
    (fun inst ->
      let sabre = Sabre.synthesize ~seed:4 inst in
      match (Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
      | Some exact ->
        Alcotest.(check bool)
          (Instance.label inst ^ " exact <= sabre")
          true
          (exact.Result_.swap_count <= sabre.Result_.swap_count)
      | None -> () (* budget exhausted: no claim *))
    [
      Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2;
      Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 6) (Devices.grid 2 3);
    ]

let test_satmap_valid_and_counted () =
  List.iter
    (fun inst ->
      let o = Satmap.synthesize ~budget_seconds:120.0 inst in
      match o.Satmap.result with
      | Some r ->
        Alcotest.(check (list string))
          (Instance.label inst ^ " valid")
          []
          (List.map Validate.violation_to_string (Validate.check inst r));
        Alcotest.(check int) "outcome count matches result" r.Result_.swap_count o.Satmap.swap_count
      | None -> Alcotest.fail (Instance.label inst ^ ": satmap failed"))
    [
      Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2;
      Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 8) (Devices.grid 3 3);
      Instance.make ~swap_duration:3 (B.Standard.qft 4) Devices.qx2;
    ]

let test_satmap_chunking_boundaries () =
  (* chunk_size 1: every two-qubit gate in its own slice; still valid *)
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:7 6) (Devices.grid 2 3) in
  let params = { Satmap.default_params with Satmap.chunk_size = 1 } in
  match (Satmap.synthesize ~params ~budget_seconds:120.0 inst).Satmap.result with
  | Some r -> Validate.check_exn inst r
  | None -> Alcotest.fail "satmap chunk=1 failed"

let test_tb_no_worse_than_satmap () =
  (* TB-OLSQ2 considers whole-circuit transitions; the sliced baseline
     cannot beat it on these small instances *)
  List.iter
    (fun inst ->
      let tb = Synth.tb_swaps ~budget:(Core.Budget.of_seconds 120.0) inst in
      let sm = Satmap.synthesize ~budget_seconds:120.0 inst in
      match (tb.Synthesis.result, sm.Satmap.result) with
      | Some tbr, Some smr ->
        Alcotest.(check bool)
          (Instance.label inst ^ " tb <= satmap")
          true
          (tbr.Result_.swap_count <= smr.Result_.swap_count)
      | _ -> () (* budget: no claim *))
    [
      Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2;
      Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 6) (Devices.grid 2 3);
    ]

let test_astar_valid () =
  List.iter
    (fun inst ->
      match Astar.synthesize ~seed:11 inst with
      | Some r ->
        Alcotest.(check (list string))
          (Instance.label inst ^ " astar valid")
          []
          (List.map Validate.violation_to_string (Validate.check inst r))
      | None -> Alcotest.fail (Instance.label inst ^ ": astar budget exhausted"))
    (fixtures ())

let test_astar_never_beats_exact () =
  let inst = Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 6) (Devices.grid 2 3) in
  match (Astar.synthesize ~seed:2 inst, (Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result) with
  | Some astar, Some exact ->
    Alcotest.(check bool) "exact <= astar" true
      (exact.Result_.swap_count <= astar.Result_.swap_count)
  | None, _ -> Alcotest.fail "astar failed"
  | _, None -> () (* exact budget exhausted: no claim *)

let test_astar_embeddable_chain_cheap () =
  (* an Ising chain embeds into a line.  A* has no initial-mapping
     refinement (unlike SABRE), so 0 swaps needs a lucky restart; but
     each layer is solved optimally, so the total stays small for any
     start on this 4-qubit instance *)
  let circuit = B.Standard.ising ~qubits:4 ~steps:2 in
  let inst = Instance.make ~swap_duration:3 circuit (Devices.line 4) in
  match Astar.synthesize ~params:{ Astar.default_params with Astar.restarts = 8 } ~seed:5 inst with
  | Some r ->
    Validate.check_exn inst r;
    Alcotest.(check bool) "embeddable chain stays cheap" true (r.Result_.swap_count <= 4)
  | None -> Alcotest.fail "astar failed"

let test_queko_sabre_vs_exact_depth () =
  (* on QUEKO, exact synthesis must achieve the known depth; SABRE gives
     an upper bound that is never below it *)
  let device = Devices.qx2 in
  let circuit = B.Queko.generate_counts ~seed:3 device ~depth:4 ~total_gates:12 () in
  let inst = Instance.make ~swap_duration:3 circuit device in
  let sabre = Sabre.synthesize ~seed:9 inst in
  match (Synth.depth ~budget:(Core.Budget.of_seconds 300.0) inst).Synthesis.result with
  | Some exact ->
    Alcotest.(check int) "exact hits known optimum" 4 exact.Result_.depth;
    Alcotest.(check bool) "sabre >= optimum" true (sabre.Result_.depth >= exact.Result_.depth)
  | None -> Alcotest.fail "exact depth synthesis failed"

let suite =
  [
    ( "baselines",
      [
        Alcotest.test_case "sabre outputs valid" `Slow test_sabre_always_valid;
        Alcotest.test_case "sabre deterministic" `Quick test_sabre_deterministic;
        Alcotest.test_case "sabre schedules all gates" `Quick test_sabre_all_gates_scheduled;
        Alcotest.test_case "sabre trials monotone" `Quick test_sabre_more_trials_no_worse;
        Alcotest.test_case "exact <= sabre swaps" `Slow test_sabre_never_beats_optimal_swaps;
        Alcotest.test_case "satmap valid" `Slow test_satmap_valid_and_counted;
        Alcotest.test_case "satmap chunk=1" `Slow test_satmap_chunking_boundaries;
        Alcotest.test_case "tb <= satmap swaps" `Slow test_tb_no_worse_than_satmap;
        Alcotest.test_case "astar outputs valid" `Slow test_astar_valid;
        Alcotest.test_case "exact <= astar swaps" `Slow test_astar_never_beats_exact;
        Alcotest.test_case "astar embeddable chain" `Quick test_astar_embeddable_chain_cheap;
        Alcotest.test_case "queko depth vs sabre" `Slow test_queko_sabre_vs_exact_depth;
      ] );
  ]
