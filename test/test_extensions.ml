(* Tests for the implemented future-work extensions (paper §V):
   heuristic warm-started SWAP descent, fidelity-aware weighted SWAP
   optimization, and domain-guided branching hints. *)

module Core = Olsq2_core
module Config = Core.Config
module Instance = Core.Instance
module Result_ = Core.Result_
module Validate = Core.Validate
module Synthesis = Core.Synthesis
module Encoder = Core.Encoder
module S = Olsq2_sat.Solver
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen
module Sabre = Olsq2_heuristic.Sabre

let toffoli_qx2 () = Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2

let qaoa_grid () =
  Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:3 8) (Devices.grid 3 3)

(* ---- warm start ---- *)

let test_warm_start_same_optimum () =
  let inst = qaoa_grid () in
  let sabre = Sabre.synthesize ~seed:5 inst in
  let plain = Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst in
  let warm =
    Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) ~warm_start:sabre.Result_.swap_count inst
  in
  match (plain.Synthesis.result, warm.Synthesis.result) with
  | Some a, Some b ->
    Alcotest.(check int) "warm start preserves optimum" a.Result_.swap_count b.Result_.swap_count;
    Validate.check_exn inst b
  | _ -> Alcotest.fail "swap optimization failed"

let test_warm_start_too_tight_falls_back () =
  (* warm bound of 0 is infeasible for this instance; the optimizer must
     still find the true optimum *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  let inst = Instance.make ~swap_duration:3 (Circuit.build b ~name:"tri") (Devices.line 3) in
  match (Synth.swaps ~warm_start:0 inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "still finds the 1-swap optimum" 1 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "warm-started optimization failed"

(* ---- fidelity-aware weighted SWAP optimization ---- *)

let triangle_line () =
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  Instance.make ~swap_duration:3 (Circuit.build b ~name:"tri") (Devices.line 3)

let test_weighted_swaps_prefers_good_edge () =
  let inst = triangle_line () in
  let device = inst.Instance.device in
  (* make edge (0,1) five times costlier than (1,2): the single required
     SWAP must land on (1,2) *)
  let weights e =
    let p, p' = Olsq2_device.Coupling.edge device e in
    if (p, p') = (0, 1) then 5 else 1
  in
  match (Synth.weighted ~weights inst).Synthesis.result with
  | Some r ->
    Validate.check_exn inst r;
    Alcotest.(check int) "one swap" 1 r.Result_.swap_count;
    (match r.Result_.swaps with
    | [ sw ] -> Alcotest.(check (pair int int)) "on the cheap edge" (1, 2) sw.Result_.sw_edge
    | _ -> Alcotest.fail "expected exactly one swap")
  | None -> Alcotest.fail "weighted synthesis failed"

(* The weighted descent runs at the optimal depth only, so with uniform
   weights it must match the SWAP count the plain sweep proves there: the
   head of its pareto frontier. *)
let test_weighted_swaps_uniform_equals_plain () =
  let inst = triangle_line () in
  let weighted = Synth.weighted ~weights:(fun _ -> 1) inst in
  let plain = Synth.swaps inst in
  match (weighted.Synthesis.result, plain.Synthesis.pareto) with
  | Some w, (_, swaps_at_optimal_depth) :: _ ->
    Alcotest.(check int) "uniform weights = plain objective" swaps_at_optimal_depth
      w.Result_.swap_count
  | _ -> Alcotest.fail "synthesis failed"

let test_weighted_zero_cost_edges () =
  (* zero-weight edges are free: the optimal weighted cost is 0 even
     though a SWAP is still required *)
  let inst = triangle_line () in
  let outcome = Synth.weighted ~weights:(fun _ -> 0) inst in
  match outcome.Synthesis.result with
  | Some r ->
    Validate.check_exn inst r;
    (match outcome.Synthesis.pareto with
    | [ (_, cost) ] -> Alcotest.(check int) "weighted cost 0" 0 cost
    | _ -> Alcotest.fail "expected one pareto entry");
    Alcotest.(check bool) "a swap is still used" true (r.Result_.swap_count >= 1)
  | None -> Alcotest.fail "weighted synthesis failed"

(* ---- branching hints ---- *)

let test_branching_hints_preserve_answers () =
  let inst = toffoli_qx2 () in
  let t_max = Instance.depth_upper_bound inst in
  let plain = Encoder.build inst ~t_max in
  let hinted = Encoder.build inst ~t_max in
  Encoder.apply_branching_hints hinted;
  let d = Instance.depth_lower_bound inst in
  let r1 = Encoder.solve ~assumptions:[ Encoder.depth_selector plain d ] plain in
  let r2 = Encoder.solve ~assumptions:[ Encoder.depth_selector hinted d ] hinted in
  Alcotest.(check bool) "same SAT answer" true (r1 = r2);
  (match r2 with
  | S.Sat -> Validate.check_exn inst (Encoder.extract hinted)
  | S.Unsat | S.Unknown _ -> Alcotest.fail "expected SAT");
  (* and an UNSAT bound stays UNSAT *)
  let r3 = Encoder.solve ~assumptions:[ Encoder.depth_selector hinted (d - 1) ] hinted in
  Alcotest.(check bool) "unsat preserved" true (r3 = S.Unsat)

let test_solver_hint_api () =
  let s = S.create () in
  let a = S.new_lit s and b = S.new_lit s in
  S.add_clause s [ a; b ];
  S.boost_activity s (Olsq2_sat.Lit.var a) 10.0;
  S.suggest_phase s (Olsq2_sat.Lit.var a) true;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  (* suggested phase honored on a free decision *)
  Alcotest.(check bool) "phase honored" true (S.model_value s a);
  (* out-of-range hints are ignored, not fatal *)
  S.boost_activity s 9999 1.0;
  S.suggest_phase s 9999 false;
  Alcotest.(check bool) "still sat" true (S.solve s = S.Sat)

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "warm start same optimum" `Slow test_warm_start_same_optimum;
        Alcotest.test_case "warm start too tight" `Quick test_warm_start_too_tight_falls_back;
        Alcotest.test_case "weighted swaps prefer good edges" `Quick
          test_weighted_swaps_prefers_good_edge;
        Alcotest.test_case "weighted uniform = plain" `Quick test_weighted_swaps_uniform_equals_plain;
        Alcotest.test_case "weighted zero cost" `Quick test_weighted_zero_cost_edges;
        Alcotest.test_case "branching hints preserve answers" `Quick
          test_branching_hints_preserve_answers;
        Alcotest.test_case "solver hint api" `Quick test_solver_hint_api;
      ] );
  ]
