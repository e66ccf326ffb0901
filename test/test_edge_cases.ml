(* Second-wave tests: edge cases, failure injection, and micro-tests of
   the lazy theory's lemma generation. *)

module Core = Olsq2_core
module Config = Core.Config
module Instance = Core.Instance
module Encoder = Core.Encoder
module Tb_encoder = Core.Tb_encoder
module Synthesis = Core.Synthesis
module Result_ = Core.Result_
module Validate = Core.Validate
module Theory_int = Core.Theory_int
module Ctx = Olsq2_encode.Ctx
module F = Olsq2_encode.Formula
module Cardinality = Olsq2_encode.Cardinality
module Pb = Olsq2_encode.Pb
module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Circuit = Olsq2_circuit.Circuit
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen

(* ---- instance construction failures ---- *)

let test_instance_rejects_oversized_circuit () =
  let circuit = B.Qaoa.random ~seed:1 8 in
  (try
     ignore (Instance.make circuit Devices.qx2);
     Alcotest.fail "8 qubits on qx2 should be rejected"
   with Invalid_argument _ -> ());
  (* boundary: exactly |P| program qubits is fine *)
  let c5 = B.Standard.ising ~qubits:5 ~steps:1 in
  ignore (Instance.make c5 Devices.qx2)

let test_instance_rejects_disconnected_device () =
  let disconnected = Coupling.make ~name:"disc" ~num_qubits:4 [ (0, 1); (2, 3) ] in
  let circuit = B.Standard.ising ~qubits:2 ~steps:1 in
  try
    ignore (Instance.make circuit disconnected);
    Alcotest.fail "disconnected device should be rejected"
  with Invalid_argument _ -> ()

let test_instance_rejects_bad_swap_duration () =
  let circuit = B.Standard.ising ~qubits:2 ~steps:1 in
  try
    ignore (Instance.make ~swap_duration:0 circuit Devices.qx2);
    Alcotest.fail "swap_duration 0 should be rejected"
  with Invalid_argument _ -> ()

(* ---- empty / degenerate circuits ---- *)

let test_empty_circuit () =
  let circuit = Circuit.make ~name:"empty" ~num_qubits:2 [] in
  let inst = Instance.make circuit Devices.qx2 in
  Alcotest.(check int) "T_LB of empty" 0 (Instance.depth_lower_bound inst);
  (* TB with one block trivially satisfiable *)
  let enc = Tb_encoder.build inst ~num_blocks:1 in
  Alcotest.(check bool) "tb sat" true (Tb_encoder.solve enc = S.Sat)

let test_single_gate_circuit () =
  let b = Circuit.builder 2 in
  Circuit.add2 b "cx" 0 1;
  let inst = Instance.make ~swap_duration:3 (Circuit.build b ~name:"one") Devices.qx2 in
  match (Synth.depth inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "depth 1" 1 r.Result_.depth;
    Alcotest.(check int) "no swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "single gate failed"

let test_single_qubit_gates_only () =
  (* no two-qubit gates: any mapping works, depth = chain length *)
  let b = Circuit.builder 3 in
  Circuit.add1 b "h" 0;
  Circuit.add1 b "t" 0;
  Circuit.add1 b "h" 1;
  let inst = Instance.make ~swap_duration:3 (Circuit.build b ~name:"oneq") Devices.qx2 in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "depth 2" 2 r.Result_.depth;
    Alcotest.(check int) "no swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "1q-only circuit failed"

(* ---- SWAP window semantics ---- *)

let test_swap_finish_time_window () =
  (* a triangle interaction on a line needs a swap; with swap duration 3
     the swap must finish at t >= 3 and the mapped result must respect
     the occupied window -- the validator re-checks all of it *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  let inst = Instance.make ~swap_duration:3 (Circuit.build b ~name:"tri") (Devices.line 3) in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    List.iter
      (fun (sw : Result_.swap) ->
        Alcotest.(check bool) "finish respects S_D" true (sw.Result_.sw_finish >= 3))
      r.Result_.swaps;
    Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

let test_swap_duration_one () =
  (* QAOA convention: S_D = 1; swaps can finish from t = 1 *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  let inst = Instance.make ~swap_duration:1 (Circuit.build b ~name:"tri1") (Devices.line 3) in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "1 swap still needed" 1 r.Result_.swap_count;
    (* shallower than the S_D = 3 variant *)
    Alcotest.(check bool) "depth <= 4" true (r.Result_.depth <= 4);
    Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

(* ---- OLSQ (space-variable) formulation specifics ---- *)

let test_olsq_formulation_swap_bounds () =
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  let inst = Instance.make ~swap_duration:3 (Circuit.build b ~name:"tri") (Devices.line 3) in
  let enc = Encoder.build ~config:Config.olsq_bv inst ~t_max:12 in
  Encoder.build_counter enc ~max_bound:3;
  (match Encoder.swap_bound_assumption enc 0 with
  | Some a ->
    Alcotest.(check bool) "OLSQ: 0 swaps unsat" true (Encoder.solve ~assumptions:[ a ] enc = S.Unsat)
  | None -> Alcotest.fail "no assumption");
  match Encoder.swap_bound_assumption enc 1 with
  | Some a ->
    Alcotest.(check bool) "OLSQ: 1 swap sat" true (Encoder.solve ~assumptions:[ a ] enc = S.Sat);
    Validate.check_exn inst (Encoder.extract enc)
  | None -> Alcotest.fail "no assumption"

let test_olsq_and_olsq2_same_swap_optimum () =
  let inst =
    Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:6 6) (Devices.grid 2 3)
  in
  let swaps config =
    match (Synth.swaps ~options:(Synth.configured config) ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
    | Some r -> r.Result_.swap_count
    | None -> -1
  in
  Alcotest.(check int) "same optimum" (swaps Config.olsq2_bv) (swaps Config.olsq_bv)

(* ---- depth selector monotonicity ---- *)

let test_depth_selector_monotone () =
  let inst = Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2 in
  let enc = Encoder.build inst ~t_max:14 in
  let sat_at d = Encoder.solve ~assumptions:[ Encoder.depth_selector enc d ] enc = S.Sat in
  (* find the optimum by scanning; satisfiability must be monotone in d *)
  let results = List.init 14 (fun i -> sat_at (i + 1)) in
  let rec monotone = function
    | true :: false :: _ -> false
    | _ :: rest -> monotone rest
    | [] -> true
  in
  Alcotest.(check bool) "SAT monotone in depth bound" true (monotone results);
  Alcotest.(check bool) "optimum is 11" true (sat_at 11 && not (sat_at 10))

(* ---- lazy theory lemma micro-tests ---- *)

let test_theory_two_eq_atoms_conflict () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let x = Theory_int.new_var t ~domain:4 in
  Ctx.assert_formula ctx (Theory_int.eq_const x 1);
  Ctx.assert_formula ctx (Theory_int.eq_const x 2);
  Alcotest.(check bool) "x=1 & x=2 unsat" true (Theory_int.solve t = S.Unsat)

let test_theory_window_conflict () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let x = Theory_int.new_var t ~domain:8 in
  (* x <= 2 and not (x <= 5): empty window *)
  Ctx.assert_formula ctx (Theory_int.le_const x 2);
  Ctx.assert_formula ctx (F.not_ (Theory_int.le_const x 5));
  Alcotest.(check bool) "empty window unsat" true (Theory_int.solve t = S.Unsat)

let test_theory_all_values_excluded () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let x = Theory_int.new_var t ~domain:3 in
  Ctx.assert_formula ctx (F.not_ (Theory_int.eq_const x 0));
  Ctx.assert_formula ctx (F.not_ (Theory_int.eq_const x 1));
  Ctx.assert_formula ctx (F.not_ (Theory_int.eq_const x 2));
  Alcotest.(check bool) "no value left unsat" true (Theory_int.solve t = S.Unsat)

let test_theory_forces_remaining_value () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let x = Theory_int.new_var t ~domain:3 in
  Ctx.assert_formula ctx (F.not_ (Theory_int.eq_const x 0));
  Ctx.assert_formula ctx (F.not_ (Theory_int.eq_const x 2));
  (* make value 1 observable: mention its atom in a tautology *)
  Ctx.assert_formula ctx (F.or_ [ Theory_int.eq_const x 1; F.not_ (Theory_int.eq_const x 1) ]);
  Alcotest.(check bool) "sat" true (Theory_int.solve t = S.Sat);
  Alcotest.(check int) "forced to 1" 1 (Theory_int.value (Ctx.solver ctx) x)

let test_theory_lt_chain () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let xs = Array.init 4 (fun _ -> Theory_int.new_var t ~domain:4 ) in
  for i = 0 to 2 do
    Ctx.assert_formula ctx (Theory_int.lt_var xs.(i) xs.(i + 1))
  done;
  Alcotest.(check bool) "chain of 4 in domain 4 sat" true (Theory_int.solve t = S.Sat);
  let s = Ctx.solver ctx in
  let vals = Array.map (Theory_int.value s) xs in
  Alcotest.(check (array int)) "forced 0123" [| 0; 1; 2; 3 |] vals;
  (* one more strict inequality makes it unsat *)
  let y = Theory_int.new_var t ~domain:4 in
  Ctx.assert_formula ctx (Theory_int.lt_var xs.(3) y);
  Alcotest.(check bool) "chain of 5 in domain 4 unsat" true (Theory_int.solve t = S.Unsat)

(* ---- PB adder bounds across the whole range ---- *)

let test_pb_bounds_exhaustive () =
  let ctx = Ctx.create () in
  let xs = Array.init 6 (fun _ -> Ctx.fresh_var ctx) in
  let net = Pb.adder_network ctx xs in
  let s = Ctx.solver ctx in
  for forced = 0 to 6 do
    let pattern = List.init 6 (fun i -> if i < forced then xs.(i) else L.negate xs.(i)) in
    for k = 0 to 6 do
      let a = Pb.at_most_assumption ctx net k in
      let r = S.solve ~assumptions:(a :: pattern) s in
      let expect = forced <= k in
      if (r = S.Sat) <> expect then
        Alcotest.fail (Printf.sprintf "adder: forced=%d k=%d wrong" forced k)
    done
  done

(* ---- totalizer incremental descent, mirroring the optimizer's use ---- *)

let test_totalizer_descent () =
  let ctx = Ctx.create () in
  let xs = Array.init 10 (fun _ -> Ctx.fresh_var ctx) in
  let out = Cardinality.totalizer ctx xs in
  (* force at least 4 true via their positive literals *)
  let s = Ctx.solver ctx in
  let forced = [ xs.(0); xs.(3); xs.(5); xs.(8) ] in
  let rec descend k last_sat =
    if k < 0 then last_sat
    else
      match Cardinality.at_most_assumption out k with
      | None -> descend (k - 1) last_sat
      | Some a -> (
        match S.solve ~assumptions:(a :: forced) s with
        | S.Sat -> descend (k - 1) k
        | S.Unsat -> last_sat
        | S.Unknown _ -> Alcotest.fail "Unknown")
  in
  Alcotest.(check int) "descent stops at 4" 4 (descend 10 11)

(* ---- export on a swapping result keeps gate order dependencies ---- *)

let test_export_respects_dependencies () =
  let inst =
    Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:9 6) (Devices.line 6)
  in
  match (Synth.swaps ~budget:(Core.Budget.of_seconds 120.0) inst).Synthesis.result with
  | Some r ->
    let phys = Core.Export.physical_circuit inst r in
    Alcotest.(check int) "ops = gates + swaps"
      (Instance.num_gates inst + r.Result_.swap_count)
      (Circuit.num_gates phys)
  | None -> Alcotest.fail "synthesis failed"

let suite =
  [
    ( "edge-cases",
      [
        Alcotest.test_case "instance rejects oversized" `Quick test_instance_rejects_oversized_circuit;
        Alcotest.test_case "instance rejects disconnected" `Quick
          test_instance_rejects_disconnected_device;
        Alcotest.test_case "instance rejects bad S_D" `Quick test_instance_rejects_bad_swap_duration;
        Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
        Alcotest.test_case "single gate" `Quick test_single_gate_circuit;
        Alcotest.test_case "1q-only circuit" `Quick test_single_qubit_gates_only;
        Alcotest.test_case "swap window S_D=3" `Quick test_swap_finish_time_window;
        Alcotest.test_case "swap duration 1" `Quick test_swap_duration_one;
        Alcotest.test_case "OLSQ formulation swap bounds" `Quick test_olsq_formulation_swap_bounds;
        Alcotest.test_case "OLSQ = OLSQ2 swap optimum" `Slow test_olsq_and_olsq2_same_swap_optimum;
        Alcotest.test_case "depth selector monotone" `Slow test_depth_selector_monotone;
        Alcotest.test_case "theory: two eq atoms" `Quick test_theory_two_eq_atoms_conflict;
        Alcotest.test_case "theory: empty window" `Quick test_theory_window_conflict;
        Alcotest.test_case "theory: all excluded" `Quick test_theory_all_values_excluded;
        Alcotest.test_case "theory: forced value" `Quick test_theory_forces_remaining_value;
        Alcotest.test_case "theory: lt chains" `Quick test_theory_lt_chain;
        Alcotest.test_case "pb bounds exhaustive" `Quick test_pb_bounds_exhaustive;
        Alcotest.test_case "totalizer descent" `Quick test_totalizer_descent;
        Alcotest.test_case "export respects structure" `Quick test_export_respects_dependencies;
      ] );
  ]
