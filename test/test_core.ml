(* Tests for the core layout-synthesis library: integer variables across
   encodings, the lazy integer theory, encoders, selectors, optimizers,
   the validator (positive and negative cases) and result export. *)

module Core = Olsq2_core
module Config = Core.Config
module Instance = Core.Instance
module Ivar = Core.Ivar
module Theory_int = Core.Theory_int
module Encoder = Core.Encoder
module Tb_encoder = Core.Tb_encoder
module Synthesis = Core.Synthesis
module Result_ = Core.Result_
module Validate = Core.Validate
module Ctx = Olsq2_encode.Ctx
module F = Olsq2_encode.Formula
module S = Olsq2_sat.Solver
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen

let encodings = [ ("onehot", Config.Onehot); ("binary", Config.Binary); ("lazy", Config.Lazy_int) ]

let solve_ctx encoding ctx =
  match encoding with
  | Config.Lazy_int -> Theory_int.solve (Theory_int.of_ctx ctx)
  | Config.Onehot | Config.Binary -> S.solve (Ctx.solver ctx)

(* ---- Ivar semantics per encoding ---- *)

let test_ivar_domain_enumeration () =
  List.iter
    (fun (name, enc) ->
      let ctx = Ctx.create () in
      let v = Ivar.fresh ctx enc 5 in
      let found = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match solve_ctx enc ctx with
        | S.Sat ->
          let x = Ivar.value (Ctx.solver ctx) v in
          if List.mem x !found then Alcotest.fail (name ^ ": repeated value after blocking");
          found := x :: !found;
          Ctx.assert_formula ctx (F.not_ (Ivar.eq_const v x))
        | S.Unsat -> continue_ := false
        | S.Unknown _ -> Alcotest.fail "Unknown"
      done;
      Alcotest.(check (list int)) (name ^ " full domain") [ 0; 1; 2; 3; 4 ]
        (List.sort compare !found))
    encodings

let test_ivar_comparisons () =
  List.iter
    (fun (name, enc) ->
      let ctx = Ctx.create () in
      let x = Ivar.fresh ctx enc 7 and y = Ivar.fresh ctx enc 7 in
      Ctx.assert_formula ctx (Ivar.lt x y);
      Ctx.assert_formula ctx (Ivar.le_const y 4);
      Ctx.assert_formula ctx (Ivar.ge_const x 2);
      (match solve_ctx enc ctx with
      | S.Sat ->
        let s = Ctx.solver ctx in
        let vx = Ivar.value s x and vy = Ivar.value s y in
        Alcotest.(check bool) (name ^ " x<y") true (vx < vy);
        Alcotest.(check bool) (name ^ " y<=4") true (vy <= 4);
        Alcotest.(check bool) (name ^ " x>=2") true (vx >= 2)
      | S.Unsat | S.Unknown _ -> Alcotest.fail (name ^ ": expected SAT"));
      (* x >= 2 and x < y <= 4 leaves no room when also y <= 2 *)
      Ctx.assert_formula ctx (Ivar.le_const y 2);
      match solve_ctx enc ctx with
      | S.Unsat -> ()
      | S.Sat | S.Unknown _ -> Alcotest.fail (name ^ ": expected UNSAT"))
    encodings

let test_ivar_eq_neq () =
  List.iter
    (fun (name, enc) ->
      let ctx = Ctx.create () in
      let x = Ivar.fresh ctx enc 4 and y = Ivar.fresh ctx enc 4 in
      Ctx.assert_formula ctx (Ivar.eq x y);
      Ctx.assert_formula ctx (Ivar.eq_const x 3);
      (match solve_ctx enc ctx with
      | S.Sat -> Alcotest.(check int) (name ^ " eq propagates") 3 (Ivar.value (Ctx.solver ctx) y)
      | S.Unsat | S.Unknown _ -> Alcotest.fail (name ^ ": expected SAT"));
      let ctx2 = Ctx.create () in
      let a = Ivar.fresh ctx2 enc 2 and b = Ivar.fresh ctx2 enc 2 in
      Ctx.assert_formula ctx2 (Ivar.neq a b);
      Ctx.assert_formula ctx2 (Ivar.eq_const a 0);
      match solve_ctx enc ctx2 with
      | S.Sat -> Alcotest.(check int) (name ^ " neq forces other") 1 (Ivar.value (Ctx.solver ctx2) b)
      | S.Unsat | S.Unknown _ -> Alcotest.fail (name ^ ": expected SAT"))
    encodings

let test_ivar_domain_one () =
  (* regression: domain-1 variables must be pinned to 0 *)
  List.iter
    (fun (name, enc) ->
      let ctx = Ctx.create () in
      let v = Ivar.fresh ctx enc 1 in
      Ctx.assert_formula ctx (Ivar.eq_const v 0);
      match solve_ctx enc ctx with
      | S.Sat -> Alcotest.(check int) (name ^ " pinned") 0 (Ivar.value (Ctx.solver ctx) v)
      | S.Unsat | S.Unknown _ -> Alcotest.fail (name ^ ": expected SAT"))
    encodings

let test_ivar_out_of_range_constants () =
  List.iter
    (fun (name, enc) ->
      let ctx = Ctx.create () in
      let v = Ivar.fresh ctx enc 3 in
      Alcotest.(check bool) (name ^ " eq big is False") true (Ivar.eq_const v 7 = F.False);
      Alcotest.(check bool) (name ^ " eq neg is False") true (Ivar.eq_const v (-1) = F.False);
      Alcotest.(check bool) (name ^ " le big is True") true (Ivar.le_const v 5 = F.True))
    encodings

let test_theory_int_lemma_stats () =
  let ctx = Ctx.create () in
  let t = Theory_int.of_ctx ctx in
  let x = Theory_int.new_var t ~domain:4 in
  Ctx.assert_formula ctx (Theory_int.eq_const x 2);
  Ctx.assert_formula ctx (Theory_int.le_const x 1);
  Alcotest.(check bool) "contradiction detected" true (Theory_int.solve t = S.Unsat);
  let rounds, lemmas = Theory_int.stats t in
  Alcotest.(check bool) "lemmas were needed" true (rounds > 0 && lemmas > 0)

(* ---- small fixtures ---- *)

let bell_line () =
  (* cx 0 1; cx 1 2 on a 3-qubit line: solvable with no swaps *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 1 2;
  Instance.make ~swap_duration:3 (Circuit.build b ~name:"bell") (Devices.line 3)

let needs_swap_line () =
  (* cx 0 1; cx 0 2; cx 1 2 on a 3-qubit line: the triangle of
     interactions cannot be embedded in a path, so >= 1 swap *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 0 2;
  Circuit.add2 b "cx" 1 2;
  Instance.make ~swap_duration:3 (Circuit.build b ~name:"tri") (Devices.line 3)

let toffoli_qx2 () =
  Instance.make ~swap_duration:3 (B.Standard.toffoli_example ()) Devices.qx2

(* ---- encoder behaviour ---- *)

let test_encoder_unsat_below_lb () =
  let inst = bell_line () in
  let t_lb = Instance.depth_lower_bound inst in
  Alcotest.(check int) "t_lb" 2 t_lb;
  let enc = Encoder.build inst ~t_max:4 in
  let sel = Encoder.depth_selector enc (t_lb - 1) in
  Alcotest.(check bool) "below LB unsat" true (Encoder.solve ~assumptions:[ sel ] enc = S.Unsat);
  let sel2 = Encoder.depth_selector enc t_lb in
  Alcotest.(check bool) "at LB sat" true (Encoder.solve ~assumptions:[ sel2 ] enc = S.Sat)

let test_encoder_extract_valid () =
  let inst = bell_line () in
  let enc = Encoder.build inst ~t_max:4 in
  Alcotest.(check bool) "sat" true (Encoder.solve enc = S.Sat);
  let r = Encoder.extract enc in
  Alcotest.(check (list string)) "no violations" []
    (List.map Validate.violation_to_string (Validate.check inst r))

let test_encoder_swap_bound_zero () =
  (* triangle on a line with zero swaps is impossible *)
  let inst = needs_swap_line () in
  let t_max = 12 in
  let enc = Encoder.build inst ~t_max in
  Alcotest.(check bool) "sat with swaps" true (Encoder.solve enc = S.Sat);
  Encoder.build_counter enc ~max_bound:4;
  (match Encoder.swap_bound_assumption enc 0 with
  | Some a -> Alcotest.(check bool) "0 swaps unsat" true (Encoder.solve ~assumptions:[ a ] enc = S.Unsat)
  | None -> Alcotest.fail "expected a bound assumption");
  match Encoder.swap_bound_assumption enc 1 with
  | Some a ->
    Alcotest.(check bool) "1 swap sat" true (Encoder.solve ~assumptions:[ a ] enc = S.Sat);
    Alcotest.(check int) "model swap count" 1 (Encoder.model_swap_count enc)
  | None -> Alcotest.fail "expected a bound assumption"

let test_encoder_olsq_equals_olsq2 () =
  (* same optimal depth from the redundant and succinct formulations *)
  let inst = toffoli_qx2 () in
  let d_olsq2 =
    match (Synth.depth ~options:(Synth.configured Config.olsq2_bv) inst).Synthesis.result with
    | Some r -> r.Result_.depth
    | None -> -1
  in
  let d_olsq =
    match (Synth.depth ~options:(Synth.configured Config.olsq_bv) inst).Synthesis.result with
    | Some r -> r.Result_.depth
    | None -> -2
  in
  Alcotest.(check int) "formulations agree" d_olsq2 d_olsq

let test_encoder_configs_agree_small () =
  (* all encodings agree on a small instance, incl. the lazy-int arm *)
  let inst = needs_swap_line () in
  let reference = ref None in
  List.iter
    (fun config ->
      match (Synth.depth ~options:(Synth.configured config) inst).Synthesis.result with
      | Some r -> (
        match !reference with
        | None -> reference := Some r.Result_.depth
        | Some d -> Alcotest.(check int) (Config.name config) d r.Result_.depth)
      | None -> Alcotest.fail (Config.name config ^ " failed"))
    Config.table1_configs

(* ---- optimizer ---- *)

let test_depth_optimal_toffoli () =
  let inst = toffoli_qx2 () in
  match (Synth.depth inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "depth = T_LB" (Instance.depth_lower_bound inst) r.Result_.depth;
    Alcotest.(check string) "optimal" "optimal" (Result_.status_string r.Result_.status);
    Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

let test_swap_optimal_toffoli () =
  let inst = toffoli_qx2 () in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    (* QX2 contains a triangle, so the Toffoli needs no SWAPs *)
    Alcotest.(check int) "0 swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

let test_swap_optimal_triangle_line () =
  let inst = needs_swap_line () in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    Alcotest.(check int) "exactly 1 swap" 1 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

let test_optimizer_pareto_monotone () =
  let qaoa = B.Qaoa.random ~seed:4 6 in
  let inst = Instance.make ~swap_duration:1 qaoa (Devices.grid 2 3) in
  let o = Synth.swaps inst in
  (* swap counts along the pareto sweep never increase with depth *)
  let rec monotone = function
    | (_, s1) :: ((_, s2) :: _ as rest) -> s1 >= s2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "pareto monotone" true (monotone o.Synthesis.pareto);
  match o.Synthesis.result with
  | Some r -> Validate.check_exn inst r
  | None -> Alcotest.fail "no result"

let test_budget_timeout_returns_quickly () =
  let qaoa = B.Qaoa.random ~seed:8 12 in
  let inst = Instance.make ~swap_duration:1 qaoa Devices.sycamore54 in
  let clock = Olsq2_util.Stopwatch.start () in
  let o = Synth.depth ~budget:(Core.Budget.of_seconds 0.2) inst in
  ignore o;
  Alcotest.(check bool) "respects budget" true (Olsq2_util.Stopwatch.elapsed clock < 30.0)

(* ---- TB encoder ---- *)

let test_tb_blocks_toffoli () =
  let inst = toffoli_qx2 () in
  let o = Synth.tb_blocks inst in
  match (o.Synthesis.result, o.Synthesis.pareto) with
  | Some r, [ (blocks, _) ] ->
    Alcotest.(check int) "one block suffices" 1 blocks;
    Alcotest.(check int) "no swaps" 0 r.Result_.swap_count;
    Validate.check_exn inst r
  | _ -> Alcotest.fail "no TB result"

let test_tb_swaps_triangle_line () =
  let inst = needs_swap_line () in
  let o = Synth.tb_swaps inst in
  match o.Synthesis.result with
  | Some r ->
    Alcotest.(check int) "1 swap" 1 r.Result_.swap_count;
    Validate.check_exn inst r
  | None -> Alcotest.fail "no TB result"

let test_tb_fixed_initial_mapping () =
  (* pinning an adversarial initial mapping forces swaps where the free
     mapping needs none *)
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 2;
  let circuit = Circuit.build b ~name:"pin" in
  let inst = Instance.make ~swap_duration:3 circuit (Devices.line 3) in
  (* free mapping: 1 block, no swaps *)
  let enc = Tb_encoder.build inst ~num_blocks:1 in
  Alcotest.(check bool) "free sat" true (Tb_encoder.solve enc = S.Sat);
  (* pinned q0->p0, q1->p1, q2->p2: cx 0 2 not adjacent, 1 block unsat *)
  let enc2 = Tb_encoder.build inst ~num_blocks:1 in
  Tb_encoder.fix_initial_mapping enc2 [| 0; 1; 2 |];
  Alcotest.(check bool) "pinned 1 block unsat" true (Tb_encoder.solve enc2 = S.Unsat);
  let enc3 = Tb_encoder.build inst ~num_blocks:2 in
  Tb_encoder.fix_initial_mapping enc3 [| 0; 1; 2 |];
  Alcotest.(check bool) "pinned 2 blocks sat" true (Tb_encoder.solve enc3 = S.Sat);
  let r = Tb_encoder.extract enc3 in
  Alcotest.(check (array int)) "initial mapping respected" [| 0; 1; 2 |]
    (Result_.initial_mapping r.Tb_encoder.expanded);
  Validate.check_exn inst r.Tb_encoder.expanded

(* ---- validator negative tests ---- *)

let valid_result () =
  let inst = bell_line () in
  let enc = Encoder.build inst ~t_max:4 in
  assert (Encoder.solve enc = S.Sat);
  (inst, Encoder.extract enc)

let test_validate_detects_injectivity () =
  let inst, r = valid_result () in
  let broken = { r with Result_.mapping = Array.map Array.copy r.Result_.mapping } in
  broken.Result_.mapping.(0).(0) <- broken.Result_.mapping.(0).(1);
  Alcotest.(check bool) "injectivity violation found" false (Validate.is_valid inst broken)

let test_validate_detects_dependency () =
  let inst, r = valid_result () in
  let broken = { r with Result_.schedule = Array.copy r.Result_.schedule } in
  (* make gate 1 run before gate 0 *)
  broken.Result_.schedule.(0) <- max r.Result_.schedule.(0) r.Result_.schedule.(1);
  broken.Result_.schedule.(1) <- 0;
  Alcotest.(check bool) "dependency violation found" false (Validate.is_valid inst broken)

let test_validate_detects_adjacency () =
  let inst, r = valid_result () in
  let broken = { r with Result_.mapping = Array.map Array.copy r.Result_.mapping } in
  (* transpose q0 and q2 at gate 0's time only: keeps injectivity but
     breaks either gate adjacency or mapping continuity *)
  let t0 = r.Result_.schedule.(0) in
  let row = broken.Result_.mapping.(t0) in
  let tmp = row.(0) in
  row.(0) <- row.(2);
  row.(2) <- tmp;
  Alcotest.(check bool) "mapping tampering found" false (Validate.is_valid inst broken)

let test_validate_detects_bad_swap () =
  let inst, r = valid_result () in
  let broken =
    { r with Result_.swaps = [ { Result_.sw_edge = (0, 2); sw_finish = r.Result_.depth - 1 } ] }
  in
  (* (0,2) is not an edge of the line, and the mapping does not follow it *)
  Alcotest.(check bool) "phantom swap found" false (Validate.is_valid inst broken)

let test_validate_messages () =
  let inst, r = valid_result () in
  let broken = { r with Result_.schedule = Array.map (fun t -> t + 100) r.Result_.schedule } in
  let vs = Validate.check inst broken in
  Alcotest.(check bool) "messages render" true
    (List.for_all (fun v -> String.length (Validate.violation_to_string v) > 0) vs);
  Alcotest.(check bool) "check_exn raises" true
    (try
       Validate.check_exn inst broken;
       false
     with Failure _ -> true)

(* ---- export ---- *)

let test_export_physical_circuit () =
  let inst = needs_swap_line () in
  match (Synth.swaps inst).Synthesis.result with
  | Some r ->
    let phys = Core.Export.physical_circuit inst r in
    (* 3 original gates + 1 swap *)
    Alcotest.(check int) "gates + swaps" 4 (Circuit.num_gates phys);
    (* every two-qubit op in the physical circuit respects adjacency *)
    List.iter
      (fun g ->
        let p, p' = Olsq2_circuit.Gate.pair g in
        if not (Olsq2_device.Coupling.are_adjacent inst.Instance.device p p') then
          Alcotest.fail "physical circuit uses non-edge")
      (Circuit.two_qubit_gates phys);
    Alcotest.(check bool) "report mentions swaps" true
      (String.length (Core.Export.report inst r) > 0)
  | None -> Alcotest.fail "no result"

let suite =
  [
    ( "core",
      [
        Alcotest.test_case "ivar domain enumeration" `Quick test_ivar_domain_enumeration;
        Alcotest.test_case "ivar comparisons" `Quick test_ivar_comparisons;
        Alcotest.test_case "ivar eq/neq" `Quick test_ivar_eq_neq;
        Alcotest.test_case "ivar domain 1" `Quick test_ivar_domain_one;
        Alcotest.test_case "ivar out-of-range consts" `Quick test_ivar_out_of_range_constants;
        Alcotest.test_case "theory_int lemmas" `Quick test_theory_int_lemma_stats;
        Alcotest.test_case "encoder unsat below LB" `Quick test_encoder_unsat_below_lb;
        Alcotest.test_case "encoder extract valid" `Quick test_encoder_extract_valid;
        Alcotest.test_case "encoder swap bounds" `Quick test_encoder_swap_bound_zero;
        Alcotest.test_case "OLSQ = OLSQ2 optima" `Slow test_encoder_olsq_equals_olsq2;
        Alcotest.test_case "all configs agree (small)" `Slow test_encoder_configs_agree_small;
        Alcotest.test_case "depth-optimal toffoli" `Quick test_depth_optimal_toffoli;
        Alcotest.test_case "swap-optimal toffoli" `Quick test_swap_optimal_toffoli;
        Alcotest.test_case "swap-optimal triangle" `Quick test_swap_optimal_triangle_line;
        Alcotest.test_case "pareto monotone" `Slow test_optimizer_pareto_monotone;
        Alcotest.test_case "budget respected" `Quick test_budget_timeout_returns_quickly;
        Alcotest.test_case "tb blocks toffoli" `Quick test_tb_blocks_toffoli;
        Alcotest.test_case "tb swaps triangle" `Quick test_tb_swaps_triangle_line;
        Alcotest.test_case "tb fixed initial mapping" `Quick test_tb_fixed_initial_mapping;
        Alcotest.test_case "validate: injectivity" `Quick test_validate_detects_injectivity;
        Alcotest.test_case "validate: dependency" `Quick test_validate_detects_dependency;
        Alcotest.test_case "validate: adjacency" `Quick test_validate_detects_adjacency;
        Alcotest.test_case "validate: phantom swap" `Quick test_validate_detects_bad_swap;
        Alcotest.test_case "validate: messages" `Quick test_validate_messages;
        Alcotest.test_case "export physical circuit" `Quick test_export_physical_circuit;
      ] );
  ]
