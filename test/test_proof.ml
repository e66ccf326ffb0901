(* Tests for the proof subsystem: DRAT capture and serialization, the
   trusted checker (positive and negative cases, both modes), assumption
   cores as checkable lemmas, and end-to-end optimality certificates. *)

module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Drat = Olsq2_proof.Drat
module Checker = Olsq2_proof.Checker
module Core = Olsq2_core
module Certificate = Core.Certificate
module Instance = Core.Instance
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices

let dim = L.of_dimacs
let clause lits = Array.of_list (List.map dim lits)
let cnf clauses = Array.of_list (List.map clause clauses)

let modes = [ ("forward", Checker.Forward); ("backward", Checker.Backward) ]

let check_verdict name expected report =
  let got = match report.Checker.verdict with Checker.Valid -> true | Checker.Invalid _ -> false in
  Alcotest.(check bool) name expected got

(* ---- serialization round-trips ---- *)

let steps_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Drat.Add c, Drat.Add d | Drat.Delete c, Drat.Delete d -> c = d
         | Drat.Add _, Drat.Delete _ | Drat.Delete _, Drat.Add _ -> false)
       a b

let test_roundtrip fmt () =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  let a = S.new_lit s and b = S.new_lit s and c = S.new_lit s in
  S.add_clause s [ a; b ];
  S.add_clause s [ L.negate a; c ];
  S.add_clause s [ L.negate b; c ];
  S.add_clause s [ L.negate c ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let steps = Array.to_list (Drat.steps sink) in
  Alcotest.(check bool) "proof nonempty" true (steps <> []);
  let back = Drat.parse fmt (Drat.to_string fmt sink) in
  Alcotest.(check bool) "steps survive round-trip" true (steps_equal steps back)

let test_text_parse_features () =
  let steps = Drat.parse Drat.Text "c a comment\n1 -2 0\nd 3 0\n0\n" in
  Alcotest.(check int) "three steps" 3 (List.length steps);
  (match steps with
  | [ Drat.Add a; Drat.Delete d; Drat.Add e ] ->
    Alcotest.(check bool) "add lits" true (a = clause [ 1; -2 ]);
    Alcotest.(check bool) "delete lits" true (d = clause [ 3 ]);
    Alcotest.(check int) "empty clause" 0 (Array.length e)
  | _ -> Alcotest.fail "unexpected step shapes");
  let fails s = match Drat.parse Drat.Text s with exception Failure _ -> true | _ -> false in
  Alcotest.(check bool) "bad literal rejected" true (fails "1 x 0\n");
  Alcotest.(check bool) "unterminated clause rejected" true (fails "1 2\n")

let test_binary_parse_errors () =
  let fails s = match Drat.parse Drat.Binary s with exception Failure _ -> true | _ -> false in
  Alcotest.(check bool) "bad tag rejected" true (fails "x\x02\x00");
  Alcotest.(check bool) "truncated clause rejected" true (fails "a\x02")

(* ---- checker: hand-written proofs ---- *)

(* (x|y)(x|~y)(~x|y)(~x|~y) is UNSAT; [x] is RUP, then the empty clause. *)
let test_checker_accepts () =
  let formula = cnf [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let proof = [| Drat.Add (clause [ 1 ]); Drat.Add [||] |] in
  List.iter
    (fun (name, mode) ->
      check_verdict name true (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

let test_checker_accepts_with_deletion () =
  let formula = cnf [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let proof =
    [|
      Drat.Add (clause [ 1 ]);
      Drat.Delete (clause [ 1; 2 ]);
      Drat.Delete (clause [ 1; -2 ]);
      Drat.Add [||];
    |]
  in
  List.iter
    (fun (name, mode) ->
      check_verdict name true (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* [~y] on (x|y)(~x|y) is neither RUP (no conflict under y=false) nor RAT
   on ~y (the resolvent with (x|y) is (x), not a tautology, and not RUP). *)
let test_checker_rejects_non_lemma () =
  let formula = cnf [ [ 1; 2 ]; [ -1; 2 ] ] in
  let proof = [| Drat.Add (clause [ -2 ]) |] in
  List.iter
    (fun (name, mode) ->
      match (Checker.check_entails ~mode ~formula ~proof (clause [ -2 ])).Checker.verdict with
      | Checker.Valid -> Alcotest.failf "%s: accepted a non-lemma" name
      | Checker.Invalid { step; _ } -> Alcotest.(check int) (name ^ " step") 0 step)
    modes

let test_checker_rejects_no_conclusion () =
  let formula = cnf [ [ 1; 2 ] ] in
  (* a fine RAT lemma, but the proof never reaches the empty clause *)
  let proof = [| Drat.Add (clause [ 1 ]) |] in
  List.iter
    (fun (name, mode) ->
      check_verdict name false (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* ---- checker vs solver-emitted proofs ---- *)

let php_into s holes =
  let pigeons = holes + 1 in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> S.new_lit s)) in
  for p = 0 to pigeons - 1 do
    S.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        S.add_clause s [ L.negate v.(p).(h); L.negate v.(q).(h) ]
      done
    done
  done

let php_proof holes =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  php_into s holes;
  Alcotest.(check bool) "php unsat" true (S.solve s = S.Unsat);
  sink

let test_solver_proof_checks () =
  let sink = php_proof 5 in
  Alcotest.(check bool) "learnt something" true (Drat.additions sink > 0);
  let formula = Drat.formula sink and proof = Drat.steps sink in
  List.iter
    (fun (name, mode) ->
      let r = Checker.check_unsat ~mode ~formula ~proof () in
      check_verdict name true r;
      Alcotest.(check bool) (name ^ " checked lemmas") true (r.Checker.lemmas_checked > 0))
    modes

(* Vivification rewrites clauses before and during search, logging each
   shortening add-then-delete; the resulting UNSAT proof must still pass
   the trusted checker.  The small formula is built so the vivify pass
   deterministically shortens (a ∨ b ∨ c): assuming ¬a then ¬b unit-
   propagates ¬c through (¬c ∨ b), so c is dropped. *)
let test_vivified_unsat_proof () =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  let a = S.new_lit s and b = S.new_lit s and c = S.new_lit s in
  S.add_clause s [ a; b; c ];
  S.add_clause s [ L.negate a; b ];
  S.add_clause s [ L.negate c; b ];
  S.add_clause s [ L.negate b; a ];
  S.add_clause s [ L.negate b; L.negate a ];
  S.vivify s;
  Alcotest.(check int) "one clause vivified" 1 (S.stats s).S.vivified_clauses;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let formula = Drat.formula sink and proof = Drat.steps sink in
  List.iter
    (fun (name, mode) ->
      check_verdict ("vivified " ^ name) true (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* Same end-to-end guarantee at scale: a conflict-heavy pigeonhole run
   with an explicit vivification pass in front of the search. *)
let test_vivified_php_proof_checks () =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  php_into s 5;
  S.vivify ~budget:100_000 s;
  Alcotest.(check bool) "php unsat" true (S.solve s = S.Unsat);
  let formula = Drat.formula sink and proof = Drat.steps sink in
  List.iter
    (fun (name, mode) ->
      check_verdict ("vivified php " ^ name) true (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* Backward checking must skip lemmas the contradiction does not depend
   on; it may never check more than forward does. *)
let test_backward_checks_no_more_than_forward () =
  let sink = php_proof 5 in
  let formula = Drat.formula sink and proof = Drat.steps sink in
  let f = Checker.check_unsat ~mode:Checker.Forward ~formula ~proof () in
  let b = Checker.check_unsat ~mode:Checker.Backward ~formula ~proof () in
  Alcotest.(check bool) "backward <= forward" true
    (b.Checker.lemmas_checked <= f.Checker.lemmas_checked)

(* Corruption: keep only the final (empty-clause) step.  PHP has no unit
   clauses, so nothing propagates and the empty clause cannot be RUP. *)
let test_truncated_proof_rejected () =
  let sink = php_proof 4 in
  let formula = Drat.formula sink in
  let steps = Drat.steps sink in
  let last = steps.(Array.length steps - 1) in
  (match last with
  | Drat.Add c -> Alcotest.(check int) "final step is the empty clause" 0 (Array.length c)
  | Drat.Delete _ -> Alcotest.fail "proof must end in an addition");
  List.iter
    (fun (name, mode) ->
      check_verdict name false (Checker.check_unsat ~mode ~formula ~proof:[| last |] ()))
    modes

(* Corruption: flip a literal of the first learnt clause.  The mutated
   clause asserts the wrong thing, so either it fails its own check or
   the suffix depending on the original fails. *)
let test_corrupted_lemma_rejected () =
  let sink = php_proof 4 in
  let formula = Drat.formula sink in
  let steps = Array.copy (Drat.steps sink) in
  let idx =
    let found = ref (-1) in
    Array.iteri
      (fun i s ->
        match s with
        | Drat.Add c when !found < 0 && Array.length c >= 2 -> found := i
        | _ -> ())
      steps;
    !found
  in
  Alcotest.(check bool) "a wide lemma exists" true (idx >= 0);
  (match steps.(idx) with
  | Drat.Add c ->
    let c = Array.copy c in
    c.(0) <- L.negate c.(0);
    steps.(idx) <- Drat.Add c
  | Drat.Delete _ -> assert false);
  let r = Checker.check_unsat ~mode:Checker.Forward ~formula ~proof:steps () in
  check_verdict "corrupted forward" false r

(* ---- assumption cores as lemmas ---- *)

let test_unsat_core_semantics () =
  let s = S.create () in
  let a = S.new_lit s and b = S.new_lit s and c = S.new_lit s in
  S.add_clause s [ L.negate a; L.negate b ];
  Alcotest.(check bool) "unsat" true (S.solve ~assumptions:[ a; b; c ] s = S.Unsat);
  let core = S.unsat_core s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "core lits come from the failed assumptions" true (l = a || l = b))
    core;
  (* a SAT call clears the core *)
  Alcotest.(check bool) "sat without assumptions" true (S.solve s = S.Sat);
  Alcotest.(check bool) "core cleared" true (S.unsat_core s = [])

let test_core_lemma_checkable () =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  let a = S.new_lit s and b = S.new_lit s and x = S.new_lit s in
  S.add_clause s [ L.negate a; x ];
  S.add_clause s [ L.negate b; L.negate x ];
  Alcotest.(check bool) "unsat under {a,b}" true (S.solve ~assumptions:[ a; b ] s = S.Unsat);
  let core = S.unsat_core s in
  let goal = Array.of_list (List.map L.negate core) in
  Alcotest.(check bool) "goal is nonempty" true (Array.length goal > 0);
  let formula = Drat.formula sink and proof = Drat.steps sink in
  List.iter
    (fun (name, mode) ->
      check_verdict name true (Checker.check_entails ~mode ~formula ~proof goal))
    modes

(* ---- end-to-end certificates ---- *)

let tiny_instance () =
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 1 2;
  Circuit.add2 b "cx" 0 2;
  Instance.make ~swap_duration:1 (Circuit.build b ~name:"tri") (Devices.line 3)

let test_certify_depth_end_to_end () =
  let instance = tiny_instance () in
  let report = Core.Synthesis.run ~options:Core.Synthesis.Options.(with_certify true default) ~objective:Core.Synthesis.Depth instance in
  Alcotest.(check bool) "optimal" true report.Core.Synthesis.optimal;
  match report.Core.Synthesis.certificate with
  | None -> Alcotest.fail "no certificate for a proved-optimal depth run"
  | Some cert ->
    Alcotest.(check bool) "certificate valid" true (Certificate.valid cert);
    Alcotest.(check bool) "model validated" true cert.Certificate.model_valid;
    (match cert.Certificate.lower_bound with
    | None -> ()
    | Some lb ->
      Alcotest.(check bool) "lower bound accepted" true lb.Certificate.accepted;
      Alcotest.(check bool) "core is bound assumptions only" true (lb.Certificate.core_size >= 1));
    Alcotest.(check bool) "provenance recorded" true (cert.Certificate.provenance <> [])

(* Same end-to-end certification, but with CNF preprocessing +
   inprocessing enabled: the simplifier's resolvent additions and
   deletions flow through the same DRAT sink, so the checker must still
   accept the lower-bound refutation. *)
let test_certify_depth_with_simplification () =
  let instance = tiny_instance () in
  let plain = Core.Synthesis.run ~objective:Core.Synthesis.Depth instance in
  let report =
    Core.Synthesis.run ~options:Core.Synthesis.Options.(default |> with_certify true |> with_simplify true) ~objective:Core.Synthesis.Depth instance
  in
  Alcotest.(check bool) "optimal" true report.Core.Synthesis.optimal;
  (match (plain.Core.Synthesis.result, report.Core.Synthesis.result) with
  | Some a, Some b ->
    Alcotest.(check int) "same optimum as unsimplified run" a.Core.Result_.depth
      b.Core.Result_.depth
  | _ -> Alcotest.fail "both runs must produce a schedule");
  match report.Core.Synthesis.certificate with
  | None -> Alcotest.fail "no certificate for a proved-optimal simplified run"
  | Some cert ->
    Alcotest.(check bool) "certificate valid" true (Certificate.valid cert);
    Alcotest.(check bool) "model validated" true cert.Certificate.model_valid;
    (match cert.Certificate.lower_bound with
    | None -> ()
    | Some lb -> Alcotest.(check bool) "lower bound accepted" true lb.Certificate.accepted)

let test_certify_swaps_end_to_end () =
  let instance = tiny_instance () in
  let report =
    Core.Synthesis.run ~options:Core.Synthesis.Options.(with_certify true default)
      ~objective:(Core.Synthesis.Swaps { warm_start = None })
      instance
  in
  Alcotest.(check bool) "optimal" true report.Core.Synthesis.optimal;
  match report.Core.Synthesis.certificate with
  | None -> Alcotest.fail "no certificate for a proved-optimal swap run"
  | Some cert -> Alcotest.(check bool) "certificate valid" true (Certificate.valid cert)

let optimal_depth instance =
  let o = Synth.depth instance in
  Alcotest.(check bool) "depth optimum proved" true o.Core.Synthesis.optimal;
  match o.Core.Synthesis.result with
  | Some r -> r.Core.Result_.depth
  | None -> Alcotest.fail "no depth-optimal schedule found"

let test_certify_writes_proof_file () =
  let instance = tiny_instance () in
  let depth = optimal_depth instance in
  let path = Filename.temp_file "olsq2_cert" ".drat" in
  let cert = Certificate.certify_depth instance ~depth ~proof_file:path in
  Alcotest.(check bool) "valid" true (Certificate.valid cert);
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  match cert.Certificate.lower_bound with
  | Some lb when lb.Certificate.accepted ->
    Alcotest.(check bool) "proof file nonempty" true (len > 0)
  | _ -> Alcotest.fail "expected an accepted lower bound below the optimum"

let test_certify_rejects_false_optimum () =
  (* claim one more than the true optimum: the refutation of the bound
     below the claim must fail, because that bound is satisfiable *)
  let instance = tiny_instance () in
  let depth = optimal_depth instance in
  let cert = Certificate.certify_depth instance ~depth:(depth + 1) in
  Alcotest.(check bool) "not certified" false (Certificate.valid cert);
  match cert.Certificate.lower_bound with
  | Some lb -> Alcotest.(check bool) "lower bound rejected" false lb.Certificate.accepted
  | None -> Alcotest.fail "expected a lower-bound attempt"

let suite =
  [
    ( "proof",
      [
        Alcotest.test_case "drat text round-trip" `Quick (test_roundtrip Drat.Text);
        Alcotest.test_case "drat binary round-trip" `Quick (test_roundtrip Drat.Binary);
        Alcotest.test_case "drat text parse features" `Quick test_text_parse_features;
        Alcotest.test_case "drat binary parse errors" `Quick test_binary_parse_errors;
        Alcotest.test_case "checker accepts" `Quick test_checker_accepts;
        Alcotest.test_case "checker accepts with deletions" `Quick test_checker_accepts_with_deletion;
        Alcotest.test_case "checker rejects non-lemma" `Quick test_checker_rejects_non_lemma;
        Alcotest.test_case "checker rejects missing conclusion" `Quick
          test_checker_rejects_no_conclusion;
        Alcotest.test_case "solver proof checks" `Quick test_solver_proof_checks;
        Alcotest.test_case "vivified unsat proof checks" `Quick test_vivified_unsat_proof;
        Alcotest.test_case "vivified php proof checks" `Quick test_vivified_php_proof_checks;
        Alcotest.test_case "backward checks no more than forward" `Quick
          test_backward_checks_no_more_than_forward;
        Alcotest.test_case "truncated proof rejected" `Quick test_truncated_proof_rejected;
        Alcotest.test_case "corrupted lemma rejected" `Quick test_corrupted_lemma_rejected;
        Alcotest.test_case "unsat core semantics" `Quick test_unsat_core_semantics;
        Alcotest.test_case "core lemma checkable" `Quick test_core_lemma_checkable;
        Alcotest.test_case "certify depth end-to-end" `Quick test_certify_depth_end_to_end;
        Alcotest.test_case "certify swaps end-to-end" `Quick test_certify_swaps_end_to_end;
        Alcotest.test_case "certify depth with simplification" `Quick
          test_certify_depth_with_simplification;
        Alcotest.test_case "certificate writes proof file" `Quick test_certify_writes_proof_file;
        Alcotest.test_case "false optimum rejected" `Quick test_certify_rejects_false_optimum;
      ] );
  ]
