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
module Session = Olsq2_incremental.Session
module Synthesis = Core.Synthesis
module Budget = Core.Budget

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

(* Deletions are matched by literal set: a permuted deletion still
   removes its clause.  The lemma (1) is RUP only while (1|2) is live,
   so once it is deleted the proof must be rejected. *)
let test_checker_permuted_deletion () =
  let formula = cnf [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let proof = [| Drat.Delete (clause [ 2; 1 ]); Drat.Add (clause [ 1 ]); Drat.Add [||] |] in
  List.iter
    (fun (name, mode) ->
      check_verdict (name ^ ": permuted deletion removed its clause") false
        (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* A deletion naming no live clause is skipped, and counted. *)
let test_checker_skips_unknown_deletion () =
  let formula = cnf [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] in
  let proof = [| Drat.Delete (clause [ 1; 3 ]); Drat.Add (clause [ 1 ]); Drat.Add [||] |] in
  List.iter
    (fun (name, mode) ->
      let r = Checker.check_unsat ~mode ~formula ~proof () in
      check_verdict (name ^ ": unknown deletion skipped") true r;
      Alcotest.(check int) (name ^ ": deletion counted") 1 r.Checker.deletions)
    modes

(* Deleting (1|3) must leave (1|2), a clause of the same length, live:
   the lemma (1) needs it. *)
let test_checker_keeps_same_length_clause () =
  let formula = cnf [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ]; [ 1; 3 ] ] in
  let proof = [| Drat.Delete (clause [ 3; 1 ]); Drat.Add (clause [ 1 ]); Drat.Add [||] |] in
  List.iter
    (fun (name, mode) ->
      check_verdict (name ^ ": same-length clause stays live") true
        (Checker.check_unsat ~mode ~formula ~proof ()))
    modes

(* A lemma over a fresh variable is RAT, yet not implied: entailment
   checks must not take it, as a lemma or as the goal. *)
let test_checker_entails_rejects_rat () =
  let formula = cnf [ [ 1; 2 ] ] in
  List.iter
    (fun (name, mode) ->
      check_verdict (name ^ ": RAT goal") false
        (Checker.check_entails ~mode ~formula ~proof:[||] (clause [ -3 ]));
      check_verdict (name ^ ": RAT lemma") false
        (Checker.check_entails ~mode ~formula ~proof:[| Drat.Add (clause [ -3 ]) |]
           (clause [ -3; 1 ])))
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

let optimal_result ?(objective = Synthesis.Depth) instance =
  let o = Synth.run objective instance in
  Alcotest.(check bool) "optimum proved" true o.Synthesis.optimal;
  match o.Synthesis.result with
  | Some r -> r
  | None -> Alcotest.fail "no optimal schedule found"

let test_certify_writes_proof_file () =
  let instance = tiny_instance () in
  let res = optimal_result instance in
  let path = Filename.temp_file "olsq2_cert" ".drat" in
  let cert = Certificate.certify_depth instance res ~depth:res.Core.Result_.depth ~proof_file:path in
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
  let res = optimal_result instance in
  let cert = Certificate.certify_depth instance res ~depth:(res.Core.Result_.depth + 1) in
  Alcotest.(check bool) "not certified" false (Certificate.valid cert);
  match cert.Certificate.lower_bound with
  | Some lb -> Alcotest.(check bool) "lower bound rejected" false lb.Certificate.accepted
  | None -> Alcotest.fail "expected a lower-bound attempt"

(* ---- certification on the session ---- *)

(* The library defaults when OLSQ2_INCREMENTAL and OLSQ2_WORKERS are
   unset: the session oracle, sequential.  Pinned so the suite exercises
   the session path under any environment. *)
let session_options = Synthesis.Options.(default |> with_incremental true |> with_workers 1)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let lower_bound_of name (cert : Certificate.t) =
  match cert.Certificate.lower_bound with
  | Some lb -> lb
  | None -> Alcotest.failf "%s: expected a lower-bound attempt" name

(* Claim [optimum] for [model] on a fresh proof-logged session, the way
   the optimizer certifies after its loop. *)
let session_certificate ?mode instance (model : Core.Result_.t) claim ~optimum =
  let sink = Drat.create () in
  let sess =
    Session.create ~proof:(Drat.logger sink)
      ~t_max:(max model.Core.Result_.depth optimum + 1)
      ~swap_duration:instance.Instance.swap_duration instance.Instance.circuit
      instance.Instance.device
  in
  let r =
    Certificate.refute claim ~optimum ~formula:Certificate.Session (fun () ->
        (match claim with
        | Certificate.Swaps_at_depth _ -> Session.build_counter sess ~max_bound:(max optimum 1)
        | Certificate.Depth -> ());
        {
          Certificate.solver = Session.solver sess;
          solve = (fun assumptions -> Session.solve ~assumptions sess);
          depth_selector = Session.depth_selector sess;
          swap_bound = Session.swap_bound_assumption sess;
          provenance = (fun () -> Session.provenance sess);
        })
  in
  Certificate.finish ?mode ~sink instance model r

let test_session_certificate_names_session () =
  let options = Synthesis.Options.with_certify true session_options in
  let report = Synthesis.run ~options ~objective:Synthesis.Depth (tiny_instance ()) in
  match report.Synthesis.certificate with
  | None -> Alcotest.fail "no certificate for a proved-optimal depth run"
  | Some cert ->
    Alcotest.(check bool) "valid" true (Certificate.valid cert);
    Alcotest.(check bool) "certifies the session" true (cert.Certificate.formula = Certificate.Session);
    Alcotest.(check bool) "claims no Config arm" false
      (contains (Certificate.to_string cert) (Core.Config.name Core.Config.default));
    Alcotest.(check bool) "session provenance" true (cert.Certificate.provenance <> [])

let test_fallback_names_classic_config () =
  let options = Synthesis.Options.(default |> with_incremental false |> with_certify true) in
  let report = Synthesis.run ~options ~objective:Synthesis.Depth (tiny_instance ()) in
  match report.Synthesis.certificate with
  | Some { Certificate.formula = Certificate.Classic config; _ } ->
    Alcotest.(check string) "pure-SAT arm" (Core.Config.name Core.Config.default)
      (Core.Config.name config)
  | Some _ -> Alcotest.fail "a classic run's certificate must name its classic formula"
  | None -> Alcotest.fail "no certificate"

(* [--proof FILE] on the session path writes the session's steps. *)
let test_session_proof_file () =
  let path = Filename.temp_file "olsq2_session" ".drat" in
  let options = Synthesis.Options.with_certify ~proof_file:path true session_options in
  let report = Synthesis.run ~options ~objective:Synthesis.Depth (tiny_instance ()) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match report.Synthesis.certificate with
  | Some cert -> (
    Alcotest.(check bool) "certifies the session" true (cert.Certificate.formula = Certificate.Session);
    match (lower_bound_of "session" cert).Certificate.check with
    | Some c ->
      let additions =
        List.length
          (List.filter (function Drat.Add _ -> true | Drat.Delete _ -> false) (Drat.parse Drat.Text text))
      in
      Alcotest.(check int) "file additions = proof_additions" c.Certificate.proof_additions additions;
      Alcotest.(check bool) "accepted" true (Certificate.valid cert)
    | None -> Alcotest.fail "the refutation did not complete")
  | None -> Alcotest.fail "no certificate"

(* Session proofs check in both modes, and false optima fail on the
   session as on the classic fallback: claiming one more than the
   optimum makes the refuted bound satisfiable. *)
let test_session_modes_and_false_optima () =
  let instance = tiny_instance () in
  let depth_res = optimal_result instance in
  let swaps_res = optimal_result ~objective:(Synthesis.Swaps { warm_start = None }) instance in
  let d = depth_res.Core.Result_.depth in
  let sd = swaps_res.Core.Result_.depth and k = swaps_res.Core.Result_.swap_count in
  List.iter
    (fun (name, mode) ->
      let cert = session_certificate ~mode instance depth_res Certificate.Depth ~optimum:d in
      Alcotest.(check bool) (name ^ ": depth certificate valid") true (Certificate.valid cert);
      let cert =
        session_certificate ~mode instance swaps_res (Certificate.Swaps_at_depth sd) ~optimum:k
      in
      Alcotest.(check bool) (name ^ ": swaps certificate valid") true (Certificate.valid cert))
    modes;
  let false_optima =
    [
      ( "depth",
        session_certificate instance depth_res Certificate.Depth ~optimum:(d + 1),
        Certificate.certify_depth instance depth_res ~depth:(d + 1) );
      ( "swaps",
        session_certificate instance swaps_res (Certificate.Swaps_at_depth sd) ~optimum:(k + 1),
        Certificate.certify_swaps instance swaps_res ~depth:sd ~swaps:(k + 1) );
    ]
  in
  List.iter
    (fun (name, on_session, on_classic) ->
      List.iter
        (fun (path, cert) ->
          let lb = lower_bound_of name cert in
          Alcotest.(check bool) (Printf.sprintf "%s on the %s: not certified" name path) false
            (Certificate.valid cert);
          Alcotest.(check bool) (Printf.sprintf "%s on the %s: bound satisfiable" name path) true
            (contains lb.Certificate.detail "satisfiable"))
        [ ("session", on_session); ("classic encoder", on_classic) ])
    false_optima

(* The fallback runs under the run's budget: a preempted control or a
   spent deadline leaves its refutation incomplete. *)
let test_fallback_honours_budget () =
  let instance = tiny_instance () in
  let res = optimal_result instance in
  let ctl = Budget.control () in
  let preempted = Budget.start (Budget.with_control ctl Budget.unlimited) in
  Budget.preempt ctl;
  let spent = Budget.start (Budget.of_seconds 0.0) in
  List.iter
    (fun (name, st) ->
      let cert = Certificate.certify_depth ~budget:st instance res ~depth:res.Core.Result_.depth in
      let lb = lower_bound_of name cert in
      Alcotest.(check bool) (name ^ ": not accepted") false lb.Certificate.accepted;
      Alcotest.(check bool) (name ^ ": incomplete") true (contains lb.Certificate.detail "incomplete"))
    [ ("preempted", preempted); ("deadline spent", spent) ]

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
        Alcotest.test_case "checker: permuted deletion" `Quick test_checker_permuted_deletion;
        Alcotest.test_case "checker: entailment takes no RAT" `Quick
          test_checker_entails_rejects_rat;
        Alcotest.test_case "checker: unknown deletion skipped" `Quick
          test_checker_skips_unknown_deletion;
        Alcotest.test_case "checker: same-length clause stays live" `Quick
          test_checker_keeps_same_length_clause;
        Alcotest.test_case "session certificate names the session" `Quick
          test_session_certificate_names_session;
        Alcotest.test_case "fallback certificate names its config" `Quick
          test_fallback_names_classic_config;
        Alcotest.test_case "session proof file" `Quick test_session_proof_file;
        Alcotest.test_case "session modes and false optima" `Quick
          test_session_modes_and_false_optima;
        Alcotest.test_case "fallback honours the run budget" `Quick test_fallback_honours_budget;
      ] );
  ]
