(* Unit and property tests for the CDCL SAT solver and DIMACS I/O. *)

module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Dimacs = Olsq2_sat.Dimacs
module Rng = Olsq2_util.Rng

(* ---- Lit ---- *)

let test_lit_roundtrip () =
  for v = 0 to 20 do
    let pos = L.of_var v and neg = L.of_var ~sign:false v in
    Alcotest.(check int) "var of pos" v (L.var pos);
    Alcotest.(check int) "var of neg" v (L.var neg);
    Alcotest.(check bool) "sign pos" true (L.sign pos);
    Alcotest.(check bool) "sign neg" false (L.sign neg);
    Alcotest.(check bool) "negate involutive" true (L.negate (L.negate pos) = pos);
    Alcotest.(check bool) "dimacs roundtrip pos" true (L.of_dimacs (L.to_dimacs pos) = pos);
    Alcotest.(check bool) "dimacs roundtrip neg" true (L.of_dimacs (L.to_dimacs neg) = neg)
  done

(* ---- basic solving ---- *)

let test_trivial_sat () =
  let s = S.create () in
  let a = S.new_lit s in
  S.add_clause s [ a ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "model" true (S.model_value s a)

let test_trivial_unsat () =
  let s = S.create () in
  let a = S.new_lit s in
  S.add_clause s [ a ];
  S.add_clause s [ L.negate a ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "stays unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "not ok" false (S.is_ok s)

let test_empty_clause () =
  let s = S.create () in
  S.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (S.solve s = S.Unsat)

let test_no_clauses () =
  let s = S.create () in
  ignore (S.new_var s);
  Alcotest.(check bool) "vacuous sat" true (S.solve s = S.Sat)

let test_unit_propagation_chain () =
  let s = S.create () in
  let lits = Array.init 30 (fun _ -> S.new_lit s) in
  for i = 0 to 28 do
    S.add_clause s [ L.negate lits.(i); lits.(i + 1) ]
  done;
  S.add_clause s [ lits.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Array.iter (fun l -> Alcotest.(check bool) "chain forced" true (S.model_value s l)) lits

let test_tautological_clause_ignored () =
  let s = S.create () in
  let a = S.new_lit s in
  S.add_clause s [ a; L.negate a ];
  Alcotest.(check int) "tautology dropped" 0 (S.n_clauses s);
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

(* pigeonhole principle: n+1 pigeons into n holes is UNSAT *)
let php s_holes =
  let s = S.create () in
  let pigeons = s_holes + 1 in
  let v = Array.init pigeons (fun _ -> Array.init s_holes (fun _ -> S.new_lit s)) in
  for p = 0 to pigeons - 1 do
    S.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to s_holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        S.add_clause s [ L.negate v.(p).(h); L.negate v.(q).(h) ]
      done
    done
  done;
  S.solve s

let test_pigeonhole () =
  Alcotest.(check bool) "php 4 unsat" true (php 4 = S.Unsat);
  Alcotest.(check bool) "php 6 unsat" true (php 6 = S.Unsat)

(* graph coloring on cycles *)
let coloring_cnf n_vertices colors edges =
  let s = S.create () in
  let v = Array.init n_vertices (fun _ -> Array.init colors (fun _ -> S.new_lit s)) in
  Array.iter (fun row -> S.add_clause s (Array.to_list row)) v;
  List.iter
    (fun (a, b) ->
      for c = 0 to colors - 1 do
        S.add_clause s [ L.negate v.(a).(c); L.negate v.(b).(c) ]
      done)
    edges;
  s

let test_odd_cycle_coloring () =
  let cycle n = List.init n (fun i -> (i, (i + 1) mod n)) in
  Alcotest.(check bool) "C5 not 2-colorable" true (S.solve (coloring_cnf 5 2 (cycle 5)) = S.Unsat);
  Alcotest.(check bool) "C5 3-colorable" true (S.solve (coloring_cnf 5 3 (cycle 5)) = S.Sat);
  Alcotest.(check bool) "C6 2-colorable" true (S.solve (coloring_cnf 6 2 (cycle 6)) = S.Sat)

(* ---- assumptions and incrementality ---- *)

let test_assumptions () =
  let s = S.create () in
  let a = S.new_lit s and b = S.new_lit s in
  S.add_clause s [ a; b ];
  Alcotest.(check bool) "sat plain" true (S.solve s = S.Sat);
  Alcotest.(check bool) "sat under ~a" true (S.solve ~assumptions:[ L.negate a ] s = S.Sat);
  Alcotest.(check bool) "b forced" true (S.model_value s b);
  Alcotest.(check bool) "unsat under ~a ~b" true
    (S.solve ~assumptions:[ L.negate a; L.negate b ] s = S.Unsat);
  Alcotest.(check bool) "sat again" true (S.solve s = S.Sat)

let test_incremental_clause_addition () =
  let s = S.create () in
  let a = S.new_lit s and b = S.new_lit s in
  S.add_clause s [ a; b ];
  Alcotest.(check bool) "sat 1" true (S.solve s = S.Sat);
  S.add_clause s [ L.negate a ];
  Alcotest.(check bool) "sat 2" true (S.solve s = S.Sat);
  Alcotest.(check bool) "b now forced" true (S.model_value s b);
  S.add_clause s [ L.negate b ];
  Alcotest.(check bool) "unsat 3" true (S.solve s = S.Unsat)

let test_conflict_core () =
  let s = S.create () in
  let a = S.new_lit s and b = S.new_lit s and c = S.new_lit s in
  S.add_clause s [ L.negate a; L.negate b ];
  ignore c;
  Alcotest.(check bool) "unsat" true (S.solve ~assumptions:[ a; b; c ] s = S.Unsat);
  Alcotest.(check bool) "core nonempty" true (S.conflict_core s <> [])

(* ---- random CNF vs brute force (property) ---- *)

let brute_force_sat nv clauses =
  let sat_assign m =
    List.for_all
      (fun cl ->
        List.exists
          (fun l ->
            let bit = m land (1 lsl L.var l) <> 0 in
            if L.sign l then bit else not bit)
          cl)
      clauses
  in
  let rec scan m = m < 1 lsl nv && (sat_assign m || scan (m + 1)) in
  scan 0

let random_cnf rng nv ncl width =
  List.init ncl (fun _ ->
      List.init width (fun _ -> L.of_var ~sign:(Rng.bool rng) (Rng.int rng nv)))

let test_random_vs_bruteforce () =
  let rng = Rng.create 2024 in
  for _ = 1 to 150 do
    let nv = 3 + Rng.int rng 9 in
    let ncl = 5 + Rng.int rng 50 in
    let clauses = random_cnf rng nv ncl 3 in
    let s = S.create () in
    for _ = 1 to nv do
      ignore (S.new_var s)
    done;
    List.iter (S.add_clause s) clauses;
    let got = S.solve s in
    let expect = brute_force_sat nv clauses in
    match got with
    | S.Sat ->
      if not expect then Alcotest.fail "solver says SAT, brute force disagrees";
      if not (List.for_all (fun cl -> List.exists (S.model_value s) cl) clauses) then
        Alcotest.fail "reported model does not satisfy the formula"
    | S.Unsat -> if expect then Alcotest.fail "solver says UNSAT, brute force found a model"
    | S.Unknown _ -> Alcotest.fail "unexpected Unknown without resource limits"
  done

let test_random_assumptions_vs_bruteforce () =
  let rng = Rng.create 777 in
  for _ = 1 to 80 do
    let nv = 4 + Rng.int rng 6 in
    let clauses = random_cnf rng nv (5 + Rng.int rng 30) 3 in
    let assumptions =
      List.init (1 + Rng.int rng 3) (fun _ -> L.of_var ~sign:(Rng.bool rng) (Rng.int rng nv))
    in
    let s = S.create () in
    for _ = 1 to nv do
      ignore (S.new_var s)
    done;
    List.iter (S.add_clause s) clauses;
    let got = S.solve ~assumptions s in
    let expect = brute_force_sat nv (clauses @ List.map (fun l -> [ l ]) assumptions) in
    match got with
    | S.Sat -> if not expect then Alcotest.fail "SAT under assumptions but brute force disagrees"
    | S.Unsat -> if expect then Alcotest.fail "UNSAT under assumptions but brute force found model"
    | S.Unknown _ -> Alcotest.fail "unexpected Unknown"
  done

let test_max_conflicts_unknown () =
  let s = S.create () in
  let holes = 8 in
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
  done;
  match S.solve ~max_conflicts:10 s with
  | S.Unknown _ | S.Unsat -> () (* Unknown expected; Unsat acceptable if solved fast *)
  | S.Sat -> Alcotest.fail "php9 cannot be SAT"

(* ---- DIMACS ---- *)

let test_dimacs_roundtrip () =
  let cnf =
    { Dimacs.num_vars = 4; clauses = [ [ L.of_dimacs 1; L.of_dimacs (-2) ]; [ L.of_dimacs 3 ] ] }
  in
  let back = Dimacs.parse_string (Dimacs.to_string cnf) in
  Alcotest.(check int) "vars" 4 back.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length back.Dimacs.clauses)

let test_dimacs_parse () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse_string text in
  Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
  let s = Dimacs.load_into_solver cnf in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

let test_dimacs_multiline_clause () =
  let cnf = Dimacs.parse_string "p cnf 2 1\n1\n2 0\n" in
  Alcotest.(check int) "one clause across lines" 1 (List.length cnf.Dimacs.clauses)

let test_dimacs_print_parse_identity () =
  let rng = Rng.create 99 in
  for _ = 1 to 40 do
    let nv = 1 + Rng.int rng 12 in
    let clauses =
      List.init (Rng.int rng 20) (fun _ ->
          List.init (1 + Rng.int rng 4) (fun _ -> L.of_var ~sign:(Rng.bool rng) (Rng.int rng nv)))
    in
    let cnf = { Dimacs.num_vars = nv; clauses } in
    let back = Dimacs.parse_string (Dimacs.to_string cnf) in
    Alcotest.(check int) "vars preserved" nv back.Dimacs.num_vars;
    Alcotest.(check bool) "clauses preserved exactly" true (back.Dimacs.clauses = clauses)
  done

let test_dimacs_malformed_rejected () =
  let rejected_with fragment text =
    match Dimacs.parse_string text with
    | exception Failure msg ->
      if
        not
          (String.length msg >= String.length fragment
          && String.sub msg 0 (String.length fragment) = fragment)
      then Alcotest.failf "error %S does not start with %S" msg fragment
    | _ -> Alcotest.failf "parser accepted malformed input %S" text
  in
  let prefix = "Dimacs.parse_string:" in
  rejected_with prefix "p cnf x 2\n1 0\n";
  rejected_with prefix "p cnf 3\n1 0\n";
  rejected_with prefix "p cnf 3 two\n1 0\n";
  rejected_with prefix "p cnf -3 2\n1 0\n";
  rejected_with prefix "p dnf 3 2\n1 0\n";
  rejected_with prefix "p cnf 3 1\n1 y 0\n";
  rejected_with prefix "pcnf 3 1\n1 0\n"

(* ---- clause-arena compaction ---- *)

(* Forced compactions interleaved with solving: answers must keep
   agreeing with brute force (watch lists were rebuilt over the moved
   clauses), the wasted-bytes gauge must drop to zero, and the
   compaction counter must record every forced pass. *)
let test_compaction_watcher_integrity () =
  let rng = Rng.create 2024 in
  for _ = 1 to 25 do
    let nv = 6 + Rng.int rng 6 in
    let clauses =
      List.init
        (25 + Rng.int rng 30)
        (fun _ ->
          List.init (2 + Rng.int rng 3) (fun _ -> L.of_var ~sign:(Rng.bool rng) (Rng.int rng nv)))
    in
    let s = S.create () in
    for _ = 1 to nv do
      ignore (S.new_var s)
    done;
    List.iter (fun c -> S.add_clause s c) clauses;
    let r1 = S.solve s in
    let compactions0 = (S.stats s).S.compactions in
    S.compact s;
    Alcotest.(check int) "no waste after compaction" 0 (S.arena_wasted_bytes s);
    Alcotest.(check int) "compaction counted" (compactions0 + 1) (S.stats s).S.compactions;
    let r2 = S.solve s in
    let expect = brute_force_sat nv clauses in
    Alcotest.(check bool) "pre-compaction answer" expect (r1 = S.Sat);
    Alcotest.(check bool) "post-compaction answer" expect (r2 = S.Sat);
    if r2 = S.Sat then
      List.iter
        (fun c ->
          Alcotest.(check bool)
            "model satisfies clause after compaction" true
            (List.exists (fun l -> S.model_value s l) c))
        clauses
  done

(* Compaction after reduce-DB pressure: drive a solver through enough
   conflicts to accumulate learnt clauses, compact, and re-solve under
   assumptions — stale watcher entries into the old arena would crash or
   corrupt propagation here. *)
let test_compaction_after_learning () =
  let s = S.create () in
  let n = 7 in
  (* pigeonhole PHP(n, n-1): n*(n-1) vars, guaranteed conflict-heavy *)
  let holes = n - 1 in
  let v p h = L.of_var ((p * holes) + h) in
  for _ = 0 to (n * holes) - 1 do
    ignore (S.new_var s)
  done;
  for p = 0 to n - 1 do
    S.add_clause s (List.init holes (fun h -> v p h))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to n - 1 do
      for p' = p + 1 to n - 1 do
        S.add_clause s [ L.negate (v p h); L.negate (v p' h) ]
      done
    done
  done;
  Alcotest.(check bool) "php unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "learnt something" true ((S.stats s).S.learnt_clauses > 0);
  S.compact s;
  Alcotest.(check int) "no waste" 0 (S.arena_wasted_bytes s);
  Alcotest.(check bool) "still unsat after compaction" true (S.solve s = S.Unsat);
  Alcotest.(check bool)
    "high-water covers current arena" true
    (S.arena_high_water_bytes s >= S.arena_bytes s)

(* ---- the clause intake ---- *)

module Ctx = Olsq2_encode.Ctx
module Drat = Olsq2_proof.Drat

(* A random clause stream over [nv] variables: short clauses over few
   variables, so duplicates and tautologies are common, units make later
   literals root-true or root-false, and the empty clause occurs. *)
let clause_stream_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun nv ->
    let lit = map2 (fun v sign -> L.of_var ~sign v) (int_bound (nv - 1)) bool in
    let clause = frequency [ (1, return []); (4, list_size (int_range 1 2) lit); (12, list_size (int_range 2 5) lit) ] in
    pair (return nv) (list_size (int_range 0 25) (pair bool clause)))

let print_stream (nv, cls) =
  Printf.sprintf "nv=%d %s" nv
    (String.concat " "
       (List.map
          (fun (_, c) -> "[" ^ String.concat "," (List.map (fun l -> string_of_int (L.to_dimacs l)) c) ^ "]")
          cls))

(* Feed the stream through [Solver.add_clause] on one solver and through
   [Ctx.add2]/[add3]/[add_array] on a twin; the flag picks [add_array]'s
   [?pre] form.  Both must then hold the same problem clauses, root
   units, status and DRAT log. *)
let intake_twins ~proof (nv, cls) =
  let sink_a = Drat.create () and sink_b = Drat.create () in
  let a = S.create () and ctx = Ctx.create () in
  let b = Ctx.solver ctx in
  if proof then begin
    Drat.attach sink_a a;
    Drat.attach sink_b b
  end;
  for _ = 1 to nv do
    ignore (S.new_var a);
    ignore (Ctx.fresh_var ctx)
  done;
  List.iter
    (fun (use_pre, c) ->
      S.add_clause a c;
      match c with
      | [ x; y ] -> Ctx.add2 ctx x y
      | [ x; y; z ] -> Ctx.add3 ctx x y z
      | x :: rest when use_pre -> Ctx.add_array ctx ~pre:x (Array.of_list rest)
      | _ -> Ctx.add_array ctx (Array.of_list c))
    cls;
  let held s sink =
    ( S.fold_problem_clauses s (fun acc c -> c :: acc) [],
      S.root_units s,
      S.is_ok s,
      Drat.formula sink,
      Drat.steps sink )
  in
  let ha = held a sink_a and hb = held b sink_b in
  (* the held clauses must also mean the stream: same verdict as brute force *)
  let verdict_ok = (S.solve a = S.Sat) = brute_force_sat nv (List.map snd cls) in
  ha = hb && Ctx.clauses_added ctx = List.length cls && verdict_ok

let qcheck_intake_twins =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"list wrapper and Ctx helpers commit the same clauses"
       (QCheck.make ~print:print_stream clause_stream_gen)
       (fun stream -> intake_twins ~proof:false stream && intake_twins ~proof:true stream))

(* The buffer intake allocates nothing per clause: 10k three-literal
   clauses through [Ctx.add3] take under 2 minor words each (built as
   lists and passed to [Ctx.add_clause], they take 13).  A first 10k clauses over 20 variables grow every
   watcher array past the minor heap's size limit, so the measured batch
   sees only the intake; literals are made by arithmetic, so the loop
   itself allocates nothing. *)
let test_add3_allocation () =
  let ctx = Ctx.create () in
  let nv = 20 in
  for _ = 1 to nv do
    ignore (Ctx.fresh_var ctx)
  done;
  (* variables i, i + 17, i + 14 (mod 20): three distinct ones *)
  let lit i k = L.of_int ((2 * ((i + (k * 197)) mod nv)) + ((i lsr k) land 1)) in
  let n = 10_000 in
  let batch () =
    for i = 0 to n - 1 do
      Ctx.add3 ctx (lit i 0) (lit i 1) (lit i 2)
    done
  in
  batch ();
  let w0 = Gc.minor_words () in
  batch ();
  let per_clause = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "all clauses kept" (2 * n) (S.n_clauses (Ctx.solver ctx));
  if per_clause >= 2.0 then
    Alcotest.failf "add3 allocated %.1f minor words per clause (bound 2)" per_clause

let suite =
  [
    ( "sat",
      [
        Alcotest.test_case "lit roundtrip" `Quick test_lit_roundtrip;
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "empty clause" `Quick test_empty_clause;
        Alcotest.test_case "no clauses" `Quick test_no_clauses;
        Alcotest.test_case "unit propagation chain" `Quick test_unit_propagation_chain;
        Alcotest.test_case "tautology ignored" `Quick test_tautological_clause_ignored;
        Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
        Alcotest.test_case "odd cycle coloring" `Quick test_odd_cycle_coloring;
        Alcotest.test_case "assumptions" `Quick test_assumptions;
        Alcotest.test_case "incremental clauses" `Quick test_incremental_clause_addition;
        Alcotest.test_case "conflict core" `Quick test_conflict_core;
        Alcotest.test_case "random vs brute force" `Slow test_random_vs_bruteforce;
        Alcotest.test_case "random assumptions vs brute force" `Slow
          test_random_assumptions_vs_bruteforce;
        Alcotest.test_case "conflict budget yields Unknown" `Quick test_max_conflicts_unknown;
        Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
        Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
        Alcotest.test_case "dimacs multiline clause" `Quick test_dimacs_multiline_clause;
        Alcotest.test_case "dimacs print/parse identity" `Quick test_dimacs_print_parse_identity;
        Alcotest.test_case "dimacs malformed rejected" `Quick test_dimacs_malformed_rejected;
        Alcotest.test_case "compaction watcher integrity" `Quick
          test_compaction_watcher_integrity;
        Alcotest.test_case "compaction after learning" `Quick test_compaction_after_learning;
        qcheck_intake_twins;
        Alcotest.test_case "add3 allocates no list" `Quick test_add3_allocation;
      ] );
  ]
