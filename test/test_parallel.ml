(* Tests for the parallel solving core (lib/parallel): cube partition
   invariants, the lossy sharing channel, soundness of exported learnts,
   cube-and-conquer pool verdicts, parallel-vs-sequential optima through
   the Synthesis facade, and the unified Budget. *)

module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Cube = Olsq2_parallel.Cube
module Share = Olsq2_parallel.Share
module Pool = Olsq2_parallel.Pool
module Core = Olsq2_core
module Budget = Core.Budget
module Circuit = Olsq2_circuit.Circuit
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen

(* ---- formula builders ---- *)

(* pigeonhole clauses over [pigeons] x [holes] variables; UNSAT iff
   pigeons > holes, and needs real search either way *)
let php_clauses ~pigeons ~holes =
  let var p h = (p * holes) + h in
  let nvars = pigeons * holes in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (fun h -> L.of_var (var p h)) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        clauses :=
          [ L.of_var ~sign:false (var p h); L.of_var ~sign:false (var q h) ] :: !clauses
      done
    done
  done;
  (nvars, List.rev !clauses)

let solver_of (nvars, clauses) =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s : L.var)
  done;
  List.iter (S.add_clause s) clauses;
  s

(* ---- cube partition ---- *)

let test_cube_partition () =
  let s = solver_of (php_clauses ~pigeons:4 ~holes:4) in
  let k = 3 in
  let cubes = Cube.split ~k s in
  let j =
    match cubes with [] -> 0 | c :: _ -> Array.length c
  in
  Alcotest.(check bool) "at most k split vars" true (j <= k && j >= 1);
  Alcotest.(check int) "exactly 2^j cubes" (1 lsl j) (List.length cubes);
  (* all cubes branch on the same variables, in the same order *)
  let vars c = Array.map L.var c in
  let v0 = vars (List.hd cubes) in
  List.iter
    (fun c -> Alcotest.(check bool) "same split vars" true (vars c = v0))
    cubes;
  let distinct_vars = List.sort_uniq compare (Array.to_list v0) in
  Alcotest.(check int) "split vars distinct" j (List.length distinct_vars);
  (* exhaustive and pairwise disjoint: the sign vectors are exactly the
     2^j distinct combinations, so every assignment of the split vars
     satisfies exactly one cube *)
  let mask c =
    Array.to_list c
    |> List.mapi (fun i l -> if L.sign l then 1 lsl i else 0)
    |> List.fold_left ( lor ) 0
  in
  let masks = List.map mask cubes in
  Alcotest.(check int) "all sign vectors present" (1 lsl j)
    (List.length (List.sort_uniq compare masks))

let test_cube_exclude () =
  let s = solver_of (php_clauses ~pigeons:4 ~holes:4) in
  let all = Cube.split ~k:2 s in
  let banned = List.concat_map (fun c -> Array.to_list (Array.map L.var c)) all in
  let cubes = Cube.split ~exclude:banned ~k:2 s in
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          Alcotest.(check bool) "excluded var not split on" false (List.mem (L.var l) banned))
        c)
    cubes

(* ---- sharing channel ---- *)

let test_share_channel_basics () =
  let chan = Share.create ~capacity:16 () in
  let own = Share.reader chan ~src:0 in
  let other = Share.reader chan ~src:1 in
  Share.publish chan ~src:0 [| L.of_var 0; L.of_var ~sign:false 1 |];
  Share.publish chan ~src:0 [| L.of_var 2 |];
  Alcotest.(check int) "published counted" 2 (Share.published chan);
  Alcotest.(check int) "own clauses skipped" 0 (List.length (Share.drain own));
  let got = Share.drain other in
  Alcotest.(check int) "foreign clauses delivered" 2 (List.length got);
  Alcotest.(check int) "drain is consuming" 0 (List.length (Share.drain other))

let test_share_channel_lossy () =
  let chan = Share.create ~capacity:16 () in
  let reader = Share.reader chan ~src:1 in
  for i = 0 to 39 do
    Share.publish chan ~src:0 [| L.of_var i |]
  done;
  let got = Share.drain reader in
  Alcotest.(check bool) "bounded delivery" true (List.length got <= 16);
  Alcotest.(check bool) "laps counted as drops" true (Share.dropped reader > 0);
  (* the survivors are the newest entries *)
  List.iter
    (fun c -> Alcotest.(check bool) "newest survive" true (L.var c.(0) >= 40 - 16))
    got

(* Every clause a solver exports must be implied by its formula: assuming
   the clause's negation on a fresh solver holding the same clauses must
   be Unsat (the learnt is a logical consequence, so this is the
   import-soundness guarantee sharing rests on). *)
let test_share_export_soundness () =
  let problem = php_clauses ~pigeons:6 ~holes:5 in
  let s = solver_of problem in
  let chan = Share.create () in
  (* a cursor only sees clauses published after its creation *)
  let importer = Share.reader chan ~src:1 in
  S.set_share s (Some (Share.endpoints chan ~src:0 ()));
  Alcotest.(check bool) "php(6,5) unsat" true (S.solve s = S.Unsat);
  let exported = Share.drain importer in
  Alcotest.(check bool) "something was exported" true (exported <> []);
  let check_clause c =
    let fresh = solver_of problem in
    let negation = List.map L.negate (Array.to_list c) in
    match S.solve fresh ~assumptions:negation with
    | S.Unsat -> ()
    | S.Sat | S.Unknown _ ->
      Alcotest.failf "exported clause not implied by the formula (len %d)" (Array.length c)
  in
  (* cap the re-solves so the test stays fast *)
  List.iteri (fun i c -> if i < 25 then check_clause c) exported

(* ---- cube-and-conquer pool ---- *)

let test_pool_unsat () =
  let master = solver_of (php_clauses ~pigeons:7 ~holes:6) in
  (* threshold 1: every nontrivial query escalates to the cube phase *)
  let pool = Pool.create ~workers:2 ~threshold:1 () in
  Alcotest.(check bool) "pool refutes php(7,6)" true (Pool.solve pool master = S.Unsat);
  let st = Pool.stats pool in
  Alcotest.(check bool) "query escalated" true (st.Pool.parallel_queries >= 1);
  Alcotest.(check bool) "cubes were solved" true (st.Pool.cubes_solved >= 2)

let test_pool_sat_master_holds_model () =
  let ((_, clauses) as problem) = php_clauses ~pigeons:6 ~holes:6 in
  let master = solver_of problem in
  let pool = Pool.create ~workers:2 ~threshold:1 () in
  (match Pool.solve pool master with
  | S.Sat -> ()
  | r -> Alcotest.failf "php(6,6) should be sat, got %s" (S.result_to_string r));
  (* the answer comes back through the master: its model satisfies every
     problem clause *)
  List.iter
    (fun clause ->
      Alcotest.(check bool) "master model satisfies clause" true
        (List.exists (fun l -> S.model_value master l) clause))
    clauses

let test_pool_respects_assumptions () =
  let master = solver_of (php_clauses ~pigeons:6 ~holes:6) in
  let pool = Pool.create ~workers:2 ~threshold:1 () in
  (* pigeon 0 in no hole contradicts its at-least-one clause *)
  let assumptions = List.init 6 (fun h -> L.of_var ~sign:false h) in
  Alcotest.(check bool) "unsat under blocking assumptions" true
    (Pool.solve pool master ~assumptions = S.Unsat)

(* ---- parallel == sequential optima through the facade ---- *)

let qaoa_instance () =
  Core.Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:4 6) (Devices.grid 2 3)

let qft_instance () =
  Core.Instance.make ~swap_duration:3 (B.Standard.qft 3) (Devices.by_name "qx2")

let on_device ~swap_duration name circuit =
  Core.Instance.make ~swap_duration circuit (Devices.by_name name)

(* The session, the classic re-encode loop and the cube-and-conquer pool
   must reach the same optimum on every case.  The cases cover both
   objectives, simplification (which moves the run off the session onto
   the classic encoder), a QUEKO construction, and symmetry breaking on
   the 23-qubit heavy-hex lattice.  brick50 on heavy-hex-127 is too slow
   for this suite; CI checks it through the CLI. *)
let test_parallel_matches_sequential () =
  let open Core.Synthesis in
  let swaps = Swaps { warm_start = None } in
  let bv = Core.Config.olsq2_bv in
  let qaoa4 () = on_device ~swap_duration:1 "grid-2x2" (B.Qaoa.random ~seed:1 4) in
  let queko5x12 () =
    let device = Devices.grid 2 2 in
    let spec = B.Queko.of_counts ~depth:5 ~total_gates:12 () in
    Core.Instance.make ~swap_duration:3 (B.Queko.generate ~seed:7 device spec) device
  in
  let cases =
    [
      ("qaoa6-depth", qaoa_instance (), bv, Depth);
      ("qft3-swaps", qft_instance (), bv, swaps);
      ("qaoa4-grid22-depth", qaoa4 (), bv, Depth);
      ("qaoa4-grid22-swaps", qaoa4 (), bv, swaps);
      ("qaoa4-grid22-swaps-simp", qaoa4 (), { bv with Core.Config.simplify = true }, swaps);
      ("queko5x12-grid22-depth", queko5x12 (), bv, Depth);
      ( "brick12-heavyhex23-depth",
        on_device ~swap_duration:3 "heavy-hex-3x7" (B.Standard.brickwork 12),
        { bv with Core.Config.symmetry = true },
        Depth );
    ]
  in
  List.iter
    (fun (name, instance, config, objective) ->
      let run label options =
        let report = run ~options:Options.(options |> with_config config) ~objective instance in
        Alcotest.(check bool) (Printf.sprintf "%s optimal (%s)" name label) true report.optimal;
        match report.result with
        | None -> Alcotest.failf "%s: no result (%s)" name label
        | Some r ->
          Core.Validate.check_exn instance r;
          r
      in
      let seq_r = run "session" Options.(default |> with_workers 1 |> with_incremental true) in
      List.iter
        (fun (label, options) ->
          let r = run label options in
          Alcotest.(check int)
            (Printf.sprintf "%s same depth (%s)" name label)
            seq_r.Core.Result_.depth r.Core.Result_.depth;
          match objective with
          | Swaps _ ->
            Alcotest.(check int)
              (Printf.sprintf "%s same swaps (%s)" name label)
              seq_r.Core.Result_.swap_count r.Core.Result_.swap_count
          | _ -> ())
        [
          ("classic re-encode", Options.(default |> with_workers 1 |> with_incremental false));
          ("2 workers", Options.(default |> with_workers 2));
          ("8 workers", Options.(default |> with_workers 8));
        ])
    cases

let test_parallel_certify () =
  let options =
    Core.Synthesis.Options.(default |> with_workers 4 |> with_certify true)
  in
  let report =
    Core.Synthesis.run ~options ~objective:Core.Synthesis.Depth (qaoa_instance ())
  in
  Alcotest.(check bool) "optimal" true report.Core.Synthesis.optimal;
  match report.Core.Synthesis.certificate with
  | None -> Alcotest.fail "no certificate from a parallel certify run"
  | Some cert ->
    Alcotest.(check bool) "certificate valid with workers=4" true (Core.Certificate.valid cert)

(* ---- budget ---- *)

let test_budget_conflict_cap () =
  let st = Budget.start Budget.(of_seconds 60.0 |> with_conflicts 5) in
  Alcotest.(check bool) "fresh not exhausted" false (Budget.exhausted st);
  Alcotest.(check (option int)) "full cap offered" (Some 5) (Budget.solve_max_conflicts st);
  Budget.charge st ~conflicts:3;
  Alcotest.(check (option int)) "remainder offered" (Some 2) (Budget.solve_max_conflicts st);
  Budget.charge st ~conflicts:4;
  Alcotest.(check bool) "over cap exhausted" true (Budget.exhausted st);
  Alcotest.(check (option int)) "never offers zero" (Some 1) (Budget.solve_max_conflicts st)

let test_budget_wall () =
  let st = Budget.start (Budget.of_seconds 0.0) in
  Alcotest.(check bool) "zero wall exhausted" true (Budget.exhausted st);
  let st = Budget.start Budget.(of_seconds 100.0 |> with_per_bound_seconds 2.0) in
  (match Budget.solve_timeout st with
  | Some s -> Alcotest.(check bool) "per-bound clamps the call" true (s <= 2.0)
  | None -> Alcotest.fail "expected a timeout");
  Alcotest.(check bool) "unlimited detected" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "limited detected" false
    (Budget.is_unlimited (Budget.of_seconds 1.0))

(* An exhausted conflict budget must stop the refinement loop without an
   optimality claim, on the parallel path as well as the sequential. *)
let test_budget_stops_optimizer () =
  let instance = qaoa_instance () in
  let budget = Budget.(unlimited |> with_conflicts 1) in
  let workers n = Core.Synthesis.Options.with_workers n Synth.classic in
  let o = Synth.depth ~options:(workers 1) ~budget instance in
  Alcotest.(check bool) "no optimality claim under 1-conflict budget" false
    o.Core.Synthesis.optimal;
  let o2 = Synth.depth ~options:(workers 2) ~budget instance in
  Alcotest.(check bool) "parallel path honours the cap too" false o2.Core.Synthesis.optimal

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "cube partition 2^k, disjoint, exhaustive" `Quick test_cube_partition;
        Alcotest.test_case "cube split respects exclude" `Quick test_cube_exclude;
        Alcotest.test_case "share channel basics" `Quick test_share_channel_basics;
        Alcotest.test_case "share channel lossy bound" `Quick test_share_channel_lossy;
        Alcotest.test_case "exported learnts are implied" `Slow test_share_export_soundness;
        Alcotest.test_case "pool refutes unsat (all cubes)" `Slow test_pool_unsat;
        Alcotest.test_case "pool sat via master model" `Slow test_pool_sat_master_holds_model;
        Alcotest.test_case "pool respects assumptions" `Slow test_pool_respects_assumptions;
        Alcotest.test_case "parallel == sequential optima" `Slow test_parallel_matches_sequential;
        Alcotest.test_case "certify with workers=4" `Slow test_parallel_certify;
        Alcotest.test_case "budget conflict cap" `Quick test_budget_conflict_cap;
        Alcotest.test_case "budget wall and per-bound" `Quick test_budget_wall;
        Alcotest.test_case "budget stops optimizer" `Slow test_budget_stops_optimizer;
      ] );
  ]
