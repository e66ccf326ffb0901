(* QCheck property-based tests over core data structures and invariants,
   registered as alcotest cases. *)

module Q = QCheck
module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Ctx = Olsq2_encode.Ctx
module F = Olsq2_encode.Formula
module Bitvec = Olsq2_encode.Bitvec
module Cardinality = Olsq2_encode.Cardinality
module Core = Olsq2_core
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Dag = Olsq2_circuit.Dag
module Qasm = Olsq2_circuit.Qasm
module Devices = Olsq2_device.Devices
module Coupling = Olsq2_device.Coupling
module B = Olsq2_benchgen
module Sabre = Olsq2_heuristic.Sabre

(* ---- generators ---- *)

(* random 3-CNF as (num_vars, clause list of dimacs ints) *)
let cnf_gen =
  Q.Gen.(
    let* nv = 2 -- 8 in
    let* ncl = 1 -- 35 in
    let clause =
      list_size (2 -- 3)
        (let* v = 1 -- nv in
         let* s = bool in
         return (if s then v else -v))
    in
    let* clauses = list_size (return ncl) clause in
    return (nv, clauses))

let cnf_arbitrary =
  Q.make
    ~print:(fun (nv, cls) ->
      Printf.sprintf "nv=%d %s" nv
        (String.concat " ; " (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls)))
    cnf_gen

let brute_force_sat nv clauses =
  let sat m =
    List.for_all
      (fun cl ->
        List.exists (fun d -> if d > 0 then m land (1 lsl (d - 1)) <> 0 else m land (1 lsl (-d - 1)) = 0) cl)
      clauses
  in
  let rec scan m = m < 1 lsl nv && (sat m || scan (m + 1)) in
  scan 0

(* property: solver agrees with brute force, and SAT models check out *)
let prop_solver_correct =
  Q.Test.make ~count:300 ~name:"CDCL agrees with brute force" cnf_arbitrary (fun (nv, clauses) ->
      let s = S.create () in
      for _ = 1 to nv do
        ignore (S.new_var s)
      done;
      List.iter (fun cl -> S.add_clause s (List.map L.of_dimacs cl)) clauses;
      match S.solve s with
      | S.Sat ->
        brute_force_sat nv clauses
        && List.for_all (fun cl -> List.exists (fun d -> S.model_value s (L.of_dimacs d)) cl) clauses
      | S.Unsat -> not (brute_force_sat nv clauses)
      | S.Unknown _ -> false)

(* property: bitvec comparison circuits match integer semantics *)
let prop_bitvec_semantics =
  let gen =
    Q.Gen.(
      let* w = 1 -- 5 in
      let* v = 0 -- ((1 lsl w) - 1) in
      let* k = -1 -- (1 lsl w) in
      return (w, v, k))
  in
  Q.Test.make ~count:200 ~name:"bitvec le/eq match integers"
    (Q.make ~print:(fun (w, v, k) -> Printf.sprintf "w=%d v=%d k=%d" w v k) gen)
    (fun (w, v, k) ->
      let ctx = Ctx.create () in
      let bv = Bitvec.fresh ctx w in
      Ctx.assert_formula ctx (Bitvec.eq_const bv v);
      let s = Ctx.solver ctx in
      let sat_with f =
        let l = Ctx.reify ctx f in
        S.solve ~assumptions:[ l ] s = S.Sat
      in
      S.solve s = S.Sat
      && Bitvec.value s bv = v
      && sat_with (Bitvec.le_const bv k) = (v <= k)
      && sat_with (Bitvec.ge_const bv k) = (v >= k)
      && sat_with (Bitvec.eq_const bv k) = (v = k))

(* property: sequential counter bounds match popcount, for random forced
   input patterns *)
let prop_cardinality_popcount =
  let gen =
    Q.Gen.(
      let* n = 1 -- 8 in
      let* k = 0 -- n in
      let* pattern = list_size (return n) bool in
      return (n, k, pattern))
  in
  Q.Test.make ~count:200 ~name:"sequential counter = popcount bound"
    (Q.make
       ~print:(fun (n, k, p) ->
         Printf.sprintf "n=%d k=%d pattern=%s" n k
           (String.concat "" (List.map (fun b -> if b then "1" else "0") p)))
       gen)
    (fun (n, k, pattern) ->
      let ctx = Ctx.create () in
      let xs = Array.init n (fun _ -> Ctx.fresh_var ctx) in
      let out = Cardinality.sequential_counter ctx xs in
      let s = Ctx.solver ctx in
      let forced = List.mapi (fun i b -> if b then xs.(i) else L.negate xs.(i)) pattern in
      let popcount = List.length (List.filter Fun.id pattern) in
      let assumptions =
        match Cardinality.at_most_assumption out k with
        | Some a -> a :: forced
        | None -> forced
      in
      (S.solve ~assumptions s = S.Sat) = (popcount <= k))

(* ---- random circuit / device generators ---- *)

let device_gen =
  Q.Gen.oneofl [ Devices.qx2; Devices.line 4; Devices.ring 5; Devices.grid 2 3; Devices.grid 3 3 ]

let circuit_gen =
  Q.Gen.(
    let* nq = 2 -- 5 in
    let* ng = 1 -- 12 in
    let gate =
      let* two = bool in
      let* a = 0 -- (nq - 1) in
      if two && nq >= 2 then
        let* b = 0 -- (nq - 2) in
        let b = if b >= a then b + 1 else b in
        return (`Two (a, b))
      else return (`One a)
    in
    let* gates = list_size (return ng) gate in
    return (nq, gates))

let build_circuit (nq, gates) =
  let b = Circuit.builder nq in
  List.iter
    (fun g ->
      match g with
      | `One q -> Circuit.add1 b "u3" q
      | `Two (q, q') -> Circuit.add2 b "cx" q q')
    gates;
  Circuit.build b ~name:"rand"

let instance_arbitrary =
  let gen =
    Q.Gen.(
      let* spec = circuit_gen in
      let* dev = device_gen in
      let nq, _ = spec in
      if nq <= dev.Coupling.num_qubits then return (Some (spec, dev)) else return None)
  in
  Q.make
    ~print:(fun inst ->
      match inst with
      | None -> "skip"
      | Some ((nq, gates), dev) ->
        Printf.sprintf "nq=%d ng=%d dev=%s" nq (List.length gates) dev.Coupling.name)
    gen

(* property: SABRE output is always validator-clean *)
let prop_sabre_valid =
  Q.Test.make ~count:60 ~name:"SABRE results always valid" instance_arbitrary (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:3 circuit dev in
        let r = Sabre.synthesize ~seed:1 inst in
        Core.Validate.is_valid inst r)

(* property: TB-OLSQ2 output is always validator-clean and uses at most as
   many swaps as SABRE *)
let prop_tb_valid_and_no_worse =
  Q.Test.make ~count:25 ~name:"TB-OLSQ2 valid and <= SABRE swaps" instance_arbitrary (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:3 circuit dev in
        let sabre = Sabre.synthesize ~seed:1 inst in
        let tb = Synth.tb_swaps ~budget:(Core.Budget.of_seconds 60.0) inst in
        (match tb.Core.Synthesis.result with
        | Some r ->
          Core.Validate.is_valid inst r
          && r.Core.Result_.swap_count <= sabre.Core.Result_.swap_count
        | None -> true (* budget exhausted: no claim *)))

(* property: QASM round trips preserve gate structure *)
let prop_qasm_roundtrip =
  Q.Test.make ~count:100 ~name:"QASM roundtrip"
    (Q.make ~print:(fun (nq, gates) -> Printf.sprintf "nq=%d ng=%d" nq (List.length gates)) circuit_gen)
    (fun spec ->
      let c = build_circuit spec in
      let c' = Qasm.parse (Qasm.print c) in
      Circuit.num_gates c = Circuit.num_gates c'
      && c.Circuit.num_qubits = c'.Circuit.num_qubits
      && List.for_all2
           (fun (g : Gate.t) (h : Gate.t) -> Gate.qubits g = Gate.qubits h && g.Gate.name = h.Gate.name)
           (Array.to_list c.Circuit.gates) (Array.to_list c'.Circuit.gates))

(* property: DAG invariants -- dependencies point forward, chain length is
   within [ceil(ng/nq)... ng], layers partition the gates *)
let prop_dag_invariants =
  Q.Test.make ~count:150 ~name:"DAG invariants"
    (Q.make ~print:(fun (nq, gates) -> Printf.sprintf "nq=%d ng=%d" nq (List.length gates)) circuit_gen)
    (fun spec ->
      let c = build_circuit spec in
      let dag = Dag.build c in
      let ng = Circuit.num_gates c in
      let deps_forward = List.for_all (fun (a, b) -> a < b) (Dag.dependencies dag) in
      let chain = Dag.longest_chain dag in
      let layers = Dag.asap_layers dag in
      let layer_count = List.fold_left (fun acc l -> acc + List.length l) 0 layers in
      deps_forward && chain >= 1 && chain <= ng && layer_count = ng
      && List.length layers = chain)

(* property: QUEKO circuits always have chain length = requested depth *)
let prop_queko_chain =
  let gen =
    Q.Gen.(
      let* depth = 2 -- 6 in
      let* gates_per = 2 -- 6 in
      let* seed = 0 -- 10000 in
      return (depth, gates_per, seed))
  in
  Q.Test.make ~count:60 ~name:"QUEKO chain = depth"
    (Q.make ~print:(fun (d, g, s) -> Printf.sprintf "d=%d g=%d seed=%d" d g s) gen)
    (fun (depth, gates_per, seed) ->
      let c =
        B.Queko.generate ~seed Devices.aspen4
          { B.Queko.depth; gates_per_cycle = gates_per; two_qubit_fraction = 0.5 }
      in
      Dag.longest_chain (Dag.build c) = depth)

(* property: exact depth optimum is always >= T_LB and <= SABRE's depth *)
let prop_depth_bounds =
  Q.Test.make ~count:20 ~name:"T_LB <= optimal depth <= SABRE depth" instance_arbitrary
    (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:3 circuit dev in
        (match (Synth.depth ~budget:(Core.Budget.of_seconds 60.0) inst).Core.Synthesis.result with
        | Some r ->
          let sabre = Sabre.synthesize ~seed:1 inst in
          Core.Validate.is_valid inst r
          && r.Core.Result_.depth >= Core.Instance.depth_lower_bound inst
          && r.Core.Result_.depth <= sabre.Core.Result_.depth
        | None -> true))

(* property: every execution mode reports the same optimum.  The five
   objectives each run through {classic, incremental, -j 2, simplify,
   symmetry}; only the objective value is compared (witness schedules may
   legitimately differ), so an arena/tuning change that silently altered
   any mode's answer fails here even when each mode still claims
   optimality.  Depth/Swaps certificate anchoring against known-optimal
   constructions lives in test_evalbench; this property covers the
   weighted and TB objectives those certificates cannot express. *)
let prop_optima_identity =
  let gen =
    Q.Gen.(
      let* spec = circuit_gen in
      let* dev = oneofl [ Devices.qx2; Devices.grid 2 2 ] in
      let nq, _ = spec in
      if nq <= dev.Coupling.num_qubits then return (Some (spec, dev)) else return None)
  in
  let arb =
    Q.make
      ~print:(fun inst ->
        match inst with
        | None -> "skip"
        | Some ((nq, gates), dev) ->
          Printf.sprintf "nq=%d ng=%d dev=%s" nq (List.length gates) dev.Coupling.name)
      gen
  in
  Q.Test.make ~count:4 ~name:"optima identical across execution modes" arb (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:3 circuit dev in
        let weights e = 1 + (e mod 3) in
        let edge_weight (p, q) =
          let idx = ref 0 in
          Array.iteri (fun i e -> if e = (p, q) then idx := i) dev.Coupling.edges;
          weights !idx
        in
        let objectives =
          [
            ("depth", Core.Synthesis.Depth);
            ("swaps", Core.Synthesis.Swaps { warm_start = None });
            ("weighted_swaps", Core.Synthesis.Weighted_swaps weights);
            ("tb_blocks", Core.Synthesis.Tb_blocks);
            ("tb_swaps", Core.Synthesis.Tb_swaps);
          ]
        in
        let base =
          Core.Synthesis.Options.(default |> with_budget (Core.Budget.of_seconds 60.0))
        in
        let modes =
          (* "classic" pins the re-encode loop: the library default is the
             horizon-extension session, and this property is exactly the
             cross-check between the two. *)
          Core.Synthesis.Options.
            [
              ("classic", with_incremental false base);
              ("incremental", with_incremental true base);
              ("j2", with_workers 2 base);
              ("simplify", with_simplify true base);
              ( "symmetry",
                with_config { Core.Config.olsq2_bv with Core.Config.symmetry = true } base );
            ]
        in
        let value obj (report : Core.Synthesis.report) =
          match report.Core.Synthesis.result with
          | None -> -1
          | Some r -> (
            match obj with
            | Core.Synthesis.Depth -> r.Core.Result_.depth
            | Core.Synthesis.Swaps _ -> r.Core.Result_.swap_count
            | Core.Synthesis.Weighted_swaps _ ->
              List.fold_left
                (fun acc sw -> acc + edge_weight sw.Core.Result_.sw_edge)
                0 r.Core.Result_.swaps
            | Core.Synthesis.Tb_blocks -> (
              match report.Core.Synthesis.pareto with (b, _) :: _ -> b | [] -> -1)
            | Core.Synthesis.Tb_swaps -> (
              match report.Core.Synthesis.pareto with (_, s) :: _ -> s | [] -> -1))
        in
        List.for_all
          (fun (obj_name, obj) ->
            let runs =
              List.map
                (fun (name, options) ->
                  (name, value obj (Core.Synthesis.run ~options ~objective:obj inst)))
                modes
            in
            match runs with
            | (_, v0) :: rest ->
              v0 >= 0
              && List.for_all
                   (fun (name, v) ->
                     if v <> v0 then
                       Q.Test.fail_reportf "%s: %s found %d, classic found %d" obj_name name v
                         v0
                     else true)
                   rest
            | [] -> true)
          objectives)

(* The session certificate on the full device, outside [Synthesis.run]:
   the refinement loop on the proof-logged session, refuted in place. *)
let full_device_session_certificate objective inst =
  let module Drat = Olsq2_proof.Drat in
  let sink = Drat.create () in
  let o =
    Core.Optimizer.optimize ~config:Core.Config.default ~oracle:Core.Optimizer.Session
      ~budget:(Core.Budget.start (Core.Budget.of_seconds 60.0))
      ~proof:(Drat.logger sink) objective inst
  in
  match (o.Core.Optimizer.result, o.Core.Optimizer.refutation) with
  | Some res, Some refutation -> Some (Core.Certificate.finish ~sink inst res refutation)
  | _ -> None

(* property: on random small instances, the certificate of the session
   (the formula that found the optimum, refuted in place) and the classic
   re-solve at the same optimum are both valid — the re-solve is the
   independent cross-check of the session path.  A run whose device
   window was accepted is certified by the dependency chain instead; its
   session certificate is then built on the full device directly, and
   must be valid and certify the same optimum. *)
let prop_session_certificates_cross_check =
  Q.Test.make ~count:40 ~name:"session and classic certificates agree" instance_arbitrary
    (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:1 circuit dev in
        let options =
          Core.Synthesis.Options.(
            default |> with_incremental true |> with_workers 1 |> with_certify true
            |> with_budget (Core.Budget.of_seconds 60.0))
        in
        List.for_all
          (fun objective ->
            let report = Core.Synthesis.run ~options ~objective inst in
            match (report.Core.Synthesis.result, report.Core.Synthesis.certificate) with
            | Some res, Some cert ->
              let classic =
                match cert.Core.Certificate.objective with
                | Core.Certificate.Depth ->
                  Core.Certificate.certify_depth inst res ~depth:cert.Core.Certificate.optimum
                | Core.Certificate.Swaps_at_depth depth ->
                  Core.Certificate.certify_swaps inst res ~depth
                    ~swaps:cert.Core.Certificate.optimum
              in
              let formula_ok, session =
                match report.Core.Synthesis.window with
                | Some Core.Synthesis.Accepted ->
                  ( (cert.Core.Certificate.formula = Core.Certificate.Chain
                    || Q.Test.fail_report "an accepted window certified another formula")
                    && (Core.Certificate.valid cert
                       || Q.Test.fail_reportf "chain certificate rejected:\n%s"
                            (Core.Certificate.to_string cert)),
                    full_device_session_certificate objective inst )
                | Some (Core.Synthesis.Missed _) | None ->
                  ( cert.Core.Certificate.formula = Core.Certificate.Session
                    || Q.Test.fail_report "the session run certified another formula",
                    Some cert )
              in
              formula_ok
              && (match session with
                 | Some session ->
                   (Core.Certificate.valid session
                   || Q.Test.fail_reportf "session certificate rejected:\n%s"
                        (Core.Certificate.to_string session))
                   && (session.Core.Certificate.optimum = cert.Core.Certificate.optimum
                      || Q.Test.fail_reportf "session certifies %d, the run %d"
                           session.Core.Certificate.optimum cert.Core.Certificate.optimum)
                 | None -> Q.Test.fail_report "no session certificate on the full device")
              && (Core.Certificate.valid classic
                 || Q.Test.fail_reportf "classic certificate rejected:\n%s"
                      (Core.Certificate.to_string classic))
            | Some _, None -> Q.Test.fail_report "optimal run without a certificate"
            | None, _ -> Q.Test.fail_report "no layout within the budget")
          [ Core.Synthesis.Depth; Core.Synthesis.Swaps { warm_start = None } ])

(* property: the depth loop asks each bound once.  On the session and on
   the classic oracle, for Depth and Swaps: no two depth queries share a
   bound, no depth query lands at or below a bound refuted earlier in the
   run, and both oracles reach the same optimum. *)
let prop_bounds_asked_once =
  Q.Test.make ~count:30 ~name:"each depth bound asked once" instance_arbitrary (fun inst ->
      match inst with
      | None -> true
      | Some (spec, dev) ->
        let circuit = build_circuit spec in
        let inst = Core.Instance.make ~swap_duration:3 circuit dev in
        let base =
          Core.Synthesis.Options.(
            default |> with_workers 1 |> with_budget (Core.Budget.of_seconds 60.0))
        in
        let asked_once name (r : Core.Synthesis.report) =
          let rec go refuted seen = function
            | [] -> true
            | (it : Core.Optimizer.iter_stat) :: rest ->
              let b = it.Core.Optimizer.iter_bound in
              if List.mem b seen then Q.Test.fail_reportf "%s: depth %d asked twice" name b
              else if b <= refuted then
                Q.Test.fail_reportf "%s: depth %d asked after %d was refuted" name b refuted
              else
                go
                  (if it.Core.Optimizer.iter_verdict = "unsat" then max refuted b else refuted)
                  (b :: seen) rest
          in
          go min_int []
            (List.filter
               (fun (it : Core.Optimizer.iter_stat) ->
                 it.Core.Optimizer.iter_phase = "opt.depth_iter")
               r.Core.Synthesis.iter_stats)
        in
        List.for_all
          (fun (obj_name, objective, value) ->
            let optimum oracle incremental =
              let name = obj_name ^ "/" ^ oracle in
              let r =
                Core.Synthesis.run
                  ~options:(Core.Synthesis.Options.with_incremental incremental base)
                  ~objective inst
              in
              match r.Core.Synthesis.result with
              | Some res when r.Core.Synthesis.optimal && asked_once name r -> value res
              | Some _ | None -> Q.Test.fail_reportf "%s: no optimum" name
            in
            let session = optimum "session" true and classic = optimum "classic" false in
            session = classic
            || Q.Test.fail_reportf "%s: session found %d, classic %d" obj_name session classic)
          [
            ("depth", Core.Synthesis.Depth, fun (r : Core.Result_.t) -> r.Core.Result_.depth);
            ( "swaps",
              Core.Synthesis.Swaps { warm_start = None },
              fun (r : Core.Result_.t) -> r.Core.Result_.swap_count );
          ])

(* ---- proof fuzzing ----

   Random 3-CNFs solved with DRAT logging attached: every SAT answer must
   come with a model satisfying the formula, and every UNSAT answer with a
   proof the trusted checker accepts in both modes.  Clauses use three
   distinct variables, so the formula has no unit clauses; truncating the
   proof to its final (empty-clause) step must then always be rejected —
   the empty clause cannot be RUP when nothing propagates. *)
let test_proof_fuzz () =
  let module Rng = Olsq2_util.Rng in
  let module Drat = Olsq2_proof.Drat in
  let module Checker = Olsq2_proof.Checker in
  let rng = Rng.create 31337 in
  let distinct_clause nv =
    let a = Rng.int rng nv in
    let b = ref (Rng.int rng nv) in
    while !b = a do
      b := Rng.int rng nv
    done;
    let c = ref (Rng.int rng nv) in
    while !c = a || !c = !b do
      c := Rng.int rng nv
    done;
    List.map (fun v -> L.of_var ~sign:(Rng.bool rng) v) [ a; !b; !c ]
  in
  let unsat_seen = ref 0 and sat_seen = ref 0 in
  for _ = 1 to 120 do
    let nv = 4 + Rng.int rng 5 in
    let ncl = 15 + Rng.int rng 40 in
    let clauses = List.init ncl (fun _ -> distinct_clause nv) in
    let sink = Drat.create () in
    let s = S.create () in
    Drat.attach sink s;
    for _ = 1 to nv do
      ignore (S.new_var s)
    done;
    List.iter (S.add_clause s) clauses;
    match S.solve s with
    | S.Sat ->
      incr sat_seen;
      if not (List.for_all (fun cl -> List.exists (S.model_value s) cl) clauses) then
        Alcotest.fail "SAT model does not satisfy the formula"
    | S.Unsat ->
      incr unsat_seen;
      let formula = Drat.formula sink and proof = Drat.steps sink in
      List.iter
        (fun mode ->
          match (Checker.check_unsat ~mode ~formula ~proof ()).Checker.verdict with
          | Checker.Valid -> ()
          | Checker.Invalid { step; reason } ->
            Alcotest.failf "%s check rejected a solver proof at step %d: %s"
              (Checker.mode_to_string mode) step reason)
        [ Checker.Forward; Checker.Backward ];
      (* the proof must round-trip through both wire formats *)
      let n = Array.length proof in
      List.iter
        (fun fmt ->
          if List.length (Drat.parse fmt (Drat.to_string fmt sink)) <> n then
            Alcotest.fail "proof serialization round-trip lost steps")
        [ Drat.Text; Drat.Binary ];
      (* corrupting the proof down to its conclusion must be caught *)
      let truncated = [| proof.(n - 1) |] in
      (match (Checker.check_unsat ~formula ~proof:truncated ()).Checker.verdict with
      | Checker.Invalid _ -> ()
      | Checker.Valid -> Alcotest.fail "checker accepted a truncated proof")
    | S.Unknown _ -> Alcotest.fail "unexpected Unknown on a small CNF"
  done;
  (* the generator must exercise both verdicts for the test to mean much *)
  Alcotest.(check bool) "saw both SAT and UNSAT" true (!sat_seen > 0 && !unsat_seen > 0)

let suite =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_solver_correct;
          prop_bitvec_semantics;
          prop_cardinality_popcount;
          prop_qasm_roundtrip;
          prop_dag_invariants;
          prop_queko_chain;
          prop_sabre_valid;
          prop_tb_valid_and_no_worse;
          prop_depth_bounds;
          prop_optima_identity;
          prop_session_certificates_cross_check;
          prop_bounds_asked_once;
        ]
      @ [ Alcotest.test_case "proof fuzz: random 3-CNF certified" `Quick test_proof_fuzz ] );
  ]
