(* lib/incremental tests: the growable cardinality chain, session horizon
   extension, and — the load-bearing property — incremental/classic parity:
   the horizon-extension session must return the same optima as the classic
   re-encode loop on every objective, with and without symmetry breaking. *)

module L = Olsq2_sat.Lit
module S = Olsq2_sat.Solver
module Ctx = Olsq2_encode.Ctx
module Cardinality = Olsq2_encode.Cardinality
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Core = Olsq2_core
module Synthesis = Core.Synthesis
module Options = Core.Synthesis.Options
module Session = Olsq2_incremental.Session
module B = Olsq2_benchgen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- incremental cardinality chain ---- *)

(* Staged growth: inputs appended in batches with widening in between must
   behave exactly like a chain built in one shot — popcount <= k under the
   at-most-k assumption, and every popcount j <= k achievable. *)
let test_inc_chain () =
  let ctx = Ctx.create () in
  let inc = Cardinality.Inc.create ~width:2 ctx in
  let batch1 = Array.init 3 (fun _ -> Ctx.fresh_var ctx) in
  Cardinality.Inc.add_inputs inc batch1;
  checki "size after first batch" 3 (Cardinality.Inc.size inc);
  checki "capacity before widening" 1 (Cardinality.Inc.capacity inc);
  Cardinality.Inc.widen inc ~width:6;
  let batch2 = Array.init 3 (fun _ -> Ctx.fresh_var ctx) in
  Cardinality.Inc.add_inputs inc batch2;
  checki "size after second batch" 6 (Cardinality.Inc.size inc);
  checki "capacity after widening" 5 (Cardinality.Inc.capacity inc);
  let xs = Array.append batch1 batch2 in
  let n = Array.length xs in
  let s = Ctx.solver ctx in
  List.iter
    (fun k ->
      let assumptions =
        match Cardinality.Inc.at_most_assumption inc k with Some a -> [ a ] | None -> []
      in
      for j = 0 to n do
        let forced = List.init n (fun i -> if i < j then xs.(i) else L.negate xs.(i)) in
        let r = S.solve ~assumptions:(assumptions @ forced) s in
        let expect = j <= k in
        match r with
        | S.Sat ->
          if not expect then Alcotest.failf "at-most-%d admits popcount %d" k j;
          let pop =
            Array.fold_left (fun acc x -> if S.model_value s x then acc + 1 else acc) 0 xs
          in
          if pop > k then Alcotest.failf "at-most-%d model has popcount %d" k pop
        | S.Unsat -> if expect then Alcotest.failf "at-most-%d rejects popcount %d" k j
        | S.Unknown _ -> Alcotest.fail "unexpected Unknown"
      done)
    [ 0; 1; 3; 5 ]

(* ---- session horizon extension ---- *)

let test_session_extend () =
  let circuit = B.Standard.toffoli_example () in
  let device = Devices.qx2 in
  let classic = Synth.depth (Core.Instance.make ~swap_duration:3 circuit device) in
  let optimum =
    match classic.Core.Synthesis.result with
    | Some r -> r.Core.Result_.depth
    | None -> Alcotest.fail "classic depth run failed"
  in
  checkb "classic optimal" true classic.Core.Synthesis.optimal;
  let sess = Session.create ~t_max:2 ~swap_duration:3 circuit device in
  (* ascend exactly as the optimizer does: a bound d needs t_max >= d + 1
     (the last SWAP slot below d must exist) before its verdict is final *)
  let ensure d = if d + 1 > Session.t_max sess then Session.extend_horizon sess ~t_max:(d + 1) in
  let rec ascend d =
    if d > 40 then Alcotest.fail "no SAT bound below 40"
    else begin
      ensure d;
      match Session.solve ~assumptions:[ Session.depth_selector sess d ] sess with
      | S.Sat -> d
      | S.Unsat -> ascend (d + 1)
      | S.Unknown _ -> Alcotest.fail "unexpected Unknown"
    end
  in
  let found = ascend 1 in
  checki "session finds the classic optimum" optimum found;
  let m = Session.model sess in
  checki "model depth" optimum m.Session.m_depth;
  checki "schedule covers every gate"
    (Olsq2_circuit.Circuit.num_gates circuit)
    (Array.length m.Session.m_schedule);
  (* a retired UNSAT bound stays UNSAT after further horizon growth:
     learnt clauses guarded by the activation literal must not leak *)
  Session.extend_horizon sess ~t_max:(Session.t_max sess + 5);
  (match Session.solve ~assumptions:[ Session.depth_selector sess (optimum - 1) ] sess with
  | S.Unsat -> ()
  | S.Sat -> Alcotest.fail "bound below the optimum became SAT after extension"
  | S.Unknown _ -> Alcotest.fail "unexpected Unknown");
  match Session.solve ~assumptions:[ Session.depth_selector sess optimum ] sess with
  | S.Sat -> checki "optimum still SAT after extension" optimum (Session.model sess).Session.m_depth
  | _ -> Alcotest.fail "optimum no longer SAT after extension"

(* ---- incremental vs classic parity ---- *)

let weighted_cost ~weights ~device (r : Core.Result_.t) =
  List.fold_left
    (fun acc (s : Core.Result_.swap) ->
      let a, b = s.Core.Result_.sw_edge in
      acc + weights (Coupling.edge_id device a b))
    0 r.Core.Result_.swaps

let run ~options ~objective instance = Synthesis.run ~options ~objective instance

let base_options ?(symmetry = false) ~incremental () =
  Options.(
    default
    |> with_config { Core.Config.olsq2_bv with Core.Config.symmetry = symmetry }
    |> with_budget (Core.Budget.of_seconds 120.)
    |> with_incremental incremental)

let result_of name (report : Synthesis.report) =
  checkb (name ^ " optimal") true report.Synthesis.optimal;
  match report.Synthesis.result with
  | Some r -> r
  | None -> Alcotest.failf "%s returned no result" name

(* every objective, classic vs incremental, on a pinned instance *)
let test_parity_all_objectives () =
  let device = Devices.qx2 in
  let instance =
    Core.Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:1 4) device
  in
  let weights e = 1 + (e mod 3) in
  let objectives =
    [
      ("depth", Synthesis.Depth);
      ("swaps", Synthesis.Swaps { warm_start = None });
      ("weighted", Synthesis.Weighted_swaps weights);
      ("tb_blocks", Synthesis.Tb_blocks);
      ("tb_swaps", Synthesis.Tb_swaps);
    ]
  in
  List.iter
    (fun (name, objective) ->
      let classic = run ~options:(base_options ~incremental:false ()) ~objective instance in
      let inc = run ~options:(base_options ~incremental:true ()) ~objective instance in
      let rc = result_of (name ^ " classic") classic in
      let ri = result_of (name ^ " incremental") inc in
      match objective with
      | Synthesis.Depth -> checki (name ^ " optimum") rc.Core.Result_.depth ri.Core.Result_.depth
      | Synthesis.Swaps _ ->
        checki (name ^ " optimum") rc.Core.Result_.swap_count ri.Core.Result_.swap_count
      | Synthesis.Weighted_swaps w ->
        checki (name ^ " optimum")
          (weighted_cost ~weights:w ~device rc)
          (weighted_cost ~weights:w ~device ri)
      | Synthesis.Tb_blocks | Synthesis.Tb_swaps ->
        (* TB ignores the flag: identical code path, identical answer *)
        checki (name ^ " depth") rc.Core.Result_.depth ri.Core.Result_.depth;
        checki (name ^ " swaps") rc.Core.Result_.swap_count ri.Core.Result_.swap_count)
    objectives

(* symmetry breaking must not change any optimum, incremental or classic *)
let test_symmetry_parity () =
  let cases =
    [
      ("qaoa4-qx2", Core.Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:1 4) Devices.qx2);
      ( "brick12-heavyhex23",
        Core.Instance.make ~swap_duration:3 (B.Standard.brickwork 12)
          (Devices.by_name "heavy-hex-3x7") );
    ]
  in
  List.iter
    (fun (cname, instance) ->
      List.iter
        (fun (oname, objective) ->
          let value (r : Core.Result_.t) =
            match objective with
            | Synthesis.Depth -> r.Core.Result_.depth
            | _ -> r.Core.Result_.swap_count
          in
          let plain =
            result_of (cname ^ " plain")
              (run ~options:(base_options ~incremental:true ()) ~objective instance)
          in
          let sym =
            result_of (cname ^ " sym")
              (run ~options:(base_options ~symmetry:true ~incremental:true ()) ~objective instance)
          in
          let classic_sym =
            result_of (cname ^ " classic sym")
              (run ~options:(base_options ~symmetry:true ~incremental:false ()) ~objective instance)
          in
          checki (cname ^ " " ^ oname ^ " incremental sym") (value plain) (value sym);
          checki (cname ^ " " ^ oname ^ " classic sym") (value plain) (value classic_sym))
        [ ("depth", Synthesis.Depth); ("swaps", Synthesis.Swaps { warm_start = None }) ])
    cases

(* --certify --incremental with symmetry: an orbit-restricted session is
   not the formula to certify, so the certificate comes from the classic
   fallback (a fresh proof-logged encoder with symmetry stripped) and
   must come back valid, naming that formula *)
let test_certify_incremental () =
  let instance = Core.Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:1 4) Devices.qx2 in
  List.iter
    (fun (name, objective) ->
      let options = base_options ~symmetry:true ~incremental:true () |> Options.with_certify true in
      let report = run ~options ~objective instance in
      checkb (name ^ " optimal") true report.Synthesis.optimal;
      match report.Synthesis.certificate with
      | None -> Alcotest.failf "%s produced no certificate" name
      | Some c ->
        checkb (name ^ " certificate valid") true (Core.Certificate.valid c);
        checkb (name ^ " certified by the fallback") true
          (c.Core.Certificate.formula <> Core.Certificate.Session))
    [ ("depth", Synthesis.Depth); ("swaps", Synthesis.Swaps { warm_start = None }) ]

let suite =
  [
    ( "incremental",
      [
        Alcotest.test_case "growable cardinality chain" `Quick test_inc_chain;
        Alcotest.test_case "session horizon extension" `Quick test_session_extend;
        Alcotest.test_case "classic parity on all objectives" `Quick test_parity_all_objectives;
        Alcotest.test_case "symmetry parity" `Quick test_symmetry_parity;
        Alcotest.test_case "certified incremental runs" `Quick test_certify_incremental;
      ] );
  ]
