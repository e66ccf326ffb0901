(* Device windows: a run on a device of more than 2 |Q| qubits is tried
   first on the BFS ball of 2 |Q| of them, kept only when it meets the
   dependency-chain bound, and otherwise falls back to the full device.
   These tests check that windows never change an optimum, that a miss
   falls back and says so, and that the dependency-chain certificate
   accepts exactly what it should. *)

module Q = QCheck
module Core = Olsq2_core
module Budget = Core.Budget
module Certificate = Core.Certificate
module Instance = Core.Instance
module Optimizer = Core.Optimizer
module Result_ = Core.Result_
module Synthesis = Core.Synthesis
module Options = Core.Synthesis.Options
module Validate = Core.Validate
module Window = Core.Window
module Circuit = Olsq2_circuit.Circuit
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Suite = Olsq2_benchgen.Suite
module Drat = Olsq2_proof.Drat
module Json = Olsq2_obs.Obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Pin the knobs the environment defaults, so the tests read the same
   under OLSQ2_WORKERS and OLSQ2_INCREMENTAL. *)
let pinned =
  Options.(default |> with_workers 1 |> with_incremental true |> with_budget (Budget.of_seconds 60.))

let build_circuit nq gates =
  let b = Circuit.builder nq in
  List.iter
    (function `One q -> Circuit.add1 b "u3" q | `Two (q, q') -> Circuit.add2 b "cx" q q')
    gates;
  Circuit.build b ~name:"rand"

(* The full-device optimum the plain refinement loop finds. *)
let full_optimum objective (inst : Instance.t) =
  let plan = Synthesis.plan pinned objective inst in
  Optimizer.optimize ~config:plan.Synthesis.config ~oracle:plan.Synthesis.oracle
    ~budget:(Budget.start (Budget.of_seconds 60.))
    objective inst

(* ---- the property ---- *)

let window_devices = [ "grid-5x5"; "line-12"; "heavy-hex-3x7" ]

let circuit_gen =
  Q.Gen.(
    let* nq = 2 -- 5 in
    let* ng = 1 -- 8 in
    let gate =
      let* two = bool in
      let* a = 0 -- (nq - 1) in
      if two then
        let* b = 0 -- (nq - 2) in
        return (`Two (a, if b >= a then b + 1 else b))
      else return (`One a)
    in
    let* gates = list_size (return ng) gate in
    let* device = oneofl window_devices in
    let* swaps = bool in
    return (nq, gates, device, swaps))

let prop_window_optima =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"windowed optima equal the full device's" ~count:40
       (Q.make
          ~print:(fun (nq, gates, device, swaps) ->
            Printf.sprintf "nq=%d ng=%d on %s, %s" nq (List.length gates) device
              (if swaps then "swaps" else "depth"))
          circuit_gen)
       (fun (nq, gates, device, swaps) ->
         let inst = Instance.make (build_circuit nq gates) (Devices.by_name device) in
         let objective = if swaps then Synthesis.Swaps { warm_start = None } else Synthesis.Depth in
         let r = Synthesis.run ~options:pinned ~objective inst in
         let full = full_optimum objective inst in
         let value (res : Result_.t) =
           if swaps then (res.Result_.depth, res.Result_.swap_count) else (res.Result_.depth, 0)
         in
         match (r.Synthesis.result, full.Optimizer.result) with
         | Some res, Some ref_res ->
           (r.Synthesis.plan.Synthesis.window.Synthesis.ball <> None
           || Q.Test.fail_report "2*|Q| < |P| but the plan has no window")
           && (r.Synthesis.optimal && full.Optimizer.optimal
              || Q.Test.fail_report "an optimum was not proved")
           && (value res = value ref_res
              || Q.Test.fail_reportf "window run (%d, %d), full device (%d, %d)" (fst (value res))
                   (snd (value res)) (fst (value ref_res)) (snd (value ref_res)))
           && (Validate.check inst res = [] || Q.Test.fail_report "answer invalid on the device")
         | _ -> Q.Test.fail_report "no layout"))

(* ---- a window that misses ---- *)

(* A degree-4 star (vertex 0, the root) whose last leaf starts a path to
   a triangle: the 6-qubit ball of a 3-qubit circuit holds no triangle,
   so a circuit that needs one cannot meet its chain bound there. *)
let star_and_triangle =
  Coupling.make ~name:"star-and-triangle" ~num_qubits:10
    [ (0, 1); (0, 2); (0, 3); (0, 4); (4, 5); (5, 6); (6, 7); (7, 8); (8, 9); (7, 9) ]

let triangle_circuit () =
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 1 2;
  Circuit.add2 b "cx" 0 2;
  Circuit.build b ~name:"triangle"

(* The triangle with two single-qubit gates on qubit 0 between its
   second and third CX: T_LB = 4, which leaves the star window time for
   one unit-duration SWAP, but not for a SWAP-free layout. *)
let triangle_with_slack () =
  let b = Circuit.builder 3 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 1 2;
  Circuit.add1 b "u3" 0;
  Circuit.add1 b "u3" 0;
  Circuit.add2 b "cx" 0 2;
  Circuit.build b ~name:"triangle-slack"

let test_window_miss () =
  List.iter
    (fun (name, inst, objective, depth) ->
      let r = Synthesis.run ~options:pinned ~objective inst in
      let plan = r.Synthesis.plan in
      checkb (name ^ ": planned window is the star") true
        (match plan.Synthesis.window.Synthesis.ball with
        | Some b -> b.Window.root = 0 && b.Window.vertices = [| 0; 1; 2; 3; 4; 5 |]
        | None -> false);
      checkb (name ^ ": window missed") true
        (match r.Synthesis.window with Some (Synthesis.Missed _) -> true | _ -> false);
      checkb (name ^ ": optimal after the fallback") true r.Synthesis.optimal;
      let full = full_optimum objective inst in
      (match (r.Synthesis.result, full.Optimizer.result) with
      | Some res, Some ref_res ->
        checki (name ^ ": full-device depth") ref_res.Result_.depth res.Result_.depth;
        checki (name ^ ": depth meets the chain on the triangle") depth res.Result_.depth;
        checki (name ^ ": no SWAP on the triangle") 0 res.Result_.swap_count;
        checkb (name ^ ": valid on the device") true (Validate.check inst res = [])
      | _ -> Alcotest.fail "no layout");
      (* the window's query is counted, ahead of the full run's *)
      (match r.Synthesis.iter_stats with
      | first :: _ :: _ ->
        Alcotest.(check string) (name ^ ": window query first") "opt.window_iter"
          first.Optimizer.iter_phase;
        Alcotest.(check string) (name ^ ": window query unsat") "unsat" first.Optimizer.iter_verdict
      | _ -> Alcotest.fail "expected the window query and the full run's");
      checki (name ^ ": iterations count both") (List.length r.Synthesis.iter_stats)
        r.Synthesis.iterations;
      let j = Synthesis.report_to_json ~options:pinned ~objective r in
      checkb (name ^ ": record says missed") true
        (match Json.member "window" j with
        | Some w -> Json.member "outcome" w = Some (Json.Str "missed")
        | None -> false))
    (let triangle = Instance.make (triangle_circuit ()) star_and_triangle in
     let slack = Instance.make ~swap_duration:1 (triangle_with_slack ()) star_and_triangle in
     [
       ("depth", triangle, Synthesis.Depth, 3);
       ("swaps", triangle, Synthesis.Swaps { warm_start = None }, 3);
       (* a SWAP fits the window at T_LB, and the device needs none *)
       ("swaps with slack", slack, Synthesis.Swaps { warm_start = None }, 4);
       ("weighted with slack", slack, Synthesis.Weighted_swaps (fun _ -> 1), 4);
     ])

(* ---- windows on large devices ---- *)

let brick n device = Instance.make (Suite.parse_spec (Printf.sprintf "brick:%d" n)) (Devices.by_name device)

let test_window_accepted () =
  let inst = brick 8 "heavy-hex-3x7" in
  let r = Synthesis.run ~options:pinned ~objective:Synthesis.Depth inst in
  checkb "accepted" true (r.Synthesis.window = Some Synthesis.Accepted);
  checkb "optimal" true r.Synthesis.optimal;
  checki "one query" 1 r.Synthesis.iterations;
  (match r.Synthesis.result with
  | Some res ->
    checki "depth = T_LB" (Instance.depth_lower_bound inst) res.Result_.depth;
    checkb "status optimal" true (res.Result_.status = Result_.Optimal);
    checkb "valid on the device" true (Validate.check inst res = [])
  | None -> Alcotest.fail "no layout");
  (* weighted SWAPs: 0 weight on the window, read through its edge map *)
  let w = Synthesis.run ~options:pinned ~objective:(Synthesis.Weighted_swaps (fun e -> 1 + (e mod 3))) inst in
  checkb "weighted accepted" true (w.Synthesis.window = Some Synthesis.Accepted);
  checkb "weighted: 0 SWAPs" true
    (match w.Synthesis.result with Some res -> res.Result_.swap_count = 0 | None -> false)

(* ---- the dependency-chain certificate ---- *)

let certify = Options.with_certify true pinned

let test_chain_certificate () =
  let inst = brick 8 "heavy-hex-3x7" in
  let r = Synthesis.run ~options:certify ~objective:Synthesis.Depth inst in
  let cert, res =
    match (r.Synthesis.certificate, r.Synthesis.result) with
    | Some c, Some res -> (c, res)
    | _ -> Alcotest.fail "no certificate"
  in
  checkb "windowed certify: chain formula" true (cert.Certificate.formula = Certificate.Chain);
  checkb "windowed certify: valid" true (Certificate.valid cert);
  checki "dependency chain" (Instance.depth_lower_bound inst)
    (Certificate.dependency_chain inst.Instance.circuit);
  (* a claim above the chain is rejected *)
  let above =
    Certificate.chain inst res Certificate.Depth ~optimum:(res.Result_.depth + 1)
  in
  checkb "claim above the chain rejected" false (Certificate.valid above);
  (* a model that fails validation on the full device is rejected: two
     program qubits on one physical qubit *)
  let mapping = Array.map Array.copy res.Result_.mapping in
  Array.iter (fun row -> row.(1) <- row.(0)) mapping;
  let broken = { res with Result_.mapping } in
  let bad = Certificate.chain inst broken Certificate.Depth ~optimum:res.Result_.depth in
  checkb "invalid model rejected" false (Certificate.valid bad);
  checkb "invalid model reported" true (bad.Certificate.violations <> []);
  (* a positive SWAP claim has no chain bound *)
  let swaps = Certificate.chain inst res (Certificate.Swaps_at_depth res.Result_.depth) ~optimum:1 in
  checkb "SWAP claim above 0 not certified by a chain" false (Certificate.valid swaps);
  let zero = Certificate.chain inst res (Certificate.Swaps_at_depth res.Result_.depth) ~optimum:0 in
  checkb "0-SWAP claim trivial" true (Certificate.valid zero && zero.Certificate.lower_bound = None)

(* On small instances the chain certificate and the session refutation
   on the full device certify the same optimum. *)
let test_chain_agrees_with_session () =
  List.iter
    (fun (spec, device) ->
      let inst = Instance.make (Suite.parse_spec spec) (Devices.by_name device) in
      let r = Synthesis.run ~options:certify ~objective:Synthesis.Depth inst in
      let chain =
        match r.Synthesis.certificate with
        | Some c when c.Certificate.formula = Certificate.Chain -> c
        | _ -> Alcotest.failf "%s on %s: no chain certificate" spec device
      in
      let sink = Drat.create () in
      let o =
        Optimizer.optimize ~config:Core.Config.default ~oracle:Optimizer.Session
          ~budget:(Budget.start (Budget.of_seconds 60.))
          ~proof:(Drat.logger sink) Synthesis.Depth inst
      in
      let session =
        match (o.Optimizer.result, o.Optimizer.refutation) with
        | Some res, Some refutation -> Certificate.finish ~sink inst res refutation
        | _ -> Alcotest.failf "%s on %s: no session refutation" spec device
      in
      checkb (spec ^ ": chain valid") true (Certificate.valid chain);
      checkb (spec ^ ": session valid") true (Certificate.valid session);
      checki (spec ^ ": same optimum") session.Certificate.optimum chain.Certificate.optimum)
    [ ("brick:6", "grid-5x5"); ("ising:4", "line-12"); ("brick:5", "heavy-hex-3x7") ]

(* ---- plan and record ---- *)

let test_plan_window () =
  let inst = brick 8 "heavy-hex-3x7" in
  let p = Synthesis.plan pinned Synthesis.Depth inst in
  (match p.Synthesis.window.Synthesis.ball with
  | Some b ->
    let device = inst.Instance.device in
    checki "ball of 2*|Q|" 16 (Array.length b.Window.vertices);
    checkb "ball holds its root" true (Array.mem b.Window.root b.Window.vertices);
    checkb "root has the highest degree" true
      (List.for_all
         (fun v ->
           List.length (Coupling.neighbors device v)
           <= List.length (Coupling.neighbors device b.Window.root))
         (List.init device.Coupling.num_qubits Fun.id));
    let w = Window.restrict inst b in
    checkb "window connected" true (Coupling.is_connected w.Window.instance.Instance.device);
    checkb "edge map lands on device edges" true
      (Array.for_all2
         (fun (a, c) e ->
           Coupling.edge device e
           = (b.Window.vertices.(a), b.Window.vertices.(c)))
         w.Window.instance.Instance.device.Coupling.edges w.Window.edges)
  | None -> Alcotest.fail "no window on a device of more than 2*|Q| qubits");
  checkb "window reason given" true (String.length p.Synthesis.window.Synthesis.reason > 0);
  let small = Instance.make (Suite.parse_spec "qaoa:4") (Devices.grid 2 2) in
  let p = Synthesis.plan pinned Synthesis.Depth small in
  checkb "no window when 2*|Q| >= |P|" true (p.Synthesis.window.Synthesis.ball = None);
  let tb = Synthesis.plan pinned Synthesis.Tb_swaps inst in
  checkb "TB never windows" true (tb.Synthesis.window.Synthesis.ball = None);
  let r = Synthesis.run ~options:pinned ~objective:Synthesis.Depth small in
  checkb "no window, no outcome" true (r.Synthesis.window = None)

let test_record_window () =
  let inst = brick 8 "heavy-hex-3x7" in
  let r = Synthesis.run ~options:certify ~objective:Synthesis.Depth inst in
  let j = Synthesis.report_to_json ~options:certify ~objective:Synthesis.Depth r in
  let get path =
    List.fold_left
      (fun j k -> match Json.member k j with Some v -> v | None -> Alcotest.failf "no %s" k)
      j path
  in
  checkb "record window accepted" true (get [ "window"; "outcome" ] = Json.Str "accepted");
  checkb "plan window size" true (get [ "plan"; "window"; "qubits" ] = Json.Num 16.);
  checkb "certificate formula chain" true (get [ "certificate"; "formula" ] = Json.Str "chain");
  checkb "certificate valid" true (get [ "certificate"; "valid" ] = Json.Bool true);
  checkb "no proof note without a proof file" true (Synthesis.proof_note r = None);
  checkb "no proof field without a proof file" true
    (Json.member "proof_file" (get [ "window" ]) = None);
  (* a proof file asked for is not written under the chain certificate,
     and the record says so *)
  let with_proof = Options.with_certify ~proof_file:"unwritten.drat" true pinned in
  let rp = Synthesis.run ~options:with_proof ~objective:Synthesis.Depth inst in
  checkb "proof note" true (Synthesis.proof_note rp <> None);
  checkb "no proof written" false (Sys.file_exists "unwritten.drat");
  let jp = Synthesis.report_to_json ~options:with_proof ~objective:Synthesis.Depth rp in
  checkb "record proof_file null" true
    (Option.bind (Json.member "window" jp) (Json.member "proof_file") = Some Json.Null);
  checkb "record proof note" true
    (match Option.bind (Json.member "window" jp) (Json.member "proof_note") with
    | Some (Json.Str _) -> true
    | _ -> false);
  (* the build commit comes from the environment, null when unset *)
  let prior = Sys.getenv_opt "OLSQ2_BUILD_COMMIT" in
  let commit () =
    match
      Json.member "build_commit" (Synthesis.report_to_json ~options:certify ~objective:Synthesis.Depth r)
    with
    | Some v -> v
    | None -> Alcotest.fail "no build_commit"
  in
  Unix.putenv "OLSQ2_BUILD_COMMIT" "abc123";
  checkb "record build commit" true (commit () = Json.Str "abc123");
  Unix.putenv "OLSQ2_BUILD_COMMIT" "";
  checkb "record build commit null when unset" true (commit () = Json.Null);
  Unix.putenv "OLSQ2_BUILD_COMMIT" (Option.value ~default:"" prior)

(* The depth ascent's first SAT at T_LB ends the depth search: no second
   solve of the same bound. *)
let test_depth_at_bound_solves_once () =
  let b = Circuit.builder 4 in
  Circuit.add2 b "cx" 0 1;
  Circuit.add2 b "cx" 1 2;
  Circuit.add2 b "cx" 2 3;
  let inst = Instance.make (Circuit.build b ~name:"chain") (Devices.line 4) in
  let r = Synthesis.run ~options:pinned ~objective:Synthesis.Depth inst in
  checkb "optimal" true r.Synthesis.optimal;
  checki "one solve" 1 r.Synthesis.iterations;
  checki "depth 3" 3 (match r.Synthesis.result with Some res -> res.Result_.depth | None -> -1)

(* A circuit with no gates has T_LB = 0, yet every schedule has one
   time step: the window query at that floor is accepted. *)
let test_gateless_window () =
  let inst = Instance.make (Circuit.build (Circuit.builder 3) ~name:"empty") (Devices.grid 3 3) in
  checki "T_LB" 0 (Instance.depth_lower_bound inst);
  let r = Synthesis.run ~options:certify ~objective:Synthesis.Depth inst in
  checkb "accepted" true (r.Synthesis.window = Some Synthesis.Accepted);
  checki "one query" 1 r.Synthesis.iterations;
  checki "depth 1" 1 (match r.Synthesis.result with Some res -> res.Result_.depth | None -> -1);
  checkb "chain certificate valid" true
    (match r.Synthesis.certificate with
    | Some c -> c.Certificate.formula = Certificate.Chain && Certificate.valid c
    | None -> false)

let suite =
  [
    ( "window",
      [
        prop_window_optima;
        Alcotest.test_case "miss falls back to the device" `Quick test_window_miss;
        Alcotest.test_case "accepted at the chain bound" `Quick test_window_accepted;
        Alcotest.test_case "chain certificate" `Quick test_chain_certificate;
        Alcotest.test_case "chain agrees with the session" `Quick test_chain_agrees_with_session;
        Alcotest.test_case "plan window" `Quick test_plan_window;
        Alcotest.test_case "record window" `Quick test_record_window;
        Alcotest.test_case "depth at the bound solves once" `Quick test_depth_at_bound_solves_once;
        Alcotest.test_case "gateless circuit windows at depth 1" `Quick test_gateless_window;
      ] );
  ]
