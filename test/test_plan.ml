(* Synthesis.plan and the run record: every decision option either
   changes the plan or is named in its overrides, and no field of the
   record contradicts what ran. *)

module Q = QCheck
module Core = Olsq2_core
module Config = Core.Config
module Budget = Core.Budget
module Certificate = Core.Certificate
module Synthesis = Core.Synthesis
module Options = Core.Synthesis.Options
module Instance = Core.Instance
module Devices = Olsq2_device.Devices
module Suite = Olsq2_benchgen.Suite
module Json = Olsq2_obs.Obs.Json

let checkb = Alcotest.check Alcotest.bool

let instance spec device = Instance.make (Suite.parse_spec spec) (Devices.by_name device)
let qaoa4 () = Instance.make ~swap_duration:1 (Suite.parse_spec "qaoa:4:104") (Devices.grid 2 2)

(* Pin the knobs the environment defaults, so the tests read the same
   under OLSQ2_WORKERS and OLSQ2_INCREMENTAL. *)
let pinned = Options.(default |> with_workers 1 |> with_incremental true)

let named field (p : Synthesis.plan) = List.mem_assoc field p.Synthesis.overrides

(* ---- the property ---- *)

let options_gen =
  Q.Gen.(
    let* config = oneofl Config.table1_configs in
    let* simplify = bool in
    let* symmetry = bool in
    let* certify = bool in
    let* proof_file = oneofl [ None; Some "p.drat" ] in
    let* workers = 1 -- 4 in
    let* cube_depth = oneofl [ None; Some 2 ] in
    let* incremental = bool in
    return
      {
        Options.default with
        config = { config with Config.simplify; symmetry };
        certify;
        proof_file;
        parallel = { Options.workers; cube_depth };
        incremental;
      })

let objectives =
  [
    Synthesis.Depth;
    Synthesis.Swaps { warm_start = None };
    Synthesis.Weighted_swaps (fun _ -> 2);
    Synthesis.Tb_blocks;
    Synthesis.Tb_swaps;
  ]

let instances = [ ("qaoa:4", "grid-2x2"); ("qft:3", "qx2"); ("toffoli", "qx2") ]

(* Each decision field, and a change of it to another value. *)
let flips =
  let cfg f (o : Options.t) = { o with Options.config = f o.Options.config } in
  let par f (o : Options.t) = { o with Options.parallel = f o.Options.parallel } in
  let next x xs =
    let rec go = function
      | a :: (b :: _ as rest) -> if a = x then b else go rest
      | [ _ ] | [] -> List.hd xs
    in
    go xs
  in
  [
    ( "formulation",
      cfg (fun c -> { c with formulation = next c.Config.formulation Config.[ Olsq; Olsq2 ] }) );
    ( "var_encoding",
      cfg (fun c ->
          { c with var_encoding = next c.Config.var_encoding Config.[ Lazy_int; Onehot; Binary ] })
    );
    ( "injectivity",
      cfg (fun c -> { c with injectivity = next c.Config.injectivity Config.[ Pairwise; Inverse ] })
    );
    ( "cardinality",
      cfg (fun c ->
          {
            c with
            cardinality = next c.Config.cardinality Config.[ Seq_counter; Totalizer; Adder ];
          }) );
    ("simplify", cfg (fun c -> { c with simplify = not c.Config.simplify }));
    ("symmetry", cfg (fun c -> { c with symmetry = not c.Config.symmetry }));
    ("certify", fun o -> { o with certify = not o.Options.certify });
    ( "proof_file",
      fun o -> { o with proof_file = next o.Options.proof_file [ None; Some "q.drat" ] } );
    ("workers", par (fun p -> { p with workers = next p.Options.workers [ 1; 3 ] }));
    ( "cube_depth",
      par (fun p -> { p with cube_depth = next p.Options.cube_depth [ None; Some 3 ] }) );
    ("incremental", fun o -> { o with incremental = not o.Options.incremental });
  ]

let prop_every_option_is_accounted =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"every decision option changes the plan or is overridden" ~count:300
       (Q.make
          ~print:(fun (o, k, i) ->
            Printf.sprintf "objective #%d, instance #%d: %s" k i
              (Json.to_string (Options.to_json o)))
          Q.Gen.(
            triple options_gen
              (0 -- (List.length objectives - 1))
              (0 -- (List.length instances - 1))))
       (fun (o, k, i) ->
         let objective = List.nth objectives k in
         let spec, device = List.nth instances i in
         let inst = instance spec device in
         let p = Synthesis.plan o objective inst in
         List.for_all
           (fun (field, flip) ->
             let p' = Synthesis.plan (flip o) objective inst in
             let exec (p : Synthesis.plan) = { p with Synthesis.overrides = [] } in
             exec p <> exec p' || named field p || named field p'
             || Q.Test.fail_reportf "%s changed nothing and no override names it" field)
           flips))

(* ---- decisions on fixed options ---- *)

let test_plan_cases () =
  let inst = qaoa4 () in
  let plan o obj = Synthesis.plan o obj inst in
  let default_certify = plan (Options.with_certify true pinned) Synthesis.Depth in
  checkb "default certify: session oracle" true
    (default_certify.Synthesis.oracle = Synthesis.Session);
  checkb "default certify: on the session" true
    (default_certify.Synthesis.certification = Synthesis.On_session);
  checkb "default certify: no overrides" true (default_certify.Synthesis.overrides = []);
  let sym = { pinned with Options.config = { Config.default with Config.symmetry = true } } in
  let sym_certify = plan (Options.with_certify true sym) Synthesis.Depth in
  checkb "symmetry certify: classic fallback without symmetry" true
    (sym_certify.Synthesis.certification
    = Synthesis.Classic_fallback (Certificate.pure_sat_config sym.Options.config));
  checkb "symmetry certify: override names symmetry" true (named "symmetry" sym_certify);
  let weighted = plan sym (Synthesis.Weighted_swaps (fun _ -> 1)) in
  checkb "weighted: symmetry off" false weighted.Synthesis.config.Config.symmetry;
  checkb "weighted: override names symmetry" true (named "symmetry" weighted);
  let tb = plan pinned Synthesis.Tb_swaps in
  checkb "TB: transition-based oracle" true (tb.Synthesis.oracle = Synthesis.Transition_based);
  checkb "TB: incremental ignored" true (named "incremental" tb);
  let simp = plan (Options.with_simplify true pinned) Synthesis.Depth in
  checkb "simplify: classic encoder" true (simp.Synthesis.oracle = Synthesis.Classic);
  checkb "simplify: override names incremental" true (named "incremental" simp);
  let pool = plan (Options.with_workers ~cube_depth:2 1 pinned) Synthesis.Depth in
  checkb "cube_depth ignored at workers=1" true
    (named "cube_depth" pool && pool.Synthesis.cube_depth = None);
  let proof = plan (Options.with_certify ~proof_file:"x.drat" false pinned) Synthesis.Depth in
  checkb "proof_file ignored without certify" true
    (named "proof_file" proof && proof.Synthesis.proof_file = None);
  (* the engine refuses what the plan would never hand it *)
  let budget = Budget.start Budget.unlimited in
  checkb "optimizer rejects weighted symmetry" true
    (match
       Core.Optimizer.optimize ~config:sym.Options.config ~oracle:Synthesis.Classic ~budget
         (Synthesis.Weighted_swaps (fun _ -> 1)) inst
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---- the record against what ran ---- *)

let record options objective inst =
  let r = Synthesis.run ~options ~objective inst in
  let text = Json.to_string (Synthesis.report_to_json ~options ~objective r) in
  match Json.parse text with
  | Error e -> Alcotest.failf "record does not parse: %s" e
  | Ok j ->
    (* round trip: parsing and printing again changes nothing *)
    Alcotest.(check string) "record round trip" text (Json.to_string j);
    (r, j)

let member path j =
  List.fold_left
    (fun j k ->
      match Json.member k j with Some v -> v | None -> Alcotest.failf "record has no %s" k)
    j path

let str path j =
  match member path j with
  | Json.Str s -> s
  | _ -> Alcotest.failf "%s: not a string" (String.concat "." path)

let keys j = match j with Json.Obj kvs -> List.map fst kvs | _ -> Alcotest.fail "not an object"

let test_record_symmetry_certify () =
  let sym = { pinned with Options.config = { Config.default with Config.symmetry = true } } in
  let options = Options.with_certify true sym in
  let r, j = record options Synthesis.Depth (qaoa4 ()) in
  (* golden: key set, plan and stop, no timings *)
  Alcotest.(check (list string))
    "record keys"
    [
      "objective"; "options"; "plan"; "stop"; "window"; "optimal"; "iterations"; "seconds";
      "pareto"; "iter_stats"; "solver_stats"; "certificate"; "trace"; "env"; "build_commit";
    ]
    (keys j);
  Alcotest.(check string)
    "plan"
    {|{"config":{"formulation":"olsq2","var_encoding":"binary","injectivity":"pairwise","cardinality":"seq_counter","simplify":false,"symmetry":true},"oracle":"session","workers":1,"cube_depth":null,"certification":{"kind":"classic_fallback","config":{"formulation":"olsq2","var_encoding":"binary","injectivity":"pairwise","cardinality":"seq_counter","simplify":false,"symmetry":false}},"proof_file":null,"window":{"qubits":null,"root":null,"reason":"2*|Q| = 8 is not below the 4 physical qubits"},"overrides":[{"field":"symmetry","reason":"certified by a classic re-solve: the checker cannot lift a refutation of the orbit-restricted formula"}]}|}
    (Json.to_string (member [ "plan" ] j));
  Alcotest.(check string) "stop" {|{"reason":"optimal"}|} (Json.to_string (member [ "stop" ] j));
  checkb "no window, no window outcome" true (member [ "window" ] j = Json.Null);
  Alcotest.(check string) "certificate formula" "classic" (str [ "certificate"; "formula" ] j);
  checkb "certificate valid" true (member [ "certificate"; "valid" ] j = Json.Bool true);
  checkb "trace is null with the tracer off" true (member [ "trace" ] j = Json.Null);
  checkb "the certificate ran where the plan said" true
    (match r.Synthesis.certificate with
    | Some { Certificate.formula = Certificate.Classic c; _ } ->
      r.Synthesis.plan.Synthesis.certification = Synthesis.Classic_fallback c
    | Some _ | None -> false)

let test_record_session_certify () =
  let r, j = record (Options.with_certify true pinned) Synthesis.Depth (qaoa4 ()) in
  Alcotest.(check string)
    "plan certification" "on_session"
    (str [ "plan"; "certification"; "kind" ] j);
  Alcotest.(check string) "certificate formula" "session" (str [ "certificate"; "formula" ] j);
  checkb "report certificate is the session's" true
    (match r.Synthesis.certificate with
    | Some c -> c.Certificate.formula = Certificate.Session && Certificate.valid c
    | None -> false)

let test_record_weighted_and_tb () =
  let sym = { pinned with Options.config = { Config.default with Config.symmetry = true } } in
  let _, j = record sym (Synthesis.Weighted_swaps (fun _ -> 1)) (qaoa4 ()) in
  checkb "weighted: effective symmetry off" true
    (member [ "plan"; "config"; "symmetry" ] j = Json.Bool false);
  checkb "weighted: options as run keep the request" true
    (member [ "options"; "config"; "symmetry" ] j = Json.Bool true);
  let overrides = match member [ "plan"; "overrides" ] j with Json.Arr os -> os | _ -> [] in
  checkb "weighted: override names symmetry" true
    (List.exists (fun o -> str [ "field" ] o = "symmetry") overrides);
  let _, j = record pinned Synthesis.Tb_blocks (qaoa4 ()) in
  Alcotest.(check string) "TB oracle" "transition_based" (str [ "plan"; "oracle" ] j);
  let overrides = match member [ "plan"; "overrides" ] j with Json.Arr os -> os | _ -> [] in
  checkb "TB: incremental ignored" true
    (List.exists (fun o -> str [ "field" ] o = "incremental") overrides)

let test_record_stops () =
  let tiny = Options.with_budget (Budget.with_conflicts 1 Budget.unlimited) pinned in
  let r, j = record tiny Synthesis.Depth (instance "qft:6" "grid-2x3") in
  checkb "tiny budget: not optimal" false r.Synthesis.optimal;
  Alcotest.(check string)
    "tiny budget: budget_spent" "budget_spent"
    (str [ "stop"; "reason" ] j);
  checkb "record optimal is false" true (member [ "optimal" ] j = Json.Bool false);
  checkb "last bound is the last iteration's" true
    (match (r.Synthesis.stop, List.rev r.Synthesis.iter_stats) with
    | Synthesis.Budget_spent (Some b), it :: _ -> b = it.Core.Optimizer.iter_bound
    | Synthesis.Budget_spent None, [] -> true
    | _ -> false);
  let ctl = Budget.control () in
  Budget.preempt ctl;
  let preempted = Options.with_budget (Budget.with_control ctl Budget.unlimited) pinned in
  let _, j = record preempted Synthesis.Depth (qaoa4 ()) in
  Alcotest.(check string) "preempted: interrupted" "interrupted" (str [ "stop"; "reason" ] j)

let suite =
  [
    ( "plan",
      [
        prop_every_option_is_accounted;
        Alcotest.test_case "plan decisions" `Quick test_plan_cases;
        Alcotest.test_case "record: symmetry certify" `Quick test_record_symmetry_certify;
        Alcotest.test_case "record: session certify" `Quick test_record_session_certify;
        Alcotest.test_case "record: weighted and TB" `Quick test_record_weighted_and_tb;
        Alcotest.test_case "record: stop reasons" `Quick test_record_stops;
      ] );
  ]
