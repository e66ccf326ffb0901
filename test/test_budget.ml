(* A spent budget keeps the best layout found.  Each run gets a conflict
   budget that runs out inside one bound query of the depth descent or of
   the SWAP descent.  The budget is read off an unbudgeted run's
   per-iteration conflicts, and the budgeted run is the same run up to
   that query, so the cut lands there every time.  The run must return
   the layout captured at the SAT answer before the cut: valid, one above
   the bound that was cut, not optimal, and stopped as [Budget_spent]. *)

module Core = Olsq2_core
module Config = Core.Config
module Budget = Core.Budget
module Optimizer = Core.Optimizer
module Result_ = Core.Result_
module Synthesis = Core.Synthesis
module Options = Core.Synthesis.Options
module Validate = Core.Validate
module Instance = Core.Instance
module Devices = Olsq2_device.Devices
module Suite = Olsq2_benchgen.Suite
module Solver = Olsq2_sat.Solver

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let conflicts (it : Optimizer.iter_stat) = it.Optimizer.iter_stats.Solver.conflicts

(* The solver checks a conflict cap at its restarts, the first after
   [restart_base] conflicts.  The cut is the last [phase] query, after a
   SAT answer, that took more than that in the unbudgeted run: a budget
   that leaves it one conflict stops it at its first restart.  (On the
   lazy-int arm a CEGAR round of the cut query may end SAT before that
   restart; its model, left in the solver, is not theory-checked.) *)
let cut options ~phase (its : Optimizer.iter_stat list) =
  let sat = options.Options.sat in
  let rec last_cut i seen_sat found = function
    | [] -> found
    | (it : Optimizer.iter_stat) :: rest ->
      let cuttable =
        seen_sat && it.Optimizer.iter_phase = phase
        && conflicts it > sat.Olsq2_sat.Tuning.restart_base
      in
      last_cut (i + 1)
        (seen_sat || it.Optimizer.iter_verdict = "sat")
        (if cuttable then Some i else found)
        rest
  in
  match last_cut 0 false None its with
  | None -> Alcotest.failf "no %s query past the first restart after a SAT answer" phase
  | Some k ->
    let before = List.filteri (fun i _ -> i < k) its in
    (* the pool splits a query only past its sequential probe; below it
       the pool run is as deterministic as the sequential one *)
    if options.Options.parallel.Options.workers > 1 then
      List.iter
        (fun (it : Optimizer.iter_stat) ->
          if conflicts it >= sat.Olsq2_sat.Tuning.probe_conflicts then
            Alcotest.failf "%s at %d: %d conflicts reach the pool's probe"
              it.Optimizer.iter_phase it.Optimizer.iter_bound (conflicts it))
        before;
    (List.fold_left (fun spent it -> spent + conflicts it) 1 before, List.nth its k)

let keeps_best_layout spec device options objective () =
  let circuit = Suite.parse_spec spec in
  let inst =
    Instance.make ~swap_duration:(Suite.swap_duration_for circuit) circuit (Devices.by_name device)
  in
  let phase, value =
    match objective with
    | Synthesis.Depth -> ("opt.depth_iter", fun (r : Result_.t) -> r.Result_.depth)
    | _ -> ("opt.swap_iter", fun (r : Result_.t) -> r.Result_.swap_count)
  in
  let full = Synthesis.run ~options ~objective inst in
  checkb "unbudgeted run is optimal" true full.Synthesis.optimal;
  let budget, cut_at = cut options ~phase full.Synthesis.iter_stats in
  let r =
    Synthesis.run
      ~options:(Options.with_budget (Budget.with_conflicts budget Budget.unlimited) options)
      ~objective inst
  in
  (match List.rev r.Synthesis.iter_stats with
  | last :: _ ->
    Alcotest.(check string) "the cut query is the last" phase last.Optimizer.iter_phase;
    checki "at the cut bound" cut_at.Optimizer.iter_bound last.Optimizer.iter_bound;
    checkb "cut short" true (String.starts_with ~prefix:"unknown" last.Optimizer.iter_verdict)
  | [] -> Alcotest.fail "no iterations");
  match r.Synthesis.result with
  | None -> Alcotest.fail "a spent budget lost the layout it had found"
  | Some res ->
    Alcotest.(check (list string))
      "validates" []
      (List.map Validate.violation_to_string (Validate.check inst res));
    checki "one above the cut bound" (cut_at.Optimizer.iter_bound + 1) (value res);
    checkb "not optimal" false r.Synthesis.optimal;
    checkb "status feasible" true (res.Result_.status = Result_.Feasible);
    checkb "stop budget_spent" true
      (match r.Synthesis.stop with Synthesis.Budget_spent _ -> true | _ -> false)

let oracles =
  let base = Options.(default |> with_workers 1) in
  [
    ("session", Options.with_incremental true base);
    ("classic", Options.with_incremental false base);
    ("pool", Options.(base |> with_incremental true |> with_workers 2));
  ]

let suite =
  [
    ( "budget",
      List.concat_map
        (fun (name, options) ->
          [
            Alcotest.test_case (name ^ ": spent in the depth descent") `Quick
              (keeps_best_layout "qaoa:6:23" "line-6" options Synthesis.Depth);
            Alcotest.test_case (name ^ ": spent in the SWAP descent") `Quick
              (keeps_best_layout "qaoa:4:4" "line-4" options
                 (Synthesis.Swaps { warm_start = None }));
          ])
        oracles
      @ [
          (* the CEGAR loop of the cut query leaves an unchecked model in
             the solver: the returned layout must be the one captured at
             the last SAT answer *)
          Alcotest.test_case "lazy int: spent in the depth descent" `Quick
            (keeps_best_layout "qft:3" "line-3"
               Options.(default |> with_workers 1 |> with_config Config.olsq2_int)
               Synthesis.Depth);
        ] );
  ]
