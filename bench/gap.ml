(* Optimality-gap harness runner.

     dune exec bench/gap.exe -- --family smoke --budget 30 --out gap.json

   Generates a known-optimal benchmark family (lib/evalbench factory),
   sweeps the heuristic arms (SABRE / A* / SATMap-style) reporting
   optimality-gap ratios against the construction certificates, and races
   every solver configuration (classic, --incremental, -j N, --simplify,
   --symmetry) to the certified optimum reporting time-to-optimal.

   Exit code 1 when any optimal-mode configuration contradicts a
   certificate or a heuristic beats an exact optimum (both are
   correctness bugs); heuristic sub-optimality is data, never a failure.
   Solver sweeps on large instances are gated by --budget: instances whose device exceeds --max-solver-qubits run
   heuristics only (logged, and visible in the JSON as an empty
   "solvers" array). *)

module Evalbench = Olsq2_evalbench
module Known = Evalbench.Known
module Factory = Evalbench.Factory
module Harness = Evalbench.Harness
module Report = Evalbench.Report
module Instance = Olsq2_core.Instance
module Json = Bench_common.Json

let () =
  let family = ref "smoke" in
  let budget = ref 30.0 in
  let seed = ref 1 in
  let workers = ref 2 in
  let out = ref None in
  let max_solver_qubits = ref 16 in
  let skip_solvers = ref false in
  let args =
    [
      ("--family", Arg.Set_string family, "NAME family to run: smoke, scaling or all (default smoke)");
      ("--budget", Arg.Set_float budget, "SECONDS per-configuration optimization budget (default 30)");
      ("--seed", Arg.Set_int seed, "N heuristic-arm seed (default 1)");
      ("--workers", Arg.Set_int workers, "N workers for the pool configuration (default 2)");
      ("--out", Arg.String (fun s -> out := Some s), "FILE write the olsq2.gap/1 JSON report here");
      ( "--max-solver-qubits",
        Arg.Set_int max_solver_qubits,
        "N skip the solver race on devices larger than N qubits (default 16)" );
      ("--skip-solvers", Arg.Set skip_solvers, " heuristic gaps only, no solver race");
    ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "gap [--family NAME] [--budget S] [--seed N] [--workers N] [--out FILE]";
  let instances = Factory.family !family in
  Printf.printf "gap harness: family %s, %d instances, budget %.0fs\n%!" !family
    (List.length instances) !budget;
  let configs = Harness.solver_configs ~budget:!budget ~workers:!workers () in
  let results =
    List.map
      (fun (k : Known.t) ->
        let np = Instance.num_physical k.Known.instance in
        Printf.printf "%s (%s, %d qubits): depth %s, swaps %s\n%!" k.Known.name
          k.Known.device_name np
          (Known.bound_to_string k.Known.opt_depth)
          (Known.bound_to_string k.Known.opt_swaps);
        let gaps = Harness.heuristic_gaps ~seed:!seed ~budget:!budget k in
        List.iter
          (fun (g : Harness.gap_entry) ->
            Printf.printf "  %-8s %-6s found=%-4d known=%-5s gap=%s%s  %.3fs\n%!"
              g.Harness.g_arm g.Harness.g_objective g.Harness.g_found
              (Known.bound_to_string g.Harness.g_known)
              (if Float.is_nan g.Harness.g_ratio then "-" else Printf.sprintf "%.2fx" g.Harness.g_ratio)
              (if g.Harness.g_sound then "" else "  CERTIFICATE VIOLATION")
              g.Harness.g_seconds)
          gaps;
        let opts =
          if !skip_solvers || np > !max_solver_qubits then begin
            if not !skip_solvers then
              Printf.printf "  (solver race skipped: %d qubits > --max-solver-qubits %d)\n%!" np
                !max_solver_qubits;
            []
          end
          else
            List.concat_map
              (fun obj ->
                List.map
                  (fun cfg ->
                    let o = Harness.run_config k obj cfg in
                    Printf.printf "  %-11s %-6s found=%-4d known=%-5s %-8s %s  %.3fs\n%!"
                      o.Harness.o_config o.Harness.o_objective o.Harness.o_found
                      (Known.bound_to_string o.Harness.o_known)
                      (if o.Harness.o_claimed_optimal then "optimal" else "feasible")
                      (if o.Harness.o_matches then "ok" else "OPTIMUM MISMATCH")
                      o.Harness.o_seconds;
                    o)
                  configs)
              Harness.all_objectives
        in
        (k, gaps, opts))
      instances
  in
  let all_gaps = List.concat_map (fun (_, gaps, _) -> gaps) results in
  let all_opts = List.concat_map (fun (_, _, opts) -> opts) results in
  let violations = Report.violations all_opts in
  let unsound = Report.unsound_gaps all_gaps in
  let matched = List.length all_opts - List.length violations in
  Printf.printf "solver race: %d/%d entries consistent with certificates\n%!" matched
    (List.length all_opts);
  let scored = List.filter (fun g -> g.Harness.g_found >= 0) all_gaps in
  let mean_gap =
    match scored with
    | [] -> Float.nan
    | _ ->
      List.fold_left (fun acc g -> acc +. g.Harness.g_ratio) 0.0 scored
      /. float_of_int (List.length scored)
  in
  Printf.printf "heuristic arms: %d/%d entries scored, mean gap %.2fx\n%!" (List.length scored)
    (List.length all_gaps) mean_gap;
  (match !out with
  | None -> ()
  | Some path ->
    Bench_common.write_json_file path (Report.family_report ~family:!family ~budget:!budget results);
    Printf.printf "report written to %s\n%!" path);
  if violations <> [] || unsound <> [] then begin
    List.iter
      (fun (o : Harness.opt_entry) ->
        Printf.eprintf "MISMATCH: %s %s %s found %d, certificate %s\n" o.Harness.o_instance
          o.Harness.o_config o.Harness.o_objective o.Harness.o_found
          (Known.bound_to_string o.Harness.o_known))
      violations;
    List.iter
      (fun (g : Harness.gap_entry) ->
        Printf.eprintf "UNSOUND: %s %s %s found %d beats certificate %s\n" g.Harness.g_instance
          g.Harness.g_arm g.Harness.g_objective g.Harness.g_found
          (Known.bound_to_string g.Harness.g_known))
      unsound;
    exit 1
  end
