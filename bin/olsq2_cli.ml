(* olsq2: command-line layout synthesis.

   Subcommands:
     synth     synthesize a circuit onto a device (OLSQ2 / TB-OLSQ2 /
               SABRE / SATMap-style), validate, report, optionally emit
               the mapped OpenQASM
     generate  write a benchmark circuit as OpenQASM
     devices   list built-in coupling graphs *)

module Core = Olsq2_core
module Devices = Olsq2_device.Devices
module Coupling = Olsq2_device.Coupling
module Circuit = Olsq2_circuit.Circuit
module Qasm = Olsq2_circuit.Qasm
module Suite = Olsq2_benchgen.Suite
module Sabre = Olsq2_heuristic.Sabre
module Astar = Olsq2_heuristic.Astar_router
module Satmap = Olsq2_satmap.Satmap
module Obs = Olsq2_obs.Obs
module Cli_options = Olsq2_serve.Cli_options
open Cmdliner

(* ---- shared arguments ----

   The synthesis knobs (-j/--simplify/--budget/--conflict-budget/
   --cube-depth/-c/--certify/--proof/--incremental/--symmetry/--sat)
   come from Serve.Cli_options, the single definition olsq2-serve parses
   too. *)

let circuit_arg =
  let doc =
    "Circuit spec: qaoa:N[:SEED], qft:N, tof:K, barenco_tof:K, ising:N[:STEPS], toffoli, \
     queko:DEPTH:GATES[:SEED], quekno:DEPTH:GATES:SWAPS[:SEED], or file:PATH (OpenQASM 2)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let device_arg =
  let doc =
    "Target device: a built-in name (qx2, aspen-4, sycamore, eagle, osprey) or a generator \
     pattern (heavy-hex-127, heavy-hex-RxC, grid-RxC, torus-RxC, sycamore-RxC, line-N, ring-N); \
     `olsq2 devices` lists all of them."
  in
  Arg.(value & opt string "qx2" & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)

let swap_duration_arg =
  let doc = "SWAP gate duration in time steps (default: 1 for QAOA, 3 otherwise)." in
  Arg.(value & opt (some int) None & info [ "swap-duration" ] ~docv:"STEPS" ~doc)

let objective_arg =
  let doc = "Objective: depth or swap." in
  Arg.(value & opt (enum [ ("depth", `Depth); ("swap", `Swap) ]) `Depth & info [ "o"; "objective" ] ~doc)

let method_arg =
  let doc =
    "Synthesis method: olsq2 (exact), tb (transition-based), sabre, astar, or satmap."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("olsq2", `Olsq2); ("tb", `Tb); ("sabre", `Sabre); ("astar", `Astar);
             ("satmap", `Satmap);
           ])
        `Olsq2
    & info [ "m"; "method" ] ~doc)

let warm_start_arg =
  let doc = "Seed the SWAP descent with SABRE's count first (exact swap objective only)." in
  Arg.(value & flag & info [ "warm-start" ] ~doc)

let output_arg =
  let doc = "Write the mapped physical circuit as OpenQASM to this file." in
  Arg.(value & opt (some string) None & info [ "output" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record a trace of the run and write it to $(docv), in the format its suffix names: .json a \
     Chrome trace_event file (Perfetto / chrome://tracing loadable), .folded a collapsed-stack \
     span profile (self time per span stack, in microseconds; render it with flamegraph.pl or \
     inferno-flamegraph), .prom the run's counters, span totals and histograms in Prometheus \
     text exposition format; any other suffix JSON lines."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Explain the run on stderr (results stay on stdout): live $(i,bound=... conflicts=... \
     learnt=...) heartbeat lines during long solves, then the plan (oracle, effective config, \
     pool, certification path and every option it changed or ignored), why the run stopped, the \
     per-span timing and counter summary with the simplification reduction, an aggregate \
     solver-statistics block (conflicts, propagations/sec, LBD and trail-depth percentiles) and a \
     per-bound-iteration table."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let record_arg =
  let doc =
    "Write the run record to $(docv) as one JSON object: the options as run, the plan and its \
     overrides, why the run stopped, the iteration timeline, solver totals, the certificate, the \
     trace counters and span totals, and the environment defaults read.  Exact and TB methods \
     only."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)

(* ---- synth ---- *)

module Solver = Olsq2_sat.Solver

(* Aggregate + per-iteration solver statistics on stderr (results stay on
   stdout, so pipelines keep working under --stats). *)
let print_stats_block ~label agg (iters : Core.Optimizer.iter_stat list) =
  Format.eprintf "@[<v>%s solver stats:@,%a@]@." label Solver.pp_stats_record agg;
  if iters <> [] then begin
    Printf.eprintf "%s iterations:\n  %-16s %6s %-16s %9s %10s %13s\n" label "phase" "bound"
      "verdict" "seconds" "conflicts" "propagations";
    List.iter
      (fun (it : Core.Optimizer.iter_stat) ->
        let s = it.Core.Optimizer.iter_stats in
        Printf.eprintf "  %-16s %6d %-16s %9.3f %10d %13d\n" it.Core.Optimizer.iter_phase
          it.Core.Optimizer.iter_bound it.Core.Optimizer.iter_verdict
          it.Core.Optimizer.iter_seconds s.Solver.conflicts s.Solver.propagations)
      iters;
    flush stderr
  end

let write_file path f =
  let oc = open_out path in
  f oc;
  close_out oc

let run_synth circuit_spec device_name (common : Cli_options.common) swap_duration objective
    method_ warm output trace stats record =
  let certify = common.Cli_options.certify in
  let obs =
    if trace <> None || stats || record <> None then (
      let t = Obs.create () in
      Obs.set_global t;
      t)
    else Obs.disabled
  in
  if stats then
    Core.Optimizer.set_progress_sink
      (Some
         (fun (p : Core.Optimizer.progress) ->
           Printf.eprintf "[%s] bound=%d conflicts=%d learnt=%d props=%d\n%!"
             p.Core.Optimizer.prog_phase p.Core.Optimizer.prog_bound
             p.Core.Optimizer.prog_conflicts p.Core.Optimizer.prog_learnts
             p.Core.Optimizer.prog_propagations));
  let device = Devices.by_name device_name in
  let circuit = Suite.parse_spec ~device circuit_spec in
  let swap_duration =
    match swap_duration with Some sd -> sd | None -> Suite.swap_duration_for circuit
  in
  let instance = Core.Instance.make ~swap_duration circuit device in
  Printf.printf "circuit: %s   device: %s   swap duration: %d\n" (Circuit.label circuit)
    device.Coupling.name swap_duration;
  Printf.printf "T_LB (longest dependency chain) = %d\n%!" (Core.Instance.depth_lower_bound instance);
  let finish ?certificate result =
    match result with
    | None ->
      Printf.printf "no solution found within the budget\n";
      1
    | Some r ->
      print_string (Core.Export.report instance r);
      let validation_ok =
        match Core.Validate.check instance r with
        | [] ->
          Printf.printf "validation: OK\n";
          true
        | vs ->
          Printf.printf "validation: %d violations\n" (List.length vs);
          List.iter (fun v -> Printf.printf "  %s\n" (Core.Validate.violation_to_string v)) vs;
          false
      in
      (match output with
      | None -> ()
      | Some path ->
        Qasm.write_file path (Core.Export.physical_circuit instance r);
        Printf.printf "mapped circuit written to %s\n" path);
      let certificate_ok =
        if not certify then true
        else
          match certificate with
          | Some c ->
            print_endline (Core.Certificate.to_string c);
            Core.Certificate.valid c
          | None ->
            Printf.printf
              "certification requested but no certificate was produced (optimality not proved, \
               or the objective is not certifiable)\n";
            false
      in
      if validation_ok && certificate_ok then 0 else 1
  in
  let code =
    match method_ with
    | (`Tb | `Sabre | `Astar | `Satmap) when certify ->
      Printf.printf
        "--certify requires an exact method with a refutable bound; use -m olsq2\n";
      1
    | (`Sabre | `Astar | `Satmap) when record <> None ->
      Printf.printf "--record requires the olsq2 or tb method\n";
      1
    | `Olsq2 | `Tb ->
      let synth_objective =
        match (method_, objective) with
        | `Olsq2, `Depth -> Core.Synthesis.Depth
        | `Olsq2, `Swap ->
          let warm_start =
            if warm then Some (Sabre.synthesize instance).Core.Result_.swap_count else None
          in
          Core.Synthesis.Swaps { warm_start }
        | _, `Depth -> Core.Synthesis.Tb_blocks
        | _, `Swap -> Core.Synthesis.Tb_swaps
      in
      let options =
        Cli_options.options common |> Core.Synthesis.Options.with_device device_name
      in
      let r = Core.Synthesis.run ~options ~objective:synth_objective instance in
      (match (method_, r.Core.Synthesis.pareto) with
      | `Tb, (blocks, _) :: _ -> Printf.printf "blocks used: %d\n" blocks
      | _ -> ());
      if stats then begin
        Format.eprintf "@[<v>%a@,stop: %s@,window outcome: %s@]@." Core.Synthesis.pp_plan
          r.Core.Synthesis.plan
          (Core.Synthesis.stop_to_string r.Core.Synthesis.stop)
          (Core.Synthesis.window_to_string r.Core.Synthesis.window);
        print_stats_block ~label:"run" r.Core.Synthesis.solver_stats r.Core.Synthesis.iter_stats
      end;
      Option.iter (Printf.eprintf "%s\n%!") (Core.Synthesis.proof_note r);
      let code = finish ?certificate:r.Core.Synthesis.certificate r.Core.Synthesis.result in
      Option.iter
        (fun path ->
          write_file path (fun oc ->
              output_string oc
                (Obs.Json.to_string
                   (Core.Synthesis.report_to_json ~options ~objective:synth_objective r));
              output_char oc '\n');
          Printf.printf "record written to %s\n" path)
        record;
      code
    | `Sabre -> finish (Some (Sabre.synthesize instance))
    | `Astar -> finish (Astar.synthesize instance)
    | `Satmap ->
      let o = Satmap.synthesize ?budget_seconds:common.Cli_options.budget_seconds instance in
      finish o.Satmap.result
  in
  if stats then begin
    Core.Optimizer.set_progress_sink None;
    let summary = Obs.summary obs in
    Format.eprintf "%a@?%s@." Obs.pp_summary summary
      (Olsq2_simplify.Simplify.counters_summary summary)
  end;
  Option.iter
    (fun path ->
      write_file path (fun oc ->
          match Filename.extension path with
          | ".json" -> Obs.write_chrome obs oc
          | ".folded" -> Obs.Profile.write_flamegraph obs oc
          | ".prom" -> Obs.write_prometheus obs oc
          | _ -> Obs.write_jsonl obs oc);
      Printf.printf "trace written to %s\n" path)
    trace;
  code

let synth_cmd =
  let doc = "Synthesize a circuit layout for a quantum device." in
  Cmd.v
    (Cmd.info "synth" ~doc)
    Term.(
      const run_synth $ circuit_arg $ device_arg $ Cli_options.term $ swap_duration_arg
      $ objective_arg $ method_arg $ warm_start_arg $ output_arg $ trace_arg $ stats_arg
      $ record_arg)

(* ---- generate ---- *)

let run_generate circuit_spec device_name output =
  let device = Devices.by_name device_name in
  let circuit = Suite.parse_spec ~device circuit_spec in
  let text = Qasm.print circuit in
  (match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "%s written to %s\n" (Circuit.label circuit) path);
  0

let generate_cmd =
  let doc = "Generate a benchmark circuit as OpenQASM 2." in
  Cmd.v (Cmd.info "generate" ~doc) Term.(const run_generate $ circuit_arg $ device_arg $ output_arg)

(* ---- devices ---- *)

let run_devices () =
  List.iter
    (fun name ->
      let d = Devices.by_name name in
      Printf.printf "%-10s %3d qubits  %3d edges  diameter %d\n" name d.Coupling.num_qubits
        (Coupling.num_edges d) (Coupling.diameter d))
    Devices.all_names;
  print_newline ();
  Printf.printf "generator patterns:\n";
  List.iter
    (fun (pattern, descr) -> Printf.printf "  %-14s %s\n" pattern descr)
    Devices.name_patterns;
  0

let devices_cmd =
  let doc = "List built-in coupling graphs." in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const run_devices $ const ())

let () =
  let doc = "scalable optimal layout synthesis for NISQ quantum processors (OLSQ2)" in
  let info = Cmd.info "olsq2" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ synth_cmd; generate_cmd; devices_cmd ]))
