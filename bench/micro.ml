(* Bechamel micro-benchmarks of the hot kernels behind each table:

   - table1 kernel: build + solve one small OLSQ2(bv) decision instance;
   - table2 kernel: sequential-counter construction;
   - table3 kernel: SABRE routing pass;
   - table4 kernel: TB-OLSQ2 block solve;
   - solver kernel: CDCL on a fixed random 3-CNF (Fig. 1's inner loop).

   These run in statistically meaningful repetition counts (unlike the
   table harnesses, whose single solves take seconds to minutes). *)

open Bechamel
open Toolkit
module Core = Olsq2_core
module S = Olsq2_sat.Solver
module L = Olsq2_sat.Lit
module Ctx = Olsq2_encode.Ctx
module Cardinality = Olsq2_encode.Cardinality
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen
module Rng = Olsq2_util.Rng
module Sabre = Olsq2_heuristic.Sabre
module Obs = Olsq2_obs.Obs
module Drat = Olsq2_proof.Drat
module Checker = Olsq2_proof.Checker
module Simplify = Olsq2_simplify.Simplify

let fixed_cnf =
  let rng = Rng.create 7 in
  List.init 160 (fun _ ->
      List.init 3 (fun _ -> L.of_var ~sign:(Rng.bool rng) (Rng.int rng 40)))

let solver_kernel () =
  let s = S.create () in
  for _ = 1 to 40 do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) fixed_cnf;
  ignore (S.solve s)

(* Same solve with a DRAT sink attached: the marginal price of proof
   emission (array copies into the sink) on the Fig. 1 inner loop. *)
let solver_proof_kernel () =
  let sink = Drat.create () in
  let s = S.create () in
  Drat.attach sink s;
  for _ = 1 to 40 do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) fixed_cnf;
  ignore (S.solve s)

(* A fixed UNSAT instance (pigeonhole) with its solver-emitted proof, for
   benchmarking the trusted checker itself. *)
let php_proof =
  lazy
    (let sink = Drat.create () in
     let s = S.create () in
     Drat.attach sink s;
     let holes = 5 in
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
     assert (S.solve s = S.Unsat);
     (Drat.formula sink, Drat.steps sink))

let checker_kernel mode () =
  let formula, proof = Lazy.force php_proof in
  match (Checker.check_unsat ~mode ~formula ~proof ()).Checker.verdict with
  | Checker.Valid -> ()
  | Checker.Invalid _ -> failwith "php proof must check"

(* Occurrence-list preprocessing (subsumption + BVE) over the same fixed
   3-CNF: the per-call price of one Simplify.preprocess round trip
   (detach, simplify, re-attach). *)
let simplify_kernel () =
  let s = S.create () in
  for _ = 1 to 40 do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) fixed_cnf;
  ignore (Simplify.preprocess s)

let tiny_instance = lazy (Bench_common.qaoa_grid ~qubits:4 ~grid_side:2 ~seed:104)

let encode_solve_with config () =
  let inst = Lazy.force tiny_instance in
  let enc = Core.Encoder.build ~config inst ~t_max:5 in
  ignore (Core.Encoder.solve enc)

let encode_solve_kernel = encode_solve_with Core.Config.olsq2_bv

let encode_solve_simplified_kernel =
  encode_solve_with { Core.Config.olsq2_bv with Core.Config.simplify = true }

let counter_kernel () =
  let ctx = Ctx.create () in
  let xs = Array.init 128 (fun _ -> Ctx.fresh_var ctx) in
  ignore (Cardinality.sequential_counter ~width:16 ctx xs)

let sabre_instance =
  lazy (Core.Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:9 8) (Devices.grid 3 3))

let sabre_kernel () =
  let inst = Lazy.force sabre_instance in
  ignore (Sabre.synthesize ~params:{ Sabre.default_params with Sabre.trials = 1 } ~seed:3 inst)

let tb_kernel () =
  let inst = Lazy.force tiny_instance in
  let enc = Core.Tb_encoder.build ~config:Core.Config.olsq2_bv inst ~num_blocks:2 in
  ignore (Core.Tb_encoder.solve enc)

(* Per-event cost of the tracer itself: disabled must be one predictable
   branch, enabled one bounds-checked array store.  Half the events are
   histogram observations so the guard contract covers [Obs.hist] too. *)
let obs_disabled_kernel () =
  let obs = Obs.disabled in
  for i = 1 to 500 do
    Obs.count obs "noop" 1;
    Obs.hist obs "noop.hist" (float_of_int i)
  done

let obs_live_tracer = lazy (Obs.create ())

let obs_enabled_kernel () =
  let obs = Lazy.force obs_live_tracer in
  Obs.reset obs;
  for i = 1 to 500 do
    Obs.count obs "noop" 1;
    Obs.hist obs "noop.hist" (float_of_int i)
  done

(* The in-stats histograms the solver feeds per conflict (no tracer
   involved): one [observe] is a log2 + array increment. *)
let hist_kernel () =
  let h = Obs.Histogram.create () in
  for i = 1 to 1000 do
    Obs.Histogram.observe_int h (i land 63)
  done;
  ignore (Obs.Histogram.percentile h 90.0)

let tests =
  Test.make_grouped ~name:"olsq2" ~fmt:"%s %s"
    [
      Test.make ~name:"sat/cdcl-3cnf (fig1 inner loop)" (Staged.stage solver_kernel);
      Test.make ~name:"sat/cdcl-3cnf + drat emission" (Staged.stage solver_proof_kernel);
      Test.make ~name:"proof/check php5 forward" (Staged.stage (checker_kernel Checker.Forward));
      Test.make ~name:"proof/check php5 backward" (Staged.stage (checker_kernel Checker.Backward));
      Test.make ~name:"simplify/preprocess 3cnf" (Staged.stage simplify_kernel);
      Test.make ~name:"encode+solve tiny (table1 kernel)" (Staged.stage encode_solve_kernel);
      Test.make ~name:"encode+solve tiny + simplify" (Staged.stage encode_solve_simplified_kernel);
      Test.make ~name:"seq-counter 128 (table2 kernel)" (Staged.stage counter_kernel);
      Test.make ~name:"sabre route (table3 kernel)" (Staged.stage sabre_kernel);
      Test.make ~name:"tb block solve (table4 kernel)" (Staged.stage tb_kernel);
      Test.make ~name:"obs off x1000 events (guard branch)" (Staged.stage obs_disabled_kernel);
      Test.make ~name:"obs on x1000 events (record cost)" (Staged.stage obs_enabled_kernel);
      Test.make ~name:"obs histogram x1000 observe" (Staged.stage hist_kernel);
    ]

let run () =
  Bench_common.hr "Bechamel micro-benchmarks (per-table kernels)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-42s %16s\n" "kernel" "time per run";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%10.3f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
          else Printf.sprintf "%10.3f us" (est /. 1e3)
        in
        Printf.printf "%-42s %16s\n" name pretty
      | Some _ | None -> Printf.printf "%-42s %16s\n" name "n/a")
    results;
  (* Whole-pipeline view of the same question: instrumented encode+solve
     with the tracer disabled vs enabled. *)
  let iters = 20 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time encode_solve_kernel);
  let off = time encode_solve_kernel in
  let tracer = Obs.create () in
  Obs.set_global tracer;
  let on =
    time (fun () ->
        Obs.reset tracer;
        encode_solve_kernel ())
  in
  Obs.reset tracer;
  encode_solve_kernel ();
  let events_per_run = (Obs.summary tracer).Obs.events_recorded in
  Obs.set_global Obs.disabled;
  (* per-event price of the disabled guard branch, from a tight loop *)
  let t0 = Unix.gettimeofday () in
  let reps = 1_000_000 in
  for _ = 1 to reps do
    Obs.count Obs.disabled "noop" 1
  done;
  let branch_ns = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9 in
  let disabled_pct =
    100.0 *. (branch_ns *. 1e-9 *. float_of_int events_per_run) /. (off /. float_of_int iters)
  in
  Printf.printf "\nencode+solve x%d  tracer off %.3fs  on %.3fs  (%+.1f%% overhead when enabled)\n"
    iters off on (100.0 *. (on -. off) /. off);
  Printf.printf
    "disabled tracer: %.1f ns/event x %d events/run = %.3f%% of the encode+solve kernel\n"
    branch_ns events_per_run disabled_pct;
  (* Proof logging, same two questions: the hooks' price when no logger is
     attached (one match per learnt/deleted clause — the acceptance budget
     is < 2% on this kernel), and the full emission price when one is. *)
  let iters = 200 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time solver_kernel);
  let plain = time solver_kernel in
  let logged = time solver_proof_kernel in
  Printf.printf
    "cdcl x%d  no logger %.3fs  drat sink %.3fs  (%+.1f%% emission overhead; hooks without a \
     logger are a single branch, bounded by the tracer figure above)\n"
    iters plain logged
    (100.0 *. (logged -. plain) /. plain);
  (* End-to-end price/payoff of CNF preprocessing on the table1 kernel:
     same encode+solve with simplify off vs on, plus the aggregate
     reduction the on-runs achieved.  On an instance this small the
     preprocessing cost usually dominates its payoff — the table1/table2
     harnesses show where it flips. *)
  let iters = 20 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time encode_solve_kernel);
  let off = time encode_solve_kernel in
  let on = time encode_solve_simplified_kernel in
  (* the reduction comes from the simplify.* counters of one extra,
     untimed, traced pass, so the timed passes run untraced *)
  let counters =
    let previous = Obs.global () in
    let tracer = Obs.create () in
    Obs.set_global tracer;
    Fun.protect ~finally:(fun () -> Obs.set_global previous) (fun () ->
        encode_solve_simplified_kernel ();
        (Obs.summary tracer).Obs.counters)
  in
  let count k = Option.value (List.assoc_opt k counters) ~default:0 in
  Printf.printf
    "encode+solve x%d  simplify off %.3fs  on %.3fs  (%+.1f%% end-to-end; clauses -%.1f%%, %d vars \
     eliminated per run)\n"
    iters off on
    (100.0 *. (on -. off) /. off)
    (100.0
    *. float_of_int (count "simplify.clauses_removed")
    /. float_of_int (max 1 (count "simplify.clauses_before")))
    (count "simplify.vars_eliminated" / max 1 (count "simplify.runs"))
