(* Shared infrastructure for the table/figure reproduction harness.

   Scales are reduced relative to the paper (our substrate is a from-
   scratch CDCL solver on a laptop, not Z3 on a Xeon with 24 h timeouts);
   every table prints the same row/column structure as the paper and
   EXPERIMENTS.md records paper-vs-measured values.  Environment knobs:

     OLSQ2_BENCH_TIMEOUT   per-solve timeout in seconds (default 60)
     OLSQ2_BENCH_BUDGET    per-optimization budget in seconds (default 120)
     OLSQ2_BENCH_FULL=1    run the larger instance set *)

module Core = Olsq2_core
module S = Olsq2_sat.Solver
module Devices = Olsq2_device.Devices
module Coupling = Olsq2_device.Coupling
module Circuit = Olsq2_circuit.Circuit
module B = Olsq2_benchgen

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

let env_flag name = match Sys.getenv_opt name with Some ("1" | "true") -> true | _ -> false

let solve_timeout () = env_float "OLSQ2_BENCH_TIMEOUT" 60.0
let opt_budget () = env_float "OLSQ2_BENCH_BUDGET" 120.0
let full_scale () = env_flag "OLSQ2_BENCH_FULL"

let now () = Unix.gettimeofday ()

type timing = Solved of float | Timed_out of float | Unsat_result of float

let fmt_timing = function
  | Solved s -> Printf.sprintf "%8.2f" s
  | Unsat_result s -> Printf.sprintf "%7.2fU" s
  | Timed_out _ -> Printf.sprintf "%8s" "TO"

let fmt_ratio baseline t =
  match (baseline, t) with
  | Solved b, Solved x | Solved b, Unsat_result x -> Printf.sprintf "%8.2f" (b /. x)
  | Timed_out _, (Solved _ | Unsat_result _) -> Printf.sprintf "%8s" ">TO"
  | _, Timed_out _ | Unsat_result _, _ -> Printf.sprintf "%8s" "-"

(* Decision-instance timing: build the full-model encoding with the given
   horizon and solve once (paper §IV-A protocol: fixed depth limit,
   unconstrained SWAP count). *)
let time_decision ?swap_bound config instance ~t_max =
  let t0 = now () in
  let enc = Core.Encoder.build ~config instance ~t_max in
  let assumptions =
    match swap_bound with
    | None -> []
    | Some k -> (
      Core.Encoder.build_counter enc ~max_bound:(k + 1);
      match Core.Encoder.swap_bound_assumption enc k with Some a -> [ a ] | None -> [])
  in
  let r = Core.Encoder.solve ~assumptions ~timeout:(solve_timeout ()) enc in
  let dt = now () -. t0 in
  let vars, clauses = Core.Encoder.size_report enc in
  let timing =
    match r with
    | S.Sat -> Solved dt
    | S.Unsat -> Unsat_result dt
    | S.Unknown _ -> Timed_out dt
  in
  (timing, vars, clauses)

(* Transition-based decision timing (Table II's TB rows: fixed block
   limit, fixed SWAP bound). *)
let time_tb_decision ?swap_bound config instance ~num_blocks =
  let t0 = now () in
  let enc = Core.Tb_encoder.build ~config instance ~num_blocks in
  let assumptions =
    match swap_bound with
    | None -> []
    | Some k -> (
      Core.Tb_encoder.build_counter enc ~max_bound:(k + 1);
      match Core.Tb_encoder.swap_bound_assumption enc k with Some a -> [ a ] | None -> [])
  in
  let r = Core.Tb_encoder.solve ~assumptions ~timeout:(solve_timeout ()) enc in
  let dt = now () -. t0 in
  match r with
  | S.Sat -> Solved dt
  | S.Unsat -> Unsat_result dt
  | S.Unknown _ -> Timed_out dt

(* QAOA instance on an n x n grid (Fig. 1 / Tables I-II workloads). *)
let qaoa_grid ~qubits ~grid_side ~seed =
  let circuit = B.Qaoa.random ~seed qubits in
  Core.Instance.make ~swap_duration:1 circuit (Devices.grid grid_side grid_side)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ---- JSON output ----

   Benchmark reports (bench/gap.exe's family report) ride on Obs.Json:
   the repo's single JSON writer, so string escaping (control
   characters, quotes, backslashes in instance labels) is implemented
   exactly once. *)

module Json = Olsq2_obs.Obs.Json

let write_json_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc
