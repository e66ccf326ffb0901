(* Layout synthesis results (paper §II-A outputs): the qubit mapping
   pi_q^t per time step, the gate schedule t_g, and the inserted SWAPs. *)

type swap = { sw_edge : int * int; sw_finish : int (* last occupied time step *) }

type status =
  | Optimal (* proven optimal for the requested objective *)
  | Feasible (* valid but optimality not proven (budget exhausted) *)
  | Timeout (* no solution found within the budget *)

type t = {
  status : status;
  depth : int; (* number of time steps used (max finish time + 1) *)
  swap_count : int;
  mapping : int array array; (* mapping.(t).(q) = physical qubit *)
  schedule : int array; (* gate id -> execution time step *)
  swaps : swap list;
  solve_seconds : float;
  iterations : int; (* optimizer iterations (solver calls) *)
}

let initial_mapping t = if Array.length t.mapping = 0 then [||] else t.mapping.(0)

(* Relabel a result's qubits: program qubit [q] becomes [program.(q)]
   (default: unchanged) and physical qubit [p] becomes [physical.(p)]:
     mapping'.(t).(program q) = physical.(mapping.(t).(q))
   The schedule is indexed by gate id, which relabelling preserves, so it
   transfers unchanged; SWAP edges map endpoint-wise and re-normalize.
   The serve cache's canonical relabelling and the device window's
   vertex map both go through here. *)
let map_physical ?program ~physical t =
  let program = match program with Some m -> Array.get m | None -> Fun.id in
  let mapping =
    Array.map
      (fun row ->
        let row' = Array.make (Array.length row) (-1) in
        Array.iteri (fun q p -> row'.(program q) <- physical.(p)) row;
        row')
      t.mapping
  in
  let swaps =
    List.map
      (fun s ->
        let a, b = s.sw_edge in
        let a = physical.(a) and b = physical.(b) in
        { s with sw_edge = (if a < b then (a, b) else (b, a)) })
      t.swaps
  in
  { t with mapping; swaps }

(* Uniform cost summary shared by every synthesis arm (exact, heuristic,
   SATMap-style): the evaluation harness reads costs from here instead of
   re-deriving them from routed circuits, and arms that can fail
   ([Astar_router], [Satmap]) report the same shape as arms that cannot. *)
type summary = {
  sm_source : string; (* engine that produced the result, e.g. "sabre" *)
  sm_result : t option;
  sm_depth : int; (* -1 when no result *)
  sm_swaps : int; (* -1 when no result *)
  sm_seconds : float;
}

let summarize ~source ?seconds result =
  let depth, swaps, solve_seconds =
    match result with
    | Some r -> (r.depth, r.swap_count, r.solve_seconds)
    | None -> (-1, -1, 0.0)
  in
  {
    sm_source = source;
    sm_result = result;
    sm_depth = depth;
    sm_swaps = swaps;
    sm_seconds = (match seconds with Some s -> s | None -> solve_seconds);
  }

let status_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Timeout -> "timeout"

let pp fmt t =
  Format.fprintf fmt "status=%s depth=%d swaps=%d time=%.2fs iters=%d" (status_string t.status)
    t.depth t.swap_count t.solve_seconds t.iterations

let pp_detailed fmt t =
  pp fmt t;
  Format.fprintf fmt "@.initial mapping:";
  Array.iteri (fun q p -> Format.fprintf fmt " q%d->p%d" q p) (initial_mapping t);
  Format.fprintf fmt "@.schedule:";
  Array.iteri (fun g time -> Format.fprintf fmt " g%d@@t%d" g time) t.schedule;
  List.iter
    (fun { sw_edge = p, p'; sw_finish } ->
      Format.fprintf fmt "@.swap (p%d,p%d) finishing at t%d" p p' sw_finish)
    t.swaps
