(** Layout synthesis results: mapping, schedule and inserted SWAPs. *)

type swap = {
  sw_edge : int * int;  (** physical qubits, normalized [fst < snd] *)
  sw_finish : int;  (** last occupied time step *)
}

type status =
  | Optimal  (** proven optimal for the requested objective *)
  | Feasible  (** valid, optimality not proven (budget exhausted) *)
  | Timeout  (** no solution within the budget *)

type t = {
  status : status;
  depth : int;  (** time steps used: max finish time + 1 *)
  swap_count : int;
  mapping : int array array;  (** [mapping.(t).(q)] = physical qubit *)
  schedule : int array;  (** gate id to execution time step *)
  swaps : swap list;
  solve_seconds : float;
  iterations : int;  (** solver calls made by the optimizer *)
}

val initial_mapping : t -> int array

(** [map_physical ?program ~physical r] relabels [r]'s qubits: physical
    qubit [p] becomes [physical.(p)] (in the mapping and on SWAP edges,
    which are re-normalized), and program qubit [q] becomes
    [program.(q)] (default: unchanged).  The schedule is unchanged. *)
val map_physical : ?program:int array -> physical:int array -> t -> t

(** Uniform cost summary shared by every synthesis arm.  Heuristic
    routers ({!Olsq2_heuristic}) and the SATMap-style baseline expose
    one of these next to their native return types, so the optimality-gap
    harness reads [sm_depth] / [sm_swaps] without re-parsing routed
    circuits, and arms that can fail report the same shape as arms that
    cannot ([sm_depth] / [sm_swaps] are [-1] when [sm_result] is
    [None]). *)
type summary = {
  sm_source : string;  (** engine that produced the result, e.g. ["sabre"] *)
  sm_result : t option;
  sm_depth : int;
  sm_swaps : int;
  sm_seconds : float;
}

(** [summarize ~source ?seconds result] builds a {!summary};
    [sm_seconds] defaults to the result's [solve_seconds] (0 when
    absent). *)
val summarize : source:string -> ?seconds:float -> t option -> summary
val status_string : status -> string
val pp : Format.formatter -> t -> unit
val pp_detailed : Format.formatter -> t -> unit
