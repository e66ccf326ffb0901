(** Bound-incremental encoding session: one persistent SAT solver whose
    time-indexed Boolean encoding grows monotonically, so the optimizer
    extends the horizon and re-solves under assumptions instead of
    rebuilding the CNF — learnt clauses survive every depth/SWAP bound
    (Shaik & van de Pol's scaling trick, arXiv:2403.11598).

    Per-horizon activation literals guard the only non-monotone
    constraint ("every gate executes within the horizon"); retired
    horizons are deactivated by a blocked unit clause and their guarded
    clauses DRAT-deleted when a proof logger is attached.  With a logger
    installed from the first clause ([create ?proof]), [--certify]
    refutes the bound below the optimum on the session's own solver and
    the trusted checker replays exactly the clauses that found it.

    The encoding is plain CNF (pool-capable) and mirrors
    [Core.Encoder]'s constraint semantics exactly, so both paths return
    identical optima (pinned by the test_incremental parity suite). *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Circuit = Olsq2_circuit.Circuit
module Coupling = Olsq2_device.Coupling

type t

(** [create ?symmetry ?proof ~t_max ~swap_duration circuit device]
    builds the initial horizon.  [symmetry] restricts the first
    two-qubit gate to automorphism-orbit representative edges
    ([Olsq2_device.Symmetry.edge_orbits]) — optimality-preserving for
    depth and SWAP count, NOT for weighted-SWAP objectives.  [proof] is
    installed on the solver before any clause exists, so the logged
    premise set is the session's whole formula, every horizon
    extension included. *)
val create :
  ?symmetry:bool ->
  ?proof:Solver.proof_logger ->
  t_max:int ->
  swap_duration:int ->
  Circuit.t ->
  Coupling.t ->
  t

(** Grow the horizon, emitting only the delta CNF (no-op when not
    larger).  Existing depth selectors and counters are kept consistent
    with the new SWAP slots. *)
val extend_horizon : t -> t_max:int -> unit

val t_max : t -> int
val solver : t -> Solver.t
val circuit : t -> Circuit.t
val device : t -> Coupling.t
val swap_duration : t -> int

(** Clause counts by constraint group (see {!Olsq2_encode.Ctx.provenance}). *)
val provenance : t -> (string * int) list

(** Selector literal bounding the makespan to [d] (gates execute by step
    d-1, no SWAP finishes at or after d); memoized per bound.  Raises
    when [d] is outside [1, t_max] — extend the horizon first. *)
val depth_selector : t -> int -> Lit.t

(** Ensure the persistent SWAP-count chain exists and can express
    at-most-[max_bound]; grows/widens incrementally across calls. *)
val build_counter : t -> max_bound:int -> unit

(** Weighted variant ([weights] maps edge id to a non-negative weight);
    exclusive with [build_counter] on the same session. *)
val build_weighted_counter : t -> weights:(int -> int) -> max_bound:int -> unit

(** At-most-[k] assumption over the session's counter (widens on
    demand); [None] when vacuous. *)
val swap_bound_assumption : t -> int -> Lit.t option

(** Activation literal of the current horizon; [solve] passes it
    automatically, direct solver drivers (the parallel pool) must. *)
val horizon_assumption : t -> Lit.t

val solve :
  ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> Solver.result

type model = {
  m_depth : int;
  m_schedule : int array;  (** execution step per gate id *)
  m_mapping : int array array;  (** [m_mapping.(t).(q)] = physical qubit *)
  m_swaps : ((int * int) * int) list;  (** (normalized edge, finish step) *)
}

(** Extract the last [Sat] answer's layout. *)
val model : t -> model
