(** Iterative-refinement optimization loops (paper §III-B):
    assumption-driven bound search over incremental solver state.

    This is the engine behind {!Synthesis.run}, which is the entry point
    to call: its {!Synthesis.plan} picks the bound oracle and the pool,
    and it wraps the result in a {!Synthesis.report}.  Every loop (depth ascent/descent,
    the (depth, SWAP) Pareto sweep, the weighted descent, TB block and
    SWAP search) is written once over a bound oracle — the
    horizon-extension {!Olsq2_incremental.Session} or the classic
    {!Encoder}.

    When the global {!Olsq2_obs.Obs} tracer is enabled, every bound
    iteration records a span ([opt.depth_iter], [opt.swap_iter],
    [opt.sweep_level], [opt.weighted_iter], [opt.tb_iter], [opt.tb_relax])
    with its bound and verdict, and every Pareto point an [opt.pareto]
    instant. *)

(** Search-effort record of one bound iteration: which refinement phase
    ([opt.depth_iter], [opt.swap_iter], ...) attempted which bound, what
    the verdict was, and the solver-stats delta it cost (conflicts,
    propagations, LBD/trail histograms — see {!Olsq2_sat.Solver.stats}).
    Collected whether or not the tracer is enabled. *)
type iter_stat = {
  iter_phase : string;
  iter_bound : int;
  iter_verdict : string;  (** ["sat"], ["unsat"] or ["unknown:<reason>"] *)
  iter_seconds : float;
  iter_stats : Olsq2_sat.Solver.stats;
}

(** Live-progress event forwarded from the solver's rate-limited
    {!Olsq2_sat.Solver.set_progress} callback, labelled with the
    optimization phase and bound being attempted. *)
type progress = {
  prog_phase : string;
  prog_bound : int;
  prog_conflicts : int;
  prog_learnts : int;
  prog_propagations : int;
}

(** Install (or with [None], remove) the process-wide progress sink: while
    a bound iteration solves, the solver fires the sink every [interval]
    (default 2000) conflicts.  Like the ambient tracer, the sink is global
    so heartbeats need no API threading; the serve daemon's concurrent
    jobs forward from their own domains, so the callback must be
    domain-safe. *)
val set_progress_sink : ?interval:int -> (progress -> unit) option -> unit

(** What to minimize; see {!Synthesis.objective}. *)
type objective =
  | Depth
  | Swaps of { warm_start : int option }
  | Weighted_swaps of (int -> int)
  | Tb_blocks
  | Tb_swaps

type outcome = {
  result : Result_.t option;
      (** the best layout found, captured when its SAT answer arrived, so
          a run whose budget ran out mid-descent still returns it, with
          [optimal = false]; its [status], [solve_seconds] and
          [iterations] are the run's.  For TB objectives, the expanded
          concrete schedule *)
  optimal : bool;
  iterations : int;  (** total solver calls *)
  total_seconds : float;
  pareto : (int * int) list;
      (** (depth bound, best SWAPs proven at it); for TB objectives the
          accepted block model's (blocks, SWAPs) *)
  stats : Olsq2_sat.Solver.stats;  (** aggregate search effort of this run *)
  iter_stats : iter_stat list;  (** per bound iteration, oldest first *)
  refutation : Certificate.refutation option;
      (** with [proof], the bound below a proved optimum refuted on the
          session's own solver, awaiting {!Certificate.finish} *)
}

(** The certificate claim an optimal [Depth] or [Swaps] result makes:
    its depth, or its SWAP count at its depth.  [None] for weighted and
    TB objectives, which have no direct CNF bound to refute. *)
val certified_claim : objective -> Result_.t -> (Certificate.objective * int) option

(** The bound oracle a run solves on: the persistent horizon-extension
    {!Olsq2_incremental.Session}, the classic {!Encoder} rebuilt per
    horizon, or the TB-OLSQ2 {!Tb_encoder} rebuilt per block count. *)
type oracle = Session | Classic | Transition_based

(** [optimize ~config ~oracle ~budget ?pool ?proof objective instance]
    runs the refinement loop for [objective] on [oracle], as
    {!Synthesis.plan} chose it.  The session ignores [config]'s
    formulation/encoding/simplify arms; the classic encoder honours
    them.  [budget] is the run's started budget, so the deadline is
    fixed across the whole refinement and anything run after it.
    [pool], when given and the encoding is plain CNF, solves bound
    queries cube-and-conquer style; replica effort is merged into the
    master's stats, so [iter_stats] and the conflict budget account for
    it.  [proof] is installed on the session before its first clause;
    after a proved-optimal [Depth] or [Swaps] run, the bound below the
    optimum is refuted on the same solver (outside the iteration count)
    and returned as [refutation].  [Invalid_argument] when [proof] is
    given without the session or with a [pool], when the oracle does not
    fit the objective ([Transition_based] exactly for the TB
    objectives), or when a [Weighted_swaps] config has symmetry on
    (orbit members can carry different weights). *)
val optimize :
  config:Config.t ->
  oracle:oracle ->
  budget:Budget.state ->
  ?pool:Olsq2_parallel.Pool.t ->
  ?proof:Olsq2_sat.Solver.proof_logger ->
  objective ->
  Instance.t ->
  outcome

(** [weighted_cost device ~weights r] is the sum of [weights e] over
    [r]'s SWAPs, [e] being each SWAP's edge id on [device]. *)
val weighted_cost : Olsq2_device.Coupling.t -> weights:(int -> int) -> Result_.t -> int

(** The smallest depth a schedule can have: [Instance.depth_lower_bound]
    (the longest dependency chain), and at least 1, since a schedule of
    a circuit with no gates still has one time step. *)
val depth_floor : Instance.t -> int

(** [at_lower_bound ~config ~oracle ~budget ?pool objective instance]
    asks one bound query: depth {!depth_floor} and, for [Swaps] and [Weighted_swaps], SWAP count or
    weight 0.  Both are lower bounds on every device, so a model is
    returned as optimal; an UNSAT or unknown verdict returns no result,
    without ascending or descending.  The query is recorded as an
    [opt.window_iter] iteration.  This is the device-window attempt of
    {!Synthesis.run}.  [Invalid_argument] on the TB objectives and on
    the oracle/objective mismatches {!optimize} rejects. *)
val at_lower_bound :
  config:Config.t ->
  oracle:oracle ->
  budget:Budget.state ->
  ?pool:Olsq2_parallel.Pool.t ->
  objective ->
  Instance.t ->
  outcome
