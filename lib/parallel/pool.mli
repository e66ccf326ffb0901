(** Cube-and-conquer solve pool.

    A pool parallelizes a {e single} [solve] call of a master solver: it
    keeps one persistent {e replica} solver per worker in sync with the
    master's clause database (incremental replay — see the replication
    interface in {!Olsq2_sat.Solver}), splits the query into [2^k] cubes
    over the most active variables ({!Cube.split}), and lets OCaml 5
    domains self-schedule cubes off a shared [Atomic] counter (work
    stealing by construction).  The first Sat cancels everyone; all
    cubes Unsat is Unsat; otherwise the best-informed [Unknown] wins.
    Replicas exchange short low-LBD learnts through a
    lossy {!Share.channel} during the query, and each replica keeps its
    own learnt database across queries, so later bound iterations start
    warm exactly as the paper's incremental Z3 usage does sequentially.

    Sat answers are returned {e through the master}: the winning
    replica's model seeds the master's saved phases and the master
    re-solves under the original assumptions.  Phase-following from a
    total model can never conflict (every propagation from a sub-model
    assignment stays on the model), so the re-solve is one linear,
    conflict-free descent and the master ends up holding the model —
    callers extract models from the master exactly as in the sequential
    path.

    Replica search effort (conflicts, propagations, restarts, histogram
    samples) is merged into the master's {!Olsq2_sat.Solver.stats} at
    join, so per-iteration deltas, reports and conflict budgets account
    for parallel work; [solve_seconds] consequently aggregates CPU
    seconds across workers, not wall time.

    Proof-logging masters are never parallelized (a cube refutation is
    not a DRAT derivation from the master's premises): {!solve} silently
    falls back to the sequential path, which keeps [--certify] sound. *)

module Solver = Olsq2_sat.Solver
module Lit = Olsq2_sat.Lit

type t

(** Pool-wide live-progress sample, aggregated over the current query's
    workers on top of the master's own counters. *)
type progress = { pg_conflicts : int; pg_propagations : int; pg_learnts : int }

(** [create ?cube_depth ?threshold ?tuning ~workers ()]:
    [workers] is the number of domains used per query (a pool with
    [workers <= 1] makes every {!solve} sequential); the replicas of a
    query always exchange short learnt clauses through a {!Share}
    channel; [cube_depth]
    fixes the split depth [k] (default: smallest [k] with
    [2^k >= 4 * workers], capped at [10]); [threshold] is the adaptive
    gate — every query first runs a sequential probe on the warm master
    capped at this many conflicts, and only queries that exhaust the
    probe escalate to cube-and-conquer, so easy queries keep their exact
    deterministic sequential behaviour and the cube overhead is only
    paid where there is search to parallelize.  [tuning] (default: the
    ambient {!Olsq2_sat.Tuning}) configures the replica solvers, the
    share filters, and — unless [threshold] overrides it — the probe cap
    ([Tuning.probe_conflicts]). *)
val create :
  ?cube_depth:int ->
  ?threshold:int ->
  ?tuning:Olsq2_sat.Tuning.t ->
  workers:int ->
  unit ->
  t

val workers : t -> int

(** Drop-in replacement for {!Olsq2_sat.Solver.solve} on the master.
    Falls back to the sequential path when the pool has one worker, the
    master logs proofs, the adaptive gate is closed, or no usable split
    exists.  [max_conflicts] bounds each cube solve individually; the
    precise global budget accounting happens in [Core.Budget] from the
    merged stats.  Cancellation: a master {!Olsq2_sat.Solver.interrupt}
    is honoured at every cube boundary. *)
val solve :
  ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> Solver.t -> Solver.result

(** Install (or with [None], remove) a pool progress callback, fired
    from worker domains at the workers' own progress cadence
    ([interval] conflicts per replica, default 2000).  The callback must
    be domain-safe. *)
val set_progress : ?interval:int -> t -> (progress -> unit) option -> unit

(** Cumulative pool counters: queries seen, queries actually split,
    cubes solved, Sat/Unsat cubes. *)
type pool_stats = {
  queries : int;
  parallel_queries : int;
  cubes_solved : int;
  sat_cubes : int;
  unsat_cubes : int;
}

val stats : t -> pool_stats
