(** CDCL SAT solver with incremental solving under assumptions.

    This is the reproduction's stand-in for the Z3 SAT core that the
    paper's best-performing configuration (bit-vector variables + CNF
    cardinality constraints) reduces to.  The solver supports adding
    clauses between [solve] calls and solving under assumption literals,
    which is what makes the paper's iterative bound-refinement
    optimization reuse learnt clauses across iterations. *)

type t

(** Why a resource-bounded [solve] call stopped without an answer:
    [Conflict_budget] — the [max_conflicts] budget was spent;
    [Timeout] — the wall-clock [timeout] passed;
    [Interrupted] — {!interrupt} was called (e.g. by a pool cancelling
    its remaining cubes, or a serve watchdog preempting a job). *)
type reason = Conflict_budget | Timeout | Interrupted

type result = Sat | Unsat | Unknown of reason

val reason_to_string : reason -> string

(** ["sat"], ["unsat"] or ["unknown:<reason>"] (trace-attribute form). *)
val result_to_string : result -> string

(** DRAT proof-logging callbacks (see {!Olsq2_proof.Drat} for the sink that
    serializes them).  [on_original] fires once per clause handed to
    {!add_clause}, with the literals exactly as asserted (before the
    solver's root-level simplification); [on_learnt] fires for every clause
    a DRAT checker must verify — learnt clauses, the empty clause when the
    database becomes root-level unsatisfiable, and the negated assumption
    core when [solve] fails under assumptions; [on_delete] fires for every
    learnt clause discarded by database reduction.  With no logger
    installed each hook site costs one branch on [None].

    Every array handed to a hook is allocated for the hook, shared with no
    solver structure, and never written by the solver after the call, so a
    hook may keep it without copying.  A clause that root simplification
    drops or shrinks passes the same array to [on_original] and
    [on_delete]. *)
type proof_logger = {
  on_original : Lit.t array -> unit;
  on_learnt : Lit.t array -> unit;
  on_delete : Lit.t array -> unit;
}

(** Per-solver search-effort statistics (MiniSat-style stats block).
    Counters accumulate across [solve] calls; the histograms record one
    sample per conflict (learnt-clause LBD, trail depth at conflict), so
    quantiles describe the search's whole lifetime.  Use {!stats_copy} /
    {!stats_diff} to carve out per-call or per-bound-iteration deltas, and
    {!stats_add} to aggregate across solvers (e.g. bound iterations). *)
type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_clauses : int;
  mutable removed_clauses : int;
  mutable solves : int;
  mutable vivified_clauses : int;  (** clauses shortened by vivification *)
  mutable compactions : int;  (** clause-arena garbage collections *)
  mutable solve_seconds : float;  (** wall time spent inside [solve] *)
  mutable propagate_seconds : float;
      (** phase attribution: unit propagation (plus decision overhead,
          which is charged to the adjacent propagation tick) *)
  mutable analyze_seconds : float;  (** conflict analysis + learning *)
  mutable reduce_seconds : float;  (** learnt-DB reduction *)
  mutable restart_seconds : float;
      (** restart housekeeping: inprocessing + share integration *)
  mutable vivify_seconds : float;  (** clause vivification (inprocessing) *)
  mutable shared_exported : int;  (** learnts a share channel took a copy of *)
  mutable shared_imported : int;  (** clauses integrated from a share channel *)
  lbd_hist : Olsq2_obs.Obs.Histogram.t;  (** LBD of each learnt clause *)
  trail_hist : Olsq2_obs.Obs.Histogram.t;  (** trail depth at each conflict *)
}

(** A fresh all-zero stats record (with empty histograms). *)
val stats_zero : unit -> stats

(** Deep copy (snapshots the histograms). *)
val stats_copy : stats -> stats

(** [stats_diff ~after ~before] subtracts field-wise; [before] must be an
    earlier {!stats_copy} snapshot of the same solver's stats. *)
val stats_diff : after:stats -> before:stats -> stats

(** [stats_add ~into s] accumulates [s] into [into] (histograms merge
    bucket-wise). *)
val stats_add : into:stats -> stats -> unit

(** Propagations per second of [solve] wall time ([0.] before any solve). *)
val propagations_per_second : stats -> float

(** Render a stats record: the counter line (with propagations/sec), a
    [phase:] line splitting solve time across propagate / analyze /
    reduce-DB / restart (with the fraction of [solve_seconds] the four
    phases account for) when any phase time was recorded, then one
    [lbd:] / [trail:] line each when non-empty (count, p50/p90/p99,
    max). *)
val pp_stats_record : Format.formatter -> stats -> unit

(** {2 Clause-arena memory gauges}

    Exact byte counts from the flat arena representation, cheap enough
    to sample after every solve; exposed as the [sat.mem.learnt_bytes] /
    [sat.mem.watcher_bytes] / [sat.mem.arena_bytes] /
    [sat.mem.arena_hw_bytes] gauges when tracing is on. *)

(** Bytes held by live (non-deleted) learnt clauses. *)
val learnt_bytes : t -> int

(** Bytes held by the two-watched-literal scheme's watcher arrays. *)
val watcher_bytes : t -> int

(** Bytes currently used in the clause arena (live + not-yet-compacted
    garbage). *)
val arena_bytes : t -> int

(** High-water mark of {!arena_bytes} over the solver's lifetime. *)
val arena_high_water_bytes : t -> int

(** Bytes held by deleted/shrunk clauses awaiting compaction. *)
val arena_wasted_bytes : t -> int

(** Force a clause-arena compaction: copy live clauses into a fresh
    arena, drop deleted ones, rebuild the watch lists.  Problem-clause
    entry indices are preserved (deleted entries become sentinels), so
    replica sync cursors stay valid.  Compaction also runs automatically
    after reduce-DB / vivification when the wasted fraction exceeds
    [Tuning.gc_fraction].  No-op inside a [begin_simplify] window. *)
val compact : t -> unit

(** [create ?tuning ()] builds a solver.  Without [tuning] the ambient
    {!Tuning.ambient} value (installed by [Synthesis.run] around a
    dispatch) is read — so facades configure every solver they cause to
    exist without threading an argument through each layer. *)
val create : ?tuning:Tuning.t -> unit -> t

(** The tuning this solver runs with. *)
val tuning : t -> Tuning.t

(** Replace the tuning mid-life.  Arena capacity only applies to future
    growth. *)
val set_tuning : t -> Tuning.t -> unit

(** Allocate a fresh variable. *)
val new_var : t -> Lit.var

(** Allocate a fresh variable and return its positive literal. *)
val new_lit : t -> Lit.t

val nvars : t -> int

(** The clause intake: [clause_push t l] appends [l] to the clause being
    built in a solver-owned buffer, and [clause_commit t] adds that clause
    (a disjunction of the pushed literals, possibly empty) and empties the
    buffer.  Commit simplifies at the root level and copies the survivors
    straight into the clause arena, building no list or intermediate
    array.  May be called between [solve] calls; the solver backtracks to
    the root level first.  Push every literal of a clause, then commit it,
    before any other call on the solver. *)
val clause_push : t -> Lit.t -> unit

val clause_commit : t -> unit

(** [reserve_arena t words] grows the clause arena, in one allocation,
    so that clauses of [words] more words fit (3 per clause plus one per
    literal).  Beyond that the arena doubles as usual. *)
val reserve_arena : t -> int -> unit

(** [add_clause t lits] pushes [lits] and commits them. *)
val add_clause : t -> Lit.t list -> unit

val add_clause_a : t -> Lit.t array -> unit

(** [solve ?assumptions ?max_conflicts ?timeout t] runs CDCL search.
    [assumptions] are decision literals fixed for this call only.
    [max_conflicts] / [timeout] (seconds) make the call resource-bounded;
    exceeding either yields [Unknown] with the corresponding {!reason},
    so optimization loops can tell budget exhaustion from a genuine
    don't-know.  When the global {!Olsq2_obs.Obs} tracer is enabled, each
    call records one ["sat.solve"] span carrying the conflict /
    propagation / decision / restart deltas of the call. *)
val solve : ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> result

(** Ask the solver to stop; the current (or next) [solve] returns
    [Unknown Interrupted].  Safe to call from another domain.  The flag is
    sticky until {!clear_interrupt}. *)
val interrupt : t -> unit

val clear_interrupt : t -> unit

(** [true] while the interrupt flag is raised.  Safe from any domain. *)
val interrupted : t -> bool

(** [set_progress ?interval t (Some cb)] arranges for [cb t] to fire from
    inside the search loop every [interval] (default 2000) conflicts — the
    rate limit keeps the callback off the hot path, and with [None]
    installed the check is a single branch per conflict.  The callback
    runs with the solver mid-search: it may read {!stats}, {!n_learnts},
    {!n_clauses} (e.g. to print a heartbeat line) but must not add clauses
    or call [solve].  [None] uninstalls. *)
val set_progress : ?interval:int -> t -> (t -> unit) option -> unit

(** Value of a literal in the model of the last [Sat] answer. *)
val model_value : t -> Lit.t -> bool

(** Branching hints (domain-guided variable ordering): seed a variable's
    VSIDS activity / saved phase before search. *)
val boost_activity : t -> Lit.var -> float -> unit

val suggest_phase : t -> Lit.var -> bool -> unit

(** After an assumption-caused [Unsat], the subset of assumptions involved
    in the conflict (an unsat core over assumptions).  Cleared at the start
    of every [solve]; empty after [Sat] and after any [Unknown _] answer
    (a budget-exhausted call proves nothing about the assumptions). *)
val conflict_core : t -> Lit.t list

(** [unsat_core t] is the failed-assumption set of the last
    assumption-caused [Unsat]: a subset [a1; ...; ak] of the assumptions
    passed to [solve], each in its asserted polarity, whose conjunction the
    clause database refutes.  Equivalently, the clause
    [¬a1 ∨ ... ∨ ¬ak] is implied by the clauses added so far — when proof
    logging is on, exactly that clause is emitted as the final lemma, so a
    bound-refinement UNSAT becomes an independently checkable fact.
    Returns [[]] when the last [Unsat] did not involve assumptions (the
    database itself is unsatisfiable), and after [Sat] / [Unknown _].
    Alias of {!conflict_core}; this name documents the intended use. *)
val unsat_core : t -> Lit.t list

(** Install (or with [None], remove) a proof logger.  Install it on a fresh
    solver, before the first {!add_clause}, or the logged premise set will
    be incomplete and proof checking will fail. *)
val set_proof_logger : t -> proof_logger option -> unit

(** [true] while a proof logger is installed. *)
val proof_logging : t -> bool

(** {1 Learnt-clause sharing} (see {!Olsq2_parallel.Share} for the channel)

    A learnt clause is implied by the clause database alone — never by the
    assumptions of the solve that produced it — so solvers whose problem
    clauses agree may exchange learnts soundly.  [sh_export] is offered
    every learnt clause as it is recorded (the closure owns length / LBD /
    variable-range filtering and must copy what it keeps; return [true] if
    it did); [sh_import] is drained at solve start and at every restart
    boundary, at decision level 0.  Imports are {e never} integrated while
    a proof logger is installed: an imported clause is not RUP-derivable
    from this solver's own logged premises, so it would poison the DRAT
    stream.  Export remains sound under proof logging (the clause was
    logged as learnt here first). *)
type share = {
  sh_export : Lit.t array -> lbd:int -> bool;
  sh_import : unit -> Lit.t array list;
}

(** Install (or with [None], remove) the share-channel endpoints. *)
val set_share : t -> share option -> unit

(** [true] while share endpoints are installed. *)
val sharing : t -> bool

(** [false] once the clause set is unsatisfiable at the root level. *)
val is_ok : t -> bool

val n_clauses : t -> int
val n_learnts : t -> int
val stats : t -> stats
val pp_stats : Format.formatter -> t -> unit

(** {1 Simplification interface}

    Primitives driven by {!Olsq2_simplify.Simplify}: the engine detaches
    the problem clauses with {!begin_simplify}, rewrites them in its own
    occurrence-list store (logging every resolvent addition and clause
    deletion through {!log_proof_add} / {!log_proof_delete} so [--certify]
    proofs stay checkable), records variable eliminations with
    {!eliminate_var}, puts the surviving clauses back with
    {!restore_clause} / {!assert_root_unit}, and re-arms the solver with
    {!end_simplify}.  Models returned after eliminations are completed
    automatically from the recorded extension stack before [solve]
    returns, so callers (Validate, Certificate) always see a model of the
    {e original} formula. *)

(** Mark a variable as never eliminable: assumption literals, optimizer
    bound selectors, and any variable whose model value the caller reads
    back must be frozen {e before} preprocessing runs.  Assumptions passed
    to {!solve} are frozen automatically at each call. *)
val freeze : t -> Lit.var -> unit

val is_frozen : t -> Lit.var -> bool

(** [true] once the variable was removed by bounded variable elimination.
    Adding a clause or assuming a literal over an eliminated variable is a
    caller error ([Invalid_argument]): freeze what you keep using. *)
val is_eliminated : t -> Lit.var -> bool

(** Number of variables eliminated so far. *)
val n_eliminated : t -> int

(** Value of a literal under root-level (level-0) assignments only:
    [1] true, [-1] false, [0] otherwise. *)
val root_value : t -> Lit.t -> int

(** Log a RUP clause addition / a clause deletion to the installed proof
    logger (no-ops without one).  For the simplifier's resolvents,
    strengthened clauses and subsumed/eliminated clauses. *)
val log_proof_add : t -> Lit.t array -> unit

val log_proof_delete : t -> Lit.t array -> unit

(** Declare the database root-level unsatisfiable (the simplifier derived
    the empty clause). *)
val force_unsat : t -> unit

(** Backtrack to the root, detach every problem clause and return their
    literal arrays.  Learnt clauses stay parked (unwatched) until
    {!end_simplify}.  The solver must not be used for solving between
    [begin_simplify] and [end_simplify]. *)
val begin_simplify : t -> Lit.t array list

(** Put a simplified problem clause back (attaches watches; units are
    enqueued at the root, propagation deferred to {!end_simplify}).  Emits
    no proof events — the engine logs its own transformations. *)
val restore_clause : t -> Lit.t array -> unit

(** Assert a root-level unit derived by the simplifier (propagation
    deferred to {!end_simplify}). *)
val assert_root_unit : t -> Lit.t -> unit

(** [eliminate_var t ~pivot clauses] records that [Lit.var pivot] was
    eliminated by variable elimination; [clauses] are the original clauses
    containing [pivot] (one side of its occurrence lists), kept for model
    reconstruction.  Raises [Invalid_argument] on frozen or
    already-eliminated variables. *)
val eliminate_var : t -> pivot:Lit.t -> Lit.t array array -> unit

(** Re-arm the solver: purge learnt clauses that mention eliminated
    variables, shrink the rest against the root assignment, re-attach
    them, and propagate pending units. *)
val end_simplify : t -> unit

(** [set_inprocessor ~interval t (Some f)] arranges for [f t] to run
    between restart episodes once [interval] (default
    [Tuning.inprocess_interval]) further conflicts have accumulated;
    subsequent runs are rescheduled geometrically (at
    [2 * conflicts + 1000]).  [f] is expected to drive the
    {!begin_simplify} … {!end_simplify} cycle and/or call {!vivify}.
    [None] uninstalls. *)
val set_inprocessor : ?interval:int -> t -> (t -> unit) option -> unit

(** Clause vivification (distillation): for each candidate clause, assume
    the negations of its literals one at a time under unit propagation
    (with the clause detached) and shorten it when a strict prefix
    already implies the clause or falsifies a literal.  Every shortening
    is a RUP consequence, logged add-then-delete, so [--certify] proofs
    stay checker-valid.  Runs at decision level 0 (no-op elsewhere),
    bounded by [budget] propagations (default [Tuning.vivify_budget];
    [0] disables).  Shortened problem clauses are appended as fresh
    entries (the old entry is flagged deleted) so replica sync cursors
    stay valid. *)
val vivify : ?budget:int -> t -> unit

(** {1 Replication interface}

    Read-only cursors with which {!Olsq2_parallel.Pool} keeps per-worker
    replica solvers in sync with a master by replaying its problem
    clauses and root units through {!add_clause}.  The problem-clause
    vector is append-only within a database generation (entries are only
    flagged deleted, never compacted), so (generation, {!n_problem_entries},
    {!n_root_units}, {!nvars}) is a complete incremental sync cursor. *)

(** Bumped every {!begin_simplify} — the database was rewritten wholesale
    and per-index delta sync is no longer meaningful. *)
val db_generation : t -> int

(** Entries ever pushed to the problem-clause vector this generation,
    including ones since flagged deleted. *)
val n_problem_entries : t -> int

(** Fold over live (non-deleted) problem clauses with entry index
    [>= from] (default [0]).  The literal arrays are the solver's own —
    callers must copy, not mutate or retain. *)
val fold_problem_clauses : ?from:int -> t -> ('a -> Lit.t array -> 'a) -> 'a -> 'a

(** Literals assigned at decision level 0, from trail position [from]
    (default [0]) on, in trail order. *)
val root_units : ?from:int -> t -> Lit.t list

(** Length of the level-0 trail segment. *)
val n_root_units : t -> int

(** Current VSIDS activity of a variable ([0.] out of range). *)
val var_activity : t -> Lit.var -> float

(** Saved phase of a variable ([false] out of range). *)
val saved_phase : t -> Lit.var -> bool
