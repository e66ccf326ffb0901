(** SatELite-style CNF preprocessing / inprocessing for {!Olsq2_sat.Solver}.

    The stand-in for the preprocessing Z3's SAT core applies to every
    bit-blasted instance in the paper's pipeline: backward subsumption,
    self-subsuming resolution (clause strengthening) and bounded variable
    elimination over an occurrence-list clause store, with root-unit
    cascading.  Every transformation is emitted through the solver's DRAT
    hooks (additions before their parents' deletions), so certified runs
    stay checkable end-to-end; eliminated variables are re-derived on the
    solver's extension stack before any caller sees a model.

    Callers must {!Olsq2_sat.Solver.freeze} every variable they keep
    using across a simplification: assumption literals, optimizer bound
    selectors, cardinality/PB outputs, and anything read back from the
    model.  Assumptions passed to [solve] are frozen automatically, but
    only from that call on — freeze them explicitly before preprocessing
    if they exist earlier. *)

type options = {
  max_rounds : int;  (** subsumption + elimination passes (default 3) *)
  growth : int;
      (** extra resolvents allowed per elimination beyond the clauses
          removed (default 0: NiVER, never grows the formula) *)
  occ_limit : int;
      (** skip pivots whose pos x neg occurrence product exceeds this *)
  resolvent_len_limit : int;  (** skip pivots producing longer resolvents *)
  subsume_len_limit : int;
      (** clauses longer than this are not used as subsumers *)
}

val default_options : options

(** One-round configuration used for inprocessing runs. *)
val inprocess_options : options

(** Before/after accounting of one simplification run.  [clauses_*] and
    [lits_*] count the detached problem clauses (root units live on the
    solver trail and are not counted); [vars_*] count live (never
    eliminated) variables. *)
type report = {
  vars_before : int;
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  lits_before : int;
  lits_after : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  resolvents : int;
  units : int;
  rounds : int;
}

val empty_report : report

(** One-line reduction summary, e.g.
    ["clauses 1200 -> 800 (-33.3%)  vars 300 -> 250  ..."]. *)
val reduction_summary : report -> string

val pp_report : Format.formatter -> report -> unit

(** [preprocess solver] detaches the clause database, simplifies it to a
    bounded fixpoint and re-arms the solver.  Safe to call on a solver
    that is already root-level UNSAT (returns {!empty_report}).  When the
    global {!Olsq2_obs.Obs} tracer is enabled, records one
    ["simplify.run"] span plus the [simplify.runs],
    [simplify.clauses_before], [simplify.clauses_removed] and
    [simplify.vars_eliminated] counters. *)
val preprocess : ?opts:options -> Olsq2_sat.Solver.t -> report

(** Install {!preprocess} as the solver's inprocessor: it reruns between
    restart episodes on the solver's conflict-count schedule (see
    {!Olsq2_sat.Solver.set_inprocessor}), with {!inprocess_options} by
    default, followed by a budgeted {!Olsq2_sat.Solver.vivify} pass over
    the refreshed clause database. *)
val attach_inprocessing : ?opts:options -> ?interval:int -> Olsq2_sat.Solver.t -> unit

(** One-line rendering of the [simplify.*] counters in a trace summary
    (runs, clauses before and after, variables eliminated), e.g.
    ["simplify: 1 run  clauses 1200 -> 800 (-33.3%)  eliminated 50"];
    ["simplify: no simplification runs"] when none ran. *)
val counters_summary : Olsq2_obs.Obs.summary -> string
