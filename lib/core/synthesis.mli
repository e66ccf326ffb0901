(** Unified synthesis facade: the one entry point over every optimization
    objective in the OLSQ2 stack (paper §III-B, §III-D).

    {!plan} decides everything a run does from its {!Options.t} (bound
    oracle, effective encoding config, pool, certification path) and
    lists every option it changed or ignored, with the reason.  {!run}
    executes a plan as one {!Optimizer} run, returns a single {!report}
    record carrying the plan and why the run stopped, and snapshots the
    global {!Olsq2_obs.Obs} tracer so callers get the trace summary of
    exactly this run without touching the tracer themselves.
    {!report_to_json} is the run record the CLI's [--record] and the
    serve daemon both emit. *)

(** What to minimize.

    - [Depth]: exact circuit depth (full OLSQ2 model).
    - [Swaps]: SWAP count via 2-D (depth, SWAP) refinement;
      [warm_start] seeds the first descent with a heuristic upper bound
      (e.g. SABRE's count), the paper's S_UB suggestion.
    - [Weighted_swaps w]: fidelity-aware SWAP cost where [w e] is the
      integer cost of a SWAP on edge [e] (e.g. scaled -log fidelity).
    - [Tb_blocks]: TB-OLSQ2 block-count minimization (coarse depth proxy).
    - [Tb_swaps]: TB-OLSQ2 SWAP minimization with block relaxation. *)
type objective = Optimizer.objective =
  | Depth
  | Swaps of { warm_start : int option }
  | Weighted_swaps of (int -> int)
  | Tb_blocks
  | Tb_swaps

(** How a synthesis run is configured.  An [Options.t] collects what used
    to be five independent optional labels (plus the new parallel knobs)
    into one value that can be built once and reused across runs:

    {[
      let opts =
        Synthesis.Options.(
          default
          |> with_budget (Budget.of_seconds 60.)
          |> with_workers 4
          |> with_certify ~proof_file:"proof.drat" true)
      in
      Synthesis.run ~options:opts ~objective:Depth instance
    ]} *)
module Options : sig
  (** Single-solve parallelism: [workers > 1] creates a cube-and-conquer
      {!Olsq2_parallel.Pool} of that many worker domains and routes hard
      bound queries through it (easy queries — those solved within the
      pool's probe threshold — keep the exact sequential behavior).
      The pool's workers always exchange short learnt clauses (never on
      proof-logging solvers, so certification stays sound).  [cube_depth]
      fixes the number of split variables [k] (2^k cubes); defaults to the
      smallest [k] with at least [4 * workers] cubes. *)
  type parallel = { workers : int; cube_depth : int option }

  type t = {
    config : Config.t;
        (** encoding selection (default {!Config.default}); its [simplify]
            flag turns on SatELite-style CNF preprocessing + inprocessing
            of every encoding built during the run (including the
            certification fallback's encoder) — see
            {!Olsq2_simplify.Simplify} *)
    budget : Budget.t;
        (** resource allowance (wall seconds / conflicts / per-bound cap);
            the engine returns its best-so-far on exhaustion *)
    certify : bool;
        (** build a {!Certificate.t} for a proved optimum (see
            {!Certificate}).  On the session oracle with one worker and
            no symmetry, the session is proof-logged from its first
            clause and the bound below the optimum is refuted on the
            same solver; other runs refute it on a fresh proof-logged
            classic encoder under what is left of [budget] (the plan's
            [certification] says which).  The model half validates the
            run's own result either way.  Weighted and TB objectives
            have no certificate. *)
    proof_file : string option;
        (** write the emitted DRAT proof (text format) there; ignored
            when no certificate is built *)
    parallel : parallel;
    incremental : bool;
        (** solve [Depth] / [Swaps] / [Weighted_swaps] on one persistent
            horizon-extension session ({!Olsq2_incremental.Session}):
            horizon growth emits delta CNF instead of re-encoding, so
            learnt clauses survive it.  The session encoding is a fixed
            one-hot ladder without preprocessing, so a run whose
            effective config asks for [simplify] or any
            formulation/encoding/injectivity/cardinality arm other than
            {!Config.default}'s solves on the classic encoder instead,
            which honours them (the plan records the override);
            [config.symmetry], budget and pool apply to both.  TB
            objectives ignore this flag.  Certification
            refutes on the session itself unless symmetry or a pool is
            on (see [certify]).  This is the default: the session
            reaches the same optima as the re-encode loop at a fraction
            of the wall time.  The default honors the
            [OLSQ2_INCREMENTAL] environment variable (set it to [false]
            to restore the classic loop suite-wide), else [true]. *)
    device : string option;
        (** named target device, resolved with
            {!Olsq2_device.Devices.by_name} (e.g. ["heavy-hex-127"]); the
            serve daemon accepts it in place of an explicit coupling
            list, and the CLI sets it from [--device].  [None] means the
            caller provides the device some other way. *)
    sat : Olsq2_sat.Tuning.t;
        (** SAT-core search strategy (restart schedule, phase policy,
            reduce-DB keep fraction, vivification budget, clause arena
            sizing, share filters, pool probe threshold).  Installed as
            the ambient {!Olsq2_sat.Tuning} around the whole run, so
            every solver created on its behalf — encoder contexts,
            incremental sessions, pool replicas, the certification
            fallback's encoder — inherits it.  The CLI sets it from repeated
            [--sat KEY=VAL] flags; the serve daemon accepts it as a
            nested ["sat"] object. *)
  }

  (** [workers = 1]: no pool. *)
  val sequential : parallel

  (** Everything off / unlimited; [parallel.workers] honors the
      [OLSQ2_WORKERS] environment variable (so test suites and CI can run
      parallel without threading a flag), defaulting to 1, and
      [incremental] honors [OLSQ2_INCREMENTAL].  A set but malformed
      variable raises [Invalid_argument] (with the {!workers_of_env} /
      {!incremental_of_env} message) when the library initializes. *)
  val default : t

  (** Parse an [OLSQ2_WORKERS] value: a positive integer, surrounding
      blanks allowed.  The error names the variable and its value. *)
  val workers_of_env : string -> (int, string) result

  (** Parse an [OLSQ2_INCREMENTAL] value: [true] or [false], surrounding
      blanks allowed.  The error names the variable and its value. *)
  val incremental_of_env : string -> (bool, string) result

  (** The raw [OLSQ2_WORKERS] and [OLSQ2_INCREMENTAL] values (unset:
      [None]) read when the library initialized {!default}. *)
  val env : (string * string option) list

  val with_config : Config.t -> t -> t

  (** [with_simplify b t] sets [t.config]'s [simplify] flag. *)
  val with_simplify : bool -> t -> t
  val with_budget : Budget.t -> t -> t
  val with_certify : ?proof_file:string -> bool -> t -> t

  (** [with_workers n t] sets [parallel.workers] (clamped to >= 1),
      optionally overriding [cube_depth]. *)
  val with_workers : ?cube_depth:int -> int -> t -> t

  val with_incremental : bool -> t -> t
  val with_device : string -> t -> t

  (** [with_tuning tu t] sets the SAT-core strategy record (see
      {!Olsq2_sat.Tuning}); build [tu] from
      [Olsq2_sat.Tuning.(default |> with_restart ... |> with_vivify ...)]. *)
  val with_tuning : Olsq2_sat.Tuning.t -> t -> t

  (** Field-wise equality over the serializable fields; the runtime
      [Budget.control] handle is ignored. *)
  val equal : t -> t -> bool

  (** {2 JSON codec}

      The canonical wire format shared by the serve daemon, the CLI and
      the tests (see README "Serving" for the request schema).  Round
      trip: [of_assoc (to_assoc o)] is [Ok o'] with [equal o o'];
      {!Budget.control} does not survive serialization by design. *)

  (** Stable field rendering, mirroring {!Config.to_assoc} one level up:
      [config] / [budget] are nested objects, option fields serialize as
      [Null]. *)
  val to_assoc : t -> (string * Olsq2_obs.Obs.Json.json) list

  (** {!to_assoc} wrapped in a JSON object. *)
  val to_json : t -> Olsq2_obs.Obs.Json.json

  (** Inverse of {!to_assoc}: missing or [Null] keys take {!default}'s
      value (so partial wire requests stay valid); unknown keys (at top
      level and inside [config], [budget], [parallel] and [sat]), type
      mismatches and unknown enum values are an [Error] naming the
      key. *)
  val of_assoc : (string * Olsq2_obs.Obs.Json.json) list -> (t, string) result

  (** {!of_assoc} on a JSON object ([Error] on any other JSON). *)
  val of_json : Olsq2_obs.Obs.Json.json -> (t, string) result
end

(** {2 The plan} *)

(** The bound oracle; see {!Optimizer.oracle}. *)
type oracle = Optimizer.oracle = Session | Classic | Transition_based

(** How a proved optimum is certified: not at all, on the proof-logged
    session itself, or by the classic fallback's fresh proof-logged
    re-solve in this configuration ({!Certificate.pure_sat_config} of
    the run's). *)
type certification = No_certificate | On_session | Classic_fallback of Config.t

(** The device window a run tries first ({!Window}): the BFS ball of
    [2 * |Q|] physical qubits around the device's highest-degree vertex
    when the device has more than [2 * |Q|] and the objective is not a
    TB one, else [None]; [reason] says why, either way. *)
type window = { ball : Window.ball option; reason : string }

(** Everything a run does, decided up front. *)
type plan = {
  config : Config.t;
      (** the effective encoding config (symmetry is off for weighted
          SWAPs; TB objectives drop symmetry, simplify and the
          formulation, which TB-OLSQ2 does not use) *)
  oracle : oracle;
  workers : int;  (** pool workers; 1 means no pool *)
  cube_depth : int option;  (** [None] at [workers = 1] *)
  certification : certification;
  proof_file : string option;  (** [None] without a certificate *)
  window : window;
  overrides : (string * string) list;
      (** one [(option field, reason)] entry for every option this plan
          changed or ignored, e.g. [("symmetry", "off for weighted
          SWAPs: ...")] or [("incremental", "session replaced by the
          classic encoder: simplify=true")] *)
}

(** [plan options objective instance] decides the run: pure, it builds
    no solver and no pool. *)
val plan : Options.t -> objective -> Instance.t -> plan

(** {2 Running} *)

(** Why a run stopped: it proved its objective optimal; its budget (wall,
    conflict or per-bound cap) ran out, with the last bound it tried;
    its budget's control was preempted; or it ended without a solution
    and with budget left (e.g. TB-OLSQ2's block-count limit). *)
type stop = Optimal | Budget_spent of int option | Interrupted | No_solution

(** What became of the plan's window: its answer met the depth lower
    bound (at no SWAP cost for the SWAP objectives) and validated on the
    full device, so it is the run's optimal answer; or it [Missed], with
    the reason, and the run went on to the full device. *)
type window_outcome = Accepted | Missed of string

(** Outcome of a synthesis run, unified across full and transition-based
    models.  For TB objectives, [result] holds the expanded concrete
    schedule and [pareto] records [(blocks, swap_count)] of the accepted
    block model; for full-model objectives [pareto] records
    [(depth bound, best SWAPs proven at it)]: its head is the SWAP count
    proven at the optimal depth. *)
type report = {
  result : Result_.t option;  (** best valid schedule found, if any *)
  optimal : bool;  (** objective value proved optimal within budget *)
  iterations : int;  (** total solver calls *)
  seconds : float;  (** wall-clock spent in the engine *)
  pareto : (int * int) list;
  trace : Olsq2_obs.Obs.summary;
      (** summary of trace events recorded during this run; empty when the
          global tracer is disabled *)
  solver_stats : Olsq2_sat.Solver.stats;
      (** aggregate search effort across every bound iteration of the run
          (conflicts, propagations, LBD / trail-depth histograms,
          propagations/sec); collected whether or not the tracer is
          enabled *)
  iter_stats : Optimizer.iter_stat list;
      (** per-bound-iteration effort records, oldest first *)
  certificate : Certificate.t option;
      (** optimality certificate, present only when the plan certifies
          ([certify] on a [Depth] or [Swaps] objective) and the run
          proved optimality *)
  plan : plan;  (** what ran *)
  stop : stop;  (** why it stopped *)
  window : window_outcome option;  (** [None] when the plan has no window *)
}

(** [run ?options ~objective instance] synthesizes a layout for
    [instance] minimizing [objective]: it executes
    [plan options objective instance] (default {!Options.default}).  With
    a window, it first asks the planned oracle one query on the window
    ({!Optimizer.at_lower_bound}, not proof-logged) inside an
    [opt.window] span, and returns the lifted answer as optimal when it
    meets the bound and validates on the full device (certified, under
    [certify], by {!Certificate.chain}); otherwise it runs the full
    device as planned under what is left of the same budget, and the
    report counts both.  The whole run is wrapped in a
    [synthesis.<objective>] span on the global tracer. *)
val run : ?options:Options.t -> objective:objective -> Instance.t -> report

(** {2 Reporting} *)

(** The plan for humans: oracle, effective config, pool, certification
    path, the window's reason, then one [override FIELD: REASON] line
    per override. *)
val pp_plan : Format.formatter -> plan -> unit

(** ["optimal"], ["budget_spent (last bound D)"], ["interrupted"] or
    ["no_solution"]. *)
val stop_to_string : stop -> string

(** ["not tried"] ([None]), ["accepted"] or ["missed (REASON)"]. *)
val window_to_string : window_outcome option -> string

(** [Some note] when the plan names a proof file that the run did not
    write: an accepted window is certified by the dependency chain
    ({!Certificate.chain}), which has no DRAT proof.  The note names the
    file and says why. *)
val proof_note : report -> string option

(** The [OLSQ2_BUILD_COMMIT] environment variable ([None] when unset or
    empty): the record's [build_commit] and serve's [/buildinfo]. *)
val build_commit : unit -> string option

(** The run record: one JSON object with the objective, the options as
    run, the plan (its [window] as [{"qubits", "root", "reason"}], the
    first two [null] without a window) and its overrides, [stop]
    ([{"reason": "optimal" | "budget_spent" | "interrupted" |
    "no_solution"}], plus [last_bound] for a spent budget), [window]
    ([{"outcome": "accepted"}], plus [{"proof_file": null, "proof_note":
    ...}] when a proof file was asked for ({!proof_note}),
    [{"outcome": "missed", "reason": ...}],
    or [null] without a window), [optimal], [iterations], [seconds],
    [pareto], the [iter_stats] timeline (phase, bound, verdict,
    seconds, conflicts, propagations), the [solver_stats] totals, the
    [certificate] (valid, objective, optimum, formula [session],
    [classic] with its config, or [chain], lower-bound detail) or
    [null], the [trace] counters and span totals or [null] when the
    tracer was off, the [env] values {!Options.env} read, and
    [build_commit] ({!build_commit}, [null] when unset). *)
val report_to_json :
  options:Options.t -> objective:objective -> report -> Olsq2_obs.Obs.Json.json
