(** End-to-end optimality certificates.

    An optimality claim from the solving stack has two halves, and this
    module makes both independently checkable:

    - {b achievability}: the run's own model at the claimed optimum,
      validated against the paper's §II-A conditions by {!Validate}
      (which trusts neither the encoder nor the solver);
    - {b a lower bound}: a DRAT proof, emitted by the solver while
      refuting the next-better bound and verified by the trusted
      {!Olsq2_proof.Checker}, that the bound below the optimum is
      unsatisfiable.

    On the default path the refutation runs on the formula that found
    the optimum: the horizon-extension session is proof-logged from its
    first clause, and after the refinement loop the bound below the
    optimum is refuted on that same solver ({!refute}), whose learnt
    clauses make it cheap.  The check ({!finish}) runs later, once the
    session can be garbage-collected.  DESIGN.md gives the trust
    argument for the session's horizon-retirement units.

    Runs whose formula the checker cannot take as it stands — the
    classic encoder's non-default arms and simplification, symmetry
    breaking, the cube-and-conquer pool — fall back to {!certify_depth}
    / {!certify_swaps}: a fresh proof-logged pure-CNF classic encoder
    refutes the bound below (lazy-integer configurations are substituted
    with the bit-vector encoding, and symmetry is stripped), so the
    certified statement is about the instance.  Refuting bound [b-1] on
    a horizon of [b+1] steps certifies "no schedule of depth < b exists
    at any horizon", because any schedule of depth at most [b-1] embeds
    unchanged into every horizon of at least [b-1] steps. *)

module Checker = Olsq2_proof.Checker

(** What was certified optimal. *)
type objective = Depth | Swaps_at_depth of int

(** Result of running the trusted checker over one emitted proof. *)
type proof_check = {
  mode : Checker.mode;
  verdict : Checker.verdict;
  original_clauses : int;  (** premise clauses handed to the checker *)
  proof_additions : int;  (** addition steps in the proof *)
  proof_deletions : int;
  lemmas_checked : int;
  check_propagations : int;
}

(** The lower-bound half: bound [optimum - 1] shown unsatisfiable. *)
type lower_bound = {
  bound : int;  (** the refuted bound *)
  core_size : int;  (** failed bound assumptions in the final conflict *)
  check : proof_check option;
      (** [None] when the refutation did not complete, or when no proof
          is needed (the [Chain] bound) *)
  accepted : bool;  (** checker accepted the proof *)
  detail : string;
}

(** The formula the lower-bound proof refutes. *)
type formula =
  | Session  (** the run's own horizon-extension session *)
  | Classic of Config.t  (** a fresh classic encoder in this configuration *)
  | Chain
      (** no formula: the circuit's longest dependency chain
          ({!dependency_chain}), for answers that meet it *)

type t = {
  objective : objective;
  optimum : int;
  formula : formula;  (** which formula was certified *)
  model : Result_.t;  (** the run's model at the optimum *)
  model_valid : bool;  (** validated, and within the claimed optimum *)
  violations : Validate.violation list;
  lower_bound : lower_bound option;  (** [None] when trivially minimal *)
  provenance : (string * int) list;  (** premise clause counts by constraint group *)
  seconds : float;
}

(** A certificate is valid when the model at the optimum passes
    validation and the lower-bound proof (when one is needed) was
    accepted by the checker. *)
val valid : t -> bool

val objective_to_string : objective -> string

(** Multi-line human-readable summary. *)
val to_string : t -> string

val formula_to_string : formula -> string

(** {2 Certifying a live solver}

    What {!refute} needs from a proof-logged encoding whose logger was
    installed before its first clause. *)
type oracle = {
  solver : Olsq2_sat.Solver.t;
  solve : Olsq2_sat.Lit.t list -> Olsq2_sat.Solver.result;
      (** solve under these bound assumptions (the caller's budget) *)
  depth_selector : int -> Olsq2_sat.Lit.t;
  swap_bound : int -> Olsq2_sat.Lit.t option;
      (** at-most-[k] SWAPs assumption; a counter must exist *)
  provenance : unit -> (string * int) list;
}

(** A lower-bound refutation that has run but is not yet checked.  It
    holds no reference to the solver. *)
type refutation

(** [refute objective ~optimum ~formula make_oracle] builds the oracle
    and refutes the bound below [optimum]: depth [optimum - 1] for
    [Depth], or [optimum - 1] SWAPs at depth [d] for [Swaps_at_depth d].
    Runs inside a [certificate.build] span. *)
val refute : objective -> optimum:int -> formula:formula -> (unit -> oracle) -> refutation

(** [finish ~sink instance model r] validates [model] against the claim
    and runs the trusted checker over [sink] (the proof [r] was logged
    into), in a [certificate.build] span.  [mode] defaults to
    [Backward]; [proof_file] writes the sink's steps (text format).  The
    checker takes ownership of the sink's premise clauses and may
    permute their literals. *)
val finish :
  ?mode:Checker.mode ->
  ?proof_file:string ->
  sink:Olsq2_proof.Drat.sink ->
  Instance.t ->
  Result_.t ->
  refutation ->
  t

(** {2 The classic fallback} *)

(** The configuration the classic fallback refutes on: [config] with
    symmetry breaking stripped (a refutation of the orbit-restricted CNF
    certifies only the restricted problem) and the lazy-integer encoding
    replaced by the bit-vector one (the checker cannot replay theory
    lemmas).  {!certify_depth} and {!certify_swaps} apply it themselves,
    so the certified statement is about the instance whatever [config]
    they are given. *)
val pure_sat_config : Config.t -> Config.t

(** [certify_depth instance model ~depth] certifies that [depth] is the
    minimal circuit depth: [model] validated at [depth], checked UNSAT
    proof for [depth - 1] on a fresh classic encoder.  [proof_file]
    additionally writes the emitted DRAT proof (text format) to disk.
    [mode] picks the checking strategy (default [Backward]).  [budget]
    is the run's running budget: the refutation gets what is left of it
    and is attached to its preemption control. *)
val certify_depth :
  ?config:Config.t ->
  ?budget:Budget.state ->
  ?mode:Checker.mode ->
  ?proof_file:string ->
  Instance.t ->
  Result_.t ->
  depth:int ->
  t

(** [certify_swaps instance model ~depth ~swaps] certifies that [swaps]
    is the minimal SWAP count among schedules of depth at most
    [depth]. *)
val certify_swaps :
  ?config:Config.t ->
  ?budget:Budget.state ->
  ?mode:Checker.mode ->
  ?proof_file:string ->
  Instance.t ->
  Result_.t ->
  depth:int ->
  swaps:int ->
  t

(** {2 The dependency-chain bound}

    An answer found on a device window ({!Window}) at the depth lower
    bound was never refuted on the device, and its window refutations
    certify only the window.  Its certificate rests on the circuit
    alone: every gate on a dependency chain runs at its own, later time
    step, so no schedule is shorter than the chain. *)

(** The longest gate-dependency chain of [circuit], in gates: a
    per-qubit scan of [circuit.gates] that trusts neither
    {!Olsq2_circuit.Dag} nor {!Instance}. *)
val dependency_chain : Olsq2_circuit.Circuit.t -> int

(** [chain instance model objective ~optimum] certifies [model] with
    formula [Chain]: it is validated on [instance] (the full device) and
    must be within [optimum].  For [Depth] the lower bound is accepted
    when {!dependency_chain} is at least [optimum] ([optimum <= 1] is
    trivial); a 0-SWAP claim is trivial; a positive SWAP claim has no
    chain bound and is not accepted.  Runs inside a [certificate.build]
    span. *)
val chain : Instance.t -> Result_.t -> objective -> optimum:int -> t
