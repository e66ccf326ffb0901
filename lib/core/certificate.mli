(** End-to-end optimality certificates.

    An optimality claim from the solving stack has two halves, and this
    module makes both independently checkable:

    - {b achievability}: a model at the claimed optimum, validated against
      the paper's §II-A conditions by {!Validate} (which trusts neither
      the encoder nor the solver);
    - {b a lower bound}: a DRAT proof, emitted by the solver while
      refuting the next-better bound and verified by the trusted
      {!Olsq2_proof.Checker}, that the bound below the optimum is
      unsatisfiable.

    Certification re-solves the instance on a fresh encoder with proof
    logging attached from the first clause, rather than logging the whole
    optimization run: the optimizer is free to use an incremental session,
    a cube-and-conquer pool or theory-guided configurations whose lemmas a pure CNF checker could not
    replay.  Lazy-integer configurations are therefore substituted with
    the bit-vector encoding — the certified statement is about the
    instance, not about any particular encoding.

    Refuting bound [b-1] on a horizon of [b+1] steps certifies "no
    schedule of depth < b exists at any horizon", because any schedule of
    depth at most [b-1] embeds unchanged into every horizon of at least
    [b-1] steps. *)

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
  check : proof_check option;  (** [None] when the refutation did not complete *)
  accepted : bool;  (** checker accepted the proof *)
  detail : string;
}

type t = {
  objective : objective;
  optimum : int;
  config : Config.t;  (** certification configuration (always pure SAT) *)
  model : Result_.t option;  (** validated model at the optimum *)
  model_valid : bool;
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

(** [certify_depth instance ~depth] certifies that [depth] is the minimal
    circuit depth: validated model at [depth], checked UNSAT proof for
    [depth - 1].  [proof_file] additionally writes the emitted DRAT proof
    (text format) to disk.  [mode] picks the checking strategy (default
    [Backward]).  [budget] bounds each of the two solver calls
    (seconds). *)
val certify_depth :
  ?config:Config.t ->
  ?budget:float ->
  ?mode:Checker.mode ->
  ?proof_file:string ->
  Instance.t ->
  depth:int ->
  t

(** [certify_swaps instance ~depth ~swaps] certifies that [swaps] is the
    minimal SWAP count among schedules of depth at most [depth]. *)
val certify_swaps :
  ?config:Config.t ->
  ?budget:float ->
  ?mode:Checker.mode ->
  ?proof_file:string ->
  Instance.t ->
  depth:int ->
  swaps:int ->
  t
