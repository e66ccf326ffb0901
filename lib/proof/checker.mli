(** Trusted DRAT/RUP proof checker.

    This module is the trust anchor of the certificate pipeline: it
    validates that a DRAT proof emitted by the (untrusted) CDCL solver
    really derives the claimed fact from the original formula, using
    nothing but its own watch-based unit propagation.  It shares no
    solving code with {!Olsq2_sat.Solver} — only the literal
    representation — and deliberately depends on nothing else (no
    observability, no solver internals).

    Two checking strategies are provided:
    - [Forward]: every addition step is verified (RUP, with a RAT fallback
      on the first literal for refutations) in proof order.  Simple and
      exhaustive.
    - [Backward]: the proof is first replayed without checking to find the
      contradiction (or to reach the goal clause), then verified in
      reverse, checking only the lemmas the conclusion transitively
      depends on (drat-trim's core-first strategy).  Deletions are undone
      in reverse, so each lemma is checked against exactly the clause
      database that preceded it.

    The checker takes ownership of the [formula]'s clause arrays: it
    watches them in place and may permute the literals within each
    clause (never the clause set), so no two clauses may share one
    array.  Proof steps are copied.  A deletion
    finds its clause whatever the literal order; a deletion that names
    no live clause is skipped. *)

module Lit = Olsq2_sat.Lit

type mode = Forward | Backward

type verdict =
  | Valid
  | Invalid of { step : int; reason : string }
      (** [step] is the 0-based index of the offending proof step, or [-1]
          when the failure is not tied to one (e.g. the proof never derives
          the empty clause). *)

type report = {
  verdict : verdict;
  additions : int;  (** addition steps processed *)
  deletions : int;  (** deletion steps processed *)
  lemmas_checked : int;  (** RUP/RAT verifications actually performed *)
  propagations : int;  (** literals propagated while checking *)
}

val mode_to_string : mode -> string
val verdict_to_string : verdict -> string

(** [check_unsat ~formula ~proof ()] verifies that [proof] derives the
    empty clause from [formula]: the certificate of an unconditional
    UNSAT answer. *)
val check_unsat : ?mode:mode -> formula:Lit.t array array -> proof:Drat.step array -> unit -> report

(** [check_entails ~formula ~proof goal] verifies every proof step and
    then that [goal] follows from the resulting clause database, all by
    RUP alone: a RAT addition preserves satisfiability, not entailment,
    so it cannot support a goal.  This is the certificate of an
    assumption-level UNSAT: for a failed assumption set [a1..ak], pass
    the lemma [¬a1 ∨ ... ∨ ¬ak] (which the solver also emits as the
    proof's final step). *)
val check_entails :
  ?mode:mode -> formula:Lit.t array array -> proof:Drat.step array -> Lit.t array -> report
