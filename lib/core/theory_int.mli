(** Lazy integer theory (offline DPLL(T) / CEGAR): the stand-in for the
    paper's integer-variable configurations, modelling Z3's arithmetic
    path.  Atoms "x = c" / "x <= c" are free Boolean literals whose
    integer semantics is enforced by theory lemmas added after each SAT
    answer. *)

module Ctx = Olsq2_encode.Ctx
module Formula = Olsq2_encode.Formula
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver

type t
type ivar

(** Registry of lazy variables for an encoding context (one per context,
    created on first use). *)
val of_ctx : Ctx.t -> t

val new_var : t -> domain:int -> ivar
val domain : ivar -> int

(** Atom literals created so far (for branching hints). *)
val atom_lits : ivar -> Lit.t list
val eq_const : ivar -> int -> Formula.t
val le_const : ivar -> int -> Formula.t
val eq_var : ivar -> ivar -> Formula.t
val lt_var : ivar -> ivar -> Formula.t

(** CEGAR loop: SAT-solve, theory-check every variable, add lemmas for
    inconsistencies, repeat.  Returns [Sat] only for theory-consistent
    models; after any other verdict the solver may hold a model that is
    not.  [max_conflicts] caps the whole loop, not each round. *)
val solve : ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> Solver.result

(** Value of a variable in the (theory-consistent) model. *)
val value : Solver.t -> ivar -> int

(** (theory rounds, lemmas added). *)
val stats : t -> int * int
