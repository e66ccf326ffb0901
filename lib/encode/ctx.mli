(** Encoding context: a SAT solver plus polarity-aware Tseitin lowering. *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver

type t

val create : unit -> t
val solver : t -> Solver.t

(** Fresh auxiliary literal (counted in {!aux_vars}). *)
val fresh : t -> Lit.t

(** Fresh problem literal (not counted as auxiliary). *)
val fresh_var : t -> Lit.t

val add_clause : t -> Lit.t list -> unit

(** [add2 t a b] adds the clause [a \/ b], [add3] a three-literal clause,
    and [add_array ?pre t lits] the clause of [pre] (when given) followed
    by [lits].  They count like {!add_clause} but push the literals into
    the solver's clause buffer ({!Solver.clause_push}) without building a
    list. *)
val add2 : t -> Lit.t -> Lit.t -> unit

val add3 : t -> Lit.t -> Lit.t -> Lit.t -> unit
val add_array : ?pre:Lit.t -> t -> Lit.t array -> unit

(** Constant-true literal of this context (created lazily). *)
val lit_true : t -> Lit.t

val lit_false : t -> Lit.t

(** [reify t f] returns a literal equivalent to [f] (both polarities
    defined). *)
val reify : t -> Formula.t -> Lit.t

(** One-sided reifications (Plaisted-Greenbaum): [reify_pos] guarantees
    [lit => f]; [reify_neg] guarantees [f => lit]. *)
val reify_pos : t -> Formula.t -> Lit.t

val reify_neg : t -> Formula.t -> Lit.t

(** Assert a formula at top level (CNF via Tseitin). *)
val assert_formula : t -> Formula.t -> unit

val assert_formula_false : t -> Formula.t -> unit

(** [assert_implied t ~guard f] asserts [guard => f]; used to attach
    objective bounds to selector literals for assumption-based
    optimization. *)
val assert_implied : t -> guard:Lit.t -> Formula.t -> unit

(** [set_provenance t label] attributes subsequently added clauses to the
    constraint group [label] (e.g. ["injectivity"], ["transitions"]).
    Groups are cumulative across switches; unattributed clauses fall into
    ["other"]. *)
val set_provenance : t -> string -> unit

(** Per-group clause counts, largest first, empty groups omitted.  Lets a
    certificate report where the premise clauses of a proof came from. *)
val provenance : t -> (string * int) list

(** Number of auxiliary (Tseitin) variables created. *)
val aux_vars : t -> int

val clauses_added : t -> int
val num_vars : t -> int
