(** DRAT proof capture and serialization.

    A {!sink} receives the proof events emitted by {!Olsq2_sat.Solver}'s
    [proof_logger] hooks and accumulates (a) the original formula — every
    clause the caller asserted — and (b) the proof itself: the sequence of
    clause additions (learnt clauses, plus the terminal lemma of each
    refutation) and deletions (database reductions).  Together they are
    exactly what {!Checker} needs to validate an UNSAT answer without
    trusting the solver.

    Both standard DRAT wire formats are supported: the text format
    ([d ]lit* 0 per line) and the compact binary format ('a'/'d' prefix
    byte followed by variable-length 7-bit encoded literals, 0-terminated),
    as consumed by drat-trim. *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver

(** One proof step: a clause whose addition must be checked (RUP/RAT), or
    a deletion of a previously present clause. *)
type step = Add of Lit.t array | Delete of Lit.t array

type format = Text | Binary

type sink

val create : unit -> sink

(** A solver proof-logger that records into the sink.  Hand it to
    {!Solver.set_proof_logger} (or let {!attach} do it). *)
val logger : sink -> Solver.proof_logger

(** [attach sink s] installs [logger sink] on [s].  Raises [Invalid_argument]
    if [s] already holds clauses or variables — a proof whose premise set
    misses earlier clauses is worthless. *)
val attach : sink -> Solver.t -> unit

(** The original clauses asserted so far, in assertion order. *)
val formula : sink -> Lit.t array array

(** The proof steps recorded so far, in order. *)
val steps : sink -> step array

val additions : sink -> int
val deletions : sink -> int

(** Serialize the proof steps (not the formula) in the given format. *)
val to_string : format -> sink -> string

val write_channel : format -> out_channel -> sink -> unit

(** Parse a serialized proof back into steps.  Raises [Failure] on
    malformed input.  [parse Text] also accepts "c ..." comment lines. *)
val parse : format -> string -> step list

(** The recorded formula as a DIMACS CNF string (for external checkers). *)
val formula_to_dimacs : sink -> string
