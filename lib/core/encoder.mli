(** SAT encoding of the full (gate-time-resolved) layout synthesis model:
    the paper's §III-A formulation, in both the succinct OLSQ2 variant and
    the original OLSQ variant with space variables. *)

module Ctx = Olsq2_encode.Ctx
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Cardinality = Olsq2_encode.Cardinality
module Pb = Olsq2_encode.Pb

type counter =
  | Card of Cardinality.outputs  (** one-shot totalizer outputs *)
  | Inc_card of Cardinality.Inc.t
      (** [Seq_counter]: one widenable Sinz chain, reused (via
          {!Cardinality.Inc.widen}) when later bound iterations outgrow
          the width built so far *)
  | Adder_net of Pb.t
type counter_kind = Plain | Weighted

type t = private {
  instance : Instance.t;
  config : Config.t;
  ctx : Ctx.t;
  t_max : int;  (** encoded horizon (number of time steps) *)
  pi : Ivar.t array array;  (** [pi.(q).(t)]: mapping variables *)
  time : Ivar.t array;  (** [time.(g)]: gate execution step *)
  sigma : Lit.t option array array;
      (** [sigma.(e).(t)]: SWAP on edge [e] finishing at [t]; [None] at
          disallowed finish times *)
  depth_selectors : (int, Lit.t) Hashtbl.t;
  mutable counters : (int * counter) list;
      (** SWAP counters with their expressible-bound capacity *)
  mutable counter_kind : counter_kind option;
  mutable simplify_report : Olsq2_simplify.Simplify.report option;
      (** preprocessing reduction report, when [config.simplify] ran *)
}

(** Build the encoding over [t_max] time steps.  [proof] installs a DRAT
    proof logger on the underlying solver before the first clause is
    asserted, so the logged premise set covers the whole encoding.  When
    [config.simplify] is set (and the encoding is not [Lazy_int]), the
    finished CNF is preprocessed by {!Olsq2_simplify.Simplify} — with the
    mapping/time/sigma variables frozen for extraction — and restart-time
    inprocessing is attached; the reduction lands in [simplify_report]. *)
val build : ?config:Config.t -> ?proof:Solver.proof_logger -> Instance.t -> t_max:int -> t

val solver : t -> Solver.t

(** Selector literal enforcing "at most [d] time steps" when assumed
    (paper Eq. 4, attached to a guard for incremental optimization). *)
val depth_selector : t -> int -> Lit.t

(** Build (or widen) the SWAP-count counter (paper Eq. 5) so bounds up to
    [max_bound] are expressible.  Idempotent when capacity suffices. *)
val build_counter : t -> max_bound:int -> unit

(** Assumption literal for "at most k SWAPs"; [None] if vacuous.
    Requires {!build_counter}. *)
val swap_bound_assumption : t -> int -> Lit.t option

(** Fidelity-aware variant of {!build_counter}: bound the *weighted* SWAP
    cost, [weights e] being the integer cost of a SWAP on edge [e]
    (e.g. scaled -log fidelity).  Mutually exclusive with
    {!build_counter}; bounds go through {!swap_bound_assumption}. *)
val build_weighted_counter : t -> weights:(int -> int) -> max_bound:int -> unit

val solve : ?assumptions:Lit.t list -> ?max_conflicts:int -> ?timeout:float -> t -> Solver.result

(** [true] when a raw {!Olsq2_sat.Solver.solve} on {!solver} is
    equivalent to {!solve} — i.e. the encoding is plain CNF, with no
    CEGAR theory loop — so a cube-and-conquer pool may stand in for the
    sequential call. *)
val pool_capable : t -> bool

(** SWAPs of the current model. *)
val model_swaps : t -> Result_.swap list

val model_swap_count : t -> int

(** Extract a full result from the current model. *)
val extract :
  ?status:Result_.status -> ?solve_seconds:float -> ?iterations:int -> t -> Result_.t

(** (variables, clauses) of the built encoding. *)
val size_report : t -> int * int

(** Clause counts per constraint group (largest first): where the premise
    clauses of an emitted proof came from. *)
val provenance : t -> (string * int) list

(** Domain-guided branching hints (paper §V direction): seed VSIDS
    activities in dependency order and prefer SWAP-free phases. *)
val apply_branching_hints : t -> unit
