(** Unified resource budgets for optimization runs.

    Replaces the [?budget_seconds : float] label that used to be
    duplicated (with subtly different plumbing) across the optimization
    entry points: one value describes the wall-clock allowance, an
    optional global conflict cap, and an optional per-bound cap, and the
    same {!state} drives cancellation identically on the sequential and
    cube-and-conquer paths.

    A {!t} is a declarative limit; {!start} turns it into a running
    {!state} with a fixed deadline and a cumulative conflict account.
    Optimization bodies derive each SAT call's [?timeout] /
    [?max_conflicts] from the state ({!solve_timeout},
    {!solve_max_conflicts}) and report what the call actually cost with
    {!charge}; nested entry points share one state, so the deadline never
    slides and conflicts accumulate across phases.

    A budget may additionally carry a {!control}: an external preemption
    handle with which another domain (e.g. the serve daemon's
    wall-deadline watchdog) stops the run {e mid-search} — the engine
    registers each solver with the control for the length of a solve
    call ({!attached}), and {!preempt} both flips {!exhausted} and calls
    {!Olsq2_sat.Solver.interrupt} on every registered solver, so the
    current solve call returns [Unknown Interrupted] promptly instead of
    running to its own timeout.  Between solves the run reads the flag
    through {!exhausted}; a control holds no solver once its run is
    done. *)

(** External preemption handle shared between the run and a watchdog. *)
type control

(** A fresh, un-preempted control. *)
val control : unit -> control

(** Raise the preemption flag and interrupt every solver that is solving
    under the control ({!attached}).  Safe to call from any domain, any
    number of times. *)
val preempt : control -> unit

val preempted : control -> bool

type t = {
  wall_seconds : float option;  (** total wall-clock allowance *)
  max_conflicts : int option;  (** total conflicts across all solves *)
  per_bound_seconds : float option;  (** wall cap for any single bound query *)
  control : control option;
      (** external preemption handle; not a declarative limit — skipped by
          {!to_assoc} / {!equal} *)
}

(** No limits. *)
val unlimited : t

(** Wall-clock-only budget, the old [?budget_seconds] semantics. *)
val of_seconds : float -> t

(** [of_seconds_opt None] is {!unlimited} (migration helper for the old
    optional label). *)
val of_seconds_opt : float option -> t

val with_conflicts : int -> t -> t
val with_per_bound_seconds : float -> t -> t

(** Attach a preemption control (see {!control}). *)
val with_control : control -> t -> t

(** [true] when every limit field is [None] (an attached control does not
    make a budget limited). *)
val is_unlimited : t -> bool

(** Limit-field equality; the runtime [control] handle is ignored. *)
val equal : t -> t -> bool

(** Stable key/value rendering of the non-default limit fields. *)
val to_assoc : t -> (string * string) list

(** Inverse of {!to_assoc}: missing keys mean unlimited; unknown keys and
    malformed or negative values are an [Error] naming them.  The result
    never carries a control. *)
val of_assoc : (string * string) list -> (t, string) result

(** A running account: fixed wall deadline plus spent conflicts. *)
type state

val start : t -> state

(** Wall seconds left ([infinity] when unlimited). *)
val remaining_seconds : state -> float

(** [true] once the budget's control was preempted. *)
val interrupted : state -> bool

(** [true] once the deadline passed, the conflict cap is spent, or the
    budget's control was preempted. *)
val exhausted : state -> bool

(** [attached st solver f] runs [f] (a solve call on [solver]) with
    [solver] registered with the budget's control, so a {!preempt} during
    [f] interrupts it; the registration is removed when [f] returns or
    raises.  A control already preempted interrupts [solver] before [f]
    runs.  Nested calls with the same solver each add and remove one
    registration.  Without a control this is [f ()]. *)
val attached : state -> Olsq2_sat.Solver.t -> (unit -> 'a) -> 'a

(** The [?timeout] to pass to the next solve call: the remaining wall
    allowance, further clamped by [per_bound_seconds]; [None] when
    unlimited. *)
val solve_timeout : state -> float option

(** The [?max_conflicts] to pass to the next solve call: what is left of
    the global conflict cap; [None] when unlimited. *)
val solve_max_conflicts : state -> int option

(** Record conflicts actually spent by a finished solve call. *)
val charge : state -> conflicts:int -> unit
