(** First-class SAT-core tuning surface.

    One immutable record holds every search-strategy knob of the CDCL
    core — restart schedule, phase policy, reduce-DB fractions, vivification budget, clause-arena sizing,
    learnt-sharing filters — replacing the ad-hoc constants that used to
    be scattered through [solver.ml] and [pool.ml].  The value travels
    end-to-end: [Synthesis.Options.with_tuning] carries it into a run,
    the serve JSON codec round-trips it per request, and the CLI parses
    [--sat KEY=VAL] overrides with {!of_kv_strings}. *)

type restart_mode = Luby | Geometric

(** Decision-phase policy: [Phase_saved] replays the last assigned sign
    (classic phase saving); [Phase_negative] / [Phase_positive] are fixed
    signs. *)
type phase_mode = Phase_saved | Phase_negative | Phase_positive

type t = {
  restart_mode : restart_mode;
  restart_base : int;  (** conflicts in the first restart episode *)
  restart_factor : float;  (** Luby base / geometric multiplier *)
  var_decay : float;  (** VSIDS decay per conflict (0.5 .. 1.0) *)
  clause_decay : float;  (** learnt-activity decay per conflict *)
  phase_mode : phase_mode;
  reduce_base : int;  (** learnt-DB slack before the first reduction *)
  reduce_keep : float;  (** fraction of sorted learnts kept by reduce-DB *)
  reduce_lbd_protect : int;  (** learnts with LBD <= this are never dropped *)
  vivify_budget : int;  (** propagations per vivification pass; [0] disables *)
  arena_capacity : int;  (** initial clause-arena size in words *)
  gc_fraction : float;  (** compact the arena when wasted/top exceeds this *)
  inprocess_interval : int;  (** conflicts before the first inprocessing run *)
  share_max_len : int;  (** export filter: max clause length *)
  share_max_lbd : int;  (** export filter: max LBD (len <= 2 always passes) *)
  probe_conflicts : int;  (** pool: sequential-probe conflicts before cubing *)
}

(** Defaults validated against the benchmark (EXPERIMENTS.md): Luby
    restarts and phase saving. *)
val default : t

val equal : t -> t -> bool

(** {2 Builders} — derive a variant, leaving unnamed fields unchanged. *)

val with_restart : ?mode:restart_mode -> ?base:int -> ?factor:float -> t -> t
val with_phase : phase_mode -> t -> t
val with_reduce : ?base:int -> ?keep:float -> ?lbd_protect:int -> t -> t
val with_decay : ?var:float -> ?clause:float -> t -> t
val with_vivify : int -> t -> t
val with_arena : ?capacity:int -> ?gc_fraction:float -> t -> t
val with_inprocess_interval : int -> t -> t
val with_share_filters : ?max_len:int -> ?max_lbd:int -> t -> t
val with_probe_conflicts : int -> t -> t

(** {2 String codecs} *)

val restart_mode_to_string : restart_mode -> string
val restart_mode_of_string : string -> (restart_mode, string) result
val phase_mode_to_string : phase_mode -> string
val phase_mode_of_string : string -> (phase_mode, string) result

(** The recognized [to_assoc]/[of_assoc] key set, in render order. *)
val keys : string list

(** Flat string pairs, one per field (the [Core.Config] codec idiom). *)
val to_assoc : t -> (string * string) list

(** Apply [kvs] as overrides on [base] (default {!default}).  Unknown
    keys and malformed or out-of-range values are [Error] — the
    validation layer for [--sat] and the serve codec. *)
val of_assoc : ?base:t -> (string * string) list -> (t, string) result

(** Parse raw ["KEY=VAL"] strings (the repeatable [--sat] flag). *)
val of_kv_strings : ?base:t -> string list -> (t, string) result

(** {2 Ambient tuning}

    [Solver.create] reads the domain-local ambient tuning, so a facade
    can configure every solver built during a dispatch — encoder
    contexts, incremental sessions, pool replicas (created in the
    caller's domain) — without threading an argument through each
    signature.  [with_ambient t f] installs [t] for the extent of [f]
    and restores the previous value after. *)

val ambient : unit -> t
val with_ambient : t -> (unit -> 'a) -> 'a

val pp : Format.formatter -> t -> unit
