(** Shared Cmdliner terms for the synthesis knobs, so [olsq2 synth] and
    [olsq2-serve] accept identical [-j] / [--simplify] /
    [--budget] / [--conflict-budget] / [--cube-depth] / [-c] /
    [--certify] / [--proof] / [--incremental] / [--symmetry] /
    [--sat] flags from one definition. *)

type common = {
  budget_seconds : float option;
  conflict_budget : int option;
  workers : int option;
      (** [None] defers to {!Olsq2_core.Synthesis.Options.default}
          (the [OLSQ2_WORKERS] environment variable, or 1) *)
  cube_depth : int option;
  config : Olsq2_core.Config.t;
  simplify : bool option;
      (** overrides [config.simplify] when set *)
  certify : bool;
  proof_file : string option;
  incremental : bool option;
      (** [None] defers to {!Olsq2_core.Synthesis.Options.default}
          (the [OLSQ2_INCREMENTAL] environment variable, or on) *)
  symmetry : bool option;
      (** overrides [config.symmetry] when set *)
  sat : string list;
      (** raw [--sat KEY=VAL] overrides (each validated at parse time),
          applied in order onto {!Olsq2_sat.Tuning.default} and carried
          into [Options.sat] *)
}

(** All the flags as one Cmdliner term. *)
val term : common Cmdliner.Term.t

(** The wall/conflict budget the flags describe. *)
val budget : common -> Olsq2_core.Budget.t

(** Lower the parsed flags onto {!Olsq2_core.Synthesis.Options.default}. *)
val options : common -> Olsq2_core.Synthesis.Options.t
