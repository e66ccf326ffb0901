(* Shared Cmdliner vocabulary for the synthesis knobs, so `olsq2 synth`
   and `olsq2-serve` parse -j/--simplify/--budget/... with one
   definition — same flag names, same docs, same defaulting — and both
   lower to the same [Synthesis.Options] value. *)

module Core = Olsq2_core
open Cmdliner

type common = {
  budget_seconds : float option;
  conflict_budget : int option;
  workers : int option;  (* None: Options.default (OLSQ2_WORKERS or 1) *)
  cube_depth : int option;
  config : Core.Config.t;
  simplify : bool option;
  certify : bool;
  proof_file : string option;
  incremental : bool option;  (* None: Options.default (OLSQ2_INCREMENTAL or true) *)
  symmetry : bool option;
  sat : string list;  (* raw --sat KEY=VAL overrides, applied in order *)
}

let budget_arg =
  let doc = "Time budget in seconds for the optimization loop." in
  Arg.(value & opt (some float) None & info [ "b"; "budget" ] ~docv:"SECONDS" ~doc)

let conflict_budget_arg =
  let doc =
    "Conflict budget for the optimization loop: total solver conflicts across all bound queries."
  in
  Arg.(value & opt (some int) None & info [ "conflict-budget" ] ~docv:"N" ~doc)

let workers_arg =
  let doc =
    "Parallelize single bound queries over $(docv) cube-and-conquer worker domains (exact \
     methods).  1 solves sequentially.  Defaults to $(b,OLSQ2_WORKERS) or 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "workers" ] ~docv:"N" ~doc)

let cube_depth_arg =
  let doc =
    "Split each parallel query on $(docv) variables (2^$(docv) cubes).  Default: smallest depth \
     giving at least 4 cubes per worker."
  in
  Arg.(value & opt (some int) None & info [ "cube-depth" ] ~docv:"K" ~doc)

let config_arg =
  let configs =
    [
      ("olsq-int", Core.Config.olsq_int);
      ("olsq-bv", Core.Config.olsq_bv);
      ("olsq2-int", Core.Config.olsq2_int);
      ("olsq2-euf-int", Core.Config.olsq2_euf_int);
      ("olsq2-euf-bv", Core.Config.olsq2_euf_bv);
      ("olsq2-bv", Core.Config.olsq2_bv);
    ]
  in
  let doc = "Encoding configuration (Table I naming)." in
  Arg.(value & opt (enum configs) Core.Config.default & info [ "c"; "config" ] ~doc)

let simplify_arg =
  let on =
    let doc =
      "Preprocess every built CNF (SatELite-style subsumption + bounded variable elimination) and \
       inprocess during long solves; proof logging stays checkable.  Sets the encoding config's \
       simplify flag, as $(b,--symmetry) sets its symmetry flag.  Exact method only (olsq2), which \
       then runs on the classic encoder; with $(b,--stats) the aggregate reduction is reported."
    in
    (Some true, Arg.info [ "simplify" ] ~doc)
  in
  let off =
    let doc = "Disable CNF simplification everywhere." in
    (Some false, Arg.info [ "no-simplify" ] ~doc)
  in
  Arg.(value & vflag None [ on; off ])

let incremental_arg =
  let on =
    let doc =
      "Solve depth/swap objectives on one persistent horizon-extension solver session: growing \
       the time horizon emits only the delta CNF, so learnt clauses survive horizon growth \
       instead of being discarded by a re-encode.  Exact full-model objectives only (TB methods \
       ignore it); $(b,--simplify) or a non-default $(b,--config) runs on the classic encoder, \
       which honours them.  Defaults to $(b,OLSQ2_INCREMENTAL) or on."
    in
    (Some true, Arg.info [ "incremental" ] ~doc)
  in
  let off =
    let doc = "Rebuild the encoding per horizon (the classic per-horizon encoder)." in
    (Some false, Arg.info [ "no-incremental" ] ~doc)
  in
  Arg.(value & vflag None [ on; off ])

let symmetry_arg =
  let on =
    let doc =
      "Break coupling-graph symmetry: restrict the first two-qubit gate to one representative \
       edge per device-automorphism orbit.  Optimality-preserving for depth and swap count; \
       automatically disabled for weighted-swap objectives."
    in
    (Some true, Arg.info [ "symmetry" ] ~doc)
  in
  let off =
    let doc = "Disable coupling-graph symmetry breaking (the default)." in
    (Some false, Arg.info [ "no-symmetry" ] ~doc)
  in
  Arg.(value & vflag None [ on; off ])

(* Each occurrence is validated at parse time (unknown keys and
   out-of-range values are Cmdliner errors), kept as the raw string, and
   re-applied in order onto [Tuning.default] by [options]. *)
let sat_kv_conv =
  let parse s =
    match Olsq2_sat.Tuning.of_kv_strings [ s ] with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Format.pp_print_string)

let sat_arg =
  let doc =
    "Override one SAT-core strategy knob as $(i,KEY=VAL) (repeatable; applied in order).  Keys: \
     restart (luby|geometric), restart_base, restart_factor, var_decay, clause_decay, phase \
     (saved|negative|positive), reduce_base, reduce_keep, reduce_lbd_protect, vivify_budget, arena_capacity, gc_fraction, inprocess_interval, \
     share_max_len, share_max_lbd, probe_conflicts.  Example: $(b,--sat restart=geometric --sat \
     vivify_budget=0)."
  in
  Arg.(value & opt_all sat_kv_conv [] & info [ "sat" ] ~docv:"KEY=VAL" ~doc)

let certify_arg =
  let doc =
    "Certify the optimality claim: refute the bound below the optimum with DRAT proof logging \
     (on the proof-logged session itself, or on a fresh classic encoder with $(b,--symmetry), \
     $(b,-j) or a classic-encoder run), check the proof with the built-in trusted checker, and \
     validate the model.  Exits nonzero if the certificate cannot be produced or fails.  \
     Supported for the olsq2 method."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let proof_arg =
  let doc = "With $(b,--certify), also write the emitted DRAT proof (text format) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)

let term =
  let make budget_seconds conflict_budget workers cube_depth config simplify certify
      proof_file incremental symmetry sat =
    {
      budget_seconds;
      conflict_budget;
      workers;
      cube_depth;
      config;
      simplify;
      certify;
      proof_file;
      incremental;
      symmetry;
      sat;
    }
  in
  Term.(
    const make $ budget_arg $ conflict_budget_arg $ workers_arg $ cube_depth_arg
    $ config_arg $ simplify_arg $ certify_arg $ proof_arg $ incremental_arg $ symmetry_arg
    $ sat_arg)

let budget c =
  let b = Core.Budget.of_seconds_opt c.budget_seconds in
  match c.conflict_budget with Some n -> Core.Budget.with_conflicts n b | None -> b

let options c =
  let cfg =
    {
      c.config with
      Core.Config.symmetry = Option.value c.symmetry ~default:c.config.Core.Config.symmetry;
      simplify = Option.value c.simplify ~default:c.config.Core.Config.simplify;
    }
  in
  let b = budget c in
  let certify = c.certify and proof_file = c.proof_file in
  let workers = c.workers and cube_depth = c.cube_depth in
  let open Core.Synthesis.Options in
  let o = default |> with_config cfg |> with_budget b |> with_certify ?proof_file certify in
  let o = match c.incremental with Some b -> with_incremental b o | None -> o in
  let o =
    (* every item was validated by [sat_kv_conv], so this cannot fail *)
    match Olsq2_sat.Tuning.of_kv_strings c.sat with
    | Ok tu -> with_tuning tu o
    | Error _ -> o
  in
  with_workers ?cube_depth
    (match workers with Some n -> n | None -> o.parallel.workers)
    o
