(* Optimality certificates: the run's validated model at the optimum plus
   a checked DRAT refutation of the bound below it.  See the .mli for the
   trust story. *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Drat = Olsq2_proof.Drat
module Checker = Olsq2_proof.Checker
module Obs = Olsq2_obs.Obs
module Stopwatch = Olsq2_util.Stopwatch

type objective = Depth | Swaps_at_depth of int

type formula = Session | Classic of Config.t | Chain

type proof_check = {
  mode : Checker.mode;
  verdict : Checker.verdict;
  original_clauses : int;
  proof_additions : int;
  proof_deletions : int;
  lemmas_checked : int;
  check_propagations : int;
}

type lower_bound = {
  bound : int;
  core_size : int;
  check : proof_check option;
  accepted : bool;
  detail : string;
}

type t = {
  objective : objective;
  optimum : int;
  formula : formula;
  model : Result_.t;
  model_valid : bool;
  violations : Validate.violation list;
  lower_bound : lower_bound option;
  provenance : (string * int) list;
  seconds : float;
}

let valid t =
  t.model_valid && match t.lower_bound with None -> true | Some lb -> lb.accepted

let objective_to_string = function
  | Depth -> "depth"
  | Swaps_at_depth d -> Printf.sprintf "swaps@depth<=%d" d

let formula_to_string = function
  | Session -> "horizon-extension session"
  | Classic config -> "classic " ^ Config.name config
  | Chain -> "dependency-chain lower bound"

(* ---- the refutation half ---- *)

type oracle = {
  solver : Solver.t;
  solve : Lit.t list -> Solver.result;
  depth_selector : int -> Lit.t;
  swap_bound : int -> Lit.t option;
  provenance : unit -> (string * int) list;
}

type attempt =
  | Trivial (* no better bound exists *)
  | Refuted of { bound : int; core : Lit.t list }
  | Not_refuted of lower_bound (* never accepted *)

type refutation = {
  r_objective : objective;
  r_optimum : int;
  r_formula : formula;
  r_attempt : attempt;
  r_provenance : (string * int) list;
  r_seconds : float;
}

(* Both halves run inside a [certificate.build] span; [f] returns its
   value and the span's closing attributes. *)
let build_span ~stage ~objective ~optimum ~formula f =
  let obs = Obs.global () in
  if not (Obs.enabled obs) then fst (f ())
  else begin
    let sp =
      Obs.begin_span obs "certificate.build"
        ~attrs:
          [
            ("stage", Obs.Str stage);
            ("objective", Obs.Str (objective_to_string objective));
            ("optimum", Obs.Int optimum);
            ("formula", Obs.Str (formula_to_string formula));
          ]
    in
    match f () with
    | v, attrs ->
      Obs.end_span obs sp ~attrs;
      v
    | exception e ->
      Obs.end_span obs sp;
      raise e
  end

let not_refuted bound detail =
  Not_refuted { bound; core_size = 0; check = None; accepted = false; detail }

let refute objective ~optimum ~formula make_oracle =
  let clock = Stopwatch.start () in
  build_span ~stage:"refute" ~objective ~optimum ~formula @@ fun () ->
  let o = make_oracle () in
  let query =
    match objective with
    | Depth ->
      if optimum <= 1 then None else Some (optimum - 1, Some [ o.depth_selector (optimum - 1) ])
    | Swaps_at_depth d ->
      if optimum = 0 then None
      else
        Some
          (optimum - 1, Option.map (fun b -> [ o.depth_selector d; b ]) (o.swap_bound (optimum - 1)))
  in
  let attempt =
    match query with
    | None -> Trivial
    | Some (bound, None) ->
      not_refuted bound "swap bound below the optimum is not expressible by the counter"
    | Some (bound, Some assumptions) -> (
      match o.solve assumptions with
      | Solver.Unsat -> Refuted { bound; core = Solver.unsat_core o.solver }
      | Solver.Sat ->
        not_refuted bound
          (Printf.sprintf "bound %d is satisfiable: the claimed optimum is not optimal" bound)
      | Solver.Unknown r ->
        not_refuted bound
          (Printf.sprintf "refutation of bound %d incomplete: %s" bound (Solver.reason_to_string r)))
  in
  let verdict =
    match attempt with Trivial -> "trivial" | Refuted _ -> "unsat" | Not_refuted _ -> "not refuted"
  in
  ( {
      r_objective = objective;
      r_optimum = optimum;
      r_formula = formula;
      r_attempt = attempt;
      r_provenance = o.provenance ();
      r_seconds = Stopwatch.elapsed clock;
    },
    [ ("refutation", Obs.Str verdict) ] )

(* ---- the check half ---- *)

(* The model is no worse than the claimed optimum. *)
let within (model : Result_.t) objective ~optimum =
  match objective with
  | Depth -> model.Result_.depth <= optimum
  | Swaps_at_depth d -> model.Result_.depth <= d && model.Result_.swap_count <= optimum

(* Run the trusted checker on the sink's contents; the goal clause is the
   negated assumption core (empty core = the database itself is unsat,
   where the goal degenerates to the empty clause).  The checker takes
   ownership of the formula's clause arrays. *)
let run_check ~mode ~sink ~goal =
  let obs = Obs.global () in
  let formula = Drat.formula sink in
  let proof = Drat.steps sink in
  let do_check () = Checker.check_entails ~mode ~formula ~proof goal in
  let report =
    if not (Obs.enabled obs) then do_check ()
    else begin
      Obs.count obs "proof.additions" (Drat.additions sink);
      Obs.count obs "proof.deletions" (Drat.deletions sink);
      let sp =
        Obs.begin_span obs "proof.check"
          ~attrs:
            [
              ("mode", Obs.Str (Checker.mode_to_string mode));
              ("original_clauses", Obs.Int (Array.length formula));
              ("steps", Obs.Int (Array.length proof));
            ]
      in
      let report = do_check () in
      Obs.end_span obs sp
        ~attrs:
          [
            ("verdict", Obs.Str (Checker.verdict_to_string report.Checker.verdict));
            ("lemmas_checked", Obs.Int report.Checker.lemmas_checked);
            ("propagations", Obs.Int report.Checker.propagations);
          ];
      Obs.count obs "proof.lemmas_checked" report.Checker.lemmas_checked;
      report
    end
  in
  {
    mode;
    verdict = report.Checker.verdict;
    original_clauses = Array.length formula;
    proof_additions = Drat.additions sink;
    proof_deletions = Drat.deletions sink;
    lemmas_checked = report.Checker.lemmas_checked;
    check_propagations = report.Checker.propagations;
  }

let write_proof_file path sink =
  let oc = open_out path in
  Drat.write_channel Drat.Text oc sink;
  close_out oc

let check_refuted ~mode ~sink ~bound core =
  let goal = Array.of_list (List.map Lit.negate core) in
  let check = run_check ~mode ~sink ~goal in
  let accepted = check.verdict = Checker.Valid in
  {
    bound;
    core_size = List.length core;
    check = Some check;
    accepted;
    detail =
      (if accepted then
         Printf.sprintf "bound %d refuted; %s check accepted the proof" bound
           (Checker.mode_to_string mode)
       else
         Printf.sprintf "bound %d refuted but the checker rejected the proof: %s" bound
           (Checker.verdict_to_string check.verdict));
  }

let finish ?(mode = Checker.Backward) ?proof_file ~sink instance (model : Result_.t) r =
  let clock = Stopwatch.start () in
  build_span ~stage:"check" ~objective:r.r_objective ~optimum:r.r_optimum ~formula:r.r_formula
  @@ fun () ->
  (match proof_file with None -> () | Some path -> write_proof_file path sink);
  let violations = Validate.check instance model in
  let lower_bound =
    match r.r_attempt with
    | Trivial -> None
    | Not_refuted lb -> Some lb
    | Refuted { bound; core } -> Some (check_refuted ~mode ~sink ~bound core)
  in
  let cert =
    {
      objective = r.r_objective;
      optimum = r.r_optimum;
      formula = r.r_formula;
      model;
      model_valid = violations = [] && within model r.r_objective ~optimum:r.r_optimum;
      violations;
      lower_bound;
      provenance = r.r_provenance;
      seconds = r.r_seconds +. Stopwatch.elapsed clock;
    }
  in
  ( cert,
    [
      ("valid", Obs.Bool (valid cert));
      ("model_valid", Obs.Bool cert.model_valid);
      ( "lower_bound",
        Obs.Str
          (match cert.lower_bound with
          | None -> "trivial"
          | Some lb -> if lb.accepted then "checked" else "failed") );
    ] )

(* ---- the classic fallback ---- *)

(* The checker cannot replay theory lemmas, so the fallback always runs a
   pure-CNF encoding; the certified claim is about the instance.  Symmetry
   breaking is stripped too: a DRAT refutation of the orbit-restricted CNF
   certifies only the restricted problem, and the checker has no way to
   replay the automorphism argument that lifts it to the full one. *)
let pure_sat_config (config : Config.t) =
  let config = { config with Config.symmetry = false } in
  match config.Config.var_encoding with
  | Config.Lazy_int -> { config with Config.var_encoding = Config.Binary }
  | Config.Onehot | Config.Binary -> config

(* Refute the bound below the optimum on a fresh proof-logged classic
   encoder of horizon [depth + 1], under what is left of the run's
   budget, then check it against the run's model. *)
let classic ~config ~budget ~mode ~proof_file instance model objective ~depth ~optimum =
  let config = pure_sat_config config in
  let sink = Drat.create () in
  let timeout () =
    Option.bind budget (fun st ->
        let left = Budget.remaining_seconds st in
        if left < infinity then Some left else None)
  in
  let refutation =
    refute objective ~optimum ~formula:(Classic config) (fun () ->
        let enc = Encoder.build ~config ~proof:(Drat.logger sink) instance ~t_max:(depth + 1) in
        let solver = Encoder.solver enc in
        (match objective with
        | Swaps_at_depth _ -> Encoder.build_counter enc ~max_bound:(max optimum 1)
        | Depth -> ());
        {
          solver;
          solve =
            (fun assumptions ->
              let solve () = Encoder.solve ~assumptions ?timeout:(timeout ()) enc in
              match budget with None -> solve () | Some st -> Budget.attached st solver solve);
          depth_selector = Encoder.depth_selector enc;
          swap_bound = Encoder.swap_bound_assumption enc;
          provenance = (fun () -> Encoder.provenance enc);
        })
  in
  finish ?mode ?proof_file ~sink instance model refutation

let certify_depth ?(config = Config.default) ?budget ?mode ?proof_file instance model ~depth =
  if depth < 1 then invalid_arg "Certificate.certify_depth: depth must be positive";
  classic ~config ~budget ~mode ~proof_file instance model Depth ~depth ~optimum:depth

let certify_swaps ?(config = Config.default) ?budget ?mode ?proof_file instance model ~depth
    ~swaps =
  if depth < 1 then invalid_arg "Certificate.certify_swaps: depth must be positive";
  if swaps < 0 then invalid_arg "Certificate.certify_swaps: negative swap count";
  classic ~config ~budget ~mode ~proof_file instance model (Swaps_at_depth depth) ~depth
    ~optimum:swaps

(* ---- the dependency-chain bound ---- *)

(* Trusted: the longest gate-dependency chain from the gate list alone.
   A gate's level is one more than the highest level of the previous
   gate on any of its qubits, so a chain of [n] levels is [n] gates that
   must run at [n] increasing time steps. *)
let dependency_chain (circuit : Olsq2_circuit.Circuit.t) =
  let last = Array.make circuit.Olsq2_circuit.Circuit.num_qubits 0 in
  Array.fold_left
    (fun longest g ->
      let qubits = Olsq2_circuit.Gate.qubits g in
      let level = 1 + List.fold_left (fun m q -> max m last.(q)) 0 qubits in
      List.iter (fun q -> last.(q) <- level) qubits;
      max longest level)
    0 circuit.Olsq2_circuit.Circuit.gates

let chain instance (model : Result_.t) objective ~optimum =
  let clock = Stopwatch.start () in
  build_span ~stage:"chain" ~objective ~optimum ~formula:Chain @@ fun () ->
  let violations = Validate.check instance model in
  let lower_bound =
    match objective with
    | Depth when optimum <= 1 -> None
    | Swaps_at_depth _ when optimum = 0 -> None
    | Depth ->
      let longest = dependency_chain instance.Instance.circuit in
      let accepted = longest >= optimum in
      Some
        {
          bound = optimum - 1;
          core_size = 0;
          check = None;
          accepted;
          detail =
            Printf.sprintf "longest dependency chain is %d gates: %s" longest
              (if accepted then Printf.sprintf "no schedule is shorter than %d steps" optimum
               else Printf.sprintf "it does not rule out depth %d" (optimum - 1));
        }
    | Swaps_at_depth _ ->
      Some
        {
          bound = optimum - 1;
          core_size = 0;
          check = None;
          accepted = false;
          detail = "a dependency chain bounds depth, not SWAPs";
        }
  in
  let cert =
    {
      objective;
      optimum;
      formula = Chain;
      model;
      model_valid = violations = [] && within model objective ~optimum;
      violations;
      lower_bound;
      provenance = [];
      seconds = Stopwatch.elapsed clock;
    }
  in
  (cert, [ ("valid", Obs.Bool (valid cert)) ])

let to_string t =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "certificate: %s = %d (%s) -- %s\n" (objective_to_string t.objective) t.optimum
    (formula_to_string t.formula)
    (if valid t then "VALID" else "NOT CERTIFIED");
  add "  model: depth=%d swaps=%d, validation %s\n" t.model.Result_.depth
    t.model.Result_.swap_count
    (if t.model_valid then "passed"
     else
       match t.violations with
       | v :: _ ->
         Printf.sprintf "FAILED (%d violations): %s" (List.length t.violations)
           (Validate.violation_to_string v)
       | [] -> "FAILED (exceeds the claimed optimum)");
  (match t.lower_bound with
  | None -> add "  lower bound: trivial (no better bound exists)\n"
  | Some lb ->
    add "  lower bound: %s\n" lb.detail;
    (match lb.check with
    | Some c ->
      add "    proof: %d premise clauses, %d additions, %d deletions; %s check: %s (%d lemmas, %d propagations)\n"
        c.original_clauses c.proof_additions c.proof_deletions (Checker.mode_to_string c.mode)
        (Checker.verdict_to_string c.verdict) c.lemmas_checked c.check_propagations;
      add "    unsat core: %d bound assumption(s)\n" lb.core_size
    | None -> ()));
  (match t.provenance with
  | [] -> ()
  | prov ->
    add "  premises by constraint group:";
    List.iter (fun (label, n) -> add " %s=%d" label n) prov;
    add "\n");
  add "  certification time: %.3fs" t.seconds;
  Buffer.contents buf
