(* Unified facade over the Optimizer engine.  Resolves the options into
   one engine call (bound oracle, pool, ambient SAT tuning), converts the
   outcome into the report, and snapshots the global tracer so the report
   carries the trace summary of exactly this run. *)

module Obs = Olsq2_obs.Obs
module Pool = Olsq2_parallel.Pool
module Drat = Olsq2_proof.Drat

module Options = struct
  type parallel = { workers : int; cube_depth : int option }

  type t = {
    config : Config.t;
    budget : Budget.t;
    certify : bool;
    proof_file : string option;
    parallel : parallel;
    incremental : bool;
        (* solve depth/SWAP objectives on one persistent
           horizon-extension session (lib/incremental) instead of
           re-encoding per horizon, unless the config needs the classic
           encoder (see [plan]); TB objectives ignore it *)
    device : string option;
        (* named device (Devices.by_name) this request targets; carried
           here so wire requests and the CLI can select topology and
           strategy through one options record *)
    sat : Olsq2_sat.Tuning.t;
        (* SAT-core search strategy (restart schedule, phase policy,
           reduce-DB, vivification, arena sizing, share filters); installed
           as the ambient tuning around the whole run, so every solver the
           engines create — encoder contexts, incremental sessions, pool
           replicas — inherits it *)
  }

  let sequential = { workers = 1; cube_depth = None }

  (* Environment defaults.  A set but malformed variable is an error
     naming the variable and its value, never a silent fallback. *)
  let workers_of_env s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (Printf.sprintf "OLSQ2_WORKERS=%S: expected a positive integer" s)

  let incremental_of_env s =
    match bool_of_string_opt (String.trim s) with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "OLSQ2_INCREMENTAL=%S: expected true or false" s)

  (* The raw values, read once, so a run record can say what the
     defaults came from. *)
  let env =
    List.map (fun name -> (name, Sys.getenv_opt name)) [ "OLSQ2_WORKERS"; "OLSQ2_INCREMENTAL" ]

  let from_env name parse ~default =
    match List.assoc name env with
    | None -> default
    | Some s -> ( match parse s with Ok v -> v | Error msg -> invalid_arg msg)

  (* OLSQ2_WORKERS picks the default worker count so tests and CI can run
     the whole suite parallel without threading a flag through every
     harness. *)
  let default_workers = from_env "OLSQ2_WORKERS" workers_of_env ~default:1

  (* The horizon-extension session is the default solve strategy: it
     reaches the same optima as the classic re-encode loop
     (test/test_parallel.ml and test/test_properties.ml assert the
     identity) at a fraction of the wall time, because horizon
     growth emits delta CNF and learnt clauses survive it.
     OLSQ2_INCREMENTAL=false restores the re-encode loop suite-wide, so
     CI can cross-check the two strategies without per-harness flags. *)
  let default_incremental = from_env "OLSQ2_INCREMENTAL" incremental_of_env ~default:true

  let default =
    {
      config = Config.default;
      budget = Budget.unlimited;
      certify = false;
      proof_file = None;
      parallel = { sequential with workers = default_workers };
      incremental = default_incremental;
      device = None;
      sat = Olsq2_sat.Tuning.default;
    }

  let with_config config t = { t with config }
  let with_simplify simplify t = { t with config = { t.config with Config.simplify } }
  let with_budget budget t = { t with budget }
  let with_certify ?(proof_file : string option) certify t = { t with certify; proof_file }
  let with_incremental incremental t = { t with incremental }
  let with_device device t = { t with device = Some device }
  let with_tuning sat t = { t with sat }

  let with_workers ?cube_depth workers t =
    {
      t with
      parallel =
        {
          workers = max 1 workers;
          cube_depth = (match cube_depth with Some _ -> cube_depth | None -> t.parallel.cube_depth);
        };
    }

  (* [Budget.control] is a runtime handle: ignored here, and skipped by
     the codec below. *)
  let equal a b =
    a.config = b.config
    && Budget.equal a.budget b.budget
    && a.certify = b.certify && a.proof_file = b.proof_file && a.parallel = b.parallel
    && a.incremental = b.incremental && a.device = b.device
    && Olsq2_sat.Tuning.equal a.sat b.sat

  (* ---- JSON codec (the serve daemon's wire format) ----

     One canonical options representation shared by the server, the CLI
     and the tests.  Nested string assocs ([Config.to_assoc],
     [Budget.to_assoc]) become JSON objects with typed values where the
     type is unambiguous (bools, numbers), so the wire format reads
     naturally; [of_assoc] accepts both typed and stringly values. *)

  module Json = Olsq2_obs.Obs.Json

  let string_assoc_to_json kvs =
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (bool_of_string_opt v, float_of_string_opt v) with
           | Some b, _ -> (k, Json.Bool b)
           | None, Some f -> (k, Json.Num f)
           | None, None -> (k, Json.Str v))
         kvs)

  (* Render a float the way [Budget.to_assoc] / [Config.to_assoc] parse
     it back; integers print without the trailing dot JSON dislikes. *)
  let json_value_to_string = function
    | Json.Bool b -> Some (string_of_bool b)
    | Json.Num f ->
      Some
        (if Float.is_integer f && Float.abs f < 1e15 then
           string_of_int (int_of_float f)
         else string_of_float f)
    | Json.Str s -> Some s
    | Json.Null | Json.Arr _ | Json.Obj _ -> None

  let json_to_string_assoc name j =
    match j with
    | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          Result.bind acc (fun acc ->
              match json_value_to_string v with
              | Some s -> Ok ((k, s) :: acc)
              | None -> Error (Printf.sprintf "%s.%s: expected a scalar value" name k)))
        (Ok []) kvs
      |> Result.map List.rev
    | _ -> Error (Printf.sprintf "%s: expected an object" name)

  let to_assoc t =
    [
      ("config", string_assoc_to_json (Config.to_assoc t.config));
      ("budget", string_assoc_to_json (Budget.to_assoc t.budget));
      ("certify", Json.Bool t.certify);
      ("proof_file", match t.proof_file with None -> Json.Null | Some f -> Json.Str f);
      ( "parallel",
        Json.Obj
          [
            ("workers", Json.Num (float_of_int t.parallel.workers));
            ( "cube_depth",
              match t.parallel.cube_depth with
              | None -> Json.Null
              | Some k -> Json.Num (float_of_int k) );
          ] );
      ("incremental", Json.Bool t.incremental);
      ("device", match t.device with None -> Json.Null | Some d -> Json.Str d);
      ("sat", string_assoc_to_json (Olsq2_sat.Tuning.to_assoc t.sat));
    ]

  let to_json t = Json.Obj (to_assoc t)

  (* An unknown key is an error naming it, so a misspelt or retired
     option is never a silent no-op. *)
  let check_keys name known kvs =
    match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
    | None -> Ok ()
    | Some (k, _) ->
      Error (Printf.sprintf "unknown %s key %S (known: %s)" name k (String.concat ", " known))

  (* Missing keys keep [default]'s value, so partial wire requests stay
     valid; [Null] means an explicit "unset". *)
  let of_assoc assoc =
    let ( let* ) r f = Result.bind r f in
    let* () = check_keys "options" (List.map fst (to_assoc default)) assoc in
    let find k = List.assoc_opt k assoc in
    let bool_field name default =
      match find name with
      | None | Some Json.Null -> Ok default
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error (Printf.sprintf "%s: expected a bool" name)
    in
    let* config =
      match find "config" with
      | None | Some Json.Null -> Ok default.config
      | Some j ->
        let* kvs = json_to_string_assoc "config" j in
        Config.of_assoc kvs
    in
    let* budget =
      match find "budget" with
      | None | Some Json.Null -> Ok Budget.unlimited
      | Some j ->
        let* kvs = json_to_string_assoc "budget" j in
        Budget.of_assoc kvs
    in
    let* certify = bool_field "certify" default.certify in
    let* proof_file =
      match find "proof_file" with
      | None | Some Json.Null -> Ok None
      | Some (Json.Str f) -> Ok (Some f)
      | Some _ -> Error "proof_file: expected a string or null"
    in
    let* parallel =
      match find "parallel" with
      | None | Some Json.Null -> Ok default.parallel
      | Some (Json.Obj kvs) ->
        let* () = check_keys "parallel" [ "workers"; "cube_depth" ] kvs in
        let pfind k = List.assoc_opt k kvs in
        let* workers =
          match pfind "workers" with
          | None | Some Json.Null -> Ok default.parallel.workers
          | Some (Json.Num f) when Float.is_integer f && f >= 1. -> Ok (int_of_float f)
          | Some _ -> Error "parallel.workers: expected a positive integer"
        in
        let* cube_depth =
          match pfind "cube_depth" with
          | None | Some Json.Null -> Ok None
          | Some (Json.Num f) when Float.is_integer f && f >= 0. -> Ok (Some (int_of_float f))
          | Some _ -> Error "parallel.cube_depth: expected a non-negative integer"
        in
        Ok { workers; cube_depth }
      | Some _ -> Error "parallel: expected an object"
    in
    let* incremental = bool_field "incremental" default.incremental in
    let* device =
      match find "device" with
      | None | Some Json.Null -> Ok None
      | Some (Json.Str d) -> Ok (Some d)
      | Some _ -> Error "device: expected a string or null"
    in
    let* sat =
      match find "sat" with
      | None | Some Json.Null -> Ok default.sat
      | Some j ->
        let* kvs = json_to_string_assoc "sat" j in
        Olsq2_sat.Tuning.of_assoc kvs
    in
    Ok { config; budget; certify; proof_file; parallel; incremental; device; sat }

  let of_json = function
    | Json.Obj assoc -> of_assoc assoc
    | _ -> Error "options: expected an object"
end

type objective = Optimizer.objective =
  | Depth
  | Swaps of { warm_start : int option }
  | Weighted_swaps of (int -> int)
  | Tb_blocks
  | Tb_swaps

let objective_name = function
  | Depth -> "depth"
  | Swaps _ -> "swaps"
  | Weighted_swaps _ -> "weighted_swaps"
  | Tb_blocks -> "tb_blocks"
  | Tb_swaps -> "tb_swaps"

(* ---- the plan: every decision a run makes, made here ---- *)

type oracle = Optimizer.oracle = Session | Classic | Transition_based

type certification = No_certificate | On_session | Classic_fallback of Config.t

type window = { ball : Window.ball option; reason : string }

type plan = {
  config : Config.t;
  oracle : oracle;
  workers : int;
  cube_depth : int option;
  certification : certification;
  proof_file : string option;
  window : window;
  overrides : (string * string) list;
}

let note cond field reason = if cond then [ (field, reason) ] else []

(* The config fields, other than symmetry, the session does not encode:
   it is a fixed one-hot ladder without preprocessing. *)
let session_mismatch config =
  let default = Config.to_assoc Config.default in
  List.filter_map
    (fun (k, v) ->
      if k = "symmetry" || List.assoc k default = v then None else Some (k ^ "=" ^ v))
    (Config.to_assoc config)

(* A device of more than 2 |Q| qubits is solved first on the BFS ball of
   2 |Q| of them (smaller balls are no faster: finding a long path in a
   tight ball is hard for the solver).  TB-OLSQ2 has no depth bound to
   meet, so it never windows. *)
let window_of ~certification objective (instance : Instance.t) =
  let size = 2 * Instance.num_qubits instance and physical = Instance.num_physical instance in
  match objective with
  | Tb_blocks | Tb_swaps ->
    { ball = None; reason = "TB objectives solve on the full device: no depth bound to meet" }
  | (Depth | Swaps _ | Weighted_swaps _) when size >= physical ->
    {
      ball = None;
      reason = Printf.sprintf "2*|Q| = %d is not below the %d physical qubits" size physical;
    }
  | Depth | Swaps _ | Weighted_swaps _ ->
    let ball = Window.ball instance.Instance.device ~size in
    {
      ball = Some ball;
      reason =
        Printf.sprintf
          "2*|Q| = %d < %d physical qubits: solved first on the %d-qubit BFS ball around \
           vertex %d, kept if it meets the depth lower bound%s%s"
          size physical size ball.Window.root
          (match objective with Depth -> "" | _ -> " with no SWAP cost")
          (match certification with
          | No_certificate -> ""
          | On_session | Classic_fallback _ ->
            "; a kept answer is certified by the dependency chain, with no DRAT proof");
    }

let plan (options : Options.t) objective (instance : Instance.t) =
  let asked = options.Options.config in
  let config, config_notes =
    match objective with
    | Tb_blocks | Tb_swaps ->
      ( {
          asked with
          Config.symmetry = false;
          simplify = false;
          formulation = Config.default.Config.formulation;
        },
        List.concat
          [
            note asked.Config.symmetry "symmetry" "ignored: TB-OLSQ2 has no symmetry breaking";
            note asked.Config.simplify "simplify" "ignored: TB-OLSQ2 does not preprocess";
            note
              (asked.Config.formulation <> Config.default.Config.formulation)
              "formulation" "ignored: TB-OLSQ2 has its own transition formulation";
          ] )
    | Weighted_swaps _ ->
      ( { asked with Config.symmetry = false },
        note asked.Config.symmetry "symmetry"
          "off for weighted SWAPs: orbit members can carry different weights" )
    | Depth | Swaps _ -> (asked, [])
  in
  let oracle, oracle_notes =
    match (objective, options.Options.incremental, session_mismatch config) with
    | (Tb_blocks | Tb_swaps), incremental, _ ->
      ( Transition_based,
        note incremental "incremental" "ignored: TB-OLSQ2 rebuilds its encoding per block count" )
    | (Depth | Swaps _ | Weighted_swaps _), false, _ -> (Classic, [])
    | (Depth | Swaps _ | Weighted_swaps _), true, [] -> (Session, [])
    | (Depth | Swaps _ | Weighted_swaps _), true, arms ->
      ( Classic,
        [ ("incremental", "session replaced by the classic encoder: " ^ String.concat ", " arms) ] )
  in
  let asked_workers = options.Options.parallel.Options.workers in
  let workers, pool_notes =
    match config.Config.var_encoding with
    | Config.Lazy_int when asked_workers > 1 ->
      (1, [ ("workers", "the lazy-int arm is not pool-capable: solved sequentially") ])
    | Config.Lazy_int | Config.Onehot | Config.Binary -> (asked_workers, [])
  in
  let asked_cube_depth = options.Options.parallel.Options.cube_depth in
  let cube_depth = if workers > 1 then asked_cube_depth else None in
  let certification, cert_notes =
    match (options.Options.certify, objective) with
    | false, _ -> (No_certificate, [])
    | true, Weighted_swaps _ ->
      (No_certificate, [ ("certify", "no certificate for weighted SWAPs: no CNF bound to refute") ])
    | true, (Tb_blocks | Tb_swaps) ->
      (No_certificate, [ ("certify", "no certificate for TB objectives: no CNF bound to refute") ])
    | true, (Depth | Swaps _) -> (
      let fallback = "certified by a classic re-solve: " in
      match
        List.concat
          [
            note config.Config.symmetry "symmetry"
              (fallback ^ "the checker cannot lift a refutation of the orbit-restricted formula");
            note (workers > 1) "workers" (fallback ^ "pool queries are not proof-logged");
            note (oracle = Classic) "certify" (fallback ^ "only the session is certified in place");
          ]
      with
      | [] -> (On_session, [])
      | reasons -> (Classic_fallback (Certificate.pure_sat_config config), reasons))
  in
  let proof_file =
    match certification with
    | No_certificate -> None
    | On_session | Classic_fallback _ -> options.Options.proof_file
  in
  {
    config;
    oracle;
    workers;
    cube_depth;
    certification;
    proof_file;
    window = window_of ~certification objective instance;
    overrides =
      List.concat
        [
          config_notes;
          oracle_notes;
          pool_notes;
          note (asked_cube_depth <> cube_depth) "cube_depth" "ignored at workers=1";
          cert_notes;
          note
            (options.Options.proof_file <> proof_file)
            "proof_file"
            (if options.Options.certify then "ignored: no certificate is built"
             else "ignored without certify");
        ];
  }

(* ---- running a plan ---- *)

type stop = Optimal | Budget_spent of int option | Interrupted | No_solution

type window_outcome = Accepted | Missed of string

type report = {
  result : Result_.t option;
  optimal : bool;
  iterations : int;
  seconds : float;
  pareto : (int * int) list;
  trace : Obs.summary;
  solver_stats : Olsq2_sat.Solver.stats;
  iter_stats : Optimizer.iter_stat list;
  certificate : Certificate.t option;
  plan : plan;
  stop : stop;
  window : window_outcome option;
}

(* An unknown verdict means a solve ran out of budget (the global caps
   or the per-bound one); a run that ends unproved without one found
   nothing to prove. *)
let stop_of ~budget (o : Optimizer.outcome) =
  let spent =
    Budget.exhausted budget
    || List.exists
         (fun (it : Optimizer.iter_stat) ->
           String.starts_with ~prefix:"unknown" it.Optimizer.iter_verdict)
         o.Optimizer.iter_stats
  in
  if o.Optimizer.optimal then Optimal
  else if Budget.interrupted budget then Interrupted
  else if o.Optimizer.result = None && not spent then No_solution
  else
    Budget_spent
      (match List.rev o.Optimizer.iter_stats with
      | it :: _ -> Some it.Optimizer.iter_bound
      | [] -> None)

(* The session path checks the refutation [optimize] left in the sink;
   the classic fallback refutes the bound below the optimum on a fresh
   proof-logged pure-CNF encoder, under what is left of the run's budget
   and attached to its preemption control.  An accepted window answer
   meets the dependency chain, which is its certificate. *)
let certify plan ~budget ~sink ~window ~objective instance (o : Optimizer.outcome) =
  let proof_file = plan.proof_file in
  match (plan.certification, sink, o.Optimizer.result) with
  | No_certificate, _, _ -> None
  | (On_session | Classic_fallback _), _, Some res when window = Some Accepted ->
    Option.map
      (fun (claim, optimum) -> Certificate.chain instance res claim ~optimum)
      (Optimizer.certified_claim objective res)
  | On_session, Some sink, Some res ->
    Option.map (Certificate.finish ?proof_file ~sink instance res) o.Optimizer.refutation
  | Classic_fallback config, _, Some res when o.Optimizer.optimal -> (
    match Optimizer.certified_claim objective res with
    | Some (Certificate.Depth, depth) ->
      Some (Certificate.certify_depth ~config ~budget ?proof_file instance res ~depth)
    | Some (Certificate.Swaps_at_depth depth, swaps) ->
      Some (Certificate.certify_swaps ~config ~budget ?proof_file instance res ~depth ~swaps)
    | None -> None)
  | (On_session | Classic_fallback _), _, _ -> None

(* The window attempt, in an [opt.window] span: one query at the depth
   lower bound on the induced sub-device (SWAP weights read through its
   edge map), the answer lifted to the device and kept only if it meets
   the bound and validates on the full device. *)
let try_window plan ~budget ?pool ~objective instance (ball : Window.ball) =
  Obs.with_span (Obs.global ()) "opt.window"
    ~attrs:[ ("qubits", Obs.Int (Array.length ball.Window.vertices)) ]
  @@ fun () ->
  let w = Window.restrict instance ball in
  let on_window =
    match objective with
    | Weighted_swaps weights -> Weighted_swaps (fun e -> weights w.Window.edges.(e))
    | Depth | Swaps _ | Tb_blocks | Tb_swaps -> objective
  in
  let o =
    Optimizer.at_lower_bound ~config:plan.config ~oracle:plan.oracle ~budget ?pool on_window
      w.Window.instance
  in
  let t_lb = Optimizer.depth_floor instance in
  let verdict =
    match o.Optimizer.result with
    | None ->
      let verdict =
        String.concat ", " (List.map (fun it -> it.Optimizer.iter_verdict) o.Optimizer.iter_stats)
      in
      Error
        (if verdict = "unsat" then
           Printf.sprintf "no layout of depth %d%s on the window" t_lb
             (match objective with Depth -> "" | _ -> " without SWAP cost")
         else "window query " ^ verdict)
    | Some r -> (
      let lifted = Window.lift w r in
      let cost =
        match objective with
        | Depth | Tb_blocks | Tb_swaps -> 0
        | Swaps _ -> lifted.Result_.swap_count
        | Weighted_swaps weights ->
          Optimizer.weighted_cost instance.Instance.device ~weights lifted
      in
      if lifted.Result_.depth <> t_lb then
        Error (Printf.sprintf "depth %d is above the lower bound %d" lifted.Result_.depth t_lb)
      else if cost <> 0 then Error (Printf.sprintf "SWAP cost %d is above 0" cost)
      else
        match Validate.check instance lifted with
        | [] -> Ok lifted
        | v :: _ -> Error ("fails validation on the device: " ^ Validate.violation_to_string v))
  in
  match verdict with
  | Ok lifted -> (Accepted, { o with Optimizer.result = Some lifted })
  | Error reason -> (Missed reason, o)

(* A missed window's effort counts towards the run that follows it. *)
let after_window (w : Optimizer.outcome) (o : Optimizer.outcome) =
  let stats = Olsq2_sat.Solver.stats_zero () in
  Olsq2_sat.Solver.stats_add ~into:stats w.Optimizer.stats;
  Olsq2_sat.Solver.stats_add ~into:stats o.Optimizer.stats;
  {
    o with
    Optimizer.iterations = w.Optimizer.iterations + o.Optimizer.iterations;
    total_seconds = w.Optimizer.total_seconds +. o.Optimizer.total_seconds;
    stats;
    iter_stats = w.Optimizer.iter_stats @ o.Optimizer.iter_stats;
  }

let run ?(options = Options.default) ~objective instance =
  let plan = plan options objective instance in
  let budget = Budget.start options.Options.budget in
  Olsq2_sat.Tuning.with_ambient options.Options.sat @@ fun () ->
  (* The pool parallelizes single bound queries (cube-and-conquer over
     worker domains); it is created per run and passed down so every
     refinement loop can route its hard queries through it. *)
  let pool =
    if plan.workers > 1 then
      Some
        (Pool.create ~workers:plan.workers ?cube_depth:plan.cube_depth
           ~tuning:options.Options.sat ())
    else None
  in
  let obs = Obs.global () in
  let since = if Obs.enabled obs then Some (Obs.elapsed obs) else None in
  (* the full-device run; the session is proof-logged only here, never
     on a window *)
  let full () =
    let sink =
      match plan.certification with
      | On_session -> Some (Drat.create ())
      | No_certificate | Classic_fallback _ -> None
    in
    ( Optimizer.optimize ~config:plan.config ~oracle:plan.oracle ~budget ?pool
        ?proof:(Option.map Drat.logger sink) objective instance,
      sink )
  in
  let (outcome, sink), window =
    Obs.with_span obs ("synthesis." ^ objective_name objective) (fun () ->
        match plan.window.ball with
        | None -> (full (), None)
        | Some ball -> (
          match try_window plan ~budget ?pool ~objective instance ball with
          | Accepted, o -> ((o, None), Some Accepted)
          | (Missed _ as missed), w ->
            let o, sink = full () in
            ((after_window w o, sink), Some missed)))
  in
  let stop = stop_of ~budget outcome in
  (* The check runs here, after [optimize] returned: the session's solver
     is garbage by now, so it and the checker's clause database are never
     alive together. *)
  let certificate = certify plan ~budget ~sink ~window ~objective instance outcome in
  {
    result = outcome.Optimizer.result;
    optimal = outcome.Optimizer.optimal;
    iterations = outcome.Optimizer.iterations;
    seconds = outcome.Optimizer.total_seconds;
    pareto = outcome.Optimizer.pareto;
    trace = (if Obs.enabled obs then Obs.summary ?since obs else Obs.empty_summary);
    solver_stats = outcome.Optimizer.stats;
    iter_stats = outcome.Optimizer.iter_stats;
    certificate;
    plan;
    stop;
    window;
  }

(* An accepted window is certified by the dependency chain, which has
   no DRAT proof, so the plan's proof file is not written. *)
let proof_note r =
  match (r.window, r.plan.proof_file) with
  | Some Accepted, Some file ->
    Some
      (Printf.sprintf
         "proof file %s not written: the window's answer is certified by the dependency chain, \
          which has no DRAT proof"
         file)
  | (None | Some (Accepted | Missed _)), _ -> None

(* The build this process runs, stamped into the environment at build or
   deploy time (CI exports the workflow SHA); [None] when unset. *)
let build_commit () =
  match Sys.getenv_opt "OLSQ2_BUILD_COMMIT" with
  | Some c when c <> "" -> Some c
  | Some _ | None -> None

(* ---- the run record ---- *)

let oracle_name = function
  | Session -> "session"
  | Classic -> "classic"
  | Transition_based -> "transition_based"

let certification_name = function
  | No_certificate -> "no_certificate"
  | On_session -> "on_session"
  | Classic_fallback _ -> "classic_fallback"

let stop_name = function
  | Optimal -> "optimal"
  | Budget_spent _ -> "budget_spent"
  | Interrupted -> "interrupted"
  | No_solution -> "no_solution"

let stop_to_string = function
  | Budget_spent (Some bound) -> Printf.sprintf "budget_spent (last bound %d)" bound
  | stop -> stop_name stop

let window_to_string = function
  | None -> "not tried"
  | Some Accepted -> "accepted"
  | Some (Missed reason) -> "missed (" ^ reason ^ ")"

let pp_plan fmt p =
  Format.fprintf fmt "@[<v>plan: oracle=%s config=%s symmetry=%b simplify=%b workers=%d%s@,"
    (oracle_name p.oracle) (Config.name p.config) p.config.Config.symmetry p.config.Config.simplify
    p.workers
    (match p.cube_depth with Some k -> Printf.sprintf " cube_depth=%d" k | None -> "");
  Format.fprintf fmt "certification: %s%s@," (certification_name p.certification)
    (match p.certification with
    | Classic_fallback c -> " (" ^ Config.name c ^ ")"
    | No_certificate | On_session -> "");
  Format.fprintf fmt "window: %s" p.window.reason;
  List.iter
    (fun (field, reason) -> Format.fprintf fmt "@,override %s: %s" field reason)
    p.overrides;
  Format.fprintf fmt "@]"

module Json = Obs.Json

let num_int n = Json.Num (float_of_int n)
let opt_json f = function None -> Json.Null | Some x -> f x
let config_json config = Options.string_assoc_to_json (Config.to_assoc config)

let plan_to_json p =
  Json.Obj
    [
      ("config", config_json p.config);
      ("oracle", Json.Str (oracle_name p.oracle));
      ("workers", num_int p.workers);
      ("cube_depth", opt_json num_int p.cube_depth);
      ( "certification",
        Json.Obj
          (("kind", Json.Str (certification_name p.certification))
          ::
          (match p.certification with
          | Classic_fallback c -> [ ("config", config_json c) ]
          | No_certificate | On_session -> [])) );
      ("proof_file", opt_json (fun f -> Json.Str f) p.proof_file);
      ( "window",
        Json.Obj
          [
            ( "qubits",
              opt_json (fun (b : Window.ball) -> num_int (Array.length b.Window.vertices)) p.window.ball
            );
            ("root", opt_json (fun (b : Window.ball) -> num_int b.Window.root) p.window.ball);
            ("reason", Json.Str p.window.reason);
          ] );
      ( "overrides",
        Json.Arr
          (List.map
             (fun (field, reason) ->
               Json.Obj [ ("field", Json.Str field); ("reason", Json.Str reason) ])
             p.overrides) );
    ]

let stop_to_json stop =
  Json.Obj
    (("reason", Json.Str (stop_name stop))
    ::
    (match stop with
    | Budget_spent bound -> [ ("last_bound", opt_json num_int bound) ]
    | Optimal | Interrupted | No_solution -> []))

let solver_stats_to_json (s : Olsq2_sat.Solver.stats) =
  let open Olsq2_sat.Solver in
  Json.Obj
    [
      ("conflicts", num_int s.conflicts);
      ("decisions", num_int s.decisions);
      ("propagations", num_int s.propagations);
      ("restarts", num_int s.restarts);
      ("learnt_clauses", num_int s.learnt_clauses);
      ("removed_clauses", num_int s.removed_clauses);
      ("solves", num_int s.solves);
      ("solve_seconds", Json.Num s.solve_seconds);
      ("propagate_seconds", Json.Num s.propagate_seconds);
      ("analyze_seconds", Json.Num s.analyze_seconds);
      ("reduce_seconds", Json.Num s.reduce_seconds);
      ("restart_seconds", Json.Num s.restart_seconds);
      ("vivify_seconds", Json.Num s.vivify_seconds);
    ]

let iter_stat_to_json (it : Optimizer.iter_stat) =
  Json.Obj
    [
      ("phase", Json.Str it.Optimizer.iter_phase);
      ("bound", num_int it.Optimizer.iter_bound);
      ("verdict", Json.Str it.Optimizer.iter_verdict);
      ("seconds", Json.Num it.Optimizer.iter_seconds);
      ("conflicts", num_int it.Optimizer.iter_stats.Olsq2_sat.Solver.conflicts);
      ("propagations", num_int it.Optimizer.iter_stats.Olsq2_sat.Solver.propagations);
    ]

let certificate_to_json (c : Certificate.t) =
  Json.Obj
    [
      ("valid", Json.Bool (Certificate.valid c));
      ("objective", Json.Str (Certificate.objective_to_string c.Certificate.objective));
      ("optimum", num_int c.Certificate.optimum);
      ( "formula",
        Json.Str
          (match c.Certificate.formula with
          | Certificate.Session -> "session"
          | Certificate.Classic _ -> "classic"
          | Certificate.Chain -> "chain") );
      ( "formula_config",
        match c.Certificate.formula with
        | Certificate.Session | Certificate.Chain -> Json.Null
        | Certificate.Classic config -> config_json config );
      ("model_valid", Json.Bool c.Certificate.model_valid);
      ( "lower_bound",
        opt_json
          (fun (lb : Certificate.lower_bound) ->
            Json.Obj
              [
                ("bound", num_int lb.Certificate.bound);
                ("accepted", Json.Bool lb.Certificate.accepted);
                ("detail", Json.Str lb.Certificate.detail);
                ( "lemmas_checked",
                  opt_json
                    (fun (pc : Certificate.proof_check) -> num_int pc.Certificate.lemmas_checked)
                    lb.Certificate.check );
              ])
          c.Certificate.lower_bound );
      ("seconds", Json.Num c.Certificate.seconds);
    ]

(* An enabled tracer always records at least the run's own span. *)
let trace_to_json (s : Obs.summary) =
  if s.Obs.events_recorded = 0 then Json.Null
  else
    Json.Obj
      [
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, num_int v)) s.Obs.counters));
        ( "spans",
          Json.Obj
            (List.map
               (fun (k, (st : Obs.span_stat)) ->
                 ( k,
                   Json.Obj
                     [
                       ("calls", num_int st.Obs.calls);
                       ("total_seconds", Json.Num st.Obs.total_seconds);
                       ("max_seconds", Json.Num st.Obs.max_seconds);
                     ] ))
               s.Obs.span_stats) );
      ]

let report_to_json ~options ~objective r =
  Json.Obj
    [
      ("objective", Json.Str (objective_name objective));
      ("options", Options.to_json options);
      ("plan", plan_to_json r.plan);
      ("stop", stop_to_json r.stop);
      ( "window",
        opt_json
          (fun w ->
            Json.Obj
              (match w with
              | Accepted ->
                ("outcome", Json.Str "accepted")
                ::
                (match proof_note r with
                | Some note -> [ ("proof_file", Json.Null); ("proof_note", Json.Str note) ]
                | None -> [])
              | Missed reason -> [ ("outcome", Json.Str "missed"); ("reason", Json.Str reason) ]))
          r.window );
      ("optimal", Json.Bool r.optimal);
      ("iterations", num_int r.iterations);
      ("seconds", Json.Num r.seconds);
      ("pareto", Json.Arr (List.map (fun (a, b) -> Json.Arr [ num_int a; num_int b ]) r.pareto));
      ("iter_stats", Json.Arr (List.map iter_stat_to_json r.iter_stats));
      ("solver_stats", solver_stats_to_json r.solver_stats);
      ("certificate", opt_json certificate_to_json r.certificate);
      ("trace", trace_to_json r.trace);
      ( "env",
        Json.Obj (List.map (fun (k, v) -> (k, opt_json (fun s -> Json.Str s) v)) Options.env) );
      ("build_commit", opt_json (fun c -> Json.Str c) (build_commit ()));
    ]
