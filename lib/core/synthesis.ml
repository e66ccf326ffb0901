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
    simplify : bool option;
    budget : Budget.t;
    certify : bool;
    proof_file : string option;
    parallel : parallel;
    incremental : bool;
        (* solve depth/SWAP objectives on one persistent
           horizon-extension session (lib/incremental) instead of
           re-encoding per horizon, unless the config needs the classic
           encoder (see [run]); TB objectives ignore it *)
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

  let from_env name parse ~default =
    match Sys.getenv_opt name with
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
      simplify = None;
      budget = Budget.unlimited;
      certify = false;
      proof_file = None;
      parallel = { sequential with workers = default_workers };
      incremental = default_incremental;
      device = None;
      sat = Olsq2_sat.Tuning.default;
    }

  let with_config config t = { t with config }
  let with_simplify simplify t = { t with simplify = Some simplify }
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
    a.config = b.config && a.simplify = b.simplify
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
      ("simplify", match t.simplify with None -> Json.Null | Some b -> Json.Bool b);
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
    let* simplify =
      match find "simplify" with
      | None | Some Json.Null -> Ok None
      | Some (Json.Bool b) -> Ok (Some b)
      | Some _ -> Error "simplify: expected a bool or null"
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
    Ok { config; simplify; budget; certify; proof_file; parallel; incremental; device; sat }

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
}

let objective_name = function
  | Depth -> "depth"
  | Swaps _ -> "swaps"
  | Weighted_swaps _ -> "weighted_swaps"
  | Tb_blocks -> "tb_blocks"
  | Tb_swaps -> "tb_swaps"

let of_outcome (o : Optimizer.outcome) ~trace =
  {
    result = o.Optimizer.result;
    optimal = o.Optimizer.optimal;
    iterations = o.Optimizer.iterations;
    seconds = o.Optimizer.total_seconds;
    pareto = o.Optimizer.pareto;
    trace;
    solver_stats = o.Optimizer.stats;
    iter_stats = o.Optimizer.iter_stats;
    certificate = None;
  }

(* The classic fallback: a fresh proof-logged pure-CNF encoder refutes
   the bound below the run's optimum, under what is left of the run's
   budget and attached to its preemption control. *)
let certificate_for ~config ~budget ~objective ~proof_file (report : report) instance =
  match report.result with
  | Some res when report.optimal -> (
    match Optimizer.certified_claim objective res with
    | Some (Certificate.Depth, depth) ->
      Some (Certificate.certify_depth ~config ~budget ?proof_file instance res ~depth)
    | Some (Certificate.Swaps_at_depth depth, swaps) ->
      Some (Certificate.certify_swaps ~config ~budget ?proof_file instance res ~depth ~swaps)
    | None -> None)
  | Some _ | None -> None

let run ?(options = Options.default) ~objective instance =
  (* [simplify] overrides the config's flag, so callers can toggle
     preprocessing without assembling a Config by hand; the override also
     reaches the certification fallback below through [config]. *)
  let config =
    match options.Options.simplify with
    | None -> options.Options.config
    | Some b -> { options.Options.config with Config.simplify = b }
  in
  let budget = Budget.start options.Options.budget in
  let par = options.Options.parallel in
  Olsq2_sat.Tuning.with_ambient options.Options.sat @@ fun () ->
  (* The pool parallelizes single bound queries (cube-and-conquer over
     worker domains); it is created per run and passed down so every
     refinement loop can route its hard queries through it. *)
  let pool =
    if par.Options.workers > 1 then
      Some
        (Pool.create ~workers:par.Options.workers ?cube_depth:par.Options.cube_depth
           ~tuning:options.Options.sat ())
    else None
  in
  let obs = Obs.global () in
  let since = if Obs.enabled obs then Some (Obs.elapsed obs) else None in
  (* The one place the bound oracle is picked.  The session is a fixed
     one-hot ladder encoding without preprocessing, so a run that asks
     for simplification or a non-default encoding arm goes to the classic
     encoder, which honours them; [symmetry] applies to both. *)
  let incremental =
    options.Options.incremental
    && { config with Config.symmetry = Config.default.Config.symmetry } = Config.default
  in
  (* Certification on the session proof-logs it from its first clause
     and refutes the bound below the optimum on the same solver.  The
     checker replays a plain CNF log: orbit-restricted formulas and
     pool-solved queries (Pool.solve refuses proof-logging masters) go
     to the classic fallback instead. *)
  let sink =
    match objective with
    | (Depth | Swaps _)
      when options.Options.certify && incremental && pool = None && not config.Config.symmetry ->
      Some (Drat.create ())
    | Depth | Swaps _ | Weighted_swaps _ | Tb_blocks | Tb_swaps -> None
  in
  let outcome =
    Obs.with_span obs ("synthesis." ^ objective_name objective) (fun () ->
        Optimizer.optimize ~config ~incremental ~budget ?pool
          ?proof:(Option.map Drat.logger sink) objective instance)
  in
  let report = of_outcome outcome ~trace:Obs.empty_summary in
  (* The check runs here, after [optimize] returned: the session's solver
     is garbage by now, so it and the checker's clause database are never
     alive together. *)
  let proof_file = options.Options.proof_file in
  let certificate =
    match (options.Options.certify, sink) with
    | false, _ -> None
    | true, Some sink -> (
      match (outcome.Optimizer.refutation, report.result) with
      | Some r, Some res -> Some (Certificate.finish ?proof_file ~sink instance res r)
      | Some _, None | None, _ -> None)
    | true, None -> certificate_for ~config ~budget ~objective ~proof_file report instance
  in
  let trace = if Obs.enabled obs then Obs.summary ?since obs else Obs.empty_summary in
  { report with trace; certificate }
