(* The OLSQ2 benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --seed N --list

   Builds the workload's inputs from the seed, runs them through the
   public entry points for about [S] seconds (a number of passes fixed by
   [S], see [Batch.pass_count]), checks every answer against its
   reference, and prints one JSON object as the last line of standard
   output: the end-to-end metrics with [--trace 0], the per-layer ledger
   with [--trace 1].  Exits 1 when any answer is wrong.  [--list] prints
   the generated instance list without solving.  README.md describes the
   workloads and metrics. *)

module Obs = Olsq2_obs.Obs
module Synthesis = Olsq2_core.Synthesis
module Known = Olsq2_evalbench.Known

(* [pass_seconds]: the nominal time of one untraced pass over a batch
   workload's inputs (serve-mixed: one round of its request stream),
   measured on a 2-vCPU x86-64 VM; it fixes how many passes [--seconds]
   buys. *)
type workload = { name : string; certify : bool; sources : Gen.source list option; pass_seconds : float }

let workloads =
  [
    { name = "wide-depth"; certify = false; sources = Some Gen.wide_depth; pass_seconds = 5.0 };
    { name = "deep-search"; certify = false; sources = Some Gen.deep_search; pass_seconds = 4.0 };
    { name = "certify"; certify = true; sources = Some Gen.certify; pass_seconds = 3.5 };
    { name = "serve-mixed"; certify = false; sources = None; pass_seconds = 7.0 };
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N (--seconds S --trace 0|1 | --list)\n\
     workloads: wide-depth deep-search certify serve-mixed";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool; list : bool }

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--list" :: rest -> go { a with list = true } rest
    | [] -> a
    | _ -> usage ()
  in
  try go { workload = ""; seed = 0; seconds = 10.0; trace = false; list = false } (List.tl (Array.to_list Sys.argv))
  with Failure _ -> usage ()

(* The numbers must measure the library defaults, which these variables
   change. *)
let guard_environment () =
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then begin
        Printf.eprintf "perfbench: refusing to run with %s set; unset it to measure the library defaults\n" var;
        exit 2
      end)
    [ "OLSQ2_WORKERS"; "OLSQ2_INCREMENTAL" ]

(* Set-up is repeated and its median reported, so a change that moves
   work into set-up shows up in [setup_s]. *)
let setup_repeats = 21

let timed_setup ?(discard = ignore) f =
  let rec go k times =
    Hashtbl.reset Gen.devices;
    let t0 = Stats.now () in
    let x = f () in
    let times = (Stats.now () -. t0) :: times in
    if k = 1 then (Stats.median times, x)
    else begin
      discard x;
      go (k - 1) times
    end
  in
  go setup_repeats []

let print_metrics ~correct ~attempted ~failed metrics =
  print_endline (Stats.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let ledger_metrics ledger = List.map (fun (name, unit_, v) -> Stats.metric name unit_ v) ledger

let zeros names = List.map (fun (name, unit_) -> (name, unit_, 0.0)) names

let serve_names =
  [
    ("serve.parse_s", "s");
    ("serve.queue_p50_s", "s");
    ("serve.queue_p99_s", "s");
    ("serve.solve_s", "s");
    ("serve.overhead_p50_s", "s");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.failures", "count");
  ]

let trace_rows ~untraced ~traced =
  [ ("trace.wall_s", "s", traced); ("trace.overhead_s", "s", traced -. untraced) ]

(* ---- batch workloads ---- *)

let report_failures (outcomes : Batch.outcome list) =
  List.iter
    (fun (o : Batch.outcome) ->
      Printf.eprintf "perfbench: %s failed: %s\n" o.Batch.item.Gen.name (Option.get o.Batch.error))
    outcomes

(* One line per answer of a pass, in a fixed order: what the
   determinism test compares across processes. *)
let print_answers (p : Batch.pass) =
  List.iter
    (fun (o : Batch.outcome) ->
      Printf.printf "answer %s %s=%s reference=%s\n" o.Batch.item.Gen.name
        (Gen.objective_name o.Batch.item.Gen.objective)
        (match o.Batch.found with Some v -> string_of_int v | None -> "none")
        (Known.bound_to_string o.Batch.item.Gen.reference))
    p.Batch.outcomes

let run_batch args (w : workload) sources =
  let options = Synthesis.Options.(default |> with_certify w.certify) in
  Printf.printf "options %s\n" (Obs.Json.to_string (Synthesis.Options.to_json options));
  let setup_s, items = timed_setup (fun () -> Gen.items ~seed:args.seed sources) in
  let certify = w.certify in
  let count = Batch.pass_count ~seconds:args.seconds ~pass_seconds:w.pass_seconds in
  if not args.trace then begin
    let passes = List.init count (fun _ -> Batch.run_pass ~options ~certify items) in
    print_answers (List.hd passes);
    let failed = Batch.failures passes in
    report_failures failed;
    let attempted = List.length passes * List.length items in
    print_metrics ~correct:(failed = []) ~attempted ~failed:(List.length failed)
      (Batch.end_to_end ~setup_s passes)
  end
  else begin
    (* a warm-up pass, the traced passes, then the untraced baseline of
       the tracing overhead, measured warm like the traced ones: as many
       passes in all as an untraced run makes, and at least three *)
    let warmup = Batch.run_pass ~options ~certify items in
    let traced = List.init (max 1 (count - 2)) (fun _ -> Batch.traced_pass ~options ~certify items) in
    let untraced = Batch.run_pass ~options ~certify items in
    let passes = (warmup :: List.map fst traced) @ [ untraced ] in
    print_answers warmup;
    let ledger = Layers.median_of_passes (List.map snd traced) in
    let traced_wall = Stats.median (List.map (fun (p, _) -> p.Batch.wall) traced) in
    let coverage = List.find (fun (n, _, _) -> n = "ledger.coverage") ledger |> fun (_, _, v) -> v in
    if coverage < 0.95 then
      Printf.eprintf "perfbench: ledger covers %.1f%% of traced wall time (< 95%%)\n" (100.0 *. coverage);
    let failed = Batch.failures passes in
    report_failures failed;
    let attempted = List.length passes * List.length items in
    print_metrics
      ~correct:(failed = [] && coverage >= 0.95)
      ~attempted ~failed:(List.length failed)
      (ledger_metrics
         (ledger @ zeros serve_names @ trace_rows ~untraced:untraced.Batch.wall ~traced:traced_wall))
  end

(* ---- serve-mixed ---- *)

let run_serve args (w : workload) =
  Printf.printf "options %s\n"
    (Obs.Json.to_string (Synthesis.Options.to_json Olsq2_serve.Server.default_config.default_options));
  let rounds = Batch.pass_count ~seconds:args.seconds ~pass_seconds:w.pass_seconds in
  let requests = ref [||] in
  let setup_s, server =
    timed_setup ~discard:Olsq2_serve.Server.stop (fun () ->
        requests := Serve_load.schedule ~seed:args.seed;
        Serve_load.start ())
  in
  (* one round: the stream, on [server] or a fresh daemon *)
  let round server =
    let p = Serve_load.load ~server !requests in
    Olsq2_serve.Server.stop server;
    p
  in
  let finish phases ~metrics =
    let checked = List.concat_map Serve_load.check_all phases in
    let failed = List.filter (fun (_, c) -> Result.is_error c) checked in
    List.iteri
      (fun i (_, c) -> match c with Error m when i < 10 -> Printf.eprintf "perfbench: request failed: %s\n" m | _ -> ())
      failed;
    print_metrics ~correct:(failed = []) ~attempted:(List.length checked) ~failed:(List.length failed)
      (metrics checked)
  in
  if not args.trace then begin
    let first = round server in
    let heap_mb = Stats.peak_heap_mb () in
    let phases = first :: List.init (rounds - 1) (fun _ -> round (Serve_load.start ())) in
    finish phases ~metrics:(fun _ -> Serve_load.end_to_end ~setup_s ~heap_mb phases)
  end
  else begin
    (* a round untraced, then one on a fresh daemon that records into
       the benchmark's tracer *)
    let untraced = round server in
    let obs = Obs.create ~capacity:4_000_000 () in
    Obs.set_global obs;
    let g0 = Gc.quick_stat () in
    let traced = round (Serve_load.start ()) in
    let g1 = Gc.quick_stat () in
    Obs.set_global Obs.disabled;
    let per_k p = Serve_load.per_thousand p p.Serve_load.wall in
    let ledger =
      Layers.of_pass
        {
          Layers.wall = traced.Serve_load.wall;
          events = Obs.events obs;
          reports = [];
          minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
    in
    finish [ untraced; traced ] ~metrics:(fun checked ->
        let traced_checked =
          List.filteri (fun i _ -> i >= List.length untraced.Serve_load.answers) checked
        in
        ledger_metrics
          (ledger
          @ Serve_load.serve_layer traced traced_checked
          @ trace_rows ~untraced:(per_k untraced) ~traced:(per_k traced)))
  end

(* ---- listing ---- *)

let list_batch args (w : workload) sources =
  let options = Synthesis.Options.(default |> with_certify w.certify) in
  Printf.printf "workload %s seed %d\noptions %s\n" w.name args.seed
    (Obs.Json.to_string (Synthesis.Options.to_json options));
  Printf.printf "%-36s %-14s %7s %9s %-6s %s\n" "name" "device" "qubits" "physical" "obj" "reference";
  List.iter
    (fun (it : Gen.item) ->
      Printf.printf "%-36s %-14s %7d %9d %-6s %s\n" it.Gen.name it.Gen.device_name it.Gen.num_qubits
        it.Gen.device.Olsq2_device.Coupling.num_qubits (Gen.objective_name it.Gen.objective)
        (Known.bound_to_string it.Gen.reference))
    (Gen.items ~seed:args.seed sources)

let list_serve args (w : workload) =
  let rounds = Batch.pass_count ~seconds:args.seconds ~pass_seconds:w.pass_seconds in
  Printf.printf "workload serve-mixed seed %d\n" args.seed;
  let requests = Serve_load.schedule ~seed:args.seed in
  let fresh = Array.fold_left (fun n (r : Serve_load.request) -> if r.Serve_load.fresh then n + 1 else n) 0 requests in
  Printf.printf
    "stream of %d requests on %s (depth objective), sent in %d rounds, each to a fresh daemon: \
     %d fresh problems (QUEKO d%d/g%d, reference depth %d), the rest exact or relabelled repeats\n"
    (Array.length requests) Serve_load.device_name rounds fresh Serve_load.fresh_depth Serve_load.fresh_gates
    Serve_load.fresh_depth

let () =
  let args = parse_args () in
  let w =
    match List.find_opt (fun w -> w.name = args.workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  guard_environment ();
  match (w.sources, args.list) with
  | Some sources, true -> list_batch args w sources
  | None, true -> list_serve args w
  | Some sources, false -> run_batch args w sources
  | None, false -> run_serve args w
