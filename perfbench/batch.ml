(* Batch workloads: every operation takes one input from circuit text to
   a validated layout through the public entry points, and is checked
   against the input's reference.

   A run makes a fixed number of passes over the seed's instance list.
   The inputs and the solver are deterministic, so every pass does the
   same work and the pass times differ by machine noise only.  That noise
   comes in bursts that slow the process down (never speed it up), so
   each operation's time is its fastest across the passes. *)

module Obs = Olsq2_obs.Obs
module Qasm = Olsq2_circuit.Qasm
module Instance = Olsq2_core.Instance
module Synthesis = Olsq2_core.Synthesis
module Validate = Olsq2_core.Validate
module Certificate = Olsq2_core.Certificate
module Result_ = Olsq2_core.Result_
module Known = Olsq2_evalbench.Known

type outcome = {
  item : Gen.item;
  latency : float;
  report : Synthesis.report option;
  found : int option;  (** the answer's value of the item's objective *)
  error : string option;  (** [None]: the answer is proved optimal, valid and matches its reference *)
}

let objective = function
  | Gen.Depth -> Synthesis.Depth
  | Gen.Swaps -> Synthesis.Swaps { warm_start = None }

let value_of (r : Result_.t) = function Gen.Depth -> r.Result_.depth | Gen.Swaps -> r.Result_.swap_count

let check ~certify (item : Gen.item) (report : Synthesis.report) violations =
  match report.Synthesis.result with
  | None -> Error "no layout"
  | Some r ->
    let mismatch =
      List.find_opt
        (fun (obj, bound) -> not (Known.optimal_consistent bound (value_of r obj)))
        ((item.Gen.objective, item.Gen.reference) :: item.Gen.extra)
    in
    if not report.Synthesis.optimal || r.Result_.status <> Result_.Optimal then
      Error "not proved optimal"
    else if violations <> [] then
      Error ("invalid layout: " ^ Validate.violation_to_string (List.hd violations))
    else if mismatch <> None then
      let obj, bound = Option.get mismatch in
      Error
        (Printf.sprintf "%s %d does not meet reference %s" (Gen.objective_name obj) (value_of r obj)
           (Known.bound_to_string bound))
    else
      match (certify, report.Synthesis.certificate) with
      | false, _ -> Ok ()
      | true, Some c when Certificate.valid c -> Ok ()
      | true, Some _ -> Error "certificate rejected"
      | true, None -> Error "no certificate"

(* One operation: parse, build the instance, synthesize, validate. *)
let run_op ~options ~certify (item : Gen.item) =
  let obs = Obs.global () in
  let t0 = Stats.now () in
  match
    let circuit = Obs.with_span obs "circuit.parse" (fun () -> Qasm.parse ~name:item.Gen.name item.Gen.qasm) in
    let inst =
      Obs.with_span obs "instance.make" (fun () ->
          Instance.make ~swap_duration:item.Gen.swap_duration circuit item.Gen.device)
    in
    let report =
      Obs.with_span obs "synthesis.run" (fun () ->
          Synthesis.run ~options ~objective:(objective item.Gen.objective) inst)
    in
    let violations =
      match report.Synthesis.result with
      | Some r -> Obs.with_span obs "validate.check" (fun () -> Validate.check inst r)
      | None -> []
    in
    (report, violations)
  with
  | report, violations ->
    let latency = Stats.now () -. t0 in
    let found = Option.map (fun r -> value_of r item.Gen.objective) report.Synthesis.result in
    let error = match check ~certify item report violations with Ok () -> None | Error m -> Some m in
    { item; latency; report = Some report; found; error }
  | exception e ->
    { item; latency = Stats.now () -. t0; report = None; found = None; error = Some (Printexc.to_string e) }

type pass = { wall : float; outcomes : outcome list; alloc_words : float }

let run_pass ~options ~certify items =
  let a0 = Stats.allocated_words () in
  let t0 = Stats.now () in
  let outcomes = List.map (run_op ~options ~certify) items in
  let wall = Stats.now () -. t0 in
  { wall; outcomes; alloc_words = Stats.allocated_words () -. a0 }

(* The number of passes (serve-mixed: rounds) is fixed by [--seconds] and
   the workload's nominal pass time, never by how fast the passes run, so
   two builds being compared take their fastest times over the same
   number of passes. *)
let pass_count ~seconds ~pass_seconds = max 1 (int_of_float (Float.round (seconds /. pass_seconds)))

let failures passes =
  List.concat_map (fun p -> List.filter (fun o -> o.error <> None) p.outcomes) passes

(* Each operation's fastest time across the passes. *)
let best_latencies passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun best p -> List.map2 (fun b o -> Float.min b o.latency) best p.outcomes)
      (List.map (fun o -> o.latency) first.outcomes)
      rest

let end_to_end ~setup_s passes =
  let latencies = best_latencies passes in
  let n = float_of_int (List.length passes) in
  Stats.
    [
      metric "setup_s" "s" setup_s;
      metric "wall_s" "s" (sum latencies);
      metric "latency_p50_s" "s" (percentile 50.0 latencies);
      metric "latency_p99_s" "s" (percentile 99.0 latencies);
      metric "alloc_mw" "Mw" (sum (List.map (fun p -> p.alloc_words) passes) /. n /. 1e6);
      metric "peak_heap_mb" "MB" (peak_heap_mb ());
    ]

(* A traced pass on a fresh global tracer. *)
let traced_pass ~options ~certify items =
  let obs = Obs.create ~capacity:2_000_000 () in
  Obs.set_global obs;
  let g0 = Gc.quick_stat () in
  let p = run_pass ~options ~certify items in
  let g1 = Gc.quick_stat () in
  Obs.set_global Obs.disabled;
  let ledger =
    Layers.of_pass
      {
        Layers.wall = p.wall;
        events = Obs.events obs;
        reports = List.filter_map (fun o -> o.report) p.outcomes;
        minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
  in
  (p, ledger)
