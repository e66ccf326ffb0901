(* The per-layer ledger of one traced pass.

   Span self times come from [Obs.Profile] over the pass's events.  A
   node belongs to the layer of its innermost span name; the nodes under
   a [certificate.build] span are kept apart, so the certification
   re-solve does not blur the optimization's encode and SAT numbers.
   The SAT phase split comes from the reports' [solver_stats] (batch
   workloads only: the daemon keeps its reports); the SAT counts from the
   solver's counter events, so they include certification re-solves.

   Spans recorded by the benchmark itself, around its calls into the
   library: [circuit.parse], [instance.make], [synthesis.run],
   [validate.check] and, for the daemon, [serve.http]. *)

module Obs = Olsq2_obs.Obs
module Synthesis = Olsq2_core.Synthesis
module Certificate = Olsq2_core.Certificate
module Solver = Olsq2_sat.Solver

let leaf (n : Obs.Profile.node) = List.nth n.Obs.Profile.path (List.length n.Obs.Profile.path - 1)
let in_certificate (n : Obs.Profile.node) = List.mem "certificate.build" n.Obs.Profile.path

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let self_where nodes f =
  Stats.sum (List.filter_map (fun n -> if f n then Some n.Obs.Profile.self_seconds else None) nodes)

(* Minor-heap words only: a node's major words include the words promoted
   out of the minor heap, so adding them would count those twice. *)
let alloc_mw_where nodes f =
  Stats.sum (List.filter_map (fun n -> if f n then Some n.Obs.Profile.minor_words else None) nodes)
  /. 1e6

(* The spans the ledger attributes to a layer: the library's own, and the
   benchmark's spans around parsing, instance building and validation.
   The self time of the benchmark's [synthesis.run] span is what no
   library span explains; it is reported apart and is not coverage. *)
let attributed n =
  match leaf n with
  | "circuit.parse" | "instance.make" | "validate.check" | "encode.build" | "encode.extend"
  | "sat.solve" | "certificate.build" | "proof.check" ->
    true
  | name -> has_prefix "opt." name

let int_attr name (ev : Obs.event) =
  match List.assoc_opt name ev.Obs.attrs with Some (Obs.Int i) -> i | _ -> 0

(* Clauses emitted by encoding spans (full builds and horizon extensions)
   and by cardinality counters (reported as instants). *)
let clauses events =
  List.fold_left
    (fun (enc, counter) (ev : Obs.event) ->
      match (ev.Obs.kind, ev.Obs.name) with
      | Obs.Span, "encode.build" -> (enc + int_attr "clauses" ev, counter)
      | Obs.Span, "encode.extend" -> (enc + int_attr "clauses_added" ev, counter)
      | Obs.Instant, "encode.counter" -> (enc, counter + int_attr "clauses_added" ev)
      | _ -> (enc, counter))
    (0, 0) events

let counter name events =
  List.fold_left
    (fun acc (ev : Obs.event) ->
      if ev.Obs.kind = Obs.Count && ev.Obs.name = name then acc + int_attr "value" ev else acc)
    0 events

let peak_learnt_mb events =
  List.fold_left
    (fun acc (ev : Obs.event) ->
      match (ev.Obs.kind, ev.Obs.name, List.assoc_opt "value" ev.Obs.attrs) with
      | Obs.Gauge, "sat.mem.learnt_bytes", Some (Obs.Float v) -> Float.max acc (v /. 1e6)
      | _ -> acc)
    0.0 events

type pass = {
  wall : float;  (** traced wall time of the pass *)
  events : Obs.event list;
  reports : Synthesis.report list;
  minor_collections : int;
  major_collections : int;
}

(* The ledger of one batch pass, as (name, unit, value). *)
let of_pass p =
  let nodes = Obs.Profile.of_events p.events in
  let self name = self_where nodes (fun n -> leaf n = name && not (in_certificate n)) in
  let stats = Solver.stats_zero () in
  List.iter (fun r -> Solver.stats_add ~into:stats r.Synthesis.solver_stats) p.reports;
  let proofs =
    List.filter_map
      (fun r ->
        match r.Synthesis.certificate with
        | Some { Certificate.lower_bound = Some { Certificate.check = Some c; _ }; _ } -> Some c
        | _ -> None)
      p.reports
  in
  let enc_clauses, counter_clauses = clauses p.events in
  let f = float_of_int in
  [
    ("circuit.parse_s", "s", self "circuit.parse");
    ("instance.make_s", "s", self "instance.make");
    ("encode.build_s", "s", self "encode.build");
    ("encode.extend_s", "s", self "encode.extend");
    ("encode.clauses", "count", f enc_clauses);
    ("encode.counter_clauses", "count", f counter_clauses);
    ("encode.alloc_mw", "Mw", alloc_mw_where nodes (fun n -> has_prefix "encode." (leaf n)));
    ("sat.solve_s", "s", self "sat.solve");
    ("sat.propagate_s", "s", stats.Solver.propagate_seconds);
    ("sat.analyze_s", "s", stats.Solver.analyze_seconds);
    ("sat.reduce_s", "s", stats.Solver.reduce_seconds);
    ("sat.vivify_s", "s", stats.Solver.vivify_seconds);
    ("sat.solves", "count", f (counter "sat.solves" p.events));
    ("sat.conflicts", "count", f (counter "sat.conflicts" p.events));
    ("sat.propagations", "count", f (counter "sat.propagations" p.events));
    ("sat.learnt_mb", "MB", peak_learnt_mb p.events);
    ("sat.alloc_mw", "Mw", alloc_mw_where nodes (fun n -> leaf n = "sat.solve"));
    ("opt.self_s", "s", self_where nodes (fun n -> has_prefix "opt." (leaf n)));
    ("opt.iterations", "count", f (List.fold_left (fun a r -> a + r.Synthesis.iterations) 0 p.reports));
    ( "certify.total_s",
      "s",
      Stats.sum
        (List.filter_map
           (fun n -> if leaf n = "certificate.build" then Some n.Obs.Profile.total_seconds else None)
           nodes) );
    ("certify.encode_s", "s", self_where nodes (fun n -> leaf n = "encode.build" && in_certificate n));
    ("certify.solve_s", "s", self_where nodes (fun n -> leaf n = "sat.solve" && in_certificate n));
    ("proof.check_s", "s", self_where nodes (fun n -> leaf n = "proof.check"));
    ( "proof.additions",
      "count",
      f (List.fold_left (fun a c -> a + c.Certificate.proof_additions) 0 proofs) );
    ( "proof.lemmas_checked",
      "count",
      f (List.fold_left (fun a c -> a + c.Certificate.lemmas_checked) 0 proofs) );
    ("validate_s", "s", self "validate.check");
    ("gc.minor_collections", "count", f p.minor_collections);
    ("gc.major_collections", "count", f p.major_collections);
    ("ledger.coverage", "ratio", self_where nodes attributed /. p.wall);
    ("ledger.unattributed_s", "s", self "synthesis.run");
  ]

(* Per-metric median across passes (the passes of one run repeat the
   same inputs, so counts agree and times differ by noise only). *)
let median_of_passes ledgers =
  match ledgers with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (name, unit_, _) ->
        let values =
          List.map (fun l -> List.find (fun (n, _, _) -> n = name) l |> fun (_, _, v) -> v) ledgers
        in
        (name, unit_, Stats.median values))
      first
