(* Optimization strategies (paper §III-B).

   Instead of a built-in optimizing solver, OLSQ2 iteratively re-solves
   under objective-bound assumptions:

   - Depth: start at the lower bound T_LB; on UNSAT grow the bound
     geometrically (x1.3 below 100, x1.1 above); after the first SAT,
     descend from the model's depth to one above the largest refuted
     bound.  The horizon grows with the bound.
   - SWAP count: start from a depth-optimal solution, then iteratively
     *descend* the SWAP bound (monotone solution structure: each SAT
     model's count seeds the next, tighter bound).  Then relax the depth
     bound and repeat, sweeping the (depth, SWAP) Pareto frontier, until
     no improvement or the time budget runs out.

   No question is asked whose answer the loop already holds: every SAT
   answer is captured as a result the moment it arrives, so a refuted or
   unfinished query never costs the layout found before it, and no bound
   is re-solved to read a model back.

   All bounds are solver assumptions over selector literals, so learnt
   clauses survive between iterations (incremental solving).  Each loop
   is written once, over a bound oracle: the horizon-extension
   [Session] (extends in place) or the classic [Encoder] (rebuilt with a
   larger horizon when a bound outgrows it). *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Stopwatch = Olsq2_util.Stopwatch
module Obs = Olsq2_obs.Obs
module Pool = Olsq2_parallel.Pool
module Session = Olsq2_incremental.Session
module Coupling = Olsq2_device.Coupling

type iter_stat = {
  iter_phase : string;
  iter_bound : int;
  iter_verdict : string;
  iter_seconds : float;
  iter_stats : Solver.stats;
}

(* ---- per-run state ---- *)

(* One optimization run: its started budget, optional cube-and-conquer
   pool, clock, solver-call count and the iteration records collected
   along the way.  A run is driven by exactly one loop, so the collector
   is plain per-run state passed down to every bound iteration. *)
type run = {
  st : Budget.state;
  pool : Pool.t option;
  clock : Stopwatch.t;
  mutable iterations : int;
  mutable iters : iter_stat list; (* newest first *)
  agg : Solver.stats;
}

(* ---- live progress ---- *)

type progress = {
  prog_phase : string;
  prog_bound : int;
  prog_conflicts : int;
  prog_learnts : int;
  prog_propagations : int;
}

(* Process-wide progress sink (mirrors the ambient tracer): the CLI
   installs one callback; every bound iteration forwards the solver's
   rate-limited progress events to it, labelled with the phase and bound
   being attempted.  Atomic because the serve daemon runs concurrent jobs
   in separate domains; the callback must be domain-safe. *)
let progress_sink : ((progress -> unit) option * int) Atomic.t = Atomic.make (None, 2000)

let set_progress_sink ?(interval = 2000) cb = Atomic.set progress_sink (cb, interval)

(* One span per bound iteration: the per-iteration telemetry the paper's
   optimization-loop story (§III-B) needs.  [solve] nests a "sat.solve"
   span (with conflict/propagation deltas) inside each of these.  [core]
   names the solver doing the work: its stats delta becomes the
   iteration's [iter_stat], its final conflict explains an UNSAT verdict
   (the failed bound assumptions are recorded on the span so a trace
   shows *which* bounds blocked each refinement step), and its progress
   callback feeds the ambient sink while this iteration runs. *)
let iter_span run name ~bound ~core solve =
  run.iterations <- run.iterations + 1;
  let stats_before = Solver.stats_copy (Solver.stats core) in
  let t0 = Stopwatch.now () in
  let solve =
    match Atomic.get progress_sink with
    | Some sink, interval ->
      fun () ->
        Solver.set_progress ~interval core
          (Some
             (fun s ->
               let st = Solver.stats s in
               sink
                 {
                   prog_phase = name;
                   prog_bound = bound;
                   prog_conflicts = st.Solver.conflicts;
                   prog_learnts = Solver.n_learnts s;
                   prog_propagations = st.Solver.propagations;
                 }));
        (* cube workers heartbeat through the pool with aggregated
           counters on top of the master's *)
        (match run.pool with
        | Some p ->
          Pool.set_progress ~interval p
            (Some
               (fun (pg : Pool.progress) ->
                 let st = Solver.stats core in
                 sink
                   {
                     prog_phase = name;
                     prog_bound = bound;
                     prog_conflicts = st.Solver.conflicts + pg.Pool.pg_conflicts;
                     prog_learnts = pg.Pool.pg_learnts;
                     prog_propagations = st.Solver.propagations + pg.Pool.pg_propagations;
                   }))
        | None -> ());
        Fun.protect
          ~finally:(fun () ->
            Solver.set_progress core None;
            match run.pool with Some p -> Pool.set_progress p None | None -> ())
          solve
    | None, _ -> solve
  in
  let record r =
    let delta = Solver.stats_diff ~after:(Solver.stats core) ~before:stats_before in
    Solver.stats_add ~into:run.agg delta;
    run.iters <-
      {
        iter_phase = name;
        iter_bound = bound;
        iter_verdict = Solver.result_to_string r;
        iter_seconds = Stopwatch.now () -. t0;
        iter_stats = delta;
      }
      :: run.iters
  in
  let obs = Obs.global () in
  if not (Obs.enabled obs) then begin
    let r = solve () in
    record r;
    r
  end
  else begin
    let sp = Obs.begin_span obs name ~attrs:[ ("bound", Obs.Int bound) ] in
    let r = solve () in
    let attrs = [ ("verdict", Obs.Str (Solver.result_to_string r)) ] in
    let attrs =
      match r with
      | Solver.Unsat ->
        let unsat_core = Solver.unsat_core core in
        ("core_size", Obs.Int (List.length unsat_core))
        :: ( "unsat_core",
             Obs.Str
               (String.concat " "
                  (List.map (fun l -> string_of_int (Lit.to_dimacs l)) unsat_core)) )
        :: attrs
      | Solver.Sat | Solver.Unknown _ -> attrs
    in
    Obs.end_span obs sp ~attrs;
    record r;
    r
  end

let pareto_point ~depth ~swaps =
  let obs = Obs.global () in
  if Obs.enabled obs then
    Obs.instant obs "opt.pareto" ~attrs:[ ("depth", Obs.Int depth); ("swaps", Obs.Int swaps) ]

type outcome = {
  result : Result_.t option;
  optimal : bool;
  iterations : int;
  total_seconds : float;
  pareto : (int * int) list; (* (depth bound, best swaps proven at it) *)
  stats : Solver.stats; (* aggregate over all bound iterations *)
  iter_stats : iter_stat list; (* per bound iteration, oldest first *)
  refutation : Certificate.refutation option;
}

(* A returned result is stamped with the run's verdict and totals. *)
let outcome (run : run) ?result ~optimal pareto =
  let seconds = Stopwatch.elapsed run.clock in
  let stamp (r : Result_.t) =
    {
      r with
      Result_.status = (if optimal then Result_.Optimal else Result_.Feasible);
      solve_seconds = seconds;
      iterations = run.iterations;
    }
  in
  {
    result = Option.map stamp result;
    optimal;
    iterations = run.iterations;
    total_seconds = seconds;
    pareto;
    stats = run.agg;
    iter_stats = List.rev run.iters;
    refutation = None;
  }

(* Next depth bound after UNSAT (paper §III-B-1). *)
let grow_bound t_b =
  let r = if t_b < 100 then 1.3 else 1.1 in
  max (t_b + 1) (int_of_float (ceil (r *. float_of_int t_b)))

(* Refinement limits: SWAP sweeps relax the depth at most 4 times; TB
   tries at most 16 blocks and relaxes the block count at most twice. *)
let max_depth_relax = 4
let max_blocks = 16
let max_block_relax = 2

(* Budget-accounted solve call: derive the call's [?timeout] /
   [?max_conflicts] from the run's {!Budget.state} and charge back what
   the call actually cost (read off the master's stats, which the pool
   merges replica effort into), so wall and conflict caps behave
   identically on the sequential and cube paths.  The run's pool, when
   the encoding is pool-capable (plain CNF, no CEGAR loop), stands in for
   [direct]; [extra] are the assumptions a raw solver call needs on top
   of the bound's. *)
let charged_solve run solver ~pool_capable ?(extra = []) direct assumptions =
  let before = (Solver.stats solver).Solver.conflicts in
  let timeout = Budget.solve_timeout run.st in
  let max_conflicts = Budget.solve_max_conflicts run.st in
  let r =
    Budget.attached run.st solver (fun () ->
        match run.pool with
        | Some p when pool_capable ->
          Pool.solve p ~assumptions:(extra @ assumptions) ?max_conflicts ?timeout solver
        | Some _ | None -> direct ~assumptions ~max_conflicts ~timeout)
  in
  Budget.charge run.st ~conflicts:((Solver.stats solver).Solver.conflicts - before);
  r

(* ---- bound oracles ---- *)

type oracle = Session | Classic | Transition_based

(* What the refinement loops need from an encoding of the full
   (gate-time-resolved) model.  [ensure_horizon d] makes depth bound [d]
   fully expressive, so an UNSAT verdict at [d] is final.  SWAPs may
   finish up to step [t_max - 2], and a SWAP finishing at [d - 1] only
   changes the mapping after the last gate step, so no optimal layout
   needs one: [t_max >= d] suffices.  The session grows in place and
   cheaply, keeping one step of slack ([t_max >= d + 1]) and ascending
   geometrically.  The encoder re-encodes from scratch to grow, so it
   grows only when needed and its [next_bound] first tries the largest
   bound the current horizon expresses.  Either way every UNSAT already
   proven stays valid after growth, so the ascent just continues. *)
type bounds = {
  solver : unit -> Solver.t; (* the current solver (rebuilds replace it) *)
  solve : Lit.t list -> Solver.result; (* budget-charged, pool-aware *)
  ensure_horizon : int -> unit;
  next_bound : int -> int; (* ascent step after UNSAT at [d] *)
  depth_selector : int -> Lit.t;
  build_counter : max_bound:int -> unit;
  build_weighted_counter : weights:(int -> int) -> max_bound:int -> unit;
  swap_bound_assumption : int -> Lit.t option;
  extract : status:Result_.status -> solve_seconds:float -> iterations:int -> Result_.t;
  provenance : unit -> (string * int) list;
}

(* One persistent session: horizon growth emits only the delta CNF, so
   learnt clauses survive it.  The session encoding is plain CNF, hence
   always pool-capable; a raw pool solve must carry the horizon's
   activation literal.  [proof] logs the session from its first clause. *)
let session_oracle ?proof run ~config instance ~t_max =
  let sess =
    Session.create ~symmetry:config.Config.symmetry ?proof ~t_max
      ~swap_duration:instance.Instance.swap_duration instance.Instance.circuit
      instance.Instance.device
  in
  let extract ~status ~solve_seconds ~iterations =
    let m = Session.model sess in
    {
      Result_.status;
      depth = m.Session.m_depth;
      swap_count = List.length m.Session.m_swaps;
      mapping = m.Session.m_mapping;
      schedule = m.Session.m_schedule;
      swaps =
        List.map (fun (e, tf) -> { Result_.sw_edge = e; sw_finish = tf }) m.Session.m_swaps;
      solve_seconds;
      iterations;
    }
  in
  {
    solver = (fun () -> Session.solver sess);
    solve =
      (fun assumptions ->
        charged_solve run (Session.solver sess) ~pool_capable:true
          ~extra:[ Session.horizon_assumption sess ]
          (fun ~assumptions ~max_conflicts ~timeout ->
            Session.solve ~assumptions ?max_conflicts ?timeout sess)
          assumptions);
    ensure_horizon =
      (fun d ->
        let t_max = Session.t_max sess in
        if d + 1 > t_max then
          Session.extend_horizon sess ~t_max:(max (d + 1) (grow_bound t_max)));
    next_bound = grow_bound;
    depth_selector = Session.depth_selector sess;
    build_counter = Session.build_counter sess;
    build_weighted_counter = Session.build_weighted_counter sess;
    swap_bound_assumption = Session.swap_bound_assumption sess;
    extract;
    provenance = (fun () -> Session.provenance sess);
  }

(* The classic encoder honours every [config] arm (formulation, variable
   encoding, injectivity, cardinality, simplification); outgrowing its
   horizon means re-encoding from scratch. *)
let encoder_oracle run ~config instance ~t_max =
  let enc = ref (Encoder.build ~config instance ~t_max) in
  {
    solver = (fun () -> Encoder.solver !enc);
    solve =
      (fun assumptions ->
        let e = !enc in
        charged_solve run (Encoder.solver e) ~pool_capable:(Encoder.pool_capable e)
          (fun ~assumptions ~max_conflicts ~timeout ->
            Encoder.solve ~assumptions ?max_conflicts ?timeout e)
          assumptions);
    ensure_horizon =
      (fun d ->
        let t_max = (!enc).Encoder.t_max in
        if d > t_max then enc := Encoder.build ~config instance ~t_max:(max d (grow_bound t_max)));
    next_bound =
      (fun d ->
        let t_max = (!enc).Encoder.t_max in
        if d < t_max then min t_max (grow_bound d) else grow_bound d);
    depth_selector = (fun d -> Encoder.depth_selector !enc d);
    build_counter = (fun ~max_bound -> Encoder.build_counter !enc ~max_bound);
    build_weighted_counter =
      (fun ~weights ~max_bound -> Encoder.build_weighted_counter !enc ~weights ~max_bound);
    swap_bound_assumption = (fun k -> Encoder.swap_bound_assumption !enc k);
    extract =
      (fun ~status ~solve_seconds ~iterations ->
        Encoder.extract ~status ~solve_seconds ~iterations !enc);
    provenance = (fun () -> Encoder.provenance !enc);
  }

(* The oracle's model as a result, captured right after the SAT answer
   that produced it.  A loop keeps the capture rather than reading the
   solver later: a later query may end unknown, and the lazy-int arm's
   CEGAR loop may replace the solver's model.  [outcome] stamps the
   verdict and the run's totals. *)
let capture o = o.extract ~status:Result_.Feasible ~solve_seconds:0.0 ~iterations:0

(* Weighted SWAP cost of a result; [weights] is indexed by device edge. *)
let weighted_cost device ~weights (r : Result_.t) =
  List.fold_left
    (fun acc (sw : Result_.swap) ->
      let a, b = sw.Result_.sw_edge in
      acc + weights (Coupling.edge_id device a b))
    0 r.Result_.swaps

(* ---- bound descent (shared by SWAP, weighted and TB loops) ---- *)

(* Descend an objective bound from [start], a model captured at its SAT
   answer: each step assumes [assume (value best - 1)] and, on SAT,
   captures the new model, whose value seeds the next, tighter bound
   (monotone solution structure).  [assume] returns [None] when the bound
   cannot be expressed, which proves [best] optimal.  Returns the capture
   of the last SAT answer ([start] if none) and whether it is proven
   optimal. *)
let descend run ~phase ~solver ~solve ~assume ~capture ~value start =
  let rec go best =
    let v = value best in
    if v = 0 then (best, true)
    else if Budget.exhausted run.st then (best, false)
    else
      match assume (v - 1) with
      | None -> (best, true)
      | Some assumptions -> (
        match iter_span run phase ~bound:(v - 1) ~core:(solver ()) (fun () -> solve assumptions) with
        | Solver.Sat -> go (capture ())
        | Solver.Unsat -> (best, true)
        | Solver.Unknown _ -> (best, false))
  in
  go start

(* Bound assumptions at depth selector [sel]: the objective bound when
   expressible, else the depth bound alone. *)
let under_depth o sel k = Some (sel :: Option.to_list (o.swap_bound_assumption k))

(* ---- depth optimization (§III-B-1) ---- *)

(* Returns, on success, the best result found and whether it is proven
   optimal.  The ascent grows the bound until SAT and keeps the largest
   bound it refuted, the floor (T_LB - 1 before any refutation).  The
   descent then asks one below the depth of the last model found, which
   is below the bound asked whenever the model is shallower, and stops
   once that would be at or below the floor: no bound is asked twice and
   no refuted bound is asked again.  Budget exhaustion or an unknown
   verdict returns the last capture, unproved. *)
let minimize_depth run o ~t_lb =
  let check d =
    o.ensure_horizon d;
    let sel = o.depth_selector d in
    iter_span run "opt.depth_iter" ~bound:d ~core:(o.solver ()) (fun () -> o.solve [ sel ])
  in
  let rec ascend floor d =
    if Budget.exhausted run.st then None
    else
      match check d with
      | Solver.Sat -> Some (floor, capture o)
      | Solver.Unknown _ -> None
      | Solver.Unsat -> ascend d (o.next_bound d)
  in
  let rec descend_depth floor (best : Result_.t) =
    let d = best.Result_.depth - 1 in
    if d <= floor then (best, true)
    else if Budget.exhausted run.st then (best, false)
    else
      match check d with
      | Solver.Sat -> descend_depth floor (capture o)
      | Solver.Unsat -> (best, true)
      | Solver.Unknown _ -> (best, false)
  in
  Option.map
    (fun (floor, first) ->
      let ((best, _) as found) = descend_depth floor first in
      pareto_point ~depth:best.Result_.depth ~swaps:best.Result_.swap_count;
      found)
    (ascend (t_lb - 1) t_lb)

(* ---- SWAP optimization (iterative refinement, §III-B-2) ---- *)

(* Seeding of a depth level's descent:
   [Fresh]       no bound: the level at the optimal depth starts from the
                 depth loop's model, with no query;
   [Warm w]      try to start below a heuristic upper bound [w] (paper:
                 "S_UB can alternatively be determined by other heuristic
                 layout synthesizers"); fall back to Fresh on UNSAT;
   [Tightened b] relaxed depth must beat the previous best [b], else stop
                 (paper termination condition 2). *)
type seed = Fresh | Warm of int | Tightened of int

let minimize_swaps run o ~t_lb ~warm_start =
  match minimize_depth run o ~t_lb with
  | None -> outcome run ~optimal:false []
  | Some (depth_result, _) ->
    let pareto = ref [] in
    let best = ref None in
    (* Sweep depth bounds d0, d0+1, ...; at each, descend the SWAP count. *)
    let rec sweep d seed relax_left =
      o.ensure_horizon (d + 1);
      let sel = o.depth_selector d in
      let level (start : Result_.t) =
        o.build_counter ~max_bound:(max start.Result_.swap_count 1);
        let result, optimal =
          descend run ~phase:"opt.swap_iter" ~solver:o.solver ~solve:o.solve
            ~assume:(under_depth o sel)
            ~capture:(fun () -> capture o)
            ~value:(fun (r : Result_.t) -> r.Result_.swap_count)
            start
        in
        let count = result.Result_.swap_count in
        pareto_point ~depth:d ~swaps:count;
        pareto := (d, count) :: !pareto;
        let improves = match seed with Tightened b -> count < b | Fresh | Warm _ -> true in
        if improves then best := Some (result, optimal);
        if count > 0 && relax_left > 0 && not (Budget.exhausted run.st) then
          sweep (d + 1) (Tightened count) (relax_left - 1)
      in
      match seed with
      | Fresh -> level depth_result
      | Warm w | Tightened w -> (
        o.build_counter ~max_bound:(max w 1);
        let assumptions = sel :: Option.to_list (o.swap_bound_assumption (max 0 (w - 1))) in
        match
          iter_span run "opt.sweep_level" ~bound:d ~core:(o.solver ()) (fun () ->
              o.solve assumptions)
        with
        | Solver.Unsat when (match seed with Warm _ -> true | Fresh | Tightened _ -> false) ->
          (* heuristic bound too tight for the optimal depth: restart the
             level without it *)
          sweep d Fresh relax_left
        | Solver.Unsat | Solver.Unknown _ ->
          (* no improvement at the relaxed depth (paper termination cond. 2),
             or out of budget *)
          ()
        | Solver.Sat -> level (capture o))
    in
    let initial_seed = match warm_start with Some w when w >= 0 -> Warm w | Some _ | None -> Fresh in
    sweep depth_result.Result_.depth initial_seed max_depth_relax;
    let pareto = List.rev !pareto in
    (match !best with
    | Some (result, optimal) -> outcome run ~result ~optimal pareto
    (* fall back to the depth-optimal model *)
    | None -> outcome run ~result:depth_result ~optimal:false pareto)

(* ---- fidelity-aware SWAP optimization ---- *)

(* Minimize the *weighted* SWAP cost at the optimal depth: [weights e] is
   the integer cost of a SWAP on edge [e] (e.g. scaled -log fidelity), so
   the synthesizer prefers routing through high-fidelity couplers.  Same
   bound descent as the SWAP sweep, over the weighted counter. *)
let minimize_weighted_swaps run o ~t_lb ~weights instance =
  match minimize_depth run o ~t_lb with
  | None -> outcome run ~optimal:false []
  | Some (depth_result, _) ->
    let d = depth_result.Result_.depth in
    let sel = o.depth_selector d in
    let cost = weighted_cost instance.Instance.device ~weights in
    o.build_weighted_counter ~weights ~max_bound:(max (cost depth_result) 1);
    let result, optimal =
      descend run ~phase:"opt.weighted_iter" ~solver:o.solver ~solve:o.solve
        ~assume:(under_depth o sel)
        ~capture:(fun () -> capture o)
        ~value:cost depth_result
    in
    pareto_point ~depth:d ~swaps:(cost result);
    outcome run ~result ~optimal [ (d, cost result) ]

(* ---- transition-based optimization (TB-OLSQ2, §III-D) ---- *)

(* TB rebuilds its encoding per block count by construction; each
   encoder still goes through the shared solve and descent helpers. *)
let tb_solve run enc assumptions =
  charged_solve run (Tb_encoder.solver enc) ~pool_capable:(Tb_encoder.pool_capable enc)
    (fun ~assumptions ~max_conflicts ~timeout ->
      Tb_encoder.solve ~assumptions ?max_conflicts ?timeout enc)
    assumptions

(* Block-count minimization: the bound starts at [b] and increases by 1
   on UNSAT (paper §III-D).  Returns the first SAT encoder. *)
let rec tb_first_sat run ~config instance b =
  if b > max_blocks || Budget.exhausted run.st then None
  else begin
    let enc = Tb_encoder.build ~config instance ~num_blocks:b in
    match
      iter_span run "opt.tb_iter" ~bound:b ~core:(Tb_encoder.solver enc) (fun () ->
          tb_solve run enc [])
    with
    | Solver.Sat -> Some (enc, b)
    | Solver.Unsat -> tb_first_sat run ~config instance (b + 1)
    | Solver.Unknown _ -> None
  end

(* A TB model captured at its SAT answer: the SWAP count the encoder's
   counter sees, and the block model expanded to a schedule. *)
let tb_capture enc = (Tb_encoder.model_swap_count enc, Tb_encoder.extract enc)

let tb_point (r : Tb_encoder.result) =
  pareto_point ~depth:r.Tb_encoder.blocks ~swaps:r.Tb_encoder.swap_count

(* TB outcomes carry the block model as the expanded schedule plus a
   (blocks, swap_count) pareto entry. *)
let tb_outcome run = function
  | None -> outcome run ~optimal:false []
  | Some (r, optimal) ->
    outcome run ~result:r.Tb_encoder.expanded ~optimal
      [ (r.Tb_encoder.blocks, r.Tb_encoder.swap_count) ]

let minimize_tb_blocks run ~config instance =
  tb_first_sat run ~config instance 1
  |> Option.map (fun (enc, _) ->
         let r = Tb_encoder.extract enc in
         tb_point r;
         (r, true))
  |> tb_outcome run

(* Descend the SWAP bound on a TB encoder from its first model. *)
let tb_descend run enc =
  let ((start, _) as first) = tb_capture enc in
  Tb_encoder.build_counter enc ~max_bound:(max start 1);
  descend run ~phase:"opt.swap_iter"
    ~solver:(fun () -> Tb_encoder.solver enc)
    ~solve:(tb_solve run enc)
    ~assume:(fun k -> Option.map (fun a -> [ a ]) (Tb_encoder.swap_bound_assumption enc k))
    ~capture:(fun () -> tb_capture enc)
    ~value:fst first

(* SWAP minimization on the transition-based model: minimal block count
   first, then SWAP descent; relax the block count while it reduces the
   SWAP count further. *)
let minimize_tb_swaps run ~config instance =
  let best = ref None in
  (* keep the descent's result; its count seeds the relaxation *)
  let record ((count, r), optimal) =
    tb_point r;
    (match !best with
    | Some (b, _) when r.Tb_encoder.swap_count >= b.Tb_encoder.swap_count -> ()
    | Some _ | None -> best := Some (r, optimal));
    min count r.Tb_encoder.swap_count
  in
  (match tb_first_sat run ~config instance 1 with
  | None -> ()
  | Some (enc, b0) ->
    let count = record (tb_descend run enc) in
    let rec relax b prev relax_left =
      if prev = 0 || relax_left = 0 || b + 1 > max_blocks || Budget.exhausted run.st then ()
      else begin
        let enc' = Tb_encoder.build ~config instance ~num_blocks:(b + 1) in
        Tb_encoder.build_counter enc' ~max_bound:(max prev 1);
        match Tb_encoder.swap_bound_assumption enc' (prev - 1) with
        | None -> ()
        | Some a -> (
          match
            iter_span run "opt.tb_relax" ~bound:(b + 1) ~core:(Tb_encoder.solver enc')
              (fun () -> tb_solve run enc' [ a ])
          with
          | Solver.Unsat | Solver.Unknown _ -> () (* no improvement: stop *)
          | Solver.Sat -> relax (b + 1) (record (tb_descend run enc')) (relax_left - 1))
      end
    in
    relax b0 count max_block_relax);
  tb_outcome run !best

(* ---- entry point ---- *)

type objective =
  | Depth
  | Swaps of { warm_start : int option }
  | Weighted_swaps of (int -> int)
  | Tb_blocks
  | Tb_swaps

(* The certificate claim an optimal result makes: depth, or SWAPs at
   the result's depth.  Weighted and TB objectives have no direct CNF
   bound to refute. *)
let certified_claim objective (res : Result_.t) =
  match objective with
  | Depth -> Some (Certificate.Depth, res.Result_.depth)
  | Swaps _ -> Some (Certificate.Swaps_at_depth res.Result_.depth, res.Result_.swap_count)
  | Weighted_swaps _ | Tb_blocks | Tb_swaps -> None

(* Refute the bound below a proved optimum on the oracle's own solver.
   The budget-charged [solve] is called directly, not through
   [iter_span], so the run's iteration count and search statistics do
   not change; the learnt clauses of the whole run make the query cheap,
   including at [d = T_LB], where the loop never tried [d - 1]. *)
let refute_on o objective (out : outcome) =
  match out.result with
  | Some res when out.optimal -> (
    match certified_claim objective res with
    | None -> out
    | Some (claim, optimum) ->
      let refutation =
        Certificate.refute claim ~optimum ~formula:Certificate.Session (fun () ->
            (match claim with
            | Certificate.Swaps_at_depth _ -> o.build_counter ~max_bound:(max optimum 1)
            | Certificate.Depth -> ());
            {
              Certificate.solver = o.solver ();
              solve = o.solve;
              depth_selector = o.depth_selector;
              swap_bound = o.swap_bound_assumption;
              provenance = o.provenance;
            })
      in
      { out with refutation = Some refutation })
  | Some _ | None -> out

let new_run ~budget pool =
  {
    st = budget;
    pool;
    clock = Stopwatch.start ();
    iterations = 0;
    iters = [];
    agg = Solver.stats_zero ();
  }

let check_objective ~config ~oracle objective =
  match (oracle, objective) with
  | (Session | Classic), (Depth | Swaps _) | Transition_based, (Tb_blocks | Tb_swaps) -> ()
  | (Session | Classic), Weighted_swaps _ ->
    (* orbit symmetry breaking is unsound under per-edge weights: distinct
       members of an edge orbit can carry different costs *)
    if config.Config.symmetry then
      invalid_arg "Optimizer.optimize: symmetry breaking is unsound for weighted SWAPs"
  | Transition_based, (Depth | Swaps _ | Weighted_swaps _)
  | (Session | Classic), (Tb_blocks | Tb_swaps) ->
    invalid_arg "Optimizer.optimize: TB objectives take the transition-based oracle, and only they"

let depth_floor instance = max 1 (Instance.depth_lower_bound instance)

let bounds ?proof run ~config ~oracle instance =
  let t_lb = depth_floor instance in
  let t_max = max (t_lb + 1) (Instance.depth_upper_bound instance) in
  match oracle with
  | Session -> session_oracle ?proof run ~config instance ~t_max
  | Classic | Transition_based -> encoder_oracle run ~config instance ~t_max

let optimize ~config ~oracle ~budget ?pool ?proof objective instance =
  check_objective ~config ~oracle objective;
  if proof <> None && (oracle <> Session || pool <> None) then
    invalid_arg "Optimizer.optimize: proof logging needs the session oracle and no pool";
  let run = new_run ~budget pool in
  let t_lb = depth_floor instance in
  let bounds () = bounds ?proof run ~config ~oracle instance in
  let certify o out = match proof with Some _ -> refute_on o objective out | None -> out in
  match objective with
  | Depth ->
    let o = bounds () in
    let out =
      match minimize_depth run o ~t_lb with
      | None -> outcome run ~optimal:false []
      | Some (result, optimal) ->
        outcome run ~result ~optimal [ (result.Result_.depth, result.Result_.swap_count) ]
    in
    certify o out
  | Swaps { warm_start } ->
    let o = bounds () in
    certify o (minimize_swaps run o ~t_lb ~warm_start)
  | Weighted_swaps weights -> minimize_weighted_swaps run (bounds ()) ~t_lb ~weights instance
  | Tb_blocks -> minimize_tb_blocks run ~config instance
  | Tb_swaps -> minimize_tb_swaps run ~config instance

(* One query at the depth lower bound, at SWAP cost 0 for the SWAP
   objectives: both are lower bounds on every device, so a model is
   optimal here and on any device that holds this one as a connected
   subgraph.  It neither ascends nor descends: UNSAT or unknown returns
   no result. *)
let at_lower_bound ~config ~oracle ~budget ?pool objective instance =
  check_objective ~config ~oracle objective;
  if oracle = Transition_based then
    invalid_arg "Optimizer.at_lower_bound: TB objectives have no depth bound";
  let run = new_run ~budget pool in
  let t_lb = depth_floor instance in
  let o = bounds run ~config ~oracle instance in
  o.ensure_horizon t_lb;
  let sel = o.depth_selector t_lb in
  let zero_cost () = sel :: Option.to_list (o.swap_bound_assumption 0) in
  let assumptions, cost =
    match objective with
    | Depth | Tb_blocks | Tb_swaps -> ([ sel ], fun (r : Result_.t) -> r.Result_.swap_count)
    | Swaps _ ->
      o.build_counter ~max_bound:1;
      (zero_cost (), fun r -> r.Result_.swap_count)
    | Weighted_swaps weights ->
      o.build_weighted_counter ~weights ~max_bound:1;
      (zero_cost (), weighted_cost instance.Instance.device ~weights)
  in
  match
    iter_span run "opt.window_iter" ~bound:t_lb ~core:(o.solver ()) (fun () -> o.solve assumptions)
  with
  | Solver.Sat ->
    let result = capture o in
    let cost = cost result in
    pareto_point ~depth:t_lb ~swaps:cost;
    outcome run ~result ~optimal:true [ (t_lb, cost) ]
  | Solver.Unsat | Solver.Unknown _ -> outcome run ~optimal:false []
