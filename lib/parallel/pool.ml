(* Cube-and-conquer pool: persistent replica solvers, Atomic cube queue,
   first-Sat cancellation, stats merge at join.  See pool.mli for the
   soundness arguments (model recovery by phase-following, learnt reuse
   across cubes, proof-logging fallback). *)

module Solver = Olsq2_sat.Solver
module Lit = Olsq2_sat.Lit
module Tuning = Olsq2_sat.Tuning
module Obs = Olsq2_obs.Obs
module Stopwatch = Olsq2_util.Stopwatch

type progress = { pg_conflicts : int; pg_propagations : int; pg_learnts : int }

type replica = {
  mutable solver : Solver.t;
  mutable rep_master : Solver.t option; (* physical identity of the synced master *)
  mutable rep_gen : int;
  mutable rep_entries : int; (* problem-clause entries replayed *)
  mutable rep_units : int; (* root-trail entries replayed *)
  mutable rep_vars : int;
}

type pool_stats = {
  queries : int;
  parallel_queries : int;
  cubes_solved : int;
  sat_cubes : int;
  unsat_cubes : int;
}

type t = {
  n_workers : int;
  cube_depth : int;
  threshold : int;
  tuning : Tuning.t; (* strategy for replica solvers *)
  replicas : replica array;
  mutable progress_cb : (progress -> unit) option;
  mutable progress_interval : int;
  q_total : int Atomic.t;
  q_parallel : int Atomic.t;
  c_solved : int Atomic.t;
  c_sat : int Atomic.t;
  c_unsat : int Atomic.t;
}

let fresh_replica tuning =
  {
    solver = Solver.create ~tuning ();
    rep_master = None;
    rep_gen = 0;
    rep_entries = 0;
    rep_units = 0;
    rep_vars = 0;
  }

let default_depth workers =
  (* smallest k with 2^k >= 4 * workers: enough cubes that an unlucky
     early Unsat still leaves everyone work to steal *)
  let rec go k = if 1 lsl k >= 4 * workers || k >= 10 then k else go (k + 1) in
  go 1

let create ?cube_depth ?threshold ?tuning ~workers () =
  let workers = max 1 workers in
  let tuning = match tuning with Some t -> t | None -> Tuning.ambient () in
  (* the sequential probe cap defaults from the tuning record, so the
     adaptive gate travels with the rest of the search strategy *)
  let threshold =
    match threshold with Some n -> n | None -> tuning.Tuning.probe_conflicts
  in
  {
    n_workers = workers;
    cube_depth = (match cube_depth with Some k -> max 1 (min 14 k) | None -> default_depth workers);
    threshold = max 1 threshold;
    tuning;
    replicas = Array.init workers (fun _ -> fresh_replica tuning);
    progress_cb = None;
    progress_interval = 2000;
    q_total = Atomic.make 0;
    q_parallel = Atomic.make 0;
    c_solved = Atomic.make 0;
    c_sat = Atomic.make 0;
    c_unsat = Atomic.make 0;
  }

let workers t = t.n_workers

let set_progress ?(interval = 2000) t cb =
  t.progress_cb <- cb;
  t.progress_interval <- max 1 interval

let stats t =
  {
    queries = Atomic.get t.q_total;
    parallel_queries = Atomic.get t.q_parallel;
    cubes_solved = Atomic.get t.c_solved;
    sat_cubes = Atomic.get t.c_sat;
    unsat_cubes = Atomic.get t.c_unsat;
  }

(* Bring a replica's database up to date with the master's by replaying
   new variables, problem clauses and root units through the ordinary
   interface.  A master identity or generation change means the database
   was rewritten (or is someone else's): start over — which also drops
   the replica's learnts, as their derivations may rest on rewritten
   clauses. *)
let sync_replica t r master =
  let gen = Solver.db_generation master in
  (match r.rep_master with
  | Some m when m == master && r.rep_gen = gen -> ()
  | _ ->
    r.solver <- Solver.create ~tuning:t.tuning ();
    r.rep_master <- Some master;
    r.rep_gen <- gen;
    r.rep_entries <- 0;
    r.rep_units <- 0;
    r.rep_vars <- 0);
  let rep = r.solver in
  let nv = Solver.nvars master in
  for v = r.rep_vars to nv - 1 do
    ignore (Solver.new_var rep : Lit.var);
    Solver.boost_activity rep v (Solver.var_activity master v);
    Solver.suggest_phase rep v (Solver.saved_phase master v)
  done;
  r.rep_vars <- nv;
  let entries = Solver.n_problem_entries master in
  Solver.fold_problem_clauses ~from:r.rep_entries master
    (fun () lits -> Solver.add_clause_a rep lits)
    ();
  r.rep_entries <- entries;
  List.iter (fun l -> Solver.add_clause rep [ l ]) (Solver.root_units ~from:r.rep_units master);
  r.rep_units <- Solver.n_root_units master

(* Escalated phase: solve [cubes] across the replicas, return the merged
   verdict.  The master is only touched at the end (stats merge, and a
   phase-seeded re-solve on Sat). *)
let conquer t master ~assumptions ~cubes ~max_conflicts ~deadline =
  let obs = Obs.global () in
  let ncubes = Array.length cubes in
  let nw = min t.n_workers ncubes in
  let next = Atomic.make 0 in
  let cancelled = Atomic.make false in
  let winner = Atomic.make (-1) in
  let n_unsat = Atomic.make 0 in
  let saw_timeout = Atomic.make false in
  let saw_budget = Atomic.make false in
  let saw_interrupt = Atomic.make false in
  let failure = Atomic.make None in
  (* pool-wide live counters feeding the progress callback *)
  let pg_conflicts = Atomic.make 0 in
  let pg_propagations = Atomic.make 0 in
  let pg_learnts = Atomic.make 0 in
  let before = Array.map (fun r -> Solver.stats_copy (Solver.stats r.solver)) t.replicas in
  let chan = if nw > 1 then Some (Share.create ()) else None in
  Array.iteri
    (fun w r ->
      if w < nw then begin
        (match chan with
        | Some c ->
          Solver.set_share r.solver
            (Some
               (Share.endpoints c ~src:w ~max_len:t.tuning.Tuning.share_max_len
                  ~max_lbd:t.tuning.Tuning.share_max_lbd ()))
        | None -> ());
        (* per-replica heartbeat: merge deltas into the pool counters,
           forward to the user sink, and honour cancellation mid-cube *)
        let last_c = ref (Solver.stats r.solver).Solver.conflicts in
        let last_p = ref (Solver.stats r.solver).Solver.propagations in
        let last_l = ref (Solver.stats r.solver).Solver.learnt_clauses in
        Solver.set_progress ~interval:t.progress_interval r.solver
          (Some
             (fun s ->
               if Atomic.get cancelled || Solver.interrupted master then Solver.interrupt s;
               let st = Solver.stats s in
               let dc = st.Solver.conflicts - !last_c in
               let dp = st.Solver.propagations - !last_p in
               let dl = st.Solver.learnt_clauses - !last_l in
               last_c := st.Solver.conflicts;
               last_p := st.Solver.propagations;
               last_l := st.Solver.learnt_clauses;
               ignore (Atomic.fetch_and_add pg_conflicts dc : int);
               ignore (Atomic.fetch_and_add pg_propagations dp : int);
               ignore (Atomic.fetch_and_add pg_learnts dl : int);
               match t.progress_cb with
               | Some f ->
                 f
                   {
                     pg_conflicts = Atomic.get pg_conflicts;
                     pg_propagations = Atomic.get pg_propagations;
                     pg_learnts = Atomic.get pg_learnts;
                   }
               | None -> ()))
      end)
    t.replicas;
  let worker w =
    let r = t.replicas.(w) in
    let rep = r.solver in
    Solver.clear_interrupt rep;
    try
      let continue_ = ref true in
      while !continue_ do
        if Atomic.get cancelled || Solver.interrupted master then continue_ := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= ncubes then continue_ := false
          else begin
            let timeout =
              match deadline with None -> None | Some d -> Some (d -. Stopwatch.now ())
            in
            match timeout with
            | Some s when s <= 0.0 ->
              Atomic.set saw_timeout true;
              continue_ := false
            | _ ->
              let t0 = Stopwatch.now () in
              let res =
                Solver.solve rep
                  ~assumptions:(assumptions @ Array.to_list cubes.(i))
                  ?max_conflicts ?timeout
              in
              ignore (Atomic.fetch_and_add t.c_solved 1 : int);
              if Obs.enabled obs then Obs.hist obs "parallel.cube.seconds" (Stopwatch.now () -. t0);
              (match res with
              | Solver.Sat ->
                ignore (Atomic.fetch_and_add t.c_sat 1 : int);
                if Atomic.compare_and_set winner (-1) w then begin
                  Atomic.set cancelled true;
                  Array.iteri
                    (fun w' r' -> if w' <> w && w' < nw then Solver.interrupt r'.solver)
                    t.replicas
                end;
                continue_ := false
              | Solver.Unsat -> ignore (Atomic.fetch_and_add n_unsat 1 : int)
              | Solver.Unknown reason ->
                (match reason with
                | Solver.Timeout -> Atomic.set saw_timeout true
                | Solver.Conflict_budget -> Atomic.set saw_budget true
                | Solver.Interrupted -> Atomic.set saw_interrupt true);
                continue_ := false)
          end
        end
      done
    with e -> if Atomic.compare_and_set failure None (Some e) then Atomic.set cancelled true
  in
  let domains = Array.init nw (fun w -> Domain.spawn (fun () -> worker w)) in
  Array.iter Domain.join domains;
  (* detach query-scoped hooks and merge replica effort into the master,
     so per-iteration deltas, reports and conflict budgets see it *)
  Array.iteri
    (fun w r ->
      if w < nw then begin
        Solver.set_progress r.solver None;
        Solver.set_share r.solver None;
        Solver.clear_interrupt r.solver;
        Solver.stats_add ~into:(Solver.stats master)
          (Solver.stats_diff ~after:(Solver.stats r.solver) ~before:before.(w))
      end)
    t.replicas;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  let w = Atomic.get winner in
  if w >= 0 then begin
    (* Seed the master's saved phases with the winning replica's model
       and re-solve under the original assumptions: phase-following from
       a total model is conflict-free and linear, and leaves the master
       holding the model for the caller to extract. *)
    let rep = t.replicas.(w).solver in
    for v = 0 to Solver.nvars master - 1 do
      Solver.suggest_phase master v (Solver.model_value rep (Lit.of_var v))
    done;
    Solver.solve master ~assumptions
  end
  else if Atomic.get n_unsat = ncubes then Solver.Unsat
  else if Atomic.get saw_timeout then Solver.Unknown Solver.Timeout
  else if Atomic.get saw_budget then Solver.Unknown Solver.Conflict_budget
  else Solver.Unknown Solver.Interrupted

let solve ?(assumptions = []) ?max_conflicts ?timeout t master =
  ignore (Atomic.fetch_and_add t.q_total 1 : int);
  if t.n_workers <= 1 || Solver.proof_logging master || not (Solver.is_ok master) then
    Solver.solve master ~assumptions ?max_conflicts ?timeout
  else begin
    (* Adaptive gate: probe sequentially for [threshold] conflicts on the
       warm master; only queries that survive the probe are worth the
       split-and-sync overhead.  Easy queries keep the sequential path's
       exact behaviour. *)
    let deadline = Option.map (fun s -> Stopwatch.now () +. s) timeout in
    let probe_cap =
      match max_conflicts with Some m when m <= t.threshold -> m | Some _ | None -> t.threshold
    in
    let before = (Solver.stats master).Solver.conflicts in
    let probe = Solver.solve master ~assumptions ~max_conflicts:probe_cap ?timeout in
    match probe with
    | Solver.Unknown Solver.Conflict_budget
      when (match max_conflicts with Some m -> m > probe_cap | None -> true)
           && (match deadline with None -> true | Some d -> Stopwatch.now () < d)
           && not (Solver.interrupted master) ->
      let obs = Obs.global () in
      ignore (Atomic.fetch_and_add t.q_parallel 1 : int);
      let spent = (Solver.stats master).Solver.conflicts - before in
      let max_conflicts = Option.map (fun m -> max 1 (m - spent)) max_conflicts in
      let run () =
        Array.iter (fun r -> sync_replica t r master) t.replicas;
        let exclude = List.map Lit.var assumptions in
        let cubes = Array.of_list (Cube.split ~exclude ~k:t.cube_depth master) in
        if Obs.enabled obs then Obs.count obs "parallel.cubes" (Array.length cubes);
        if Array.length cubes < 2 then
          (* nothing to split on: finish sequentially *)
          Solver.solve master ~assumptions ?max_conflicts
            ?timeout:(Option.map (fun d -> d -. Stopwatch.now ()) deadline)
        else conquer t master ~assumptions ~cubes ~max_conflicts ~deadline
      in
      if Obs.enabled obs then
        Obs.with_span obs "parallel.solve"
          ~attrs:[ ("workers", Obs.Int t.n_workers); ("depth", Obs.Int t.cube_depth) ]
          run
      else run ()
    | res -> res
  end
