(* Bound-incremental encoding session: one persistent SAT solver whose
   encoding only ever GROWS.

   The classic [Core.Encoder] fixes the horizon t_max at build time —
   its integer time variables have a fixed domain — so every time the
   optimizer outgrows the horizon it rebuilds the CNF from scratch and
   the solver forgets everything it learnt.  Shaik & van de Pol
   (arXiv:2403.11598) show that the scaling trick for 100+ qubit devices
   is to keep one solver alive across all depth/SWAP bounds.  This
   module is that session: a purely Boolean time-indexed encoding whose
   every constraint family is monotone under horizon growth, so
   [extend_horizon] emits only the delta CNF for the new time steps and
   learnt clauses survive every bound iteration.

   Variables (all plain Boolean, so the session is pool-capable):
     x.(g).(t)        gate g executes at step t
     xpre.(g).(t)     gate g executed at some step <= t (a ladder chain:
                      x(g,t) => xpre(g,t), xpre(g,t-1) => xpre(g,t), and
                      the at-most-one side xpre(g,t-1) => not x(g,t))
     pi.(t).(q).(p)   program qubit q sits on physical qubit p at step t
                      (one-hot per (t,q): at-least-one clause plus a
                      sequential-ladder at-most-one)
     sigma.(e).(tm)   a SWAP on edge e finishes at step tm
                      (allowed exactly for sd <= tm <= t_max - 2, the
                      classic encoder's range)

   The only non-monotone constraint — "every gate executes somewhere
   within the horizon" — is guarded by a per-horizon activation literal
   passed as an assumption: act_h => (x(g,0) | ... | x(g,h-1)).  When the
   horizon grows, the old activation literal is retired by asserting its
   negation as a unit clause (sound: activation literals occur only
   negatively in the clause database, so the unit is a blocked clause)
   and the retired guarded clauses are DRAT-deleted when a proof logger
   is attached.  [create ?proof] installs the logger before the first
   clause, so [--certify] refutes the bound below the optimum on this
   same solver and the checker replays the session's own clause log
   (DESIGN.md gives the trust argument for the retirement units).

   The prefix chains make everything else one clause per step:
     dependency g -> g':   not x(g',t) \/ xpre(g,t-1)   (unit at t = 0)
     depth bound d:        sel_d => xpre(g,d-1) for every gate, plus
                           sel_d => not sigma(e,tm) for tm >= d
   A gate execution after d-1 then contradicts the chain's at-most-one
   side, so sel_d exactly bounds the makespan without touching x rows.

   Gate/SWAP semantics mirror [Core.Encoder] clause for clause in
   meaning (adjacency at execution time, SWAP occupying (tm - sd, tm],
   overlap evaluated at the SWAP's finish step, SWAP/SWAP exclusion
   within sd steps on a shared endpoint), so both paths provably sweep
   the same feasible set and return identical optima — the
   test_incremental parity suite pins that across all objectives.

   Optional symmetry breaking: the first two-qubit gate may be
   restricted to the orbit representatives of the device automorphism
   group ([Olsq2_device.Symmetry.edge_orbits]).  Any solution maps by a
   device automorphism to one where that gate executes on its orbit's
   representative edge, so depth and SWAP-count optima are preserved
   (weighted-SWAP objectives are NOT orbit-invariant; callers must keep
   symmetry off there — [Core.Synthesis.run] does). *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Ctx = Olsq2_encode.Ctx
module Cardinality = Olsq2_encode.Cardinality
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Dag = Olsq2_circuit.Dag
module Coupling = Olsq2_device.Coupling
module Symmetry = Olsq2_device.Symmetry
module Obs = Olsq2_obs.Obs

type counter_kind = Swaps | Weighted of (int -> int)

type t = {
  circuit : Circuit.t;
  device : Coupling.t;
  dag : Dag.t;
  swap_duration : int;
  deps : (int * int) list;
  nq : int;
  np : int;
  ng : int;
  ne : int;
  ctx : Ctx.t;
  (* (pivot two-qubit gate id, allowed edge flags) when symmetry
     breaking is on *)
  pivot : (int * bool array) option;
  mutable t_max : int;
  mutable x : Lit.t array array;
  mutable xpre : Lit.t array array;
  mutable pi : Lit.t array array array;
  mutable sigma : Lit.t option array array;
  mutable act : Lit.t option;
  mutable act_clauses : Lit.t list list;
  selectors : (int, Lit.t) Hashtbl.t;
  mutable counter : (counter_kind * Cardinality.Inc.t) option;
}

let t_max t = t.t_max
let solver t = Ctx.solver t.ctx
let circuit t = t.circuit
let device t = t.device
let swap_duration t = t.swap_duration
let provenance t = Ctx.provenance t.ctx

(* Sequential-ladder at-most-one over a fixed literal set: n-1 auxiliary
   chain literals, 3n-4 clauses — the pairwise encoding the classic
   one-hot helper uses is quadratic and unusable at 127 physical
   qubits. *)
let amo_ladder ctx (xs : Lit.t array) =
  let n = Array.length xs in
  if n > 1 then begin
    let a = ref (Ctx.fresh ctx) in
    Ctx.add2 ctx (Lit.negate xs.(0)) !a;
    for i = 1 to n - 1 do
      if i < n - 1 then begin
        let a' = Ctx.fresh ctx in
        Ctx.add2 ctx (Lit.negate xs.(i)) a';
        Ctx.add2 ctx (Lit.negate !a) a';
        Ctx.add2 ctx (Lit.negate !a) (Lit.negate xs.(i));
        a := a'
      end
      else Ctx.add2 ctx (Lit.negate !a) (Lit.negate xs.(i))
    done
  end

(* All sigma literals, edge-major (enumeration order is only used to
   seed the counter; appends from later extensions keep their own
   order — the counter is order-insensitive). *)
let sigma_lits t =
  let acc = ref [] in
  for e = t.ne - 1 downto 0 do
    for tm = Array.length t.sigma.(e) - 1 downto 0 do
      match t.sigma.(e).(tm) with None -> () | Some l -> acc := (e, tm, l) :: !acc
    done
  done;
  !acc

(* ---- delta emission ---- *)

(* One new mapping step: one-hot rows for every program qubit plus
   at-most-one-qubit-per-physical injectivity. *)
let emit_mapping_step t tm =
  Ctx.set_provenance t.ctx "mapping";
  let step = Array.init t.nq (fun _ -> Array.init t.np (fun _ -> Ctx.fresh_var t.ctx)) in
  t.pi.(tm) <- step;
  for q = 0 to t.nq - 1 do
    Ctx.add_array t.ctx step.(q);
    amo_ladder t.ctx step.(q)
  done;
  Ctx.set_provenance t.ctx "injectivity";
  for p = 0 to t.np - 1 do
    amo_ladder t.ctx (Array.init t.nq (fun q -> step.(q).(p)))
  done

(* Per-gate execution literal + prefix chain + dependencies at step tm. *)
let emit_gate_step t tm =
  Ctx.set_provenance t.ctx "time";
  for g = 0 to t.ng - 1 do
    let xl = Ctx.fresh_var t.ctx in
    let pl = Ctx.fresh_var t.ctx in
    t.x.(g).(tm) <- xl;
    t.xpre.(g).(tm) <- pl;
    Ctx.add2 t.ctx (Lit.negate xl) pl;
    if tm > 0 then begin
      Ctx.add2 t.ctx (Lit.negate t.xpre.(g).(tm - 1)) pl;
      (* at-most-one execution step *)
      Ctx.add2 t.ctx (Lit.negate t.xpre.(g).(tm - 1)) (Lit.negate xl)
    end
  done;
  Ctx.set_provenance t.ctx "dependencies";
  List.iter
    (fun (g, g') ->
      if tm = 0 then Ctx.add_clause t.ctx [ Lit.negate t.x.(g').(0) ]
      else Ctx.add2 t.ctx (Lit.negate t.x.(g').(tm)) t.xpre.(g).(tm - 1))
    t.deps

(* Eq. 1 at step tm: a two-qubit gate executing at tm puts its operands
   on a coupling edge.  One clause per physical qubit: if q sits on p,
   q' must sit on one of p's neighbors (over the allowed edge set for
   the symmetry-pinned pivot gate).  The one-hot rows make this
   equivalent to the classic edge-disjunction form. *)
let emit_adjacency_step t tm =
  Ctx.set_provenance t.ctx "adjacency";
  Array.iter
    (fun (g : Gate.t) ->
      if Gate.is_two_qubit g then begin
        let q, q' = Gate.pair g in
        let allowed =
          match t.pivot with
          | Some (pg, flags) when pg = g.Gate.id -> fun e -> flags.(e)
          | _ -> fun _ -> true
        in
        let xl = t.x.(g.Gate.id).(tm) in
        for p = 0 to t.np - 1 do
          let succs =
            List.filter_map
              (fun p' ->
                if allowed (Coupling.edge_id t.device p p') then Some t.pi.(tm).(q').(p')
                else None)
              (Coupling.neighbors t.device p)
          in
          Ctx.add_clause t.ctx
            (Lit.negate xl :: Lit.negate t.pi.(tm).(q).(p) :: succs)
        done
      end)
    t.circuit.Circuit.gates

(* The two overlap clauses of program qubit [q] for a gate [xl] and a
   SWAP [sl] on edge (pa, pb) finishing at [tm]. *)
let emit_overlap t tm xl sl pa pb q =
  Ctx.add3 t.ctx (Lit.negate xl) (Lit.negate t.pi.(tm).(q).(pa)) (Lit.negate sl);
  Ctx.add3 t.ctx (Lit.negate xl) (Lit.negate t.pi.(tm).(q).(pb)) (Lit.negate sl)

(* New SWAP slot (e, tm): gate/SWAP overlap (Eq. 2/3: the SWAP occupies
   (tm - sd, tm]; a gate scheduled in the window may not touch either
   endpoint, membership evaluated at the finish step tm, exactly as the
   classic encoder), SWAP/SWAP exclusion within sd steps on a shared
   endpoint, existing depth selectors, and phase hint. *)
let emit_sigma_slot t tm =
  let sd = t.swap_duration in
  let s = solver t in
  let fresh = Array.init t.ne (fun _ -> Ctx.fresh_var t.ctx) in
  for e = 0 to t.ne - 1 do
    t.sigma.(e).(tm) <- Some fresh.(e)
  done;
  Ctx.set_provenance t.ctx "swap_gate_overlap";
  for e = 0 to t.ne - 1 do
    let sl = fresh.(e) in
    let pa, pb = Coupling.edge t.device e in
    for t' = max 0 (tm - sd + 1) to tm do
      Array.iter
        (fun (g : Gate.t) ->
          let xl = t.x.(g.Gate.id).(t') in
          match g.Gate.operands with
          | Gate.One q -> emit_overlap t tm xl sl pa pb q
          | Gate.Two (q, q') ->
            emit_overlap t tm xl sl pa pb q;
            emit_overlap t tm xl sl pa pb q')
        t.circuit.Circuit.gates
    done
  done;
  Ctx.set_provenance t.ctx "swap_swap_overlap";
  for e = 0 to t.ne - 1 do
    let sl = fresh.(e) in
    let pa, pb = Coupling.edge t.device e in
    (* against every earlier slot within sd steps (slots are created in
       increasing tm order, so only the backward direction exists) and
       against this slot's own step *)
    for tm' = max 0 (tm - sd + 1) to tm do
      for e' = 0 to t.ne - 1 do
        if not (e' = e && tm' = tm) then
          match t.sigma.(e').(tm') with
          | None -> ()
          | Some sl' ->
            let pc, pd = Coupling.edge t.device e' in
            if pc = pa || pc = pb || pd = pa || pd = pb then
              Ctx.add2 t.ctx (Lit.negate sl) (Lit.negate sl')
      done
    done
  done;
  Ctx.set_provenance t.ctx "objective.depth";
  Hashtbl.iter
    (fun d sel ->
      if tm >= d then
        Array.iter (fun sl -> Ctx.add2 t.ctx (Lit.negate sel) (Lit.negate sl)) fresh)
    t.selectors;
  Array.iter (fun sl -> Solver.suggest_phase s (Lit.var sl) false) fresh;
  (* the persistent cardinality chain absorbs the new slots *)
  (match t.counter with
  | None -> ()
  | Some (kind, c) ->
    Ctx.set_provenance t.ctx "objective.counter";
    (match kind with
    | Swaps -> Cardinality.Inc.add_inputs c fresh
    | Weighted w ->
      Array.iteri
        (fun e sl ->
          let wt = w e in
          if wt > 0 then Cardinality.Inc.add_inputs c (Array.make wt sl))
        fresh))

(* Mapping transfer between steps tm and tm+1 (constraint 4 + SWAP
   transformation): a program qubit follows the SWAP finishing at tm on
   its physical qubit, or stays put when there is none. *)
let emit_transition t tm =
  Ctx.set_provenance t.ctx "transitions";
  (* per physical qubit p: the SWAPs finishing on p at tm, in incident-
     edge order, each with the qubit it moves p's occupant to *)
  let moves =
    Array.init t.np (fun p ->
        Coupling.incident_edges t.device p
        |> List.filter_map (fun e ->
               match t.sigma.(e).(tm) with
               | None -> None
               | Some sl ->
                 let a, b = Coupling.edge t.device e in
                 Some (sl, if a = p then b else a))
        |> Array.of_list)
  in
  (* the stay-put clause's tail: those SWAPs, then a slot for the target *)
  let stay = Array.map (fun mv -> Array.append (Array.map fst mv) [| Lit.undef |]) moves in
  for q = 0 to t.nq - 1 do
    for p = 0 to t.np - 1 do
      let here = t.pi.(tm).(q).(p) in
      let row = stay.(p) in
      row.(Array.length row - 1) <- t.pi.(tm + 1).(q).(p);
      Ctx.add_array t.ctx ~pre:(Lit.negate here) row;
      let mv = moves.(p) in
      for k = 0 to Array.length mv - 1 do
        let sl, other = mv.(k) in
        Ctx.add3 t.ctx (Lit.negate sl) (Lit.negate here) t.pi.(tm + 1).(q).(other)
      done
    done
  done

(* Retire the current activation literal (blocked-clause unit: the
   literal occurs only negatively in the database) and guard the
   at-least-one-execution clauses of the new horizon with a fresh one. *)
let refresh_act t =
  Ctx.set_provenance t.ctx "time";
  let s = solver t in
  (match t.act with
  | None -> ()
  | Some old ->
    Ctx.add_clause t.ctx [ Lit.negate old ];
    List.iter (fun cl -> Solver.log_proof_delete s (Array.of_list cl)) t.act_clauses);
  let act = Ctx.fresh_var t.ctx in
  let clauses = ref [] in
  for g = 0 to t.ng - 1 do
    let cl = Lit.negate act :: Array.to_list t.x.(g) in
    Ctx.add_clause t.ctx cl;
    clauses := cl :: !clauses
  done;
  t.act <- Some act;
  t.act_clauses <- !clauses

(* Domain-guided branching: earlier-layer execution literals get higher
   activity (the classic encoder's ASAP hint, transposed to the
   time-indexed variables). *)
let apply_branching_hints t ~from_step =
  let s = solver t in
  let layers = Dag.asap_layers t.dag in
  let depth = List.length layers in
  List.iteri
    (fun layer_idx gates ->
      let weight = float_of_int (4 * (depth - layer_idx)) in
      List.iter
        (fun g ->
          for tm = from_step to t.t_max - 1 do
            Solver.boost_activity s (Lit.var t.x.(g).(tm)) weight
          done)
        gates)
    layers;
  if from_step = 0 && t.t_max > 0 then
    Array.iter
      (fun row -> Array.iter (fun l -> Solver.boost_activity s (Lit.var l) (float_of_int (4 * depth))) row)
      t.pi.(0)

(* An upper bound on the arena words [grow t new_t_max] adds (a clause
   takes 3 header words plus its literals; root simplification only
   removes words), term by term after the emitters above.  With the
   arena sized to it once, a horizon is not copied through every
   doubling on the way. *)
let clause_words t ~old ~new_t_max =
  let sd = t.swap_duration in
  let ng2 =
    Array.fold_left (fun n g -> if Gate.is_two_qubit g then n + 1 else n) 0 t.circuit.Circuit.gates
  in
  let sum_deg_sq = ref 0 in
  for p = 0 to t.np - 1 do
    let d = List.length (Coupling.neighbors t.device p) in
    sum_deg_sq := !sum_deg_sq + (d * d)
  done;
  (* one-hot rows; two ladders of fewer than 3n binary clauses per qubit
     pair; chains and dependencies; adjacency (degrees sum to 2 ne) *)
  let step =
    (t.nq * (3 + t.np))
    + (30 * t.nq * t.np)
    + (5 * ((3 * t.ng) + List.length t.deps))
    + (ng2 * ((5 * t.np) + (2 * t.ne)))
  in
  (* the counter's rows for a slot's inputs: a binary and a ternary
     clause per column *)
  let counter_words =
    match t.counter with
    | None -> 0
    | Some (kind, c) ->
      let inputs =
        match kind with
        | Swaps -> t.ne
        | Weighted w ->
          let n = ref 0 in
          for e = 0 to t.ne - 1 do
            n := !n + max 0 (w e)
          done;
          !n
      in
      inputs * (5 + (11 * Cardinality.Inc.width c))
  in
  (* gate/SWAP overlap over sd steps, SWAP/SWAP overlap on shared
     endpoints, the existing depth selectors' guards, the counter *)
  let slot =
    (12 * t.ne * sd * (t.ng + ng2))
    + (5 * sd * !sum_deg_sq)
    + (5 * t.ne * Hashtbl.length t.selectors)
    + counter_words
  in
  (* stay-put and move clauses *)
  let transition = t.nq * ((5 * t.np) + (2 * t.ne) + (12 * t.ne)) in
  (* slots and transitions run from [lo] to new_t_max - 2, as in [grow];
     then the activation clauses and the retired literal's unit *)
  let count lo = max 0 (new_t_max - 1 - lo) in
  ((new_t_max - old) * step)
  + (count (max sd (old - 1)) * slot)
  + (count (max 0 (old - 1)) * transition)
  + (t.ng * (4 + new_t_max))
  + 4

let grow t new_t_max =
  let old = t.t_max in
  Solver.reserve_arena (solver t) (clause_words t ~old ~new_t_max);
  (* grow the variable tables first: emitters index them freely (the
     placeholder literal is overwritten by [emit_gate_step] before any
     clause references it) *)
  t.pi <- Array.append t.pi (Array.make (new_t_max - old) [||]);
  let placeholder = Ctx.fresh t.ctx in
  let grow_lit_row row = Array.append row (Array.make (new_t_max - old) placeholder) in
  for g = 0 to t.ng - 1 do
    t.x.(g) <- grow_lit_row t.x.(g);
    t.xpre.(g) <- grow_lit_row t.xpre.(g)
  done;
  for e = 0 to t.ne - 1 do
    t.sigma.(e) <- Array.append t.sigma.(e) (Array.make (new_t_max - old) None)
  done;
  t.t_max <- new_t_max;
  for tm = old to new_t_max - 1 do
    emit_mapping_step t tm;
    emit_gate_step t tm;
    emit_adjacency_step t tm
  done;
  for tm = max t.swap_duration (old - 1) to new_t_max - 2 do
    emit_sigma_slot t tm
  done;
  for tm = max 0 (old - 1) to new_t_max - 2 do
    emit_transition t tm
  done;
  refresh_act t;
  apply_branching_hints t ~from_step:old

let create ?(symmetry = false) ?proof ~t_max ~swap_duration circuit device =
  if t_max < 1 then invalid_arg "Session.create: t_max must be >= 1";
  if swap_duration < 1 then invalid_arg "Session.create: swap_duration must be >= 1";
  if circuit.Circuit.num_qubits > device.Coupling.num_qubits then
    invalid_arg "Session.create: more program qubits than physical qubits";
  let dag = Dag.build circuit in
  let pivot =
    if not symmetry then None
    else
      let rec first = function
        | [] -> None
        | (g : Gate.t) :: rest -> if Gate.is_two_qubit g then Some g.Gate.id else first rest
      in
      match first (Array.to_list circuit.Circuit.gates) with
      | None -> None
      | Some gid ->
        let orbits = Symmetry.edge_orbits device in
        Some (gid, Array.mapi (fun e r -> r = e) orbits)
  in
  let ctx = Ctx.create () in
  (* install the proof logger before any clause exists, or the logged
     premise set would miss the first horizon *)
  (match proof with None -> () | Some p -> Solver.set_proof_logger (Ctx.solver ctx) (Some p));
  let t =
    {
      circuit;
      device;
      dag;
      swap_duration;
      deps = Dag.dependencies dag;
      nq = circuit.Circuit.num_qubits;
      np = device.Coupling.num_qubits;
      ng = Array.length circuit.Circuit.gates;
      ne = Coupling.num_edges device;
      ctx;
      pivot;
      t_max = 0;
      x = Array.make (Array.length circuit.Circuit.gates) [||];
      xpre = Array.make (Array.length circuit.Circuit.gates) [||];
      pi = [||];
      sigma = Array.make (Coupling.num_edges device) [||];
      act = None;
      act_clauses = [];
      selectors = Hashtbl.create 16;
      counter = None;
    }
  in
  let obs = Obs.global () in
  if not (Obs.enabled obs) then grow t t_max
  else begin
    let sp =
      Obs.begin_span obs "encode.build"
        ~attrs:[ ("t_max", Obs.Int t_max); ("incremental", Obs.Bool true) ]
    in
    (try grow t t_max
     with exn ->
       Obs.end_span obs sp;
       raise exn);
    let s = solver t in
    Obs.end_span obs sp
      ~attrs:
        [
          ("vars", Obs.Int (Solver.nvars s));
          ("clauses", Obs.Int (Solver.n_clauses s));
          ("symmetry", Obs.Bool (t.pivot <> None));
        ]
  end;
  t

let extend_horizon t ~t_max:new_t_max =
  if new_t_max > t.t_max then begin
    let obs = Obs.global () in
    if not (Obs.enabled obs) then grow t new_t_max
    else begin
      let s = solver t in
      let v0 = Solver.nvars s and c0 = Solver.n_clauses s in
      let sp =
        Obs.begin_span obs "encode.extend"
          ~attrs:[ ("from", Obs.Int t.t_max); ("t_max", Obs.Int new_t_max) ]
      in
      (try grow t new_t_max
       with exn ->
         Obs.end_span obs sp;
         raise exn);
      Obs.end_span obs sp
        ~attrs:
          [
            ("vars_added", Obs.Int (Solver.nvars s - v0));
            ("clauses_added", Obs.Int (Solver.n_clauses s - c0));
          ]
    end
  end

(* ---- objectives ---- *)

let depth_selector t d =
  if d < 1 || d > t.t_max then invalid_arg "Session.depth_selector: bound out of horizon";
  match Hashtbl.find_opt t.selectors d with
  | Some l -> l
  | None ->
    Ctx.set_provenance t.ctx "objective.depth";
    let l = Ctx.fresh_var t.ctx in
    for g = 0 to t.ng - 1 do
      Ctx.add2 t.ctx (Lit.negate l) t.xpre.(g).(d - 1)
    done;
    List.iter
      (fun (_, tm, sl) -> if tm >= d then Ctx.add2 t.ctx (Lit.negate l) (Lit.negate sl))
      (sigma_lits t);
    Hashtbl.replace t.selectors d l;
    l

let all_sigma_inputs t = List.map (fun (_, _, l) -> l) (sigma_lits t) |> Array.of_list

let build_counter t ~max_bound =
  let width = max 1 (max_bound + 1) in
  Ctx.set_provenance t.ctx "objective.counter";
  match t.counter with
  | Some (Swaps, c) -> Cardinality.Inc.widen c ~width
  | Some (Weighted _, _) ->
    invalid_arg "Session.build_counter: session already has a weighted counter"
  | None ->
    let c = Cardinality.Inc.create ~width t.ctx in
    Cardinality.Inc.add_inputs c (all_sigma_inputs t);
    t.counter <- Some (Swaps, c)

let build_weighted_counter t ~weights ~max_bound =
  let width = max 1 (max_bound + 1) in
  Ctx.set_provenance t.ctx "objective.counter";
  match t.counter with
  | Some (Weighted _, c) -> Cardinality.Inc.widen c ~width
  | Some (Swaps, _) ->
    invalid_arg "Session.build_weighted_counter: session already has a plain counter"
  | None ->
    let c = Cardinality.Inc.create ~width t.ctx in
    List.iter
      (fun (e, _, sl) ->
        let wt = weights e in
        if wt > 0 then Cardinality.Inc.add_inputs c (Array.make wt sl))
      (sigma_lits t);
    t.counter <- Some (Weighted weights, c)

(* At-most-k assumption over the persistent chain, widening on demand.
   [None] when the bound is vacuous. *)
let swap_bound_assumption t k =
  match t.counter with
  | None -> invalid_arg "Session.swap_bound_assumption: build a counter first"
  | Some (_, c) ->
    if k > Cardinality.Inc.capacity c then begin
      Ctx.set_provenance t.ctx "objective.counter";
      Cardinality.Inc.widen c ~width:(k + 1)
    end;
    Cardinality.Inc.at_most_assumption c k

(* ---- solving ---- *)

(* The activation literal of the current horizon, to be passed as an
   assumption by anyone driving the solver directly (e.g. the parallel
   pool); [solve] adds it automatically. *)
let horizon_assumption t =
  match t.act with Some a -> a | None -> invalid_arg "Session.horizon_assumption: empty session"

let solve ?(assumptions = []) ?max_conflicts ?timeout t =
  Solver.solve
    ~assumptions:(horizon_assumption t :: assumptions)
    ?max_conflicts ?timeout (solver t)

(* ---- model extraction ---- *)

type model = {
  m_depth : int;
  m_schedule : int array;
  m_mapping : int array array;  (** m_mapping.(t).(q) = physical qubit *)
  m_swaps : ((int * int) * int) list;  (** (normalized edge, finish step) *)
}

let model t =
  let s = solver t in
  let schedule =
    Array.init t.ng (fun g ->
        let rec find tm =
          if tm >= t.t_max then failwith "Session.model: gate without execution step"
          else if Solver.model_value s t.x.(g).(tm) then tm
          else find (tm + 1)
        in
        find 0)
  in
  let swaps = ref [] in
  List.iter
    (fun (e, tm, sl) ->
      if Solver.model_value s sl then swaps := (Coupling.edge t.device e, tm) :: !swaps)
    (sigma_lits t);
  let swaps = List.sort compare !swaps in
  let horizon =
    let m = Array.fold_left max 0 schedule in
    List.fold_left (fun acc (_, tm) -> max acc tm) m swaps
  in
  let depth = 1 + horizon in
  let mapping =
    Array.init depth (fun tm ->
        Array.init t.nq (fun q ->
            let rec find p =
              if p >= t.np then failwith "Session.model: unmapped program qubit"
              else if Solver.model_value s t.pi.(tm).(q).(p) then p
              else find (p + 1)
            in
            find 0))
  in
  { m_depth = depth; m_schedule = schedule; m_mapping = mapping; m_swaps = swaps }
