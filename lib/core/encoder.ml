(* SAT encoding of the layout synthesis problem (paper §III-A).

   Builds either the succinct OLSQ2 formulation or the original OLSQ
   formulation (with its redundant space variables) over a fixed horizon of
   [t_max] time steps.  Objective bounds are attached to selector literals
   so the optimizer can tighten/relax them through solver assumptions --
   the incremental-solving strategy of §III-B.

   Variables (§III-A-1):
   - mapping pi.(q).(t): physical qubit holding program qubit q at time t;
   - time  t_g: execution time step of gate g;
   - sigma.(e).(t): a SWAP on edge e finishes (occupies its last step) at
     time t.  Following the paper's constraint ranges, finish times before
     S_D are disallowed (a SWAP layer before any gate can be folded into
     the free initial mapping), as is the final step (its effect would be
     invisible).

   Constraint groups:
   (1) mapping injectivity  - pairwise disequalities or the inverse-
       function channel (the EUF trick of Improvement 3);
   (2) gate dependencies    - strict time ordering along the DAG;
   (3) two-qubit adjacency  - Eq. 1;
   (4) mapping transfer     - stay/swap transition between t and t+1;
   (5) SWAP overlap         - Eq. 2 (1q gates), Eq. 3 (2q gates), plus
       SWAP/SWAP exclusion on edges sharing an endpoint. *)

module F = Olsq2_encode.Formula
module Ctx = Olsq2_encode.Ctx
module Cardinality = Olsq2_encode.Cardinality
module Pb = Olsq2_encode.Pb
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Dag = Olsq2_circuit.Dag
module Coupling = Olsq2_device.Coupling
module Symmetry = Olsq2_device.Symmetry
module Obs = Olsq2_obs.Obs
module Simplify = Olsq2_simplify.Simplify

type counter =
  | Card of Cardinality.outputs
  | Inc_card of Cardinality.Inc.t (* Seq_counter: one widenable chain *)
  | Adder_net of Pb.t

type counter_kind = Plain | Weighted

type t = {
  instance : Instance.t;
  config : Config.t;
  ctx : Ctx.t;
  t_max : int;
  pi : Ivar.t array array; (* pi.(q).(t) *)
  time : Ivar.t array; (* time.(g) *)
  sigma : Lit.t option array array; (* sigma.(e).(t); None = disallowed *)
  depth_selectors : (int, Lit.t) Hashtbl.t;
  (* SWAP-count counters, widest first: a narrow sequential counter may
     later be superseded by a wider one when the optimizer needs larger
     bounds (heuristic warm starts can guess too low) *)
  mutable counters : (int * counter) list; (* (max expressible bound, counter) *)
  mutable counter_kind : counter_kind option;
  mutable simplify_report : Simplify.report option; (* preprocessing, when on *)
}

let solver t = Ctx.solver t.ctx

(* Flattened list of existing sigma literals with their (edge, time). *)
let sigma_lits t =
  let out = ref [] in
  Array.iteri
    (fun e row -> Array.iteri (fun tm l -> match l with Some l -> out := (e, tm, l) :: !out | None -> ()) row)
    t.sigma;
  List.rev !out

(* ---- constraint groups ---- *)

let assert_injectivity enc =
  let inst = enc.instance in
  let nq = Instance.num_qubits inst in
  let np = Instance.num_physical inst in
  match enc.config.Config.injectivity with
  | Config.Pairwise ->
    for tm = 0 to enc.t_max - 1 do
      for q = 0 to nq - 1 do
        for q' = q + 1 to nq - 1 do
          Ctx.assert_formula enc.ctx (Ivar.neq enc.pi.(q).(tm) enc.pi.(q').(tm))
        done
      done
    done
  | Config.Inverse ->
    (* pi_inv(p, t) = q whenever pi(q, t) = p: a left inverse forces
       injectivity with |Q| * |P| short channel constraints per step
       instead of |Q|^2 * |P| pairwise ones. *)
    let pi_inv =
      Array.init np (fun _ ->
          Array.init enc.t_max (fun _ -> Ivar.fresh enc.ctx enc.config.Config.var_encoding nq))
    in
    for tm = 0 to enc.t_max - 1 do
      for q = 0 to nq - 1 do
        for p = 0 to np - 1 do
          Ctx.assert_formula enc.ctx
            (F.imply (Ivar.eq_const enc.pi.(q).(tm) p) (Ivar.eq_const pi_inv.(p).(tm) q))
        done
      done
    done

let assert_dependencies enc =
  let dag = enc.instance.Instance.dag in
  List.iter
    (fun (g, g') -> Ctx.assert_formula enc.ctx (Ivar.lt enc.time.(g) enc.time.(g')))
    (Dag.dependencies dag)

(* Eq. 1: a two-qubit gate executes on some coupling edge ([allowed]
   filters by edge id when symmetry breaking restricts the choice). *)
let adjacency_formula ?allowed enc q q' tm =
  let device = enc.instance.Instance.device in
  let keep = match allowed with None -> fun _ -> true | Some f -> f in
  let disjuncts = ref [] in
  Array.iteri
    (fun e (p, p') ->
      if keep e then
        disjuncts :=
          F.and_ [ Ivar.eq_const enc.pi.(q).(tm) p; Ivar.eq_const enc.pi.(q').(tm) p' ]
          :: F.and_ [ Ivar.eq_const enc.pi.(q).(tm) p'; Ivar.eq_const enc.pi.(q').(tm) p ]
          :: !disjuncts)
    device.Coupling.edges;
  F.or_ !disjuncts

let assert_adjacency_olsq2 enc =
  let circuit = enc.instance.Instance.circuit in
  (* Symmetry breaking (config.symmetry): any device automorphism maps
     solutions to solutions with the same depth and SWAP count, so the
     first two-qubit gate may be pinned to one representative edge per
     automorphism orbit.  Unsound for weighted-SWAP objectives — those
     callers must pass symmetry = false. *)
  let pivot =
    if not enc.config.Config.symmetry then None
    else
      Array.fold_left
        (fun acc (g : Gate.t) ->
          match acc with
          | Some _ -> acc
          | None -> if Gate.is_two_qubit g then Some g.Gate.id else None)
        None circuit.Circuit.gates
  in
  let pivot_allowed =
    match pivot with
    | None -> None
    | Some _ ->
      let orbits = Symmetry.edge_orbits enc.instance.Instance.device in
      Some (fun e -> orbits.(e) = e)
  in
  Array.iter
    (fun (g : Gate.t) ->
      if Gate.is_two_qubit g then begin
        let q, q' = Gate.pair g in
        let allowed = if pivot = Some g.Gate.id then pivot_allowed else None in
        for tm = 0 to enc.t_max - 1 do
          Ctx.assert_formula enc.ctx
            (F.imply
               (Ivar.eq_const enc.time.(g.Gate.id) tm)
               (adjacency_formula ?allowed enc q q' tm))
        done
      end)
    circuit.Circuit.gates

(* Mapping transfer (constraint 4 + SWAP transformation): between steps t
   and t+1, a program qubit follows the SWAP finishing at t on its current
   physical qubit, or stays put if there is none. *)
let assert_transitions enc =
  let inst = enc.instance in
  let device = inst.Instance.device in
  let nq = Instance.num_qubits inst in
  let np = Instance.num_physical inst in
  for tm = 0 to enc.t_max - 2 do
    for q = 0 to nq - 1 do
      for p = 0 to np - 1 do
        let here = Ivar.eq_const enc.pi.(q).(tm) p in
        let incident = Coupling.incident_edges device p in
        let no_swap =
          F.and_
            (List.filter_map
               (fun e -> Option.map (fun l -> F.Not (F.Atom l)) enc.sigma.(e).(tm))
               incident)
        in
        Ctx.assert_formula enc.ctx
          (F.imply (F.and_ [ here; no_swap ]) (Ivar.eq_const enc.pi.(q).(tm + 1) p));
        List.iter
          (fun e ->
            match enc.sigma.(e).(tm) with
            | None -> ()
            | Some l ->
              let a, b = Coupling.edge device e in
              let other = if a = p then b else a in
              Ctx.assert_formula enc.ctx
                (F.imply (F.and_ [ F.Atom l; here ]) (Ivar.eq_const enc.pi.(q).(tm + 1) other)))
          incident
      done
    done
  done

(* overlap(t, q, e) of Eq. 2/3: program qubit q sits on an endpoint of e
   at time t. *)
let overlap enc q e tm =
  let p, p' = Coupling.edge enc.instance.Instance.device e in
  F.or_ [ Ivar.eq_const enc.pi.(q).(tm) p; Ivar.eq_const enc.pi.(q).(tm) p' ]

(* Eq. 2 and Eq. 3 for the OLSQ2 formulation: a SWAP finishing at t
   occupies (t - S_D, t]; no gate scheduled in that window may touch the
   SWAP's edge. *)
let assert_swap_gate_overlap_olsq2 enc =
  let inst = enc.instance in
  let circuit = inst.Instance.circuit in
  let sd = inst.Instance.swap_duration in
  List.iter
    (fun (e, tm, sl) ->
      let t_from = max 0 (tm - sd + 1) in
      for t' = t_from to tm do
        Array.iter
          (fun (g : Gate.t) ->
            let time_is = Ivar.eq_const enc.time.(g.Gate.id) t' in
            let touches =
              match g.Gate.operands with
              | Gate.One q -> overlap enc q e tm
              | Gate.Two (q, q') -> F.or_ [ overlap enc q e tm; overlap enc q' e tm ]
            in
            Ctx.assert_formula enc.ctx
              (F.imply (F.and_ [ time_is; touches ]) (F.Not (F.Atom sl))))
          circuit.Circuit.gates
      done)
    (sigma_lits enc)

(* SWAP/SWAP exclusion: two SWAPs sharing a physical qubit must be at
   least S_D steps apart. *)
let assert_swap_swap_overlap enc =
  let device = enc.instance.Instance.device in
  let sd = enc.instance.Instance.swap_duration in
  let share e e' =
    let a, b = Coupling.edge device e and c, d = Coupling.edge device e' in
    a = c || a = d || b = c || b = d
  in
  let sigmas = sigma_lits enc in
  List.iter
    (fun (e, tm, l) ->
      List.iter
        (fun (e', tm', l') ->
          let close = tm' >= tm && tm' - tm < sd in
          let conflicting = share e e' && close && not (e = e' && tm = tm') in
          if conflicting then Ctx.add_clause enc.ctx [ Lit.negate l; Lit.negate l' ])
        sigmas)
    sigmas

(* ---- OLSQ-specific (redundant) constraints, Improvement 1 baseline ---- *)

(* The original formulation gives every gate a space variable: an edge for
   two-qubit gates, a physical qubit for single-qubit gates, plus the
   consistency constraints tying spaces to mappings.  Eq. 2/3 are then
   phrased on space variables.  This reproduces the variable and
   constraint overhead that Improvement 1 removes. *)
let assert_olsq_space enc =
  let inst = enc.instance in
  let circuit = inst.Instance.circuit in
  let device = inst.Instance.device in
  let ne = Coupling.num_edges device in
  let np = Instance.num_physical inst in
  let sd = inst.Instance.swap_duration in
  let enc_kind = enc.config.Config.var_encoding in
  let space =
    Array.map
      (fun (g : Gate.t) ->
        Ivar.fresh enc.ctx enc_kind (if Gate.is_two_qubit g then ne else np))
      circuit.Circuit.gates
  in
  (* consistency between space, time and mapping variables *)
  Array.iter
    (fun (g : Gate.t) ->
      let id = g.Gate.id in
      match g.Gate.operands with
      | Gate.Two (q, q') ->
        for tm = 0 to enc.t_max - 1 do
          for e = 0 to ne - 1 do
            let p, p' = Coupling.edge device e in
            let on_edge =
              F.or_
                [
                  F.and_ [ Ivar.eq_const enc.pi.(q).(tm) p; Ivar.eq_const enc.pi.(q').(tm) p' ];
                  F.and_ [ Ivar.eq_const enc.pi.(q).(tm) p'; Ivar.eq_const enc.pi.(q').(tm) p ];
                ]
            in
            Ctx.assert_formula enc.ctx
              (F.imply
                 (F.and_ [ Ivar.eq_const enc.time.(id) tm; Ivar.eq_const space.(id) e ])
                 on_edge)
          done
        done
      | Gate.One q ->
        for tm = 0 to enc.t_max - 1 do
          for p = 0 to np - 1 do
            Ctx.assert_formula enc.ctx
              (F.imply
                 (F.and_ [ Ivar.eq_const enc.time.(id) tm; Ivar.eq_const space.(id) p ])
                 (Ivar.eq_const enc.pi.(q).(tm) p))
          done
        done)
    circuit.Circuit.gates;
  (* Eq. 2/3 via space variables *)
  List.iter
    (fun (e, tm, sl) ->
      let pa, pb = Coupling.edge device e in
      let t_from = max 0 (tm - sd + 1) in
      for t' = t_from to tm do
        Array.iter
          (fun (g : Gate.t) ->
            let id = g.Gate.id in
            let time_is = Ivar.eq_const enc.time.(id) t' in
            match g.Gate.operands with
            | Gate.One _ ->
              List.iter
                (fun p ->
                  Ctx.assert_formula enc.ctx
                    (F.imply
                       (F.and_ [ time_is; Ivar.eq_const space.(id) p ])
                       (F.Not (F.Atom sl))))
                [ pa; pb ]
            | Gate.Two _ ->
              for e' = 0 to ne - 1 do
                let pc, pd = Coupling.edge device e' in
                if pc = pa || pc = pb || pd = pa || pd = pb then
                  Ctx.assert_formula enc.ctx
                    (F.imply
                       (F.and_ [ time_is; Ivar.eq_const space.(id) e' ])
                       (F.Not (F.Atom sl)))
              done)
          circuit.Circuit.gates
      done)
    (sigma_lits enc)

(* ---- construction ---- *)

let build_raw ?(config = Config.default) ?proof instance ~t_max =
  if t_max < 1 then invalid_arg "Encoder.build: need at least one time step";
  let ctx = Ctx.create () in
  (* install the proof logger before any clause exists, or the logged
     premise set would be incomplete *)
  (match proof with None -> () | Some p -> Solver.set_proof_logger (Ctx.solver ctx) (Some p));
  let nq = Instance.num_qubits instance in
  let ne = Coupling.num_edges instance.Instance.device in
  let ng = Instance.num_gates instance in
  let sd = instance.Instance.swap_duration in
  let enc_kind = config.Config.var_encoding in
  let pi =
    Array.init nq (fun _ ->
        Array.init t_max (fun _ -> Ivar.fresh ctx enc_kind (Instance.num_physical instance)))
  in
  let time = Array.init ng (fun _ -> Ivar.fresh ctx enc_kind t_max) in
  let sigma =
    Array.init ne (fun _ ->
        Array.init t_max (fun tm ->
            (* allowed finish times: [S_D, t_max - 2] (see header) *)
            if tm >= sd && tm <= t_max - 2 then Some (Ctx.fresh_var ctx) else None))
  in
  let enc =
    {
      instance;
      config;
      ctx;
      t_max;
      pi;
      time;
      sigma;
      depth_selectors = Hashtbl.create 8;
      counters = [];
      counter_kind = None;
      simplify_report = None;
    }
  in
  let group label f =
    Ctx.set_provenance ctx label;
    f enc
  in
  group "injectivity" assert_injectivity;
  group "dependencies" assert_dependencies;
  group "transitions" assert_transitions;
  group "swap_swap_overlap" assert_swap_swap_overlap;
  (match config.Config.formulation with
  | Config.Olsq2 ->
    group "adjacency" assert_adjacency_olsq2;
    group "swap_gate_overlap" assert_swap_gate_overlap_olsq2
  | Config.Olsq ->
    (* In the original model, two-qubit adjacency is enforced indirectly:
       every gate owns a space variable (which always takes some value)
       and the consistency constraints tie it to the mapping at the
       gate's scheduled time. *)
    group "olsq_space" assert_olsq_space);
  Ctx.set_provenance ctx "other";
  (* Preprocess the finished encoding (paper pipeline: Z3 simplifies every
     bit-blasted instance before search).  Everything the caller reads
     back or assumes later is frozen first: the mapping/time variables
     (model extraction), the sigma variables (SWAP extraction and counter
     inputs built after this point).  Objective selectors don't exist yet;
     they are frozen at creation below.  The Lazy_int arm is excluded: its
     clause set grows through CEGAR refinement over theory atoms. *)
  (match config.Config.var_encoding with
  | Config.Lazy_int -> ()
  | Config.Onehot | Config.Binary ->
    if config.Config.simplify then begin
      let s = Ctx.solver ctx in
      let freeze_ivar iv = List.iter (fun l -> Solver.freeze s (Lit.var l)) (Ivar.literals iv) in
      Array.iter (fun row -> Array.iter freeze_ivar row) pi;
      Array.iter freeze_ivar time;
      Array.iter
        (Array.iter (function Some l -> Solver.freeze s (Lit.var l) | None -> ()))
        sigma;
      enc.simplify_report <- Some (Simplify.preprocess s);
      Simplify.attach_inprocessing s
    end);
  enc

(* One span per encoding build, carrying the clause/variable counts the
   paper's Fig. 1 narrative is about. *)
let build ?config ?proof instance ~t_max =
  let obs = Obs.global () in
  if not (Obs.enabled obs) then build_raw ?config ?proof instance ~t_max
  else begin
    let sp = Obs.begin_span obs "encode.build" ~attrs:[ ("t_max", Obs.Int t_max) ] in
    let enc = build_raw ?config ?proof instance ~t_max in
    let s = solver enc in
    Obs.end_span obs sp
      ~attrs:
        [
          ("config", Obs.Str (Config.name enc.config));
          ("vars", Obs.Int (Solver.nvars s));
          ("clauses", Obs.Int (Solver.n_clauses s));
        ];
    enc
  end

(* ---- objective bounds via selector literals (paper §III-B) ---- *)

(* Selector literal enforcing depth <= d time steps: all gates end before
   d, and no SWAP finishes at or after d. *)
let depth_selector enc d =
  match Hashtbl.find_opt enc.depth_selectors d with
  | Some l -> l
  | None ->
    Ctx.set_provenance enc.ctx "objective.depth";
    let l = Ctx.fresh enc.ctx in
    (* the guard is assumed across later solves: never eliminable *)
    Solver.freeze (solver enc) (Lit.var l);
    Array.iter (fun tv -> Ctx.assert_implied enc.ctx ~guard:l (Ivar.le_const tv (d - 1))) enc.time;
    List.iter
      (fun (_, tm, sl) -> if tm >= d then Ctx.add_clause enc.ctx [ Lit.negate l; Lit.negate sl ])
      (sigma_lits enc);
    Hashtbl.add enc.depth_selectors d l;
    l

(* Expressible-bound capacity of a counter. *)
let counter_capacity inputs = function
  | Card out -> Array.length out.Cardinality.count_ge - 1
  | Inc_card c -> Cardinality.Inc.capacity c
  | Adder_net _ -> inputs (* binary register covers the full range *)

(* Counter outputs become bound assumptions in later solves, and the
   adder's sum register is compared against lazily-created bounds:
   inprocessing must never eliminate them.  The incremental chain
   additionally freezes its interior registers — future [widen] calls
   emit clauses referencing every row. *)
let freeze_counter enc = function
  | Card out ->
    Array.iter (fun l -> Solver.freeze (solver enc) (Lit.var l)) out.Cardinality.count_ge
  | Inc_card c ->
    Cardinality.Inc.iter_registers c ~f:(fun l -> Solver.freeze (solver enc) (Lit.var l))
  | Adder_net net ->
    Array.iter (fun l -> Solver.freeze (solver enc) (Lit.var l)) (Pb.sum_bits net)

let build_counter_over enc lits ~max_bound =
  let n = Array.length lits in
  let wanted = min max_bound n in
  let capacity_ok (cap, _) = cap >= wanted in
  if not (List.exists capacity_ok enc.counters) then begin
    Ctx.set_provenance enc.ctx "objective.counter";
    let obs = Obs.global () in
    let v0, c0 =
      if Obs.enabled obs then (Solver.nvars (solver enc), Solver.n_clauses (solver enc))
      else (0, 0)
    in
    (* The sequential counter is a widenable Sinz chain: when a bound
       outgrows the chain built for an earlier iteration, [widen] emits
       only the new register levels instead of re-encoding a fresh
       full-width counter over the same inputs — the memoized
       sub-network is everything already in the solver. *)
    let inc_existing =
      List.find_map
        (function _, Inc_card c when Cardinality.Inc.size c = n -> Some c | _ -> None)
        enc.counters
    in
    let counter =
      match (enc.config.Config.cardinality, inc_existing) with
      | Config.Seq_counter, Some c ->
        Cardinality.Inc.widen c ~width:(max 1 (min n (wanted + 1)));
        Inc_card c
      | Config.Seq_counter, None ->
        let c = Cardinality.Inc.create ~width:(max 1 (min n (wanted + 1))) enc.ctx in
        Cardinality.Inc.add_inputs c lits;
        Inc_card c
      | Config.Totalizer, _ -> Card (Cardinality.totalizer enc.ctx lits)
      | Config.Adder, _ -> Adder_net (Pb.adder_network enc.ctx lits)
    in
    freeze_counter enc counter;
    let entry = (counter_capacity n counter, counter) in
    enc.counters <-
      (match counter with
      | Inc_card _ ->
        (* the widened chain replaces its stale-capacity entry *)
        entry
        :: List.filter (function _, Inc_card _ -> false | _ -> true) enc.counters
      | Card _ | Adder_net _ -> entry :: enc.counters);
    if Obs.enabled obs then
      Obs.instant obs "encode.counter"
        ~attrs:
          [
            ("max_bound", Obs.Int wanted);
            ("inputs", Obs.Int n);
            ("widened", Obs.Bool (inc_existing <> None));
            ("vars_added", Obs.Int (Solver.nvars (solver enc) - v0));
            ("clauses_added", Obs.Int (Solver.n_clauses (solver enc) - c0));
          ]
  end

(* Build (or widen) the SWAP-count counter (Eq. 5) so bounds up to
   [max_bound] are expressible.  Widening builds an additional counter
   over the same inputs; the narrow one keeps serving tight bounds. *)
let build_counter enc ~max_bound =
  (match enc.counter_kind with
  | Some Weighted -> invalid_arg "Encoder.build_counter: weighted counter already in use"
  | Some Plain | None -> ());
  enc.counter_kind <- Some Plain;
  let lits = Array.of_list (List.map (fun (_, _, l) -> l) (sigma_lits enc)) in
  build_counter_over enc lits ~max_bound

(* Assumption literal for "at most k SWAPs"; [None] when the bound is
   vacuous (k at or above every input count).  Requires [build_counter]. *)
let swap_bound_assumption enc k =
  if enc.counters = [] then invalid_arg "Encoder.swap_bound_assumption: counter not built";
  let try_counter (cap, counter) =
    if cap < k then None
    else
      match counter with
      | Card out -> Cardinality.at_most_assumption out k
      | Inc_card c -> Cardinality.Inc.at_most_assumption c k
      | Adder_net net ->
        let l = Pb.at_most_assumption enc.ctx net k in
        (* reified lazily, possibly between solves: freeze before an
           inprocessing pass can see it *)
        Solver.freeze (solver enc) (Lit.var l);
        Some l
  in
  (* prefer the narrowest counter able to express the bound *)
  let ordered = List.sort (fun (a, _) (b, _) -> compare a b) enc.counters in
  List.find_map try_counter ordered

(* Fidelity-aware (weighted) SWAP objective: each edge carries an integer
   cost [weights e] (e.g. scaled -log fidelity), and the bound constrains
   the weighted sum.  Encoded by repeating each sigma literal [weights e]
   times as counter inputs, so the unary count equals the weighted cost
   and the incremental-descent machinery applies unchanged.  The weight
   function must stay fixed for the encoder's lifetime. *)
let build_weighted_counter enc ~weights ~max_bound =
  (match enc.counter_kind with
  | Some Plain -> invalid_arg "Encoder.build_weighted_counter: plain counter already in use"
  | Some Weighted | None -> ());
  enc.counter_kind <- Some Weighted;
  let lits =
    List.concat_map
      (fun (e, _, l) ->
        let w = weights e in
        if w < 0 then invalid_arg "Encoder.build_weighted_counter: negative weight";
        List.init w (fun _ -> l))
      (sigma_lits enc)
    |> Array.of_list
  in
  build_counter_over enc lits ~max_bound

(* ---- solving and extraction ---- *)

(* Lazy-integer configurations route through the theory CEGAR loop; all
   others hit the SAT core directly. *)
(* The [Lazy_int] arm must run its CEGAR loop around every solve, so a
   raw [Solver.solve] substitute (the cube-and-conquer pool) is only
   valid for the plain CNF encodings. *)
let pool_capable enc =
  match enc.config.Config.var_encoding with
  | Config.Lazy_int -> false
  | Config.Onehot | Config.Binary -> true

let solve ?(assumptions = []) ?max_conflicts ?timeout enc =
  match enc.config.Config.var_encoding with
  | Config.Lazy_int ->
    Theory_int.solve ~assumptions ?max_conflicts ?timeout (Theory_int.of_ctx enc.ctx)
  | Config.Onehot | Config.Binary ->
    Solver.solve ~assumptions ?max_conflicts ?timeout (solver enc)

let model_swaps enc =
  List.filter_map
    (fun (e, tm, l) ->
      if Solver.model_value (solver enc) l then
        Some { Result_.sw_edge = Coupling.edge enc.instance.Instance.device e; sw_finish = tm }
      else None)
    (sigma_lits enc)

let model_swap_count enc = List.length (model_swaps enc)

(* Extract a full synthesis result from the last model. *)
let extract ?(status = Result_.Feasible) ?(solve_seconds = 0.0) ?(iterations = 1) enc =
  let s = solver enc in
  let nq = Instance.num_qubits enc.instance in
  let ng = Instance.num_gates enc.instance in
  let schedule = Array.init ng (fun g -> Ivar.value s enc.time.(g)) in
  let swaps = model_swaps enc in
  let max_gate_time = Array.fold_left max 0 schedule in
  let max_swap_time = List.fold_left (fun acc sw -> max acc sw.Result_.sw_finish) 0 swaps in
  let depth = 1 + max max_gate_time max_swap_time in
  let mapping =
    Array.init depth (fun tm -> Array.init nq (fun q -> Ivar.value s enc.pi.(q).(tm)))
  in
  {
    Result_.status;
    depth;
    swap_count = List.length swaps;
    mapping;
    schedule;
    swaps;
    solve_seconds;
    iterations;
  }

(* Encoding size report, for the Fig. 1 / Table I narrative. *)
let size_report enc =
  let s = solver enc in
  (Solver.nvars s, Solver.n_clauses s)

(* Per-constraint-group clause counts (certificate provenance). *)
let provenance enc = Ctx.provenance enc.ctx

(* Domain-guided branching (paper §V future direction implemented):
   instead of the generic VSIDS initialization, seed activities so the
   solver decides the schedule in dependency order -- time variables of
   early ASAP layers first, then the mapping variables of the first time
   step -- and prefer "no SWAP" phases.  Call once after [build]. *)
let apply_branching_hints enc =
  let s = solver enc in
  let dag = enc.instance.Instance.dag in
  let layers = Dag.asap_layers dag in
  let depth = List.length layers in
  List.iteri
    (fun layer_idx gates ->
      let weight = float_of_int (4 * (depth - layer_idx)) in
      List.iter
        (fun g ->
          List.iter
            (fun l -> Solver.boost_activity s (Olsq2_sat.Lit.var l) weight)
            (Ivar.literals enc.time.(g)))
        gates)
    layers;
  Array.iter
    (fun per_time ->
      if Array.length per_time > 0 then
        List.iter
          (fun l -> Solver.boost_activity s (Olsq2_sat.Lit.var l) (float_of_int (4 * depth)))
          (Ivar.literals per_time.(0)))
    enc.pi;
  List.iter
    (fun (_, _, l) -> Solver.suggest_phase s (Olsq2_sat.Lit.var l) false)
    (sigma_lits enc)
