(* SatELite-style CNF preprocessing / inprocessing (Eén & Biere 2005).

   The paper's best configuration hands the whole layout formulation to
   Z3, whose SAT core preprocesses every bit-blasted instance before
   search; this module is that stage for our own CDCL solver.  The OLSQ2
   encodings are a near-ideal target: Plaisted-Greenbaum reification
   introduces thousands of one-sided auxiliary definitions that bounded
   variable elimination resolves away at zero growth, and the injectivity
   / cardinality scaffolding is dense with subsumed and strengthenable
   clauses.

   Three techniques, run to fixpoint in bounded rounds over an
   occurrence-list clause store:
   - backward subsumption with variable-signature prefilters,
   - self-subsuming resolution (clause strengthening),
   - bounded variable elimination (NiVER: only when the resolvent count
     does not exceed the clauses removed, plus an occurrence budget),
   with root-unit cascading woven through all three.

   Every transformation is proof-logged through the solver's DRAT hooks
   (resolvents and strengthened clauses as RUP additions *before* their
   parents' deletions), so [--certify] proofs remain checkable
   end-to-end.  Eliminated variables are recorded on the solver's
   extension stack and re-derived at model time; variables the caller
   must keep using (assumptions, bound selectors, counter outputs,
   anything read back) must be frozen beforehand. *)

module Vec = Olsq2_util.Vec
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Obs = Olsq2_obs.Obs

type options = {
  max_rounds : int;  (** subsumption + elimination passes (default 3) *)
  growth : int;
      (** extra resolvents allowed per elimination beyond the clauses
          removed (default 0: NiVER, never grows the formula) *)
  occ_limit : int;
      (** skip pivots whose positive x negative occurrence product exceeds
          this (elimination there is quadratic and rarely pays) *)
  resolvent_len_limit : int;  (** skip pivots producing longer resolvents *)
  subsume_len_limit : int;
      (** clauses longer than this are not used as subsumers (they still
          get subsumed / strengthened by shorter ones) *)
}

let default_options =
  { max_rounds = 3; growth = 0; occ_limit = 600; resolvent_len_limit = 40; subsume_len_limit = 20 }

type report = {
  vars_before : int;
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  lits_before : int;
  lits_after : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  resolvents : int;
  units : int;
  rounds : int;
}

let empty_report =
  {
    vars_before = 0;
    vars_after = 0;
    clauses_before = 0;
    clauses_after = 0;
    lits_before = 0;
    lits_after = 0;
    subsumed = 0;
    strengthened = 0;
    eliminated = 0;
    resolvents = 0;
    units = 0;
    rounds = 0;
  }

let pct_reduction before after =
  if before <= 0 then 0.0 else 100.0 *. float_of_int (before - after) /. float_of_int before

let reduction_summary r =
  Printf.sprintf
    "clauses %d -> %d (-%.1f%%)  vars %d -> %d  subsumed %d  strengthened %d  eliminated %d  \
     units %d"
    r.clauses_before r.clauses_after
    (pct_reduction r.clauses_before r.clauses_after)
    r.vars_before r.vars_after r.subsumed r.strengthened r.eliminated r.units

let pp_report fmt r = Format.pp_print_string fmt (reduction_summary r)

(* The reduction the [simplify.*] counters of a traced run add up to. *)
let counters_summary (s : Obs.summary) =
  let count k = Option.value (List.assoc_opt k s.Obs.counters) ~default:0 in
  match count "simplify.runs" with
  | 0 -> "simplify: no simplification runs"
  | runs ->
    let before = count "simplify.clauses_before" in
    let after = before - count "simplify.clauses_removed" in
    Printf.sprintf "simplify: %d run%s  clauses %d -> %d (-%.1f%%)  eliminated %d" runs
      (if runs = 1 then "" else "s")
      before after (pct_reduction before after) (count "simplify.vars_eliminated")

(* ---- the clause store ---- *)

type cls = {
  mutable lits : Lit.t array;
  mutable sign : int; (* variable-signature bitmask: bit (var mod 63) per lit *)
  mutable dead : bool;
  mutable queued : bool; (* pending in the subsumption queue *)
}

let dummy_cls = { lits = [||]; sign = 0; dead = true; queued = false }

let signature lits =
  Array.fold_left (fun acc l -> acc lor (1 lsl (Lit.var l mod 63))) 0 lits

type state = {
  solver : Solver.t;
  opts : options;
  store : cls Vec.t;
  occ : cls Vec.t array; (* indexed by Lit.to_int *)
  queue : cls Vec.t; (* clauses to try as (back)subsumers *)
  units : Lit.t Vec.t; (* derived root units pending cascade *)
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated : int;
  mutable resolvents : int;
  mutable n_units : int;
}

exception Unsat_found

let make solver opts =
  {
    solver;
    opts;
    store = Vec.create dummy_cls;
    occ = Array.init (2 * Solver.nvars solver) (fun _ -> Vec.create ~capacity:4 dummy_cls);
    queue = Vec.create dummy_cls;
    units = Vec.create Lit.undef;
    subsumed = 0;
    strengthened = 0;
    eliminated = 0;
    resolvents = 0;
    n_units = 0;
  }

let enqueue_subsumer st c =
  if (not c.queued) && not c.dead then begin
    c.queued <- true;
    Vec.push st.queue c
  end

(* Insert a normalized clause (>= 2 distinct live literals). *)
let insert st lits =
  let c = { lits; sign = signature lits; dead = false; queued = false } in
  Vec.push st.store c;
  Array.iter (fun l -> Vec.push st.occ.(Lit.to_int l) c) lits;
  enqueue_subsumer st c;
  c

(* Drop dead entries from an occurrence list, returning it compacted. *)
let compact_occ st l =
  let ws = st.occ.(Lit.to_int l) in
  let i = ref 0 in
  while !i < Vec.length ws do
    if (Vec.get ws !i).dead then Vec.remove_swap ws !i else incr i
  done;
  ws

(* Remove a clause from the store.  [log] is false only when the clause's
   logical content survives in another form the engine just logged (a
   strengthened-to-unit clause: the unit add stays, so no deletion line
   may remove it from the checker's database). *)
let kill ?(log = true) st c =
  if not c.dead then begin
    c.dead <- true;
    if log then Solver.log_proof_delete st.solver c.lits
  end

let derive_unit st l =
  st.n_units <- st.n_units + 1;
  Solver.log_proof_add st.solver [| l |];
  Solver.assert_root_unit st.solver l;
  if not (Solver.is_ok st.solver) then begin
    (* the unit contradicts an earlier one: both lemmas are in the proof,
       so the empty clause is RUP *)
    Solver.log_proof_add st.solver [||];
    raise Unsat_found
  end;
  Vec.push st.units l

(* ---- subsumption and strengthening ---- *)

let array_mem (x : Lit.t) arr =
  let n = Array.length arr in
  let rec go i = i < n && (Array.unsafe_get arr i = x || go (i + 1)) in
  go 0

(* Does [c] subsume [d] — or almost?  [`Exact] when every literal of [c]
   appears in [d]; [`Strengthen q] when all but one do and that one
   appears negated as [q] in [d] (self-subsuming resolution on the pivot
   removes [q] from [d]); [`No] otherwise. *)
let subsumes c d =
  if Array.length c.lits > Array.length d.lits then `No
  else if c.sign land lnot d.sign <> 0 then `No
  else begin
    let flipped = ref Lit.undef in
    let rec go i =
      if i >= Array.length c.lits then true
      else begin
        let l = Array.unsafe_get c.lits i in
        if array_mem l d.lits then go (i + 1)
        else if !flipped = Lit.undef && array_mem (Lit.negate l) d.lits then begin
          flipped := Lit.negate l;
          go (i + 1)
        end
        else false
      end
    in
    if not (go 0) then `No else if !flipped = Lit.undef then `Exact else `Strengthen !flipped
  end

(* Remove literal [q] from [d] (self-subsuming resolution or unit
   cascade).  The shortened clause is RUP given its strengthener, so it
   is logged as an addition before the original's deletion. *)
let strengthen st d q =
  let shorter = Array.of_list (List.filter (fun l -> l <> q) (Array.to_list d.lits)) in
  (match Array.length shorter with
  | 0 ->
    (* [d] was the unit [q] itself: contradiction with the strengthener *)
    Solver.log_proof_add st.solver [||];
    Solver.force_unsat st.solver;
    raise Unsat_found
  | 1 ->
    (* the unit's RUP addition must precede the parent's deletion (its
       derivation needs [d] still in the checker's database); the unit
       itself never gets a deletion line *)
    kill ~log:false st d;
    derive_unit st shorter.(0);
    Solver.log_proof_delete st.solver d.lits
  | _ ->
    Solver.log_proof_add st.solver shorter;
    Solver.log_proof_delete st.solver d.lits;
    (* drop [d] from occ(q); other lists still reference it validly *)
    let ws = st.occ.(Lit.to_int q) in
    let rec drop i =
      if i < Vec.length ws then
        if Vec.get ws i == d then Vec.remove_swap ws i else drop (i + 1)
    in
    drop 0;
    d.lits <- shorter;
    d.sign <- signature shorter;
    enqueue_subsumer st d);
  st.strengthened <- st.strengthened + 1

(* Satisfied clauses vanish; clauses containing the falsified literal
   are strengthened.  Runs until no pending units remain. *)
let cascade_units st =
  while Vec.length st.units > 0 do
    let l = Vec.pop st.units in
    Vec.iter (fun c -> kill st c) (compact_occ st l);
    Vec.clear st.occ.(Lit.to_int l);
    let falsified = compact_occ st (Lit.negate l) in
    (* strengthen mutates occ(¬l): snapshot first *)
    let victims = Vec.to_array falsified in
    Vec.clear st.occ.(Lit.to_int (Lit.negate l));
    Array.iter (fun d -> if not d.dead then strengthen st d (Lit.negate l)) victims
  done

(* Use [c] to subsume / strengthen everything else.  Candidate clauses
   must contain [c]'s least-occurring variable in some polarity, so only
   those two occurrence lists are scanned. *)
let backward_subsume st c =
  if (not c.dead) && Array.length c.lits <= st.opts.subsume_len_limit then begin
    let best = ref c.lits.(0) in
    let best_len = ref max_int in
    Array.iter
      (fun l ->
        let len = Vec.length st.occ.(Lit.to_int l) + Vec.length st.occ.(Lit.to_int (Lit.negate l)) in
        if len < !best_len then begin
          best_len := len;
          best := l
        end)
      c.lits;
    let scan l =
      let victims = Vec.to_array (compact_occ st l) in
      Array.iter
        (fun d ->
          if (not (d == c)) && (not d.dead) && not c.dead then
            match subsumes c d with
            | `No -> ()
            | `Exact ->
              kill st d;
              st.subsumed <- st.subsumed + 1
            | `Strengthen q -> strengthen st d q)
        victims
    in
    scan !best;
    scan (Lit.negate !best);
    cascade_units st
  end

let subsumption_fixpoint st =
  while Vec.length st.queue > 0 do
    let c = Vec.pop st.queue in
    c.queued <- false;
    backward_subsume st c
  done

(* ---- bounded variable elimination ---- *)

exception Tautology

(* Resolvent of [c] (contains [pivot]) and [d] (contains [¬pivot]):
   merged literals minus the pivot pair, deduplicated; raises [Tautology]
   when any other variable appears in both polarities.  Sorting by the
   literal's integer code puts a variable's two literals next to each
   other, so one adjacency scan finds both duplicates and tautologies. *)
let resolvent pivot c d =
  let np = Lit.negate pivot in
  let buf = ref [] in
  Array.iter (fun l -> if l <> pivot then buf := l :: !buf) c.lits;
  Array.iter (fun l -> if l <> np then buf := l :: !buf) d.lits;
  let sorted = List.sort_uniq compare !buf in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if Lit.var a = Lit.var b then raise Tautology;
      check rest
    | _ -> ()
  in
  check sorted;
  Array.of_list sorted

(* Try to eliminate variable [v] by resolution (Eén & Biere's BVE with
   NiVER's zero-growth default): succeed only when the non-tautological
   resolvents number at most |P| + |N| + growth and none exceeds the
   length cap.  On success the resolvents are logged as RUP additions,
   the pivot's clauses deleted, and the smaller side pushed on the
   solver's extension stack for model reconstruction. *)
let try_eliminate st v =
  let pos = Lit.of_var v in
  let neg = Lit.negate pos in
  let p = Vec.to_array (compact_occ st pos) in
  let n = Vec.to_array (compact_occ st neg) in
  let np = Array.length p and nn = Array.length n in
  if np = 0 && nn = 0 then false
  else if np * nn > st.opts.occ_limit then false
  else begin
    let limit = np + nn + st.opts.growth in
    let resolvents = ref [] in
    let count = ref 0 in
    let feasible = ref true in
    (try
       Array.iter
         (fun c ->
           Array.iter
             (fun d ->
               match resolvent pos c d with
               | exception Tautology -> ()
               | r ->
                 if Array.length r > st.opts.resolvent_len_limit then begin
                   feasible := false;
                   raise Exit
                 end;
                 incr count;
                 if !count > limit then begin
                   feasible := false;
                   raise Exit
                 end;
                 resolvents := r :: !resolvents)
             n)
         p
     with Exit -> ());
    if not !feasible then false
    else begin
      (* additions before the parents' deletions: each resolvent is RUP
         while both parents are still in the checker's database *)
      List.iter (fun r -> Solver.log_proof_add st.solver r) !resolvents;
      st.resolvents <- st.resolvents + List.length !resolvents;
      let pivot, side = if np <= nn then (pos, p) else (neg, n) in
      Solver.eliminate_var st.solver ~pivot (Array.map (fun c -> c.lits) side);
      Array.iter (fun c -> kill st c) p;
      Array.iter (fun c -> kill st c) n;
      Vec.clear st.occ.(Lit.to_int pos);
      Vec.clear st.occ.(Lit.to_int neg);
      st.eliminated <- st.eliminated + 1;
      List.iter
        (fun r ->
          if Array.length r = 1 then derive_unit st r.(0) else ignore (insert st r))
        !resolvents;
      cascade_units st;
      true
    end
  end

let eliminate_pass st =
  let solver = st.solver in
  let nv = Solver.nvars solver in
  let candidates = ref [] in
  for v = nv - 1 downto 0 do
    if
      (not (Solver.is_frozen solver v))
      && (not (Solver.is_eliminated solver v))
      && Solver.root_value solver (Lit.of_var v) = 0
    then begin
      let np = Vec.length (compact_occ st (Lit.of_var v)) in
      let nn = Vec.length (compact_occ st (Lit.of_var ~sign:false v)) in
      if np + nn > 0 && np * nn <= st.opts.occ_limit then
        candidates := (np * nn, v) :: !candidates
    end
  done;
  let ordered = List.sort compare !candidates in
  let changed = ref false in
  List.iter
    (fun (_, v) ->
      if (not (Solver.is_eliminated solver v)) && try_eliminate st v then changed := true)
    ordered;
  !changed

(* ---- driving a full simplification ---- *)

(* Load the detached clauses, normalizing against the root assignment
   (satisfied clauses leave with a deletion line; falsified literals are
   stripped with an add/delete pair, exactly like the solver's own
   root-level clause simplification). *)
let load st detached =
  List.iter
    (fun lits ->
      let solver = st.solver in
      if Array.exists (fun l -> Solver.root_value solver l = 1) lits then
        Solver.log_proof_delete solver lits
      else begin
        let live = Array.of_list (List.filter (fun l -> Solver.root_value solver l <> -1) (Array.to_list lits)) in
        match Array.length live with
        | 0 ->
          Solver.log_proof_add solver [||];
          Solver.force_unsat solver;
          raise Unsat_found
        | 1 ->
          Solver.log_proof_delete solver lits;
          derive_unit st live.(0)
        | n ->
          if n < Array.length lits then begin
            Solver.log_proof_add solver live;
            Solver.log_proof_delete solver lits
          end;
          ignore (insert st live)
      end)
    detached;
  cascade_units st

let live_stats st =
  let clauses = ref 0 and lits = ref 0 in
  Vec.iter
    (fun c ->
      if not c.dead then begin
        incr clauses;
        lits := !lits + Array.length c.lits
      end)
    st.store;
  (!clauses, !lits)

let preprocess ?(opts = default_options) solver =
  if not (Solver.is_ok solver) then empty_report
  else begin
    let obs = Obs.global () in
    let sp =
      if Obs.enabled obs then
        Some
          (Obs.begin_span obs "simplify.run"
             ~attrs:
               [
                 ("vars", Obs.Int (Solver.nvars solver));
                 ("clauses", Obs.Int (Solver.n_clauses solver));
               ])
      else None
    in
    let vars_before = Solver.nvars solver - Solver.n_eliminated solver in
    let detached = Solver.begin_simplify solver in
    let clauses_before = List.length detached in
    let lits_before = List.fold_left (fun acc c -> acc + Array.length c) 0 detached in
    let st = make solver opts in
    let rounds = ref 0 in
    (try
       if not (Solver.is_ok solver) then raise Unsat_found;
       load st detached;
       subsumption_fixpoint st;
       let continue_ = ref true in
       while !continue_ && !rounds < opts.max_rounds do
         incr rounds;
         let changed = eliminate_pass st in
         subsumption_fixpoint st;
         continue_ := changed
       done
     with Unsat_found -> ());
    (* hand the surviving clauses back and re-arm the solver *)
    Vec.iter (fun c -> if not c.dead then Solver.restore_clause solver c.lits) st.store;
    Solver.end_simplify solver;
    let clauses_after, lits_after = live_stats st in
    let report =
      {
        vars_before;
        vars_after = vars_before - st.eliminated;
        clauses_before;
        clauses_after;
        lits_before;
        lits_after;
        subsumed = st.subsumed;
        strengthened = st.strengthened;
        eliminated = st.eliminated;
        resolvents = st.resolvents;
        units = st.n_units;
        rounds = !rounds;
      }
    in
    (match sp with
    | Some sp ->
      Obs.end_span obs sp
        ~attrs:
          [
            ("clauses_before", Obs.Int report.clauses_before);
            ("clauses_after", Obs.Int report.clauses_after);
            ("eliminated", Obs.Int report.eliminated);
            ("subsumed", Obs.Int report.subsumed);
            ("strengthened", Obs.Int report.strengthened);
            ("units", Obs.Int report.units);
            ("rounds", Obs.Int report.rounds);
          ];
      Obs.count obs "simplify.runs" 1;
      Obs.count obs "simplify.clauses_before" report.clauses_before;
      Obs.count obs "simplify.clauses_removed" (max 0 (report.clauses_before - report.clauses_after));
      Obs.count obs "simplify.vars_eliminated" report.eliminated
    | None -> ());
    report
  end

(* Inprocessing: the same engine, re-run between restart episodes under
   the solver's conflict-count schedule.  A cheaper configuration by
   default (one round) since it competes with search for time. *)
let inprocess_options = { default_options with max_rounds = 1 }

(* Each inprocessing pass runs clause vivification after the BVE engine:
   preprocess rewrites the clause store wholesale, so vivifying its output
   works on fresh clauses and the DRAT stream stays well-ordered (every
   vivified shortening is logged add-before-delete by the solver). *)
let attach_inprocessing ?(opts = inprocess_options) ?interval solver =
  Solver.set_inprocessor ?interval solver
    (Some
       (fun s ->
         ignore (preprocess ~opts s);
         Solver.vivify s))
