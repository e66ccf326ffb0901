(* Lazy integer theory: the reproduction's stand-in for the paper's
   *integer-variable* configurations (OLSQ(int), OLSQ2(int), ...).

   Z3 routes integer variables through an arithmetic theory solver that
   cooperates lazily with the SAT core; the paper shows this path is far
   slower than eager bit-blasting for finite-domain layout synthesis.  We
   model it with the textbook lazy-SMT (offline DPLL(T) / CEGAR) loop:

   - atoms "x = c" and "x <= c" are plain Boolean literals with *no*
     eager semantics;
   - after each SAT answer, a theory check looks for an integer value of
     every variable consistent with its atoms' truth values;
   - each inconsistency adds a small theory lemma (at-most-one values,
     equality/bound conflicts, empty-domain explanations) and the solver
     re-runs.

   Like the arithmetic path it models, the loop rediscovers finite-domain
   structure through many solver round-trips instead of wiring it into
   propagation -- which is exactly the cost the paper's Table I measures.

   One registry exists per encoding context ([of_ctx]); the registry's
   [solve] replaces [Solver.solve] whenever lazy variables are present. *)

module Ctx = Olsq2_encode.Ctx
module Formula = Olsq2_encode.Formula
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Stopwatch = Olsq2_util.Stopwatch

type ivar = {
  id : int;
  domain : int;
  eq_atoms : (int, Lit.t) Hashtbl.t; (* value -> "x = value" *)
  le_atoms : (int, Lit.t) Hashtbl.t; (* bound -> "x <= bound" *)
  owner : t;
}

and t = {
  ctx : Ctx.t;
  mutable vars : ivar list;
  mutable next_id : int;
  mutable lemmas : int;
  mutable theory_rounds : int;
}

(* ---- per-context registry (physical identity) ---- *)

(* Guarded by a mutex: the serve daemon builds encoders from several
   domains concurrently. *)
let registries : (Obj.t * t) list ref = ref []
let registries_lock = Mutex.create ()

let of_ctx ctx =
  let key = Obj.repr ctx in
  Mutex.lock registries_lock;
  let t =
    match List.find_opt (fun (k, _) -> k == key) !registries with
    | Some (_, t) -> t
    | None ->
      let t = { ctx; vars = []; next_id = 0; lemmas = 0; theory_rounds = 0 } in
      registries := (key, t) :: !registries;
      t
  in
  Mutex.unlock registries_lock;
  t

let new_var t ~domain =
  if domain <= 0 then invalid_arg "Theory_int.new_var: empty domain";
  let v =
    { id = t.next_id; domain; eq_atoms = Hashtbl.create 8; le_atoms = Hashtbl.create 8; owner = t }
  in
  t.next_id <- t.next_id + 1;
  t.vars <- v :: t.vars;
  v

let domain v = v.domain

(* Atom literals created so far (for branching hints). *)
let atom_lits v =
  Hashtbl.fold (fun _ l acc -> l :: acc) v.eq_atoms
    (Hashtbl.fold (fun _ l acc -> l :: acc) v.le_atoms [])

let eq_atom v c =
  match Hashtbl.find_opt v.eq_atoms c with
  | Some l -> l
  | None ->
    let l = Ctx.fresh_var v.owner.ctx in
    Hashtbl.add v.eq_atoms c l;
    l

let le_atom v c =
  match Hashtbl.find_opt v.le_atoms c with
  | Some l -> l
  | None ->
    let l = Ctx.fresh_var v.owner.ctx in
    Hashtbl.add v.le_atoms c l;
    l

(* ---- formulas over atoms ---- *)

let eq_const v c = if c < 0 || c >= v.domain then Formula.False else Formula.Atom (eq_atom v c)

let le_const v c =
  if c >= v.domain - 1 then Formula.True
  else if c < 0 then Formula.False
  else Formula.Atom (le_atom v c)

(* x = y, expanded over shared values. *)
let eq_var x y =
  let n = min x.domain y.domain in
  Formula.or_ (List.init n (fun c -> Formula.and_ [ eq_const x c; eq_const y c ]))

(* x < y ⇔ exists c: y = c and x <= c-1. *)
let lt_var x y =
  Formula.or_
    (List.init y.domain (fun c ->
         if c = 0 then Formula.False else Formula.and_ [ eq_const y c; le_const x (c - 1) ]))

(* ---- theory check ---- *)

(* Truth-value view of a variable's atoms in the current model. *)
let check_var solver v =
  let true_eqs = ref [] in
  Hashtbl.iter (fun c l -> if Solver.model_value solver l then true_eqs := (c, l) :: !true_eqs) v.eq_atoms;
  (* window [lo, hi] implied by le atoms *)
  let lo = ref 0 and hi = ref (v.domain - 1) in
  let lo_lit = ref None and hi_lit = ref None in
  Hashtbl.iter
    (fun c l ->
      if Solver.model_value solver l then begin
        if c < !hi then begin
          hi := c;
          hi_lit := Some l
        end
      end
      else if c + 1 > !lo then begin
        lo := c + 1;
        lo_lit := Some l
      end)
    v.le_atoms;
  match !true_eqs with
  | (c1, l1) :: (_, l2) :: _ ->
    ignore c1;
    (* two values at once: at-most-one lemma *)
    Some [ Lit.negate l1; Lit.negate l2 ]
  | [ (c, l) ] ->
    if c < !lo then begin
      (* x = c but a false "x <= c'" with c' >= c says x > c' >= c *)
      match !lo_lit with
      | Some le -> Some [ Lit.negate l; le ]
      | None -> None
    end
    else if c > !hi then begin
      match !hi_lit with
      | Some le -> Some [ Lit.negate l; Lit.negate le ]
      | None -> None
    end
    else None
  | [] ->
    if !lo > !hi then begin
      (* empty window: the two bound atoms contradict *)
      match (!lo_lit, !hi_lit) with
      | Some le_false, Some le_true -> Some [ le_false; Lit.negate le_true ]
      | Some _, None | None, Some _ | None, None -> None (* window vs domain edge: consistent *)
    end
    else begin
      (* need a value in [lo, hi] not excluded by a false eq atom *)
      let excluded c = match Hashtbl.find_opt v.eq_atoms c with Some _ -> true | None -> false in
      let rec free c = if c > !hi then None else if excluded c then free (c + 1) else Some c in
      match free !lo with
      | Some _ -> None (* an unmentioned value can serve *)
      | None ->
        (* every value in the window has a (false) eq atom: lemma says the
           window bounds imply one of those equalities *)
        let eqs = List.init (!hi - !lo + 1) (fun i -> Hashtbl.find v.eq_atoms (!lo + i)) in
        let bounds =
          (match !lo_lit with Some l -> [ l ] | None -> [])
          @ (match !hi_lit with Some l -> [ Lit.negate l ] | None -> [])
        in
        Some (bounds @ eqs)
    end

(* One theory round: lemmas for every inconsistent variable.  Empty list
   means the model is theory-consistent. *)
let check t solver =
  List.filter_map (fun v -> check_var solver v) t.vars

(* ---- solving ---- *)

let solve ?(assumptions = []) ?max_conflicts ?timeout t =
  let deadline = Option.map (fun s -> Stopwatch.now () +. s) timeout in
  let solver = Ctx.solver t.ctx in
  let remaining () =
    match deadline with
    | None -> None
    | Some d -> Some (Float.max 0.001 (d -. Stopwatch.now ()))
  in
  let expired () = match deadline with None -> false | Some d -> Stopwatch.now () > d in
  (* the conflict cap covers the whole loop, not each round *)
  let start = (Solver.stats solver).Solver.conflicts in
  let left () =
    Option.map (fun m -> m - ((Solver.stats solver).Solver.conflicts - start)) max_conflicts
  in
  let rec loop () =
    if expired () then Solver.Unknown Solver.Timeout
    else
      match left () with
      | Some m when m <= 0 -> Solver.Unknown Solver.Conflict_budget
      | max_conflicts -> (
        match Solver.solve ~assumptions ?max_conflicts ?timeout:(remaining ()) solver with
        | (Solver.Unsat | Solver.Unknown _) as r -> r
        | Solver.Sat -> (
          t.theory_rounds <- t.theory_rounds + 1;
          match check t solver with
          | [] -> Solver.Sat
          | lemmas ->
            List.iter
              (fun lemma ->
                t.lemmas <- t.lemmas + 1;
                Solver.add_clause solver lemma)
              lemmas;
            loop ()))
  in
  loop ()

(* ---- model value ---- *)

let value solver v =
  let from_eq = ref None in
  Hashtbl.iter (fun c l -> if Solver.model_value solver l then from_eq := Some c) v.eq_atoms;
  match !from_eq with
  | Some c -> c
  | None ->
    (* consistent models leave a free value in the le-window *)
    let lo = ref 0 and hi = ref (v.domain - 1) in
    Hashtbl.iter
      (fun c l -> if Solver.model_value solver l then hi := min !hi c else lo := max !lo (c + 1))
      v.le_atoms;
    let excluded c = Hashtbl.mem v.eq_atoms c in
    let rec free c = if c > !hi then !lo (* fallback *) else if excluded c then free (c + 1) else c in
    free !lo

let stats t = (t.theory_rounds, t.lemmas)
