(* Encoding context: a SAT solver plus a polarity-aware Tseitin transform.

   [assert_formula] lowers an arbitrary [Formula.t] to CNF.  Sub-formulas
   are reified with Plaisted-Greenbaum polarity: a definition literal gets
   only the implication direction actually needed, which roughly halves the
   clause count of the big adjacency disjunctions (paper Eq. 1). *)

module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver

type t = {
  solver : Solver.t;
  mutable true_lit : Lit.t option; (* lazily created constant-true literal *)
  mutable aux_vars : int;
  mutable clauses_added : int;
  (* clause provenance: which constraint group each clause came from *)
  provenance_tbl : (string, int ref) Hashtbl.t;
  mutable current_group : int ref; (* count cell of the active label *)
}

let create () =
  let provenance_tbl = Hashtbl.create 16 in
  let cell = ref 0 in
  Hashtbl.add provenance_tbl "other" cell;
  {
    solver = Solver.create ();
    true_lit = None;
    aux_vars = 0;
    clauses_added = 0;
    provenance_tbl;
    current_group = cell;
  }

let solver t = t.solver

(* Route subsequent clause counts to [label]'s bucket.  Costs one hashtable
   lookup per group switch, not per clause. *)
let set_provenance t label =
  match Hashtbl.find_opt t.provenance_tbl label with
  | Some cell -> t.current_group <- cell
  | None ->
    let cell = ref 0 in
    Hashtbl.add t.provenance_tbl label cell;
    t.current_group <- cell

let provenance t =
  Hashtbl.fold (fun label cell acc -> if !cell > 0 then (label, !cell) :: acc else acc)
    t.provenance_tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let fresh t =
  t.aux_vars <- t.aux_vars + 1;
  Solver.new_lit t.solver

(* Fresh variable that is not counted as auxiliary (problem variable). *)
let fresh_var t = Solver.new_lit t.solver

let count_clause t =
  t.clauses_added <- t.clauses_added + 1;
  incr t.current_group

let add_clause t lits =
  count_clause t;
  Solver.add_clause t.solver lits

(* Fixed-arity forms over the solver's clause buffer: the hot emitters
   build no list per clause. *)
let add2 t a b =
  count_clause t;
  let s = t.solver in
  Solver.clause_push s a;
  Solver.clause_push s b;
  Solver.clause_commit s

let add3 t a b c =
  count_clause t;
  let s = t.solver in
  Solver.clause_push s a;
  Solver.clause_push s b;
  Solver.clause_push s c;
  Solver.clause_commit s

let add_array ?pre t lits =
  count_clause t;
  let s = t.solver in
  (match pre with None -> () | Some l -> Solver.clause_push s l);
  for i = 0 to Array.length lits - 1 do
    Solver.clause_push s lits.(i)
  done;
  Solver.clause_commit s

let lit_true t =
  match t.true_lit with
  | Some l -> l
  | None ->
    let l = fresh t in
    add_clause t [ l ];
    t.true_lit <- Some l;
    l

let lit_false t = Lit.negate (lit_true t)

(* Reification with positive polarity: returned literal [l] satisfies
   l => f.  Negative polarity gives f => l.  [reify] gives both. *)
let rec reify_pos t f =
  match (f : Formula.t) with
  | True -> lit_true t
  | False -> lit_false t
  | Atom l -> l
  | Not g -> Lit.negate (reify_neg t g)
  | And fs ->
    let l = fresh t in
    List.iter (fun g -> add_clause t [ Lit.negate l; reify_pos t g ]) fs;
    l
  | Or fs ->
    let l = fresh t in
    add_clause t (Lit.negate l :: List.map (reify_pos t) fs);
    l
  | Imply (a, b) -> reify_pos t (Formula.Or [ Formula.Not a; b ])
  | Iff (a, b) -> reify_pos t (Formula.And [ Formula.Imply (a, b); Formula.Imply (b, a) ])

and reify_neg t f =
  match (f : Formula.t) with
  | True -> lit_true t
  | False -> lit_false t
  | Atom l -> l
  | Not g -> Lit.negate (reify_pos t g)
  | And fs ->
    let l = fresh t in
    add_clause t (l :: List.map (fun g -> Lit.negate (reify_neg t g)) fs);
    l
  | Or fs ->
    let l = fresh t in
    List.iter (fun g -> add_clause t [ Lit.negate (reify_neg t g); l ]) fs;
    l
  | Imply (a, b) -> reify_neg t (Formula.Or [ Formula.Not a; b ])
  | Iff (a, b) -> reify_neg t (Formula.And [ Formula.Imply (a, b); Formula.Imply (b, a) ])

let reify t f =
  match (f : Formula.t) with
  | True -> lit_true t
  | False -> lit_false t
  | Atom l -> l
  | _ ->
    let pos = reify_pos t f and neg = reify_neg t f in
    if pos = neg then pos
    else begin
      (* tie the two polarities together into one equivalent literal *)
      let l = fresh t in
      add_clause t [ Lit.negate l; pos ];
      add_clause t [ Lit.negate neg; l ];
      l
    end

(* Assert a formula true at top level. *)
let rec assert_formula t f =
  match (f : Formula.t) with
  | True -> ()
  | False -> add_clause t []
  | Atom l -> add_clause t [ l ]
  | Not g -> assert_formula_false t g
  | And fs -> List.iter (assert_formula t) fs
  | Or fs -> add_clause t (List.map (reify_pos t) fs)
  | Imply (a, b) -> add_clause t [ Lit.negate (reify_neg t a); reify_pos t b ]
  | Iff (a, b) ->
    assert_formula t (Imply (a, b));
    assert_formula t (Imply (b, a))

and assert_formula_false t f =
  match (f : Formula.t) with
  | True -> add_clause t []
  | False -> ()
  | Atom l -> add_clause t [ Lit.negate l ]
  | Not g -> assert_formula t g
  | And fs -> add_clause t (List.map (fun g -> Lit.negate (reify_neg t g)) fs)
  | Or fs -> List.iter (assert_formula_false t) fs
  | Imply (a, b) ->
    assert_formula t a;
    assert_formula_false t b
  | Iff (a, b) ->
    (* not (a <=> b): exactly one of a, b holds *)
    assert_formula t (Formula.Or [ a; b ]);
    assert_formula t (Formula.Or [ Formula.Not a; Formula.Not b ])

(* Assert [guard => f] where [guard] is an existing literal; used for
   objective-bound selectors in the optimization loops. *)
let assert_implied t ~guard f =
  match (f : Formula.t) with
  | True -> ()
  | False -> add_clause t [ Lit.negate guard ]
  | Atom l -> add_clause t [ Lit.negate guard; l ]
  | Or fs -> add_clause t (Lit.negate guard :: List.map (reify_pos t) fs)
  | And fs ->
    List.iter (fun g -> add_clause t [ Lit.negate guard; reify_pos t g ]) fs
  | (Not _ | Imply _ | Iff _) as f -> add_clause t [ Lit.negate guard; reify_pos t f ]

let aux_vars t = t.aux_vars
let clauses_added t = t.clauses_added
let num_vars t = Solver.nvars t.solver
