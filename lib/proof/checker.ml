(* Trusted DRAT/RUP checker.

   Independent watch-based unit propagation over the original formula plus
   the proof's clause additions/deletions.  Nothing here trusts the solver:
   the only shared code is the literal representation.

   Conventions:
   - clauses live in one Vec and are referred to by integer id;
   - [watches.(Lit.to_int p)] holds ids of clauses to inspect when [p]
     becomes true (i.e. clauses watching [negate p] in slot 0 or 1); a
     list is created on its first push, until then the slot holds the
     shared empty [no_watches];
   - only clauses whose literal set some deletion step names are indexed
     for deletion lookup: an order-independent fingerprint of every
     deletion is collected up front, and a clause's sorted key is built
     only when its fingerprint is among them;
   - [reason.(v)] is the id of the clause that propagated variable [v],
     [-1] for a temporary RUP decision, [-2] for unassigned;
   - a root-level conflict is remembered as [contradiction] (the id of the
     falsified clause), recomputed whenever the database changes in a way
     that could invalidate it (backward-mode detaching). *)

module Vec = Olsq2_util.Vec
module Lit = Olsq2_sat.Lit

type mode = Forward | Backward

type verdict = Valid | Invalid of { step : int; reason : string }

type report = {
  verdict : verdict;
  additions : int;
  deletions : int;
  lemmas_checked : int;
  propagations : int;
}

let mode_to_string = function Forward -> "forward" | Backward -> "backward"

let verdict_to_string = function
  | Valid -> "valid"
  | Invalid { step; reason } ->
    if step < 0 then Printf.sprintf "invalid: %s" reason
    else Printf.sprintf "invalid at step %d: %s" step reason

type cls = {
  id : int;
  lits : Lit.t array; (* elements are reordered by watch maintenance *)
  mutable active : bool;
  mutable marked : bool; (* backward mode: conclusion depends on this clause *)
  mutable gen : int; (* visited stamp for ancestry marking *)
}

type state = {
  clauses : cls Vec.t;
  watches : int Vec.t array;
  assigns : int array; (* by var: 0 undef, 1 true, -1 false *)
  reason : int array;
  trail : Lit.t Vec.t;
  mutable qhead : int;
  index : (int list, int list ref) Hashtbl.t; (* sorted lits -> candidate ids *)
  deleted_fps : (int, unit) Hashtbl.t; (* fingerprints of the proof's deletions *)
  mutable contradiction : int; (* falsified clause id, -1 = none *)
  mutable gen : int;
  mutable propagations : int;
  mutable lemmas_checked : int;
  rat : bool; (* RAT fallback allowed: refutations only, see [check_entails] *)
}

let dummy_cls = { id = -1; lits = [||]; active = false; marked = false; gen = 0 }

let value st l =
  let a = st.assigns.(Lit.var l) in
  if Lit.sign l then a else -a

let enqueue st l r =
  st.assigns.(Lit.var l) <- (if Lit.sign l then 1 else -1);
  st.reason.(Lit.var l) <- r;
  Vec.push st.trail l

(* Undo all assignments made after trail position [mark]. *)
let undo st mark =
  for i = Vec.length st.trail - 1 downto mark do
    let v = Lit.var (Vec.get st.trail i) in
    st.assigns.(v) <- 0;
    st.reason.(v) <- -2
  done;
  Vec.shrink st.trail mark;
  st.qhead <- mark

(* Shared placeholder for a literal nobody watches yet; never pushed to. *)
let no_watches : int Vec.t = Vec.create ~capacity:0 0

let push_watch st idx cid =
  let ws = st.watches.(idx) in
  if ws == no_watches then begin
    let ws = Vec.create ~capacity:4 0 in
    Vec.push ws cid;
    st.watches.(idx) <- ws
  end
  else Vec.push ws cid

exception Found_conflict

let propagate st =
  let confl = ref (-1) in
  (try
     while st.qhead < Vec.length st.trail do
       let p = Vec.get st.trail st.qhead in
       st.qhead <- st.qhead + 1;
       st.propagations <- st.propagations + 1;
       let ws = st.watches.(Lit.to_int p) in
       let i = ref 0 in
       while !i < Vec.length ws do
         let cid = Vec.get ws !i in
         let c = Vec.get st.clauses cid in
         if not c.active then Vec.remove_swap ws !i
         else begin
           let false_lit = Lit.negate p in
           if c.lits.(0) = false_lit then begin
             c.lits.(0) <- c.lits.(1);
             c.lits.(1) <- false_lit
           end;
           let first = c.lits.(0) in
           if value st first = 1 then incr i
           else begin
             let n = Array.length c.lits in
             let rec find k =
               if k >= n then -1 else if value st c.lits.(k) <> -1 then k else find (k + 1)
             in
             let k = find 2 in
             if k >= 0 then begin
               c.lits.(1) <- c.lits.(k);
               c.lits.(k) <- false_lit;
               push_watch st (Lit.to_int (Lit.negate c.lits.(1))) cid;
               Vec.remove_swap ws !i
             end
             else if value st first = -1 then begin
               st.qhead <- Vec.length st.trail;
               confl := cid;
               raise Found_conflict
             end
             else begin
               enqueue st first cid;
               incr i
             end
           end
         end
       done
     done
   with Found_conflict -> ());
  !confl

(* ---- clause bookkeeping ---- *)

(* Order-independent clause fingerprint, computed without allocating: the
   length with the sum and the xor of the mixed literal codes.  Equal
   literal sets have equal fingerprints; [clause_key] decides. *)
let fingerprint lits =
  let sum = ref 0 and xor = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let h = (Lit.to_int lits.(i) + 1) * 0x9E3779B97F4A7C1 in
    let h = h lxor (h lsr 29) in
    sum := !sum + h;
    xor := !xor lxor (h * 0xBF58476D1CE4E5B)
  done;
  (Array.length lits * 0x94D049BB133111E) + !sum + (!xor lsl 1)

let clause_key lits =
  let a = Array.map Lit.to_int lits in
  Array.sort compare a;
  Array.to_list a

let index_add st key cid =
  match Hashtbl.find_opt st.index key with
  | Some ids -> ids := cid :: !ids
  | None -> Hashtbl.add st.index key (ref [ cid ])

let index_remove st key cid =
  match Hashtbl.find_opt st.index key with
  | Some ids -> ids := List.filter (fun i -> i <> cid) !ids
  | None -> ()

let watch_slots st c =
  push_watch st (Lit.to_int (Lit.negate c.lits.(0))) c.id;
  push_watch st (Lit.to_int (Lit.negate c.lits.(1))) c.id

let unwatch_slot st c l =
  let ws = st.watches.(Lit.to_int (Lit.negate l)) in
  let rec find i =
    if i >= Vec.length ws then ()
    else if Vec.get ws i = c.id then Vec.remove_swap ws i
    else find (i + 1)
  in
  find 0

let unwatch st c =
  if Array.length c.lits >= 2 then begin
    unwatch_slot st c c.lits.(0);
    unwatch_slot st c c.lits.(1)
  end

let set_contradiction st cid = if st.contradiction < 0 then st.contradiction <- cid

(* Attach watches for an active clause under the current assignment:
   prefer two non-false literals; enqueue if unit, flag if falsified. *)
let attach st c =
  let lits = c.lits in
  let n = Array.length lits in
  let swap i j =
    let tmp = lits.(i) in
    lits.(i) <- lits.(j);
    lits.(j) <- tmp
  in
  let rec find_nonfalse k = if k >= n then -1 else if value st lits.(k) <> -1 then k else find_nonfalse (k + 1) in
  (match find_nonfalse 0 with
  | -1 ->
    watch_slots st c;
    set_contradiction st c.id
  | i0 ->
    if i0 <> 0 then swap 0 i0;
    (match
       let rec find k = if k >= n then -1 else if value st lits.(k) <> -1 then k else find (k + 1) in
       find 1
     with
    | -1 ->
      (* only lits.(0) is non-false *)
      watch_slots st c;
      if value st lits.(0) = 0 then begin
        enqueue st lits.(0) c.id;
        match propagate st with -1 -> () | confl -> set_contradiction st confl
      end
    | i1 ->
      if i1 <> 1 then swap 1 i1;
      watch_slots st c))

(* Add a clause to the database without verifying it (formula clauses, and
   backward-mode phase 1).  The database owns [lits] from here on and may
   permute it.  Returns the new clause id. *)
let add_unchecked st lits =
  let cid = Vec.length st.clauses in
  let c = { id = cid; lits; active = true; marked = false; gen = 0 } in
  Vec.push st.clauses c;
  if Hashtbl.mem st.deleted_fps (fingerprint lits) then index_add st (clause_key lits) cid;
  (match Array.length lits with
  | 0 -> set_contradiction st cid
  | 1 -> (
    match value st lits.(0) with
    | -1 -> set_contradiction st cid
    | 0 -> (
      enqueue st lits.(0) cid;
      match propagate st with -1 -> () | confl -> set_contradiction st confl)
    | _ -> ())
  | _ -> attach st c);
  cid

(* A clause is locked while it is the recorded reason of an assignment. *)
let locked st c =
  Array.exists (fun l -> value st l = 1 && st.reason.(Lit.var l) = c.id) c.lits

(* Process a deletion step: find a live clause with these literals and
   deactivate it.  Deletions of unknown or locked (reason) clauses are
   skipped — the drat-trim convention — since removing a reason clause
   would invalidate the current propagation state.  Returns the id of the
   deactivated clause, or -1 if the deletion was skipped. *)
let delete_clause st lits =
  let key = clause_key lits in
  match Hashtbl.find_opt st.index key with
  | None -> -1
  | Some ids -> (
    let live = List.filter (fun cid -> (Vec.get st.clauses cid).active) !ids in
    match List.find_opt (fun cid -> not (locked st (Vec.get st.clauses cid))) live with
    | None -> -1
    | Some cid ->
      let c = Vec.get st.clauses cid in
      unwatch st c;
      c.active <- false;
      index_remove st key cid;
      cid)

(* Reset all assignments and recompute root propagation (and the
   contradiction flag) from the active clause set.  Used in backward mode
   whenever detaching a clause could invalidate recorded reasons. *)
let rebuild_root st =
  undo st 0;
  st.contradiction <- -1;
  Vec.iter
    (fun c ->
      if c.active then
        match Array.length c.lits with
        | 0 -> set_contradiction st c.id
        | 1 -> (
          if st.contradiction < 0 then
            match value st c.lits.(0) with
            | -1 -> set_contradiction st c.id
            | 0 -> enqueue st c.lits.(0) c.id
            | _ -> ())
        | _ -> ())
    st.clauses;
  if st.contradiction < 0 then
    match propagate st with -1 -> () | confl -> set_contradiction st confl

(* Mark [cid] and every clause reachable from it through the current
   reason chains: the clauses this derivation step actually used. *)
let mark_ancestry st cid =
  st.gen <- st.gen + 1;
  let g = st.gen in
  let stack = ref [ cid ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      let c = Vec.get st.clauses id in
      if c.gen <> g then begin
        c.gen <- g;
        c.marked <- true;
        Array.iter
          (fun l ->
            let r = st.reason.(Lit.var l) in
            if r >= 0 && (Vec.get st.clauses r).gen <> g then stack := r :: !stack)
          c.lits
      end
  done

(* ---- RUP / RAT ---- *)

exception Sat_by of Lit.t

(* Reverse unit propagation: assume the negation of every literal of
   [lits]; the clause is entailed iff propagation derives a conflict (or
   some literal already holds at root).  Marks the clauses used. *)
let rup_no_rat st lits =
  if st.contradiction >= 0 then begin
    mark_ancestry st st.contradiction;
    true
  end
  else begin
    let mark0 = Vec.length st.trail in
    let outcome =
      match
        Array.iter
          (fun l ->
            match value st l with
            | 1 -> raise (Sat_by l)
            | -1 -> () (* negation already assigned (root fact or duplicate) *)
            | _ -> enqueue st (Lit.negate l) (-1))
          lits;
        propagate st
      with
      | exception Sat_by l ->
        (* satisfied outright; if by a root assignment, record its source *)
        let r = st.reason.(Lit.var l) in
        if r >= 0 then mark_ancestry st r;
        true
      | -1 -> false
      | confl ->
        mark_ancestry st confl;
        true
    in
    undo st mark0;
    outcome
  end

(* RAT fallback on the first literal: every resolvent with a clause
   containing the negated pivot must itself be RUP (tautological
   resolvents are vacuous). *)
let rat st lits =
  if Array.length lits = 0 then false
  else begin
    let pivot = lits.(0) in
    let neg_pivot = Lit.negate pivot in
    let ok = ref true in
    let n = Vec.length st.clauses in
    let i = ref 0 in
    while !ok && !i < n do
      let d = Vec.get st.clauses !i in
      if d.active && Array.exists (fun m -> m = neg_pivot) d.lits then begin
        let rest = Array.of_list (List.filter (fun m -> m <> neg_pivot) (Array.to_list d.lits)) in
        let resolvent = Array.append lits rest in
        let taut =
          let tbl = Hashtbl.create 16 in
          Array.iter (fun m -> Hashtbl.replace tbl (Lit.to_int m) ()) resolvent;
          Array.exists (fun m -> Hashtbl.mem tbl (Lit.to_int (Lit.negate m))) resolvent
        in
        if not taut && not (rup_no_rat st resolvent) then ok := false
      end;
      incr i
    done;
    !ok
  end

let check_lemma st lits =
  st.lemmas_checked <- st.lemmas_checked + 1;
  rup_no_rat st lits || (st.rat && rat st lits)

(* Deactivate an addition (backward mode).  If the clause was a recorded
   reason — or the database is currently contradictory, where reasons may
   reference it — root propagation is rebuilt from scratch. *)
let detach st cid =
  let c = Vec.get st.clauses cid in
  let was_locked = locked st c in
  unwatch st c;
  c.active <- false;
  if was_locked || st.contradiction >= 0 then rebuild_root st

(* Re-activate a clause deactivated by a deletion step (backward mode). *)
let reattach st cid =
  let c = Vec.get st.clauses cid in
  c.active <- true;
  match Array.length c.lits with
  | 0 -> set_contradiction st c.id
  | 1 -> (
    match value st c.lits.(0) with
    | -1 -> set_contradiction st c.id
    | 0 -> (
      enqueue st c.lits.(0) c.id;
      match propagate st with -1 -> () | confl -> set_contradiction st confl)
    | _ -> ())
  | _ -> attach st c

(* ---- driver ---- *)

let create_state ~formula ~proof ~goal ~rat =
  let max_var = ref (-1) in
  let scan lits = Array.iter (fun l -> max_var := max !max_var (Lit.var l)) lits in
  Array.iter scan formula;
  Array.iter (function Drat.Add l | Drat.Delete l -> scan l) proof;
  (match goal with Some g -> scan g | None -> ());
  let nv = !max_var + 1 in
  let deleted_fps = Hashtbl.create 64 in
  Array.iter
    (function Drat.Delete l -> Hashtbl.replace deleted_fps (fingerprint l) () | Drat.Add _ -> ())
    proof;
  {
    clauses = Vec.create dummy_cls;
    watches = Array.make (2 * nv) no_watches;
    assigns = Array.make nv 0;
    reason = Array.make nv (-2);
    trail = Vec.create Lit.undef;
    qhead = 0;
    index = Hashtbl.create 64;
    deleted_fps;
    contradiction = -1;
    gen = 0;
    propagations = 0;
    lemmas_checked = 0;
    rat;
  }

let report st verdict ~additions ~deletions =
  { verdict; additions; deletions; lemmas_checked = st.lemmas_checked; propagations = st.propagations }

let goal_failure = "goal clause is not entailed by the formula and proof"
let no_empty_clause = "proof derives neither the empty clause nor a contradiction"

let run_forward st proof goal =
  let additions = ref 0 and deletions = ref 0 in
  let failed = ref None in
  let i = ref 0 in
  let n = Array.length proof in
  while !failed = None && !i < n && st.contradiction < 0 do
    (match proof.(!i) with
    | Drat.Delete lits ->
      incr deletions;
      ignore (delete_clause st lits)
    | Drat.Add lits ->
      incr additions;
      if check_lemma st lits then ignore (add_unchecked st (Array.copy lits))
      else failed := Some (Invalid { step = !i; reason = "lemma fails the RUP/RAT check" }));
    incr i
  done;
  let verdict =
    match !failed with
    | Some v -> v
    | None ->
      if st.contradiction >= 0 then Valid
      else (
        match goal with
        | None -> Invalid { step = -1; reason = no_empty_clause }
        | Some g -> if check_lemma st g then Valid else Invalid { step = -1; reason = goal_failure })
  in
  report st verdict ~additions:!additions ~deletions:!deletions

let run_backward st proof goal =
  let additions = ref 0 and deletions = ref 0 in
  let n = Array.length proof in
  let step_cid = Array.make (max n 1) (-1) in
  (* phase 1: replay without checking, up to the first contradiction *)
  let stop = ref 0 in
  while !stop < n && st.contradiction < 0 do
    (match proof.(!stop) with
    | Drat.Delete lits ->
      incr deletions;
      step_cid.(!stop) <- delete_clause st lits
    | Drat.Add lits ->
      incr additions;
      step_cid.(!stop) <- add_unchecked st (Array.copy lits));
    incr stop
  done;
  (* seed the dependency marking from the conclusion *)
  let seeded =
    if st.contradiction >= 0 then begin
      mark_ancestry st st.contradiction;
      Ok ()
    end
    else
      match goal with
      | None -> Error (Invalid { step = -1; reason = no_empty_clause })
      | Some g ->
        if check_lemma st g then Ok () else Error (Invalid { step = -1; reason = goal_failure })
  in
  let verdict =
    match seeded with
    | Error v -> v
    | Ok () ->
      (* phase 2: walk the applied prefix in reverse, verifying marked
         lemmas against exactly the database that preceded them *)
      let failed = ref None in
      for j = !stop - 1 downto 0 do
        if !failed = None then
          match proof.(j) with
          | Drat.Delete _ ->
            let cid = step_cid.(j) in
            if cid >= 0 then reattach st cid
          | Drat.Add lits ->
            let cid = step_cid.(j) in
            let marked = (Vec.get st.clauses cid).marked in
            detach st cid;
            if marked && not (check_lemma st lits) then
              failed := Some (Invalid { step = j; reason = "lemma fails the RUP/RAT check" })
      done;
      (match !failed with Some v -> v | None -> Valid)
  in
  report st verdict ~additions:!additions ~deletions:!deletions

(* A RAT addition preserves satisfiability but not entailment (a lemma
   over a variable no clause mentions is RAT, yet not implied), so a goal
   check accepts RUP steps only. *)
let run ?(mode = Forward) ~formula ~proof goal =
  let st = create_state ~formula ~proof ~goal ~rat:(goal = None) in
  Array.iter (fun lits -> ignore (add_unchecked st lits)) formula;
  match mode with Forward -> run_forward st proof goal | Backward -> run_backward st proof goal

let check_unsat ?mode ~formula ~proof () = run ?mode ~formula ~proof None

let check_entails ?mode ~formula ~proof goal = run ?mode ~formula ~proof (Some goal)
