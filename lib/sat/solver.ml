(* CDCL SAT solver (MiniSat/Glucose lineage) on a flat clause arena.

   This is the solving substrate that stands in for Z3's SAT core in the
   OLSQ2 reproduction: the paper's best configuration bit-blasts the whole
   layout-synthesis formulation into CNF precisely so that only the SAT
   engine runs.  Features:
   - clause arena: every clause lives in one growable flat [int array]
     (header + literals), referenced by index, so propagation walks
     contiguous memory instead of chasing boxed records;
   - cache-local watcher arrays: per-literal flat (blocker, cref) int
     pairs with in-place compaction, no boxed watcher records;
   - int-only vectors ({!Olsq2_util.Ivec}) for the trail (literals as
     [Lit.to_int]), its decision-level marks, the clause-reference lists
     and the conflict-analysis scratch, so pushing, setting and
     unassigning never pay the GC write barrier;
   - two-watched-literal unit propagation with blocker literals,
   - first-UIP conflict analysis with basic clause minimization,
   - VSIDS decision heuristic with phase saving ([Tuning.phase_mode]),
   - Luby or geometric restarts,
   - LBD-aware learnt-clause database reduction with arena compaction,
   - clause vivification (distillation) between restarts, DRAT-logged,
   - incremental interface: clauses may be added between [solve] calls and
     each call may carry assumptions, so the optimizer's iterative bound
     refinement reuses learnt clauses exactly as the paper's incremental
     Z3 usage does.

   All strategy constants live in {!Tuning}; the solver reads the ambient
   tuning at creation and never hard-codes a schedule. *)

module Ivec = Olsq2_util.Ivec

type reason = Conflict_budget | Timeout | Interrupted

type result = Sat | Unsat | Unknown of reason

let reason_to_string = function
  | Conflict_budget -> "conflict_budget"
  | Timeout -> "timeout"
  | Interrupted -> "interrupted"

let result_to_string = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown r -> "unknown:" ^ reason_to_string r

(* Proof logging callbacks (DRAT).  The solver stays ignorant of the sink
   format: [lib/proof] supplies an implementation that serializes to
   text/binary DRAT.  [on_original] fires for every clause handed to
   [add_clause] (pre-simplification, so the logged formula matches what the
   caller asserted); [on_learnt] for every clause the checker must verify by
   reverse unit propagation (learnt clauses, the empty clause on level-0
   UNSAT, and the final assumption-core lemma); [on_delete] for clauses
   dropped by [reduce_db].  When no logger is installed every hook site is
   a single [match] on [None].

   Ownership: every array handed to a hook is allocated for proof logging
   and belongs to no solver structure (arena, buffers, learnt vectors),
   and the solver never writes to it after the call.  A hook may keep it
   without copying.  The same array can reach two hooks: a clause that
   root simplification drops or shrinks is passed to [on_original] and
   then to [on_delete]. *)
type proof_logger = {
  on_original : Lit.t array -> unit;
  on_learnt : Lit.t array -> unit;
  on_delete : Lit.t array -> unit;
}

(* Learnt-clause sharing hooks (lib/parallel supplies the channel).
   [sh_export] is offered every learnt clause as it is recorded and
   returns whether it took a copy (the closure owns length/LBD/variable
   filtering, so the hot path stays a single branch when unset);
   [sh_import] drains clauses other solvers exported since the last
   call.  A learnt clause never depends on the assumptions of the solve
   that produced it — it is implied by the clause database alone — so
   importing is sound between solvers whose problem clauses match. *)
type share = {
  sh_export : Lit.t array -> lbd:int -> bool;
  sh_import : unit -> Lit.t array list;
}

module Hist = Olsq2_obs.Obs.Histogram

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_clauses : int;
  mutable removed_clauses : int;
  mutable solves : int;
  mutable vivified_clauses : int;
  mutable compactions : int;
  mutable solve_seconds : float;
  mutable propagate_seconds : float;
  mutable analyze_seconds : float;
  mutable reduce_seconds : float;
  mutable restart_seconds : float;
  mutable vivify_seconds : float;
  mutable shared_exported : int;
  mutable shared_imported : int;
  lbd_hist : Hist.t;
  trail_hist : Hist.t;
}

let stats_zero () =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    removed_clauses = 0;
    solves = 0;
    vivified_clauses = 0;
    compactions = 0;
    solve_seconds = 0.0;
    propagate_seconds = 0.0;
    analyze_seconds = 0.0;
    reduce_seconds = 0.0;
    restart_seconds = 0.0;
    vivify_seconds = 0.0;
    shared_exported = 0;
    shared_imported = 0;
    lbd_hist = Hist.create ();
    trail_hist = Hist.create ();
  }

let stats_copy s =
  {
    s with
    lbd_hist = Hist.copy s.lbd_hist;
    trail_hist = Hist.copy s.trail_hist;
  }

let stats_diff ~after ~before =
  {
    conflicts = after.conflicts - before.conflicts;
    decisions = after.decisions - before.decisions;
    propagations = after.propagations - before.propagations;
    restarts = after.restarts - before.restarts;
    learnt_clauses = after.learnt_clauses - before.learnt_clauses;
    removed_clauses = after.removed_clauses - before.removed_clauses;
    solves = after.solves - before.solves;
    vivified_clauses = after.vivified_clauses - before.vivified_clauses;
    compactions = after.compactions - before.compactions;
    solve_seconds = after.solve_seconds -. before.solve_seconds;
    propagate_seconds = after.propagate_seconds -. before.propagate_seconds;
    analyze_seconds = after.analyze_seconds -. before.analyze_seconds;
    reduce_seconds = after.reduce_seconds -. before.reduce_seconds;
    restart_seconds = after.restart_seconds -. before.restart_seconds;
    vivify_seconds = after.vivify_seconds -. before.vivify_seconds;
    shared_exported = after.shared_exported - before.shared_exported;
    shared_imported = after.shared_imported - before.shared_imported;
    lbd_hist = Hist.diff ~after:after.lbd_hist ~before:before.lbd_hist;
    trail_hist = Hist.diff ~after:after.trail_hist ~before:before.trail_hist;
  }

let stats_add ~into s =
  into.conflicts <- into.conflicts + s.conflicts;
  into.decisions <- into.decisions + s.decisions;
  into.propagations <- into.propagations + s.propagations;
  into.restarts <- into.restarts + s.restarts;
  into.learnt_clauses <- into.learnt_clauses + s.learnt_clauses;
  into.removed_clauses <- into.removed_clauses + s.removed_clauses;
  into.solves <- into.solves + s.solves;
  into.vivified_clauses <- into.vivified_clauses + s.vivified_clauses;
  into.compactions <- into.compactions + s.compactions;
  into.solve_seconds <- into.solve_seconds +. s.solve_seconds;
  into.propagate_seconds <- into.propagate_seconds +. s.propagate_seconds;
  into.analyze_seconds <- into.analyze_seconds +. s.analyze_seconds;
  into.reduce_seconds <- into.reduce_seconds +. s.reduce_seconds;
  into.restart_seconds <- into.restart_seconds +. s.restart_seconds;
  into.vivify_seconds <- into.vivify_seconds +. s.vivify_seconds;
  into.shared_exported <- into.shared_exported + s.shared_exported;
  into.shared_imported <- into.shared_imported + s.shared_imported;
  Hist.merge_into ~into:into.lbd_hist s.lbd_hist;
  Hist.merge_into ~into:into.trail_hist s.trail_hist

let propagations_per_second s =
  if s.solve_seconds > 0.0 then float_of_int s.propagations /. s.solve_seconds else 0.0

let pp_stats_record fmt s =
  Format.fprintf fmt
    "conflicts=%d decisions=%d propagations=%d (%.0f/s) restarts=%d learnt=%d removed=%d solves=%d"
    s.conflicts s.decisions s.propagations (propagations_per_second s) s.restarts s.learnt_clauses
    s.removed_clauses s.solves;
  if s.vivified_clauses > 0 || s.compactions > 0 then
    Format.fprintf fmt "@\nhotpath: vivified=%d compactions=%d" s.vivified_clauses s.compactions;
  let phase_total =
    s.propagate_seconds +. s.analyze_seconds +. s.reduce_seconds +. s.restart_seconds
    +. s.vivify_seconds
  in
  if phase_total > 0.0 then begin
    Format.fprintf fmt
      "@\nphase: propagate=%.3fs analyze=%.3fs reduce=%.3fs restart=%.3fs vivify=%.3fs"
      s.propagate_seconds s.analyze_seconds s.reduce_seconds s.restart_seconds s.vivify_seconds;
    if s.solve_seconds > 0.0 then
      Format.fprintf fmt " (%.0f%% of solve)" (100.0 *. phase_total /. s.solve_seconds)
  end;
  if s.shared_exported > 0 || s.shared_imported > 0 then
    Format.fprintf fmt "@\nshared: exported=%d imported=%d" s.shared_exported s.shared_imported;
  if not (Hist.is_empty s.lbd_hist) then Format.fprintf fmt "@\nlbd:   %a" Hist.pp s.lbd_hist;
  if not (Hist.is_empty s.trail_hist) then Format.fprintf fmt "@\ntrail: %a" Hist.pp s.trail_hist

(* ---- clause arena ----

   Clauses live back-to-back in one flat [int array]; a clause reference
   ([cref]) is the index of its header.  Layout, per clause:

     [c]     size (number of literals)
     [c+1]   flags: bit 0 learnt, bit 1 deleted, bit 2 forwarded (GC only);
             LBD in bits 3+
     [c+2]   activity, as IEEE float bits shifted right by one (activities
             are non-negative so the sign bit is spare; dropping the low
             mantissa bit is harmless for a bump counter) — during
             compaction this word holds the forwarding cref instead
     [c+3..] literals, as [Lit.to_int]

   [-1] is the null cref (no clause / no reason).  Deleted clauses stay in
   place, counted in [arena_wasted], until compaction copies the live
   clauses into a fresh arena and rebuilds the watch lists. *)

let null_cref = -1

let bits_of_act f = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 1)
let act_of_bits i = Int64.float_of_bits (Int64.shift_left (Int64.of_int i) 1)

type t = {
  mutable arena : int array;
  mutable arena_top : int; (* words used *)
  mutable arena_wasted : int; (* words held by deleted/shrunk clauses *)
  mutable arena_hw : int; (* high-water mark of [arena_top] *)
  (* clause database: crefs.  Problem-clause entries are never compacted
     away within a database generation — a clause deleted before a GC
     leaves a [null_cref] sentinel so replica sync cursors stay valid. *)
  clauses : Ivec.t;
  learnts : Ivec.t;
  (* per-literal watcher arrays: watch_data.(Lit.to_int l) holds
     (blocker, cref) int pairs for clauses that must be inspected when
     [l] becomes true (i.e. clauses watching [negate l]) *)
  mutable watch_data : int array array;
  mutable watch_len : int array;
  (* per-variable state *)
  mutable assigns : int array; (* 0 = undef, 1 = true, -1 = false *)
  mutable level : int array;
  mutable reason : int array; (* cref; null_cref = no reason *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  mutable level_mark : int array; (* LBD scratch, stamped by [mark_gen] *)
  mutable mark_gen : int;
  (* trail *)
  trail : Ivec.t; (* [Lit.to_int] of each assigned literal *)
  trail_lim : Ivec.t;
  mutable qhead : int;
  (* heuristics *)
  order : Var_heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable tuning : Tuning.t;
  mutable lit_marks : int array; (* per-literal timestamps for clause dedup *)
  mutable mark_stamp : int;
  (* clause intake: [clause_push] appends raw literals to [cbuf];
     [clause_commit] writes the survivors of root simplification to
     [cout] and copies them into the arena.  Both grow on demand. *)
  mutable cbuf : int array;
  mutable cbuf_len : int;
  mutable cout : int array;
  (* [analyze] scratch, cleared per conflict *)
  an_learnt : Ivec.t; (* literals, as [Lit.to_int] *)
  an_kept : Ivec.t;
  an_clear : Ivec.t;
  (* status *)
  mutable nvars : int;
  mutable ok : bool; (* false once UNSAT at level 0 *)
  mutable model : bool array;
  mutable conflict_core : Lit.t list; (* failed assumptions of last Unsat *)
  mutable proof : proof_logger option;
  interrupt_flag : bool Atomic.t; (* cross-domain async stop request *)
  (* simplification state (lib/simplify drives these through the
     primitives below): [frozen] variables must never be eliminated --
     assumption literals, objective selectors and anything the caller
     reads back from the model; [eliminated] variables are gone from the
     clause database and re-derived from [extension] after every Sat. *)
  mutable frozen : bool array;
  mutable eliminated : bool array;
  mutable extension : (Lit.t * Lit.t array array) list; (* head = last eliminated *)
  mutable inprocessor : (t -> unit) option;
  mutable next_inprocess : int; (* conflict count that triggers the next run *)
  mutable in_simplify : bool; (* between begin_simplify and end_simplify *)
  (* live-progress callback: fired from the search loop every
     [progress_interval] conflicts; one [match None] branch when off *)
  mutable progress : (t -> unit) option;
  mutable progress_interval : int;
  mutable next_progress : int;
  (* learnt-clause sharing channel endpoints (lib/parallel) *)
  mutable share : share option;
  (* bumped whenever the problem-clause database is rewritten wholesale
     ([begin_simplify]); replicas keyed on (identity, generation,
     entry index) know to resync from scratch instead of by delta *)
  mutable db_generation : int;
  stats : stats;
}

let create ?tuning () =
  let tuning = match tuning with Some t -> t | None -> Tuning.ambient () in
  {
    arena = Array.make (max 64 tuning.Tuning.arena_capacity) 0;
    arena_top = 0;
    arena_wasted = 0;
    arena_hw = 0;
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    watch_data = [||];
    watch_len = [||];
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    level_mark = [||];
    mark_gen = 0;
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    order = Var_heap.create ();
    var_inc = 1.0;
    cla_inc = 1.0;
    tuning;
    lit_marks = [||];
    mark_stamp = 0;
    cbuf = [||];
    cbuf_len = 0;
    cout = [||];
    an_learnt = Ivec.create ();
    an_kept = Ivec.create ();
    an_clear = Ivec.create ();
    nvars = 0;
    ok = true;
    model = [||];
    conflict_core = [];
    proof = None;
    interrupt_flag = Atomic.make false;
    frozen = [||];
    eliminated = [||];
    extension = [];
    inprocessor = None;
    next_inprocess = max_int;
    in_simplify = false;
    progress = None;
    progress_interval = 2000;
    next_progress = max_int;
    share = None;
    db_generation = 0;
    stats = stats_zero ();
  }

let nvars t = t.nvars
let stats t = t.stats
let tuning t = t.tuning

let set_tuning t tu = t.tuning <- tu

let set_progress ?(interval = 2000) t cb =
  t.progress <- cb;
  t.progress_interval <- (if interval < 1 then 1 else interval);
  t.next_progress <-
    (match cb with None -> max_int | Some _ -> t.stats.conflicts + t.progress_interval)
let set_proof_logger t p = t.proof <- p
let proof_logging t = match t.proof with Some _ -> true | None -> false
let set_share t sh = t.share <- sh
let sharing t = match t.share with Some _ -> true | None -> false
let db_generation t = t.db_generation

let log_learnt t lits =
  match t.proof with None -> () | Some p -> p.on_learnt lits

let log_delete t lits =
  match t.proof with None -> () | Some p -> p.on_delete lits

(* Proof hooks for the simplification engine: resolvents and strengthened
   clauses are RUP additions; eliminated and subsumed clauses are
   deletions.  Exposed so [lib/simplify] can keep the checker's database
   in lockstep with the solver's without depending on the sink format. *)
let log_proof_add = log_learnt
let log_proof_delete = log_delete

let freeze t v = if v >= 0 && v < t.nvars then t.frozen.(v) <- true
let is_frozen t v = v >= 0 && v < t.nvars && t.frozen.(v)
let is_eliminated t v = v >= 0 && v < t.nvars && t.eliminated.(v)
let n_eliminated t = List.length t.extension
let force_unsat t = t.ok <- false

(* ---- clause accessors ---- *)

let c_size t c = Array.unsafe_get t.arena c
let c_learnt t c = Array.unsafe_get t.arena (c + 1) land 1 <> 0
let c_deleted t c = Array.unsafe_get t.arena (c + 1) land 2 <> 0
let c_lbd t c = Array.unsafe_get t.arena (c + 1) lsr 3

let c_activity t c = act_of_bits t.arena.(c + 2)
let c_set_activity t c f = t.arena.(c + 2) <- bits_of_act f
let c_lit t c i : Lit.t = Lit.of_int (Array.unsafe_get t.arena (c + 3 + i))
let c_set_lit t c i l = Array.unsafe_set t.arena (c + 3 + i) (Lit.to_int l)

(* Copy a clause's literals out (proof logging, sharing, diagnostics). *)
let c_lits t c = Array.init (c_size t c) (fun i -> c_lit t c i)

let c_mark_deleted t c =
  if not (c_deleted t c) then begin
    t.arena.(c + 1) <- t.arena.(c + 1) lor 2;
    t.arena_wasted <- t.arena_wasted + 3 + c_size t c
  end

let resize_arena t cap =
  let a = Array.make cap 0 in
  Array.blit t.arena 0 a 0 t.arena_top;
  t.arena <- a

(* Reserve a clause of [size] literals and write its header; the caller
   fills the literal words. *)
let alloc_header t ~learnt ~lbd size =
  let need = t.arena_top + 3 + size in
  if need > Array.length t.arena then resize_arena t (max need (2 * Array.length t.arena));
  let c = t.arena_top in
  t.arena_top <- need;
  if need > t.arena_hw then t.arena_hw <- need;
  t.arena.(c) <- size;
  t.arena.(c + 1) <- (if learnt then 1 else 0) lor (lbd lsl 3);
  t.arena.(c + 2) <- 0;
  c

let alloc t ~learnt ~lbd lits =
  let size = Array.length lits in
  let c = alloc_header t ~learnt ~lbd size in
  for i = 0 to size - 1 do
    t.arena.(c + 3 + i) <- Lit.to_int lits.(i)
  done;
  c

(* Make room for [words] more arena words in one allocation, so a caller
   about to add many clauses spares the arena its doubling copies. *)
let reserve_arena t words =
  let need = t.arena_top + words in
  if need > Array.length t.arena then resize_arena t need

(* The first [n] raw literals of [buf] as a fresh array (proof hooks). *)
let lits_of_buf buf n = Array.init n (fun i -> Lit.of_int buf.(i))

(* ---- variable management ---- *)

let grow_array arr n fill =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) fill in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let empty_watch = [||]

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.assigns <- grow_array t.assigns t.nvars 0;
  t.level <- grow_array t.level t.nvars (-1);
  t.reason <- grow_array t.reason t.nvars null_cref;
  t.activity <- grow_array t.activity t.nvars 0.0;
  t.polarity <- grow_array t.polarity t.nvars false;
  t.seen <- grow_array t.seen t.nvars false;
  t.level_mark <- grow_array t.level_mark (t.nvars + 1) 0;
  t.frozen <- grow_array t.frozen t.nvars false;
  t.eliminated <- grow_array t.eliminated t.nvars false;
  let nlits = 2 * t.nvars in
  if Array.length t.watch_data < nlits then begin
    let cap = max nlits (2 * Array.length t.watch_data) in
    let wd = Array.make cap empty_watch in
    Array.blit t.watch_data 0 wd 0 (Array.length t.watch_data);
    let wl = Array.make cap 0 in
    Array.blit t.watch_len 0 wl 0 (Array.length t.watch_len);
    t.watch_data <- wd;
    t.watch_len <- wl
  end;
  Var_heap.set_activity_array t.order t.activity;
  Var_heap.insert t.order v;
  v

let new_lit t = Lit.of_var (new_var t)

(* ---- assignment primitives ---- *)

let lit_value t l =
  let a = t.assigns.(Lit.var l) in
  if Lit.sign l then a else -a

(* Value of a literal given as its raw int (propagation hot path). *)
let litv t li =
  let a = Array.unsafe_get t.assigns (li lsr 1) in
  if li land 1 = 0 then a else -a

let decision_level t = Ivec.length t.trail_lim

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100;
    Var_heap.rescaled t.order
  end;
  Var_heap.decrease t.order v

let var_decay_activity t = t.var_inc <- t.var_inc /. t.tuning.Tuning.var_decay

let clause_bump t c =
  c_set_activity t c (c_activity t c +. t.cla_inc);
  if c_activity t c > 1e20 then begin
    Ivec.iter (fun cc -> c_set_activity t cc (c_activity t cc *. 1e-20)) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_activity t = t.cla_inc <- t.cla_inc /. t.tuning.Tuning.clause_decay

(* Assign literal [l] true, with [reason] cref ([null_cref] = decision). *)
let enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- (if Lit.sign l then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Ivec.push t.trail (Lit.to_int l)

(* ---- watcher arrays ---- *)

let wpush t li blocker cref =
  let len = t.watch_len.(li) in
  let data = t.watch_data.(li) in
  let data =
    if len + 2 > Array.length data then begin
      let d = Array.make (max 8 (2 * Array.length data)) 0 in
      Array.blit data 0 d 0 len;
      t.watch_data.(li) <- d;
      d
    end
    else data
  in
  data.(len) <- blocker;
  data.(len + 1) <- cref;
  t.watch_len.(li) <- len + 2

let watch_clause t c =
  (* clause watching lits 0 and 1: register under their negations *)
  let l0 = Lit.to_int (c_lit t c 0) and l1 = Lit.to_int (c_lit t c 1) in
  wpush t (l0 lxor 1) l1 c;
  wpush t (l1 lxor 1) l0 c

(* Remove the watcher of clause [c] from [data], the [n]-word watcher
   array of literal index [li], scanning from pair [i]. *)
let rec unwatch_from t li data n c i =
  if i >= n then ()
  else if data.(i + 1) = c then begin
    data.(i) <- data.(n - 2);
    data.(i + 1) <- data.(n - 1);
    t.watch_len.(li) <- n - 2
  end
  else unwatch_from t li data n c (i + 2)

let unwatch_lit t c l =
  let li = Lit.to_int (Lit.negate l) in
  unwatch_from t li t.watch_data.(li) t.watch_len.(li) c 0

let unwatch_clause t c =
  unwatch_lit t c (c_lit t c 0);
  unwatch_lit t c (c_lit t c 1)

(* ---- backtracking ---- *)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Ivec.get t.trail_lim lvl in
    for i = Ivec.length t.trail - 1 downto bound do
      let l = Lit.of_int (Ivec.unsafe_get t.trail i) in
      let v = Lit.var l in
      t.assigns.(v) <- 0;
      t.polarity.(v) <- Lit.sign l;
      t.reason.(v) <- null_cref;
      Var_heap.insert t.order v
    done;
    Ivec.shrink t.trail bound;
    Ivec.shrink t.trail_lim lvl;
    t.qhead <- Ivec.length t.trail
  end

(* ---- propagation ---- *)

exception Conflict_at of int

(* Index of the first literal at or after position [k] of the clause
   whose literals start at arena word [base] that is not false, or -1. *)
let rec first_non_false t base size k =
  if k >= size then -1
  else if litv t (Array.unsafe_get t.arena (base + k)) <> -1 then k
  else first_non_false t base size (k + 1)

(* Propagate all enqueued facts.  Returns the conflicting cref, or
   [null_cref] if no conflict.  The watcher list of the literal being
   processed is compacted in place (surviving pairs copied down); a watch
   moved to another literal can never land back on the list under
   inspection, because the new watch has a non-false value while the
   inspected literal's negation is false. *)
let propagate t =
  let confl = ref null_cref in
  (try
     while t.qhead < Ivec.length t.trail do
       let pi = Ivec.unsafe_get t.trail t.qhead in
       t.qhead <- t.qhead + 1;
       t.stats.propagations <- t.stats.propagations + 1;
       let data = t.watch_data.(pi) in
       let n = t.watch_len.(pi) in
       let false_lit = pi lxor 1 in
       let i = ref 0 and j = ref 0 in
       begin
         while !i < n do
            let blocker = Array.unsafe_get data !i in
            let c = Array.unsafe_get data (!i + 1) in
            (* fast path: blocker already true *)
            if litv t blocker = 1 then begin
              Array.unsafe_set data !j blocker;
              Array.unsafe_set data (!j + 1) c;
              j := !j + 2;
              i := !i + 2
            end
            else if c_deleted t c then i := !i + 2 (* drop lazily *)
            else begin
              (* normalize: put the false watch in slot 1 *)
              if Array.unsafe_get t.arena (c + 3) = false_lit then begin
                Array.unsafe_set t.arena (c + 3) (Array.unsafe_get t.arena (c + 4));
                Array.unsafe_set t.arena (c + 4) false_lit
              end;
              let first = Array.unsafe_get t.arena (c + 3) in
              if litv t first = 1 then begin
                (* clause satisfied; refresh blocker *)
                Array.unsafe_set data !j first;
                Array.unsafe_set data (!j + 1) c;
                j := !j + 2;
                i := !i + 2
              end
              else begin
                (* look for a new literal to watch *)
                let base = c + 3 in
                let k = first_non_false t base (Array.unsafe_get t.arena c) 2 in
                if k >= 0 then begin
                  (* move watch to lit k *)
                  let lnew = Array.unsafe_get t.arena (base + k) in
                  Array.unsafe_set t.arena (base + 1) lnew;
                  Array.unsafe_set t.arena (base + k) false_lit;
                  wpush t (lnew lxor 1) first c;
                  i := !i + 2
                end
                else if litv t first = -1 then begin
                  (* conflict: keep the rest of the list, stop *)
                  Array.blit data !i data !j (n - !i);
                  t.watch_len.(pi) <- !j + (n - !i);
                  t.qhead <- Ivec.length t.trail;
                  raise (Conflict_at c)
                end
                else begin
                  (* unit: propagate first *)
                  enqueue t (Lit.of_int first) c;
                  Array.unsafe_set data !j first;
                  Array.unsafe_set data (!j + 1) c;
                  j := !j + 2;
                  i := !i + 2
                end
              end
            end
         done;
         t.watch_len.(pi) <- !j
       end
     done
   with Conflict_at c -> confl := c);
  !confl

(* ---- conflict analysis ---- *)

(* Basic (non-recursive) learnt-clause minimization: a literal is redundant
   if it was propagated and every other literal of its reason is already in
   the clause (seen) or assigned at level 0. *)
let lit_redundant t l =
  let v = Lit.var l in
  let r = t.reason.(v) in
  if r = null_cref then false
  else begin
    let ok = ref true in
    let size = c_size t r in
    for k = 0 to size - 1 do
      let q = c_lit t r k in
      let w = Lit.var q in
      if w <> v && not t.seen.(w) && t.level.(w) > 0 then ok := false
    done;
    !ok
  end

(* First-UIP learning.  Returns (learnt lits with UIP first, backtrack
   level, lbd). *)
let analyze t confl =
  let learnt = t.an_learnt in
  Ivec.clear learnt;
  Ivec.push learnt (Lit.to_int Lit.undef);
  (* slot for the asserting literal *)
  let path_count = ref 0 in
  let p = ref Lit.undef in
  let index = ref (Ivec.length t.trail - 1) in
  let confl = ref confl in
  let to_clear = t.an_clear in
  Ivec.clear to_clear;
  let continue_loop = ref true in
  while !continue_loop do
    let c = !confl in
    if c_learnt t c then clause_bump t c;
    let start = if !p = Lit.undef then 0 else 1 in
    let size = c_size t c in
    for k = start to size - 1 do
      let q = c_lit t c k in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        Ivec.push to_clear v;
        var_bump t v;
        if t.level.(v) >= decision_level t then incr path_count
        else Ivec.push learnt (Lit.to_int q)
      end
    done;
    (* pick next literal to resolve on *)
    while not t.seen.(Lit.var (Lit.of_int (Ivec.get t.trail !index))) do
      decr index
    done;
    p := Lit.of_int (Ivec.get t.trail !index);
    decr index;
    let v = Lit.var !p in
    confl := t.reason.(v);
    t.seen.(v) <- false;
    decr path_count;
    if !path_count <= 0 then continue_loop := false
  done;
  Ivec.set learnt 0 (Lit.to_int (Lit.negate !p));
  (* minimization: drop redundant non-UIP literals *)
  let kept = t.an_kept in
  Ivec.clear kept;
  Ivec.push kept (Ivec.get learnt 0);
  for i = 1 to Ivec.length learnt - 1 do
    let l = Ivec.get learnt i in
    if not (lit_redundant t (Lit.of_int l)) then Ivec.push kept l
  done;
  let learnt = Array.make (Ivec.length kept) Lit.undef in
  for i = 0 to Ivec.length kept - 1 do
    learnt.(i) <- Lit.of_int (Ivec.unsafe_get kept i)
  done;
  (* backtrack level: max level among learnt[1..]; move it to slot 1 *)
  let btlevel =
    if Array.length learnt = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Array.length learnt - 1 do
        if t.level.(Lit.var learnt.(i)) > t.level.(Lit.var learnt.(!max_i)) then max_i := i
      done;
      let tmp = learnt.(1) in
      learnt.(1) <- learnt.(!max_i);
      learnt.(!max_i) <- tmp;
      t.level.(Lit.var learnt.(1))
    end
  in
  (* literal-block distance, via a stamped level-mark scratch array *)
  t.mark_gen <- t.mark_gen + 1;
  let gen = t.mark_gen in
  let lbd = ref 0 in
  for i = 0 to Array.length learnt - 1 do
    let lv = t.level.(Lit.var learnt.(i)) in
    if lv >= 0 && lv < Array.length t.level_mark && t.level_mark.(lv) <> gen then begin
      t.level_mark.(lv) <- gen;
      incr lbd
    end
  done;
  (* clear seen *)
  for i = 0 to Ivec.length to_clear - 1 do
    t.seen.(Ivec.unsafe_get to_clear i) <- false
  done;
  (learnt, btlevel, !lbd)

(* Compute the subset of assumptions responsible for a conflict (final
   conflict analysis, MiniSat's analyzeFinal).  [a] is the assumption
   literal found false at its decision point; the result contains [a] plus
   every other assumption that contributed to falsifying it, all in their
   *asserted* polarity, so negating the core yields a clause implied by the
   clause database (a checkable DRAT lemma). *)
let analyze_final t a =
  let core = ref [ a ] in
  if decision_level t > 0 then begin
    t.seen.(Lit.var a) <- true;
    for i = Ivec.length t.trail - 1 downto Ivec.get t.trail_lim 0 do
      let l = Lit.of_int (Ivec.get t.trail i) in
      let v = Lit.var l in
      if t.seen.(v) then begin
        let r = t.reason.(v) in
        if r = null_cref then core := l :: !core
        else begin
          let size = c_size t r in
          for k = 0 to size - 1 do
            let q = c_lit t r k in
            let w = Lit.var q in
            if w <> v && t.level.(w) > 0 then t.seen.(w) <- true
          done
        end;
        t.seen.(v) <- false
      end
    done;
    t.seen.(Lit.var a) <- false
  end;
  !core

(* ---- arena compaction ----

   Copy the live clauses into a fresh arena and rebuild every watch list.
   Preconditions: not inside a [begin_simplify] window (learnts are
   parked there and must not be re-watched).  Problem-clause vector
   entries keep their index — a deleted entry becomes a [null_cref]
   sentinel — so replica sync cursors survive compaction; the learnt
   vector drops deleted entries outright. *)
let garbage_collect t =
  let live = t.arena_top - t.arena_wasted in
  let cap = max (max 64 t.tuning.Tuning.arena_capacity) (2 * live) in
  let na = Array.make cap 0 in
  let top = ref 0 in
  let reloc c =
    if t.arena.(c + 1) land 4 <> 0 then t.arena.(c + 2) (* forwarded *)
    else begin
      let words = 3 + t.arena.(c) in
      let nc = !top in
      Array.blit t.arena c na nc words;
      top := nc + words;
      t.arena.(c + 1) <- t.arena.(c + 1) lor 4;
      t.arena.(c + 2) <- nc;
      nc
    end
  in
  for i = 0 to Ivec.length t.clauses - 1 do
    let c = Ivec.get t.clauses i in
    if c <> null_cref then
      if c_deleted t c then Ivec.set t.clauses i null_cref else Ivec.set t.clauses i (reloc c)
  done;
  Ivec.filteri (fun _ c -> not (c_deleted t c)) t.learnts;
  for i = 0 to Ivec.length t.learnts - 1 do
    Ivec.set t.learnts i (reloc (Ivec.get t.learnts i))
  done;
  Ivec.iter
    (fun l ->
      let v = Lit.var (Lit.of_int l) in
      let r = t.reason.(v) in
      if r <> null_cref then t.reason.(v) <- reloc r)
    t.trail;
  t.arena <- na;
  t.arena_top <- !top;
  t.arena_wasted <- 0;
  Array.fill t.watch_len 0 (Array.length t.watch_len) 0;
  Ivec.iter (fun c -> if c <> null_cref then watch_clause t c) t.clauses;
  Ivec.iter (fun c -> watch_clause t c) t.learnts;
  t.stats.compactions <- t.stats.compactions + 1

let maybe_gc t =
  if
    (not t.in_simplify)
    && t.arena_wasted > 1024
    && float_of_int t.arena_wasted
       > t.tuning.Tuning.gc_fraction *. float_of_int (max 1 t.arena_top)
  then garbage_collect t

let compact t = if not t.in_simplify then garbage_collect t

(* ---- clause addition ---- *)

(* One clause intake for every caller: push its literals, then commit.
   [clause_commit] simplifies at level 0 without building a list or an
   intermediate array: it drops root-false literals, dedups through the
   per-literal [lit_marks] stamps (this runs once per clause of every
   encoding build, so it is the encoder's hot path into the solver),
   detects root-true and tautological clauses, and copies the survivors
   from [cout] straight into the arena.  A clause begun with
   [clause_push] must be committed before the solver is used otherwise. *)
let clause_push t l =
  let n = t.cbuf_len in
  if n = Array.length t.cbuf then begin
    let b = Array.make (max 16 (2 * n)) 0 in
    Array.blit t.cbuf 0 b 0 n;
    t.cbuf <- b
  end;
  Array.unsafe_set t.cbuf n (Lit.to_int l);
  t.cbuf_len <- n + 1

(* Level-0 simplification of the [n] pushed literals into [cout]: the
   number of survivors, or -1 when the clause is root-true or a
   tautology. *)
let simplify_pushed t n =
  if Array.length t.lit_marks < 2 * t.nvars then begin
    let m = Array.make (max 64 (4 * t.nvars)) 0 in
    Array.blit t.lit_marks 0 m 0 (Array.length t.lit_marks);
    t.lit_marks <- m
  end;
  if Array.length t.cout < n then t.cout <- Array.make (Array.length t.cbuf) 0;
  t.mark_stamp <- t.mark_stamp + 1;
  let stamp = t.mark_stamp in
  let marks = t.lit_marks and buf = t.cbuf and out = t.cout in
  let k = ref 0 and i = ref 0 in
  while !i < n do
    let li = Array.unsafe_get buf !i in
    (* after [cancel_until t 0] every assigned variable is a root unit *)
    match litv t li with
    | 1 ->
      (* satisfied at root *)
      k := -1;
      i := n
    | -1 -> incr i (* false at root: drop *)
    | _ ->
      if marks.(li lxor 1) = stamp then begin
        (* tautology *)
        k := -1;
        i := n
      end
      else begin
        if marks.(li) <> stamp then begin
          marks.(li) <- stamp;
          Array.unsafe_set out !k li;
          incr k
        end;
        incr i
      end
  done;
  !k

let clause_commit t =
  let n = t.cbuf_len in
  t.cbuf_len <- 0;
  (* The simplifier rewrote the database without eliminated variables, so
     new constraints must mention only live ones (callers freeze whatever
     they keep building on). *)
  if t.extension != [] then
    for i = 0 to n - 1 do
      let v = t.cbuf.(i) lsr 1 in
      if v < t.nvars && t.eliminated.(v) then
        invalid_arg "Solver.add_clause: literal over an eliminated variable"
    done;
  (* Log the clause as asserted (pre-simplification): the checker replays
     root-level simplification itself via unit propagation, so the proof's
     premise set must match the caller's formula, not our reduced one. *)
  let original =
    match t.proof with
    | None -> [||]
    | Some p ->
      let lits = lits_of_buf t.cbuf n in
      p.on_original lits;
      lits
  in
  if t.ok then begin
    cancel_until t 0;
    let k = simplify_pushed t n in
    if k < 0 then
      (* Root-satisfied or tautological: the clause never enters the
         database, so a deletion line keeps the proof deletion-exact. *)
      log_delete t original
    else begin
      (* When root simplification shrank the clause, the database holds
         the survivors, not the original: log the reduced clause as a RUP
         addition (original plus root units propagate to it) and delete
         the original so the checker's clause set tracks ours.  The
         survivors are a subsequence of the original, so they differ
         exactly when they are fewer.  The empty case is logged below. *)
      (match t.proof with
      | Some p when k > 0 && k < n ->
        p.on_learnt (lits_of_buf t.cout k);
        p.on_delete original
      | Some _ | None -> ());
      if k = 0 then begin
        t.ok <- false;
        log_learnt t [||]
      end
      else if k = 1 then begin
        (* unit clause: assert at level 0 *)
        let l = Lit.of_int t.cout.(0) in
        match lit_value t l with
        | 1 -> ()
        | -1 ->
          t.ok <- false;
          log_learnt t [||]
        | _ ->
          enqueue t l null_cref;
          if propagate t <> null_cref then begin
            t.ok <- false;
            log_learnt t [||]
          end
      end
      else begin
        let c = alloc_header t ~learnt:false ~lbd:0 k in
        Array.blit t.cout 0 t.arena (c + 3) k;
        Ivec.push t.clauses c;
        watch_clause t c
      end
    end
  end

let add_clause t lits =
  List.iter (fun l -> clause_push t l) lits;
  clause_commit t

let add_clause_a t lits =
  Array.iter (fun l -> clause_push t l) lits;
  clause_commit t

(* ---- learnt clause database reduction ---- *)

let clause_locked t c =
  c_size t c > 0
  &&
  let l0 = c_lit t c 0 in
  t.reason.(Lit.var l0) = c && lit_value t l0 = 1

let remove_clause t c =
  log_delete t (c_lits t c);
  unwatch_clause t c;
  c_mark_deleted t c;
  t.stats.removed_clauses <- t.stats.removed_clauses + 1

let reduce_db t =
  (* Sort learnts: keep low-LBD / high-activity clauses; drop the tail
     fraction (1 - reduce_keep). *)
  Ivec.sort
    (fun a b ->
      let la = c_lbd t a and lb = c_lbd t b in
      if la <> lb then compare la lb else compare (c_activity t b) (c_activity t a))
    t.learnts;
  let n = Ivec.length t.learnts in
  let keep_n = int_of_float (t.tuning.Tuning.reduce_keep *. float_of_int n) in
  let lbd_protect = t.tuning.Tuning.reduce_lbd_protect in
  Ivec.filteri
    (fun i c ->
      let protect = c_lbd t c <= lbd_protect || c_size t c = 2 || clause_locked t c in
      i < keep_n || protect || (remove_clause t c; false))
    t.learnts;
  maybe_gc t

(* ---- simplification primitives (driven by lib/simplify) ---- *)

(* Value of [l] under root-level (level-0) assignments only: 1 true, -1
   false, 0 otherwise.  Unlike [lit_value] this is meaningful at any
   decision level. *)
let root_value t l =
  let v = Lit.var l in
  if t.assigns.(v) <> 0 && t.level.(v) = 0 then
    if Lit.sign l then t.assigns.(v) else -t.assigns.(v)
  else 0

(* Detach the problem clauses and hand their literal arrays to the
   simplifier.  All watch lists are wiped -- including the learnts', which
   stay parked in [t.learnts] until [end_simplify] re-attaches the
   survivors -- and root-level reasons are cleared so no trail entry points
   at a detached clause. *)
let begin_simplify t =
  t.db_generation <- t.db_generation + 1;
  t.in_simplify <- true;
  cancel_until t 0;
  if t.ok && propagate t <> null_cref then begin
    t.ok <- false;
    log_learnt t [||]
  end;
  Ivec.iter (fun l -> t.reason.(Lit.var (Lit.of_int l)) <- null_cref) t.trail;
  Array.fill t.watch_len 0 (Array.length t.watch_len) 0;
  let live = ref [] in
  Ivec.iter
    (fun c ->
      if c <> null_cref && not (c_deleted t c) then begin
        live := c_lits t c :: !live;
        c_mark_deleted t c
      end)
    t.clauses;
  Ivec.clear t.clauses;
  List.rev !live

(* Put a problem clause back after simplification.  No proof events fire
   here: the engine already logged every transformation it made, so
   restoring is purely a database operation.  Root-satisfied clauses are
   dropped, root-false literals skipped, and units enqueued at level 0
   (propagation is deferred to [end_simplify]). *)
let restore_clause t lits =
  if t.ok then begin
    let sat = ref false in
    let keep = ref [] in
    let kcount = ref 0 in
    Array.iter
      (fun l ->
        match root_value t l with
        | 1 -> sat := true
        | -1 -> ()
        | _ ->
          keep := l :: !keep;
          incr kcount)
      lits;
    if not !sat then begin
      if !kcount = 0 then t.ok <- false
      else if !kcount = 1 then begin
        let l = List.hd !keep in
        if lit_value t l = 0 then enqueue t l null_cref
      end
      else begin
        let c = alloc t ~learnt:false ~lbd:0 (Array.of_list (List.rev !keep)) in
        Ivec.push t.clauses c;
        watch_clause t c
      end
    end
  end

(* Assert a root-level unit discovered by the simplifier.  Propagation is
   deferred to [end_simplify], when the database is whole again. *)
let assert_root_unit t l =
  if t.ok then begin
    match lit_value t l with
    | 1 -> ()
    | -1 -> t.ok <- false
    | _ -> enqueue t l null_cref
  end

(* Record the elimination of [Lit.var pivot].  [clauses] is the side of
   the variable's occurrence lists that contains [pivot] (the engine
   stores the smaller side), kept for model reconstruction -- MiniSat
   SimpSolver's extension-stack scheme. *)
let eliminate_var t ~pivot clauses =
  let v = Lit.var pivot in
  if t.frozen.(v) then invalid_arg "Solver.eliminate_var: frozen variable";
  if t.eliminated.(v) then invalid_arg "Solver.eliminate_var: variable already eliminated";
  t.eliminated.(v) <- true;
  t.extension <- (pivot, clauses) :: t.extension

(* Re-arm the solver after simplification: purge learnts that mention an
   eliminated variable (their derivations may rest on removed clauses),
   drop root-satisfied ones, shrink the rest against the root assignment
   so the watch invariant holds (shrinking is done in place — the freed
   tail words count as arena waste), re-attach the survivors, and
   propagate the units the simplifier asserted. *)
let end_simplify t =
  if t.ok then begin
    Ivec.filteri
      (fun _ c ->
        if c_deleted t c then false
        else begin
          let size = c_size t c in
          let any_elim = ref false and any_sat = ref false in
          for k = 0 to size - 1 do
            let l = c_lit t c k in
            if t.eliminated.(Lit.var l) then any_elim := true;
            if root_value t l = 1 then any_sat := true
          done;
          if !any_elim || !any_sat then begin
            log_delete t (c_lits t c);
            c_mark_deleted t c;
            t.stats.removed_clauses <- t.stats.removed_clauses + 1;
            false
          end
          else begin
            let orig = c_lits t c in
            (* shrink in place against root-false literals; the freed tail
               words count as arena waste *)
            let w = ref 0 in
            Array.iter
              (fun l ->
                if root_value t l <> -1 then begin
                  c_set_lit t c !w l;
                  incr w
                end)
              orig;
            let nl = !w in
            if nl < size then begin
              (* the shortened form is RUP from the original plus root units;
                 never emit a deletion for a clause that became the unit
                 itself, only for the longer original *)
              if nl > 0 then log_learnt t (Array.init nl (fun i -> c_lit t c i));
              log_delete t orig;
              t.arena.(c) <- nl;
              t.arena_wasted <- t.arena_wasted + (size - nl)
            end;
            if nl = 0 then begin
              t.ok <- false;
              log_learnt t [||];
              false
            end
            else if nl = 1 then begin
              c_mark_deleted t c;
              t.stats.removed_clauses <- t.stats.removed_clauses + 1;
              (match lit_value t (c_lit t c 0) with
              | 0 -> enqueue t (c_lit t c 0) null_cref
              | -1 ->
                t.ok <- false;
                log_learnt t [||]
              | _ -> ());
              false
            end
            else begin
              watch_clause t c;
              true
            end
          end
        end)
      t.learnts;
    t.in_simplify <- false;
    if t.ok && propagate t <> null_cref then begin
      t.ok <- false;
      log_learnt t [||]
    end;
    maybe_gc t
  end
  else t.in_simplify <- false

(* Re-derive eliminated variables after a Sat answer (MiniSat SimpSolver's
   extension stack, walked from the most recently eliminated variable
   back): default each pivot to its falsifying phase, flip it when one of
   its stored clauses would otherwise be unsatisfied.  A pivot's stored
   clauses mention, besides the pivot, only variables live at its
   elimination time -- all reconstructed by the time we reach it. *)
let extend_model t =
  if t.extension != [] then begin
    let m = t.model in
    let sat_lit l = if Lit.sign l then m.(Lit.var l) else not m.(Lit.var l) in
    List.iter
      (fun (pivot, clauses) ->
        let v = Lit.var pivot in
        m.(v) <- not (Lit.sign pivot);
        if Array.exists (fun c -> not (Array.exists sat_lit c)) clauses then
          m.(v) <- Lit.sign pivot)
      t.extension
  end

(* Install (or clear) the inprocessing callback, run between restart
   episodes once [interval] further conflicts have accumulated; each run
   reschedules itself geometrically so simplification stays a bounded
   fraction of total search effort.  The default interval comes from
   [Tuning.inprocess_interval]. *)
let set_inprocessor ?interval t f =
  let interval =
    match interval with Some i -> i | None -> t.tuning.Tuning.inprocess_interval
  in
  t.inprocessor <- f;
  t.next_inprocess <- (match f with None -> max_int | Some _ -> t.stats.conflicts + interval)

(* ---- clause vivification (distillation) ----

   For each candidate clause C = l1 ∨ ... ∨ ln: detach C, then assume
   ¬l1, ¬l2, ... one at a time with unit propagation (C itself cannot
   participate, being detached).  Three outcomes shorten C:
   - propagation hits a conflict after assuming a strict prefix P: the
     prefix clause (∨ P) is implied — replace C by it;
   - some li is already true under the assumed prefix: P ∨ li is
     implied — replace C and drop the tail;
   - some li is already false: drop li from C.
   Every replacement is a reverse-unit-propagation consequence of the
   database (including C), so DRAT logging is add-shortened-then-delete-
   original and the proof stays checker-valid.  Runs at decision level 0
   between restarts, bounded by [Tuning.vivify_budget] propagations. *)
let vivify ?budget t =
  let budget = match budget with Some b -> b | None -> t.tuning.Tuning.vivify_budget in
  if budget > 0 && t.ok && decision_level t = 0 && not t.in_simplify then begin
    let t0 = Olsq2_util.Stopwatch.now () in
    let props0 = t.stats.propagations in
    let over_budget () = t.stats.propagations - props0 > budget in
    (* Vivifying one clause: returns true when the database changed. *)
    let vivify_clause c =
      let size = c_size t c in
      let lits = c_lits t c in
      let root_sat = Array.exists (fun l -> root_value t l = 1) lits in
      if root_sat then false
      else begin
        unwatch_clause t c;
        let kept = ref [] in
        let nkept = ref 0 in
        let push_kept l =
          kept := l :: !kept;
          incr nkept
        in
        (try
           Array.iter
             (fun l ->
               match lit_value t l with
               | 1 ->
                 (* prefix implies l: keep prefix ∨ l, drop the tail *)
                 push_kept l;
                 raise Exit
               | -1 -> () (* prefix implies ¬l: drop l *)
               | _ ->
                 push_kept l;
                 Ivec.push t.trail_lim (Ivec.length t.trail);
                 enqueue t (Lit.negate l) null_cref;
                 if propagate t <> null_cref then
                   (* prefix alone is contradictory: keep just the prefix *)
                   raise Exit)
             lits
         with Exit -> ());
        cancel_until t 0;
        let nl = !nkept in
        if nl >= size then begin
          watch_clause t c;
          false
        end
        else begin
          let shortened = Array.of_list (List.rev !kept) in
          let learnt = c_learnt t c in
          if nl > 0 then log_learnt t shortened;
          log_delete t lits;
          c_mark_deleted t c;
          t.stats.removed_clauses <- t.stats.removed_clauses + 1;
          t.stats.vivified_clauses <- t.stats.vivified_clauses + 1;
          (if nl = 0 then begin
             t.ok <- false;
             log_learnt t [||]
           end
           else if nl = 1 then begin
             match lit_value t shortened.(0) with
             | 1 -> ()
             | -1 ->
               t.ok <- false;
               log_learnt t [||]
             | _ ->
               enqueue t shortened.(0) null_cref;
               if propagate t <> null_cref then begin
                 t.ok <- false;
                 log_learnt t [||]
               end
           end
           else begin
             let lbd = if learnt then min (c_lbd t c) nl else 0 in
             let nc = alloc t ~learnt ~lbd shortened in
             if learnt then Ivec.push t.learnts nc
             else
               (* new entry appended: replicas syncing by index pick it up,
                  and the old entry is flagged deleted, preserving the
                  append-only cursor invariant *)
               Ivec.push t.clauses nc;
             watch_clause t nc
           end);
          true
        end
      end
    in
    (* Problem clauses first (their shortenings help every future solve),
       then low-LBD learnts.  Snapshot the entry counts: clauses appended
       by vivification itself must not be revisited this pass. *)
    let n_problem = Ivec.length t.clauses in
    let i = ref 0 in
    while t.ok && !i < n_problem && not (over_budget ()) do
      let c = Ivec.get t.clauses !i in
      if c <> null_cref && (not (c_deleted t c)) && c_size t c >= 3 then
        ignore (vivify_clause c);
      incr i
    done;
    let n_learnt = Ivec.length t.learnts in
    let j = ref 0 in
    while t.ok && !j < n_learnt && not (over_budget ()) do
      let c = Ivec.get t.learnts !j in
      if (not (c_deleted t c)) && c_size t c >= 3 && c_lbd t c <= 6 then ignore (vivify_clause c);
      incr j
    done;
    (* drop deleted learnt entries eagerly; problem entries keep their
       slots (replication invariant) until the next compaction *)
    Ivec.filteri (fun _ c -> not (c_deleted t c)) t.learnts;
    maybe_gc t;
    t.stats.vivify_seconds <- t.stats.vivify_seconds +. (Olsq2_util.Stopwatch.now () -. t0)
  end

(* ---- search ---- *)

let luby y x =
  (* Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,... *)
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec walk size seq x =
    if size - 1 = x then y ** float_of_int seq
    else begin
      let size = (size - 1) / 2 in
      let seq = seq - 1 in
      walk size seq (x mod size)
    end
  in
  let size, seq = find_size 1 0 in
  walk size seq x

let restart_budget t k =
  let tu = t.tuning in
  match tu.Tuning.restart_mode with
  | Tuning.Luby ->
    int_of_float (luby tu.Tuning.restart_factor k *. float_of_int tu.Tuning.restart_base)
  | Tuning.Geometric ->
    int_of_float (float_of_int tu.Tuning.restart_base *. (tu.Tuning.restart_factor ** float_of_int k))

let pick_branch_var t =
  let rec loop () =
    if Var_heap.is_empty t.order then -1
    else begin
      let v = Var_heap.pop t.order in
      if t.assigns.(v) = 0 && not t.eliminated.(v) then v else loop ()
    end
  in
  loop ()

let decision_sign t v =
  match t.tuning.Tuning.phase_mode with
  | Tuning.Phase_saved -> t.polarity.(v)
  | Tuning.Phase_negative -> false
  | Tuning.Phase_positive -> true

let record_learnt t learnt lbd =
  log_learnt t learnt;
  (match t.share with
  | Some sh -> if sh.sh_export learnt ~lbd then t.stats.shared_exported <- t.stats.shared_exported + 1
  | None -> ());
  if Array.length learnt = 1 then begin
    enqueue t learnt.(0) null_cref
  end
  else begin
    let c = alloc t ~learnt:true ~lbd learnt in
    Ivec.push t.learnts c;
    watch_clause t c;
    clause_bump t c;
    t.stats.learnt_clauses <- t.stats.learnt_clauses + 1;
    enqueue t learnt.(0) c
  end

(* Integrate one clause exported by another solver over the same problem
   clauses.  Runs at level 0.  The clause is implied by the exporter's
   database, hence by ours, but our local state may differ: variables the
   exporter had not eliminated may be gone here, and root units may
   already satisfy or shorten it.  Anything suspicious is dropped —
   imports are an optimization, never a requirement. *)
let import_shared_clause t lits =
  if
    Array.exists (fun l ->
        let v = Lit.var l in
        v < 0 || v >= t.nvars || t.eliminated.(v))
      lits
  then ()
  else begin
    let sat = ref false in
    let keep = ref [] in
    let kcount = ref 0 in
    Array.iter
      (fun l ->
        match root_value t l with
        | 1 -> sat := true
        | -1 -> ()
        | _ ->
          keep := l :: !keep;
          incr kcount)
      lits;
    if not !sat then begin
      if !kcount = 0 then t.ok <- false
      else if !kcount = 1 then begin
        let l = List.hd !keep in
        if lit_value t l = 0 then enqueue t l null_cref
        else if lit_value t l = -1 then t.ok <- false
      end
      else begin
        let live = Array.of_list (List.rev !keep) in
        let c = alloc t ~learnt:true ~lbd:(Array.length live) live in
        Ivec.push t.learnts c;
        watch_clause t c
      end;
      t.stats.shared_imported <- t.stats.shared_imported + 1
    end
  end

(* Drain the share channel at a restart boundary (level 0).  Never under
   proof logging: an imported clause is not derivable by RUP from this
   solver's logged premises alone, so it would poison the DRAT stream —
   callers keep proof-logging solvers out of sharing pools, and this
   guard makes the invariant local. *)
let integrate_shared t =
  match t.share with
  | None -> ()
  | Some _ when t.proof <> None -> ()
  | Some sh ->
    List.iter (fun lits -> if t.ok then import_shared_clause t lits) (sh.sh_import ());
    if t.ok && propagate t <> null_cref then begin
      t.ok <- false;
      log_learnt t [||]
    end

(* One restart-bounded search episode.  [assumptions] is an array; decision
   levels 1..k correspond to assumption literals.

   Phase attribution: [mark] is the time of the last phase boundary; each
   [tick_*] charges the interval since then to one phase and advances the
   mark.  The propagate tick fires once per loop iteration (right after
   unit propagation), so decision/assumption overhead between ticks is
   charged to propagation — the cheap-counter approximation keeps it at
   one clock read per decision or conflict while still attributing well
   over 90% of solve time. *)
let search t assumptions conflict_budget deadline =
  let conflicts_here = ref 0 in
  let mark = ref (Olsq2_util.Stopwatch.now ()) in
  let tick cell =
    let n = Olsq2_util.Stopwatch.now () in
    cell := !cell +. (n -. !mark);
    mark := n
  in
  let prop_acc = ref 0.0 and ana_acc = ref 0.0 and red_acc = ref 0.0 in
  let flush_phases () =
    t.stats.propagate_seconds <- t.stats.propagate_seconds +. !prop_acc;
    t.stats.analyze_seconds <- t.stats.analyze_seconds +. !ana_acc;
    t.stats.reduce_seconds <- t.stats.reduce_seconds +. !red_acc
  in
  let rec loop () =
    let confl = propagate t in
    tick prop_acc;
    if confl <> null_cref then begin
      (* conflict *)
      t.stats.conflicts <- t.stats.conflicts + 1;
      incr conflicts_here;
      Hist.observe_int t.stats.trail_hist (Ivec.length t.trail);
      (match t.progress with
      | Some f when t.stats.conflicts >= t.next_progress ->
        t.next_progress <- t.stats.conflicts + t.progress_interval;
        f t
      | Some _ | None -> ());
      if decision_level t = 0 then begin
        t.ok <- false;
        log_learnt t [||];
        `Unsat
      end
      else begin
        let learnt, btlevel, lbd = analyze t confl in
        Hist.observe_int t.stats.lbd_hist lbd;
        cancel_until t btlevel;
        record_learnt t learnt lbd;
        var_decay_activity t;
        clause_decay_activity t;
        tick ana_acc;
        loop ()
      end
    end
    else if !conflicts_here >= conflict_budget then begin
      (* restart *)
      cancel_until t 0;
      t.stats.restarts <- t.stats.restarts + 1;
      `Restart
    end
    else if Atomic.get t.interrupt_flag then begin
      cancel_until t 0;
      `Interrupted
    end
    else if
      (match deadline with None -> false | Some d -> Olsq2_util.Stopwatch.now () > d)
      && decision_level t >= 0
    then begin
      cancel_until t 0;
      `Timeout
    end
    else begin
      (* learnt DB housekeeping *)
      if
        Ivec.length t.learnts
        > t.tuning.Tuning.reduce_base + (Ivec.length t.clauses / 2) + (t.stats.conflicts / 3)
      then begin
        reduce_db t;
        tick red_acc
      end;
      (* extend with assumptions first *)
      let dl = decision_level t in
      if dl < Array.length assumptions then begin
        let a = assumptions.(dl) in
        match lit_value t a with
        | 1 ->
          (* already satisfied: open an empty decision level for it *)
          Ivec.push t.trail_lim (Ivec.length t.trail);
          loop ()
        | -1 ->
          (* assumption conflicts with current state: record the failed
             assumptions and log their negation as the final proof lemma *)
          let core = analyze_final t a in
          t.conflict_core <- core;
          log_learnt t (Array.of_list (List.rev_map Lit.negate core));
          `Unsat_assumptions
        | _ ->
          Ivec.push t.trail_lim (Ivec.length t.trail);
          enqueue t a null_cref;
          loop ()
      end
      else begin
        let v = pick_branch_var t in
        if v < 0 then `Sat
        else begin
          t.stats.decisions <- t.stats.decisions + 1;
          let l = Lit.of_var ~sign:(decision_sign t v) v in
          Ivec.push t.trail_lim (Ivec.length t.trail);
          enqueue t l null_cref;
          loop ()
        end
      end
    end
  in
  let r = loop () in
  flush_phases ();
  r

let solve_raw ?(assumptions = []) ?max_conflicts ?timeout t =
  t.stats.solves <- t.stats.solves + 1;
  t.conflict_core <- [];
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    let assumptions = Array.of_list assumptions in
    (* Assumptions are implicitly frozen: the caller will assume them again
       or read them back, so the simplifier must never eliminate them.  An
       already-eliminated assumption variable is a caller bug (it was not
       frozen before preprocessing ran). *)
    Array.iter
      (fun a ->
        let v = Lit.var a in
        if v >= 0 && v < t.nvars then begin
          if t.eliminated.(v) then
            invalid_arg "Solver.solve: assumption over an eliminated variable";
          t.frozen.(v) <- true
        end)
      assumptions;
    let deadline = Option.map (fun s -> Olsq2_util.Stopwatch.now () +. s) timeout in
    integrate_shared t;
    let total_conflicts = ref 0 in
    let rec restart_loop k =
      let budget = restart_budget t k in
      match search t assumptions budget deadline with
      | `Sat ->
        if Array.length t.model < t.nvars then t.model <- Array.make t.nvars false;
        for v = 0 to t.nvars - 1 do
          t.model.(v) <- t.assigns.(v) = 1
        done;
        extend_model t;
        cancel_until t 0;
        Sat
      | `Unsat -> Unsat
      | `Unsat_assumptions ->
        cancel_until t 0;
        Unsat
      | `Timeout -> Unknown Timeout
      | `Interrupted -> Unknown Interrupted
      | `Restart ->
        total_conflicts := !total_conflicts + budget;
        (* Restart housekeeping (inprocessing, share-channel integration)
           is its own attribution phase; vivification inside
           the inprocessor charges [vivify_seconds] separately. *)
        let r0 = Olsq2_util.Stopwatch.now () in
        (match t.inprocessor with
        | Some f when t.ok && t.stats.conflicts >= t.next_inprocess ->
          t.next_inprocess <- (2 * t.stats.conflicts) + 1000;
          f t
        | Some _ | None -> ());
        if t.ok then integrate_shared t;
        let dt = Olsq2_util.Stopwatch.now () -. r0 in
        (* vivification time is charged to its own phase by [vivify] *)
        t.stats.restart_seconds <- t.stats.restart_seconds +. dt;
        if not t.ok then Unsat
        else begin
          match max_conflicts with
          | Some m when !total_conflicts >= m -> Unknown Conflict_budget
          | Some _ | None -> restart_loop (k + 1)
        end
    in
    let t0 = Olsq2_util.Stopwatch.now () in
    Fun.protect
      ~finally:(fun () ->
        t.stats.solve_seconds <- t.stats.solve_seconds +. (Olsq2_util.Stopwatch.now () -. t0))
      (fun () -> if not t.ok then Unsat else restart_loop 0)
  end

(* ---- clause-arena memory gauges ----

   Exact byte counts from the flat representation: a clause occupies
   3 + size words in the arena; a watcher is a 2-word (blocker, cref)
   pair in its literal's flat array. *)

let word_bytes = 8

let learnt_bytes t =
  let words = ref 0 in
  Ivec.iter (fun c -> if not (c_deleted t c) then words := !words + 3 + c_size t c) t.learnts;
  word_bytes * !words

let watcher_bytes t =
  let words = ref 0 in
  let n = Array.length t.watch_len in
  for i = 0 to n - 1 do
    words := !words + t.watch_len.(i)
  done;
  word_bytes * !words

let arena_bytes t = word_bytes * t.arena_top
let arena_high_water_bytes t = word_bytes * t.arena_hw
let arena_wasted_bytes t = word_bytes * t.arena_wasted

module Obs = Olsq2_obs.Obs

(* Every solve call is one span carrying the search-effort deltas, so a
   trace shows exactly where conflicts/propagations went per bound
   iteration.  Disabled tracing costs the single [Obs.enabled] branch. *)
let solve ?assumptions ?max_conflicts ?timeout t =
  let obs = Obs.global () in
  if not (Obs.enabled obs) then solve_raw ?assumptions ?max_conflicts ?timeout t
  else begin
    let s = t.stats in
    let c0 = s.conflicts and p0 = s.propagations and d0 = s.decisions and r0 = s.restarts in
    let sec0 = s.solve_seconds in
    let ph_prop0 = s.propagate_seconds
    and ph_ana0 = s.analyze_seconds
    and ph_red0 = s.reduce_seconds
    and ph_rst0 = s.restart_seconds
    and ph_viv0 = s.vivify_seconds in
    let sp =
      Obs.begin_span obs "sat.solve"
        ~attrs:
          [
            ("assumptions", Obs.Int (match assumptions with Some a -> List.length a | None -> 0));
            ("vars", Obs.Int t.nvars);
            ("clauses", Obs.Int (Ivec.length t.clauses));
          ]
    in
    let result = solve_raw ?assumptions ?max_conflicts ?timeout t in
    let conflicts = s.conflicts - c0 and propagations = s.propagations - p0 in
    let reason_attr = match result with Unknown r -> [ ("reason", Obs.Str (reason_to_string r)) ] | Sat | Unsat -> [] in
    Obs.end_span obs sp
      ~attrs:
        ([
           ("result", Obs.Str (result_to_string result));
           ("conflicts", Obs.Int conflicts);
           ("propagations", Obs.Int propagations);
           ("decisions", Obs.Int (s.decisions - d0));
           ("restarts", Obs.Int (s.restarts - r0));
         ]
        @ reason_attr);
    Obs.count obs "sat.conflicts" conflicts;
    Obs.count obs "sat.propagations" propagations;
    Obs.count obs "sat.solves" 1;
    (* solve-granularity distributions only: per-conflict samples live in
       [stats] histograms, so the tracer's event buffer is never flooded *)
    Obs.hist obs "sat.solve.seconds" (s.solve_seconds -. sec0);
    Obs.hist obs "sat.solve.conflicts" (float_of_int conflicts);
    (* Phase attribution per solve call: the histogram _sum series is the
       cumulative seconds per phase in the Prometheus exposition. *)
    Obs.hist obs "sat.phase.propagate_seconds" (s.propagate_seconds -. ph_prop0);
    Obs.hist obs "sat.phase.analyze_seconds" (s.analyze_seconds -. ph_ana0);
    Obs.hist obs "sat.phase.reduce_seconds" (s.reduce_seconds -. ph_red0);
    Obs.hist obs "sat.phase.restart_seconds" (s.restart_seconds -. ph_rst0);
    Obs.hist obs "sat.phase.vivify_seconds" (s.vivify_seconds -. ph_viv0);
    Obs.gauge obs "sat.mem.learnt_bytes" (float_of_int (learnt_bytes t));
    Obs.gauge obs "sat.mem.watcher_bytes" (float_of_int (watcher_bytes t));
    Obs.gauge obs "sat.mem.arena_bytes" (float_of_int (arena_bytes t));
    Obs.gauge obs "sat.mem.arena_hw_bytes" (float_of_int (arena_high_water_bytes t));
    Obs.count obs "sat.arena.compactions" s.compactions;
    result
  end

let interrupt t = Atomic.set t.interrupt_flag true
let clear_interrupt t = Atomic.set t.interrupt_flag false
let interrupted t = Atomic.get t.interrupt_flag

(* Model access: only meaningful after [solve] returned [Sat]. *)
let model_value t l =
  let v = Lit.var l in
  if v >= Array.length t.model then false
  else if Lit.sign l then t.model.(v)
  else not t.model.(v)

(* Branching hints (paper §V future work: domain-guided variable
   ordering): seed a variable's VSIDS activity and saved phase before
   search starts. *)
let boost_activity t v amount =
  if v >= 0 && v < t.nvars then begin
    t.activity.(v) <- t.activity.(v) +. amount;
    Var_heap.decrease t.order v
  end

let suggest_phase t v phase = if v >= 0 && v < t.nvars then t.polarity.(v) <- phase

let conflict_core t = t.conflict_core
let unsat_core t = t.conflict_core
let is_ok t = t.ok
let n_clauses t = Ivec.length t.clauses
let n_learnts t = Ivec.length t.learnts

(* ---- replication interface (lib/parallel) ----

   A pool keeps per-worker replica solvers in sync with a master by
   replaying the master's problem-clause vector and root-level trail
   through the ordinary [add_clause] interface.  The accessors below
   expose just enough read-only state to do that incrementally: the
   problem vector is append-only within a database generation (entries
   are only ever flagged deleted or — after compaction — replaced by a
   null sentinel, never removed), so (generation, entry index,
   root-trail index, nvars) is a complete sync cursor. *)

let var_activity t v = if v >= 0 && v < t.nvars then t.activity.(v) else 0.0
let saved_phase t v = v >= 0 && v < t.nvars && t.polarity.(v)

(* Number of entries ever pushed to the problem vector this generation,
   including ones since flagged deleted — the replica sync cursor. *)
let n_problem_entries t = Ivec.length t.clauses

(* Root-level (level-0) trail segment, from entry [from] on. *)
let n_root_units t =
  if Ivec.length t.trail_lim = 0 then Ivec.length t.trail else Ivec.get t.trail_lim 0

let root_units ?(from = 0) t =
  let out = ref [] in
  for i = n_root_units t - 1 downto from do
    out := Lit.of_int (Ivec.get t.trail i) :: !out
  done;
  !out

(* Fold over live problem clauses whose entry index is >= [from].  The
   literal arrays are fresh copies out of the arena. *)
let fold_problem_clauses ?(from = 0) t f acc =
  let acc = ref acc in
  for i = from to Ivec.length t.clauses - 1 do
    let c = Ivec.get t.clauses i in
    if c <> null_cref && not (c_deleted t c) then acc := f !acc (c_lits t c)
  done;
  !acc

let pp_stats fmt t = pp_stats_record fmt t.stats
