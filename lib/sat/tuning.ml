(* First-class SAT-core tuning surface.

   Every search-strategy constant that used to live as an ad-hoc literal
   inside [solver.ml] / [pool.ml] (restart schedule, phase policy,
   reduce-DB fractions, vivification budget, arena sizing, share filters)
   is a field here, so the whole solver configuration travels as one
   value: through [Synthesis.Options], the serve JSON codec, and the CLI
   [--sat KEY=VAL] flag.

   The record is plain immutable data; [with_*] builders derive variants
   and [to_assoc]/[of_assoc] round-trip it through string pairs (the same
   codec idiom as [Core.Config]). *)

type restart_mode = Luby | Geometric
type phase_mode = Phase_saved | Phase_negative | Phase_positive

type t = {
  restart_mode : restart_mode;
  restart_base : int;  (* conflicts in the first restart episode *)
  restart_factor : float;  (* Luby base / geometric multiplier *)
  var_decay : float;  (* VSIDS decay: var_inc /= var_decay per conflict *)
  clause_decay : float;  (* learnt-activity decay per conflict *)
  phase_mode : phase_mode;
  reduce_base : int;  (* learnt-DB size slack before the first reduction *)
  reduce_keep : float;  (* fraction of sorted learnts kept by reduce-DB *)
  reduce_lbd_protect : int;  (* learnts with LBD <= this are never dropped *)
  vivify_budget : int;  (* propagations per vivification pass; 0 disables *)
  arena_capacity : int;  (* initial clause-arena size, words *)
  gc_fraction : float;  (* compact when wasted/top exceeds this *)
  inprocess_interval : int;  (* conflicts before the first inprocessing run *)
  share_max_len : int;  (* export filter: max clause length *)
  share_max_lbd : int;  (* export filter: max LBD (len <= 2 always passes) *)
  probe_conflicts : int;  (* pool: sequential probe before cube-and-conquer *)
}

let default =
  {
    restart_mode = Luby;
    restart_base = 100;
    restart_factor = 2.0;
    var_decay = 0.95;
    clause_decay = 0.999;
    phase_mode = Phase_saved;
    reduce_base = 4000;
    reduce_keep = 0.5;
    reduce_lbd_protect = 3;
    vivify_budget = 30_000;
    arena_capacity = 1 lsl 16;
    gc_fraction = 0.25;
    inprocess_interval = 3000;
    share_max_len = 8;
    share_max_lbd = 4;
    probe_conflicts = 128;
  }

let equal (a : t) (b : t) = a = b

(* ---- builders ---- *)

let with_restart ?mode ?base ?factor t =
  {
    t with
    restart_mode = Option.value mode ~default:t.restart_mode;
    restart_base = Option.value base ~default:t.restart_base;
    restart_factor = Option.value factor ~default:t.restart_factor;
  }

let with_phase phase_mode t = { t with phase_mode }

let with_reduce ?base ?keep ?lbd_protect t =
  {
    t with
    reduce_base = Option.value base ~default:t.reduce_base;
    reduce_keep = Option.value keep ~default:t.reduce_keep;
    reduce_lbd_protect = Option.value lbd_protect ~default:t.reduce_lbd_protect;
  }

let with_decay ?var ?clause t =
  {
    t with
    var_decay = Option.value var ~default:t.var_decay;
    clause_decay = Option.value clause ~default:t.clause_decay;
  }

let with_vivify budget t = { t with vivify_budget = budget }

let with_arena ?capacity ?gc_fraction t =
  {
    t with
    arena_capacity = Option.value capacity ~default:t.arena_capacity;
    gc_fraction = Option.value gc_fraction ~default:t.gc_fraction;
  }

let with_inprocess_interval inprocess_interval t = { t with inprocess_interval }

let with_share_filters ?max_len ?max_lbd t =
  {
    t with
    share_max_len = Option.value max_len ~default:t.share_max_len;
    share_max_lbd = Option.value max_lbd ~default:t.share_max_lbd;
  }

let with_probe_conflicts probe_conflicts t = { t with probe_conflicts }

(* ---- string codecs ---- *)

let restart_mode_to_string = function Luby -> "luby" | Geometric -> "geometric"

let restart_mode_of_string = function
  | "luby" -> Ok Luby
  | "geometric" -> Ok Geometric
  | s -> Error (Printf.sprintf "unknown restart mode %S (expected luby|geometric)" s)

let phase_mode_to_string = function
  | Phase_saved -> "saved"
  | Phase_negative -> "negative"
  | Phase_positive -> "positive"

let phase_mode_of_string = function
  | "saved" -> Ok Phase_saved
  | "negative" -> Ok Phase_negative
  | "positive" -> Ok Phase_positive
  | s -> Error (Printf.sprintf "unknown phase mode %S (expected saved|negative|positive)" s)

let keys =
  [
    "restart";
    "restart_base";
    "restart_factor";
    "var_decay";
    "clause_decay";
    "phase";
    "reduce_base";
    "reduce_keep";
    "reduce_lbd_protect";
    "vivify_budget";
    "arena_capacity";
    "gc_fraction";
    "inprocess_interval";
    "share_max_len";
    "share_max_lbd";
    "probe_conflicts";
  ]

let to_assoc t =
  [
    ("restart", restart_mode_to_string t.restart_mode);
    ("restart_base", string_of_int t.restart_base);
    ("restart_factor", Printf.sprintf "%g" t.restart_factor);
    ("var_decay", Printf.sprintf "%g" t.var_decay);
    ("clause_decay", Printf.sprintf "%g" t.clause_decay);
    ("phase", phase_mode_to_string t.phase_mode);
    ("reduce_base", string_of_int t.reduce_base);
    ("reduce_keep", Printf.sprintf "%g" t.reduce_keep);
    ("reduce_lbd_protect", string_of_int t.reduce_lbd_protect);
    ("vivify_budget", string_of_int t.vivify_budget);
    ("arena_capacity", string_of_int t.arena_capacity);
    ("gc_fraction", Printf.sprintf "%g" t.gc_fraction);
    ("inprocess_interval", string_of_int t.inprocess_interval);
    ("share_max_len", string_of_int t.share_max_len);
    ("share_max_lbd", string_of_int t.share_max_lbd);
    ("probe_conflicts", string_of_int t.probe_conflicts);
  ]

let parse_int key s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | Some _ -> Error (Printf.sprintf "%s: expected a non-negative integer, got %S" key s)
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key s)

let parse_float ?(min = 0.0) ?(max = infinity) key s =
  match float_of_string_opt (String.trim s) with
  | Some f when f >= min && f <= max -> Ok f
  | Some _ -> Error (Printf.sprintf "%s: expected a number in [%g, %g], got %S" key min max s)
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" key s)

(* Apply [kvs] as overrides on [base].  Unknown keys and malformed values
   are errors — this is the CLI/serve validation layer, so a typo'd knob
   must not silently fall back to the default. *)
let of_assoc ?(base = default) kvs =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc (key, v) ->
      let* t = acc in
      match key with
      | "restart" ->
        let* m = restart_mode_of_string (String.trim v) in
        Ok { t with restart_mode = m }
      | "restart_base" ->
        let* n = parse_int key v in
        Ok { t with restart_base = n }
      | "restart_factor" ->
        let* f = parse_float ~min:1.0 key v in
        Ok { t with restart_factor = f }
      | "var_decay" ->
        let* f = parse_float ~min:0.5 ~max:1.0 key v in
        Ok { t with var_decay = f }
      | "clause_decay" ->
        let* f = parse_float ~min:0.5 ~max:1.0 key v in
        Ok { t with clause_decay = f }
      | "phase" ->
        let* m = phase_mode_of_string (String.trim v) in
        Ok { t with phase_mode = m }
      | "reduce_base" ->
        let* n = parse_int key v in
        Ok { t with reduce_base = n }
      | "reduce_keep" ->
        let* f = parse_float ~max:1.0 key v in
        Ok { t with reduce_keep = f }
      | "reduce_lbd_protect" ->
        let* n = parse_int key v in
        Ok { t with reduce_lbd_protect = n }
      | "vivify_budget" ->
        let* n = parse_int key v in
        Ok { t with vivify_budget = n }
      | "arena_capacity" ->
        let* n = parse_int key v in
        Ok { t with arena_capacity = max 64 n }
      | "gc_fraction" ->
        let* f = parse_float ~max:1.0 key v in
        Ok { t with gc_fraction = f }
      | "inprocess_interval" ->
        let* n = parse_int key v in
        Ok { t with inprocess_interval = n }
      | "share_max_len" ->
        let* n = parse_int key v in
        Ok { t with share_max_len = n }
      | "share_max_lbd" ->
        let* n = parse_int key v in
        Ok { t with share_max_lbd = n }
      | "probe_conflicts" ->
        let* n = parse_int key v in
        Ok { t with probe_conflicts = n }
      | _ -> Error (Printf.sprintf "unknown Sat.Tuning key %S (known: %s)" key (String.concat ", " keys)))
    (Ok base) kvs

(* [--sat KEY=VAL] form. *)
let of_kv_strings ?base kvs =
  let ( let* ) = Result.bind in
  let* pairs =
    List.fold_left
      (fun acc s ->
        let* pairs = acc in
        match String.index_opt s '=' with
        | Some i ->
          Ok ((String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)) :: pairs)
        | None -> Error (Printf.sprintf "--sat expects KEY=VAL, got %S" s))
      (Ok []) kvs
  in
  of_assoc ?base (List.rev pairs)

(* ---- ambient tuning ----

   Threading an explicit tuning argument through every solver-creation
   site (encoder contexts, incremental sessions, pool replicas) would put
   a [Tuning.t] parameter on a dozen signatures that otherwise never look
   at it.  Instead the facade ([Synthesis.run]) installs the per-request
   tuning as domain-local ambient state around the dispatch;
   [Solver.create] reads it.  Replica solvers for worker domains are
   created in the caller's domain, so the ambient value is visible
   exactly where it must be. *)

let ambient_key = Domain.DLS.new_key (fun () -> default)
let ambient () = Domain.DLS.get ambient_key

let with_ambient t f =
  let old = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key old) f

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) (to_assoc t)))
