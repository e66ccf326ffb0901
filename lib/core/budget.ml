module Stopwatch = Olsq2_util.Stopwatch
module Solver = Olsq2_sat.Solver

(* External preemption handle: a cross-domain flag plus the solvers
   solving for the budgeted run right now.  [preempt] raises the flag and
   interrupts every registered solver, so a watchdog in another domain
   can stop a run mid-search (the serve daemon's wall-deadline
   enforcement); a solver registered after the fact is interrupted
   immediately.  A solver is registered only for the length of one solve
   call, so a control that outlives its run (a finished serve job) holds
   no solver. *)
type control = {
  preempted : bool Atomic.t;
  mutable attached : Solver.t list;
  cm : Mutex.t;
}

let control () = { preempted = Atomic.make false; attached = []; cm = Mutex.create () }

let preempt ctl =
  Atomic.set ctl.preempted true;
  Mutex.lock ctl.cm;
  let solvers = ctl.attached in
  Mutex.unlock ctl.cm;
  List.iter Solver.interrupt solvers

let preempted ctl = Atomic.get ctl.preempted

type t = {
  wall_seconds : float option;
  max_conflicts : int option;
  per_bound_seconds : float option;
  control : control option;
}

let unlimited =
  { wall_seconds = None; max_conflicts = None; per_bound_seconds = None; control = None }

let of_seconds s = { unlimited with wall_seconds = Some s }
let of_seconds_opt = function None -> unlimited | Some s -> of_seconds s
let with_conflicts c b = { b with max_conflicts = Some c }
let with_per_bound_seconds s b = { b with per_bound_seconds = Some s }
let with_control ctl b = { b with control = Some ctl }

let is_unlimited b =
  b.wall_seconds = None && b.max_conflicts = None && b.per_bound_seconds = None

(* [control] is a runtime handle, not a declarative limit: it is skipped
   by serialization and ignored by [equal]. *)
let equal a b =
  a.wall_seconds = b.wall_seconds
  && a.max_conflicts = b.max_conflicts
  && a.per_bound_seconds = b.per_bound_seconds

let to_assoc b =
  List.concat
    [
      (match b.wall_seconds with Some s -> [ ("wall_seconds", string_of_float s) ] | None -> []);
      (match b.max_conflicts with Some c -> [ ("max_conflicts", string_of_int c) ] | None -> []);
      (match b.per_bound_seconds with
      | Some s -> [ ("per_bound_seconds", string_of_float s) ]
      | None -> []);
    ]

let known_keys = [ "wall_seconds"; "max_conflicts"; "per_bound_seconds" ]

let of_assoc assoc =
  let float_field name k =
    match List.assoc_opt name assoc with
    | None -> Ok None
    | Some s -> (
      match float_of_string_opt s with
      | Some f when f >= 0. -> Ok (Some f)
      | Some _ | None -> Error (Printf.sprintf "%s: expected a non-negative number, got %S" k s))
  in
  let int_field name =
    match List.assoc_opt name assoc with
    | None -> Ok None
    | Some s -> (
      match int_of_string_opt s with
      | Some i when i >= 0 -> Ok (Some i)
      | Some _ | None ->
        Error (Printf.sprintf "%s: expected a non-negative integer, got %S" name s))
  in
  match
    ( List.find_opt (fun (k, _) -> not (List.mem k known_keys)) assoc,
      float_field "wall_seconds" "wall_seconds",
      int_field "max_conflicts",
      float_field "per_bound_seconds" "per_bound_seconds" )
  with
  | Some (k, _), _, _, _ ->
    Error (Printf.sprintf "unknown budget key %S (known: %s)" k (String.concat ", " known_keys))
  | None, Ok wall_seconds, Ok max_conflicts, Ok per_bound_seconds ->
    Ok { wall_seconds; max_conflicts; per_bound_seconds; control = None }
  | None, Error e, _, _ | None, _, Error e, _ | None, _, _, Error e -> Error e

type state = {
  limits : t;
  deadline : float option; (* absolute, fixed at [start] *)
  mutable conflicts_spent : int;
}

let start b =
  {
    limits = b;
    deadline = Option.map (fun s -> Stopwatch.now () +. s) b.wall_seconds;
    conflicts_spent = 0;
  }

let remaining_seconds st =
  match st.deadline with None -> infinity | Some d -> d -. Stopwatch.now ()

let conflicts_left st =
  match st.limits.max_conflicts with None -> None | Some m -> Some (m - st.conflicts_spent)

let interrupted st =
  match st.limits.control with Some ctl -> preempted ctl | None -> false

let exhausted st =
  interrupted st
  || (match st.deadline with Some d -> Stopwatch.now () >= d | None -> false)
  || match conflicts_left st with Some c -> c <= 0 | None -> false

(* Drop the first occurrence of [x] (physical equality), so a solver
   registered twice by nested calls stays registered until the outer call
   ends. *)
let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y == x then rest else y :: remove_one x rest

let attached st solver f =
  match st.limits.control with
  | None -> f ()
  | Some ctl ->
    Mutex.lock ctl.cm;
    ctl.attached <- solver :: ctl.attached;
    Mutex.unlock ctl.cm;
    (* registered before the flag is read: a [preempt] racing with this
       call either sees the solver in the list or is seen here *)
    if Atomic.get ctl.preempted then Solver.interrupt solver;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock ctl.cm;
        ctl.attached <- remove_one solver ctl.attached;
        Mutex.unlock ctl.cm)

let solve_timeout st =
  let wall = match st.deadline with None -> None | Some d -> Some (d -. Stopwatch.now ()) in
  match (wall, st.limits.per_bound_seconds) with
  | None, None -> None
  | Some w, None -> Some w
  | None, Some p -> Some p
  | Some w, Some p -> Some (Float.min w p)

let solve_max_conflicts st =
  (* a solve call must get at least 1 so an exhausted budget is decided
     by [exhausted], not by a zero-conflict Unknown *)
  Option.map (fun c -> max 1 c) (conflicts_left st)

let charge st ~conflicts = st.conflicts_spent <- st.conflicts_spent + max 0 conflicts
