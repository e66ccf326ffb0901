(* Small numeric and output helpers shared by the workload runners. *)

let now = Unix.gettimeofday

(* Nearest-rank percentile, [p] in [0, 100]; 0 on an empty sample. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Median with the usual midpoint for even counts. *)
let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* Words allocated since process start: minor plus major minus promoted,
   so a promoted word is counted once. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* One metric line of the result object.  JSON has no NaN or infinity,
   so a non-finite value is reported as 0. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
