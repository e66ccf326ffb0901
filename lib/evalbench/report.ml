(* JSON rendering of gap-harness results: the olsq2.gap/1 schema written
   by bench/gap.exe.  CI greps its "optima_match" key to guard every
   optimal-mode consistency claim against the known optima. *)

module Json = Olsq2_obs.Obs.Json

let schema = "olsq2.gap/1"

let json_int i = Json.Num (float_of_int i)

(* gap ratios can be NaN (failed arm); JSON has no NaN, so emit null *)
let json_ratio r = if Float.is_nan r then Json.Null else Json.Num r

let gap_to_json (g : Harness.gap_entry) =
  Json.Obj
    [
      ("arm", Json.Str g.Harness.g_arm);
      ("objective", Json.Str g.Harness.g_objective);
      ("found", json_int g.Harness.g_found);
      ("known", Known.bound_to_json g.Harness.g_known);
      ("gap_ratio", json_ratio g.Harness.g_ratio);
      ("certificate_sound", Json.Bool g.Harness.g_sound);
      ("seconds", Json.Num g.Harness.g_seconds);
    ]

let opt_to_json (o : Harness.opt_entry) =
  Json.Obj
    [
      ("config", Json.Str o.Harness.o_config);
      ("objective", Json.Str o.Harness.o_objective);
      ("found", json_int o.Harness.o_found);
      ("known", Known.bound_to_json o.Harness.o_known);
      ("claimed_optimal", Json.Bool o.Harness.o_claimed_optimal);
      ("optima_match", Json.Bool o.Harness.o_matches);
      ("seconds", Json.Num o.Harness.o_seconds);
      ("iterations", json_int o.Harness.o_iterations);
    ]

let instance_to_json (k : Known.t) ~gaps ~opts =
  match Known.to_json k with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ("heuristic", Json.Arr (List.map gap_to_json gaps));
          ("solvers", Json.Arr (List.map opt_to_json opts));
        ])
  | j -> j

let family_report ~family ~budget instances =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("created_unix", json_int (int_of_float (Unix.gettimeofday ())));
      ("family", Json.Str family);
      ("budget_seconds", Json.Num budget);
      ( "instances",
        Json.Arr (List.map (fun (k, gaps, opts) -> instance_to_json k ~gaps ~opts) instances)
      );
    ]

(* Harness-level verdicts for exit codes and summary lines. *)
let violations entries = List.filter (fun o -> not o.Harness.o_matches) entries
let unsound_gaps gaps = List.filter (fun g -> not g.Harness.g_sound) gaps
