(* CLI smoke test, run under `dune runtest`: drive the installed entry
   point through its observability flags and certified paths.

   - --trace FILE: JSON lines (every line valid JSON of the documented
     shape), Prometheus text (.prom) and a collapsed-stack profile
     (.folded), each picked by the file suffix;
   - --stats: plan, stop reason, simplify reduction (and its absence
     under --no-simplify), solver stats block, quantiles, rate and the
     per-iteration table, all on stderr;
   - --record FILE: one JSON object whose key set, plan and stop values
     match the golden ones below (timings are not compared);
   - --certify: the certificate verdict, the exit code and the emitted
     DRAT proof file, on the session, with --simplify and with -j 2;
     on a device window, the chain certificate and the note that no
     proof file was written.

   Usage: cli_smoke.exe PATH_TO_OLSQ2_CLI *)

module Json = Olsq2_obs.Obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("cli_smoke: " ^ m); exit 1) fmt

let read_all path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let temp suffix = Filename.temp_file "olsq2_smoke" suffix

(* Run [olsq2 synth ARGS] with stdout and stderr sent to [out] / [err]
   (default /dev/null); die unless it exits with [code]. *)
let synth cli ?(code = 0) ?(out = "/dev/null") ?(err = "/dev/null") args =
  let cmd =
    Printf.sprintf "%s synth %s > %s 2> %s" (Filename.quote cli) args (Filename.quote out)
      (Filename.quote err)
  in
  match Unix.system cmd with
  | Unix.WEXITED c when c = code -> ()
  | Unix.WEXITED c -> die "`synth %s` exited with %d, want %d" args c code
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> die "`synth %s` killed by signal %d" args s

let member path j =
  List.fold_left
    (fun j k -> match Json.member k j with Some v -> v | None -> die "record has no %s" k)
    j path

let str path j =
  match member path j with
  | Json.Str s -> s
  | _ -> die "%s: expected a string" (String.concat "." path)

let keys j = match j with Json.Obj kvs -> List.map fst kvs | _ -> die "expected an object"

let check_jsonl_trace path =
  let lines = ref 0 and spans = ref 0 in
  String.split_on_char '\n' (read_all path)
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           incr lines;
           match Json.parse line with
           | Error e -> die "line %d is not valid JSON (%s): %s" !lines e line
           | Ok j -> (
             (match (Json.member "type" j, Json.member "name" j, Json.member "ts" j) with
             | Some (Json.Str _), Some (Json.Str _), Some (Json.Num _) -> ()
             | _ -> die "line %d misses type/name/ts fields: %s" !lines line);
             match Json.member "type" j with
             | Some (Json.Str "span") -> (
               incr spans;
               match Json.member "dur" j with
               | Some (Json.Num d) when d >= 0.0 -> ()
               | _ -> die "span on line %d has no duration: %s" !lines line)
             | _ -> ())
         end);
  if !lines = 0 then die "trace file is empty";
  if !spans = 0 then die "trace contains no spans";
  (!lines, !spans)

let record_keys =
  [
    "objective"; "options"; "plan"; "stop"; "window"; "optimal"; "iterations"; "seconds"; "pareto";
    "iter_stats"; "solver_stats"; "certificate"; "trace"; "env"; "build_commit";
  ]

let () =
  let cli = if Array.length Sys.argv > 1 then Sys.argv.(1) else die "missing CLI path" in
  let out = temp ".out" and err = temp ".err" in
  (* --trace with any other suffix: JSON lines *)
  let trace = temp ".jsonl" in
  synth cli (Printf.sprintf "qaoa:4 -d grid-2x2 -m tb --trace %s --stats" (Filename.quote trace));
  let lines, spans = check_jsonl_trace trace in
  Sys.remove trace;
  (* --trace FILE.prom: Prometheus text exposition *)
  let prom = temp ".prom" in
  synth cli (Printf.sprintf "qaoa:4 -d grid-2x2 --simplify --trace %s" (Filename.quote prom));
  let prom_text = read_all prom in
  if not (contains prom_text "# TYPE") then die "--trace .prom output has no TYPE comments";
  if not (contains prom_text "olsq2_") then die "--trace .prom output has no olsq2-namespaced series";
  if not (contains prom_text "le=\"+Inf\"") then die "--trace .prom output has no histogram buckets";
  Sys.remove prom;
  (* --trace FILE.folded: collapsed stacks rooted at the synthesis span *)
  let folded = temp ".folded" in
  synth cli (Printf.sprintf "qaoa:4 -d grid-2x2 --trace %s" (Filename.quote folded));
  let stacks = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_all folded)) in
  if stacks = [] then die "--trace .folded wrote no stacks";
  if not (List.exists (fun l -> String.starts_with ~prefix:"synthesis" l) stacks) then
    die "--trace .folded has no stack rooted at the synthesis span";
  Sys.remove folded;
  (* certified run: must exit 0, print a VALID certificate, and write a
     non-empty DRAT proof *)
  let proof = temp ".drat" in
  synth cli ~out (Printf.sprintf "qaoa:4 -d grid-2x2 --certify --proof %s" (Filename.quote proof));
  if not (contains (read_all out) "VALID") then die "certified run printed no VALID certificate";
  let proof_len = String.length (read_all proof) in
  if proof_len = 0 then die "certified run wrote an empty proof file";
  Sys.remove proof;
  (* certification and the run record with a heuristic method are
     refused with exit 1 *)
  synth cli ~code:1 "qaoa:4 -d grid-2x2 -m sabre --certify";
  synth cli ~code:1 (Printf.sprintf "qaoa:4 -d grid-2x2 -m sabre --record %s" (Filename.quote out));
  (* --simplify --stats must report an actual clause reduction on stderr
     (stdout stays reserved for the synthesized layout) *)
  synth cli ~err "qaoa:4 -d grid-2x2 --incremental --simplify --stats";
  let simp_text = read_all err in
  if not (contains simp_text "simplify: 1 run") then die "--simplify --stats printed no reduction summary";
  if contains simp_text "no simplification runs" then die "--simplify performed no runs";
  if not (contains simp_text "override incremental: session replaced by the classic encoder: simplify=true")
  then die "--simplify --stats does not report the classic encoder override";
  (* --no-simplify must report zero runs *)
  synth cli ~err "qaoa:4 -d grid-2x2 --no-simplify --stats";
  if not (contains (read_all err) "no simplification runs") then
    die "--no-simplify still ran the preprocessor";
  (* simplified certified run: proof events from the preprocessor must
     keep the certificate checkable *)
  let proof = temp ".drat" in
  synth cli ~out (Printf.sprintf "qaoa:4 -d grid-2x2 --simplify --certify --proof %s" (Filename.quote proof));
  if not (contains (read_all out) "VALID") then die "--simplify --certify printed no VALID certificate";
  let simp_proof_len = String.length (read_all proof) in
  if simp_proof_len = 0 then die "--simplify --certify wrote an empty proof file";
  Sys.remove proof;
  (* --stats: plan, stop reason and per-solve solver statistics on
     stderr, including histogram quantiles and a propagation rate *)
  synth cli ~err "qaoa:4 -d grid-2x2 -o swap --stats";
  let stats_text = read_all err in
  List.iter
    (fun (needle, what) -> if not (contains stats_text needle) then die "--stats printed no %s" what)
    [
      ("plan: oracle=", "plan"); ("window: 2*|Q| = 8 is not below", "window reason");
      ("stop: optimal", "stop reason"); ("window outcome: not tried", "window outcome");
      ("solver stats", "solver stats block");
      ("p50=", "histogram quantiles"); ("/s)", "propagation rate"); ("iterations:", "per-iteration table");
      ("trace summary", "span and counter summary");
    ];
  (* --record: golden key set, plan and stop values.  The run pins the
     knobs the environment defaults (-j, --incremental), so the plan is
     the same whatever OLSQ2_WORKERS / OLSQ2_INCREMENTAL say. *)
  let record = temp ".json" in
  synth cli
    (Printf.sprintf "qaoa:4 -d grid-2x2 -j 1 --incremental --symmetry --certify --record %s"
       (Filename.quote record));
  let r = match Json.parse (read_all record) with Ok j -> j | Error e -> die "record is not JSON: %s" e in
  if keys r <> record_keys then die "record keys: %s" (String.concat "," (keys r));
  if keys (member [ "plan" ] r)
     <> [ "config"; "oracle"; "workers"; "cube_depth"; "certification"; "proof_file"; "window"; "overrides" ]
  then die "plan keys: %s" (String.concat "," (keys (member [ "plan" ] r)));
  List.iter
    (fun (path, want) ->
      let got = str path r in
      if got <> want then die "record %s = %s, want %s" (String.concat "." path) got want)
    [
      ([ "objective" ], "depth");
      ([ "plan"; "oracle" ], "session");
      ([ "plan"; "certification"; "kind" ], "classic_fallback");
      ([ "stop"; "reason" ], "optimal");
      ([ "certificate"; "formula" ], "classic");
    ];
  (match member [ "plan"; "overrides" ] r with
  | Json.Arr [ o ] when str [ "field" ] o = "symmetry" -> ()
  | _ -> die "the record's overrides do not name symmetry alone");
  if member [ "certificate"; "valid" ] r <> Json.Bool true then die "record certificate is not valid";
  Sys.remove record;
  (* a device of more than 2 |Q| qubits: the window's answer meets the
     dependency chain and is certified by it, so the asked-for proof file
     is not written, and stderr and the record say so *)
  let proof = temp ".drat" in
  Sys.remove proof;
  synth cli ~err
    (Printf.sprintf "brick:8 -d heavy-hex-3x7 -j 1 --incremental --certify --proof %s --record %s"
       (Filename.quote proof) (Filename.quote record));
  if Sys.file_exists proof then die "an accepted window wrote a proof file";
  if not (contains (read_all err) "not written: the window's answer is certified by the dependency chain")
  then die "an accepted window with --proof printed no note that the proof was not written";
  let r = match Json.parse (read_all record) with Ok j -> j | Error e -> die "record is not JSON: %s" e in
  List.iter
    (fun (path, want) ->
      let got = str path r in
      if got <> want then die "windowed record %s = %s, want %s" (String.concat "." path) got want)
    [ ([ "window"; "outcome" ], "accepted"); ([ "certificate"; "formula" ], "chain") ];
  if member [ "window"; "proof_file" ] r <> Json.Null then die "windowed record names a proof file";
  ignore (str [ "window"; "proof_note" ] r);
  if member [ "certificate"; "valid" ] r <> Json.Bool true then die "chain certificate is not valid";
  Sys.remove record;
  (* parallel run: -j 2 (with the conflict budget flag along for the
     ride) must still print a layout on stdout *)
  synth cli ~out "qaoa:4 -d grid-2x2 -j 2 --conflict-budget 500000";
  if String.trim (read_all out) = "" then die "-j 2 run printed no layout";
  (* parallel certified run: proof logging must stay sound (the pool falls
     back to the sequential path on proof-logging solvers) *)
  let proof = temp ".drat" in
  synth cli ~out (Printf.sprintf "qaoa:4 -d grid-2x2 -j 2 --certify --proof %s" (Filename.quote proof));
  if not (contains (read_all out) "VALID") then die "-j 2 --certify printed no VALID certificate";
  if String.length (read_all proof) = 0 then die "-j 2 --certify wrote an empty proof file";
  Sys.remove proof;
  Sys.remove out;
  Sys.remove err;
  Printf.printf
    "cli smoke ok: %d trace lines, %d spans, certified proof %d bytes, simplified proof %d bytes\n"
    lines spans proof_len simp_proof_len
