(* Wire protocol of the serve daemon: JSON request bodies in, JSON
   response bodies out, using [Obs.Json] as the only JSON layer (DESIGN
   rule: no external dependencies on the wire).

   A request names a circuit (benchmark spec string, inline OpenQASM, or
   an explicit gate list), a device (built-in name or an explicit edge
   list), an objective, and optionally a serialized [Synthesis.Options]
   — the same record the library API takes, so anything expressible
   programmatically is expressible over the wire. *)

module Json = Olsq2_obs.Obs.Json
module Circuit = Olsq2_circuit.Circuit
module Qasm = Olsq2_circuit.Qasm
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Suite = Olsq2_benchgen.Suite
module Core = Olsq2_core
module Result_ = Olsq2_core.Result_
module Synthesis = Olsq2_core.Synthesis

type parsed = {
  instance : Core.Instance.t;
  objective : Synthesis.objective;
  objective_tag : string;  (* stable name for keys, metrics, responses *)
  options : Synthesis.Options.t;
  cache_key : string option;  (* [None]: request must bypass the cache *)
  drel : Canonical.relabeling;
  crel : Canonical.relabeling;
}

let ( let* ) = Result.bind

(* ---- JSON field helpers ---- *)

let field name j = Json.member name j

let as_int name = function
  | Json.Num f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "%s: expected an integer" name)

let opt_int name j =
  match field name j with
  | None | Some Json.Null -> Ok None
  | Some v -> Result.map Option.some (as_int name v)

let as_string name = function
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s: expected a string" name)

(* ---- circuit ---- *)

let parse_gate i = function
  | Json.Arr (Json.Str name :: operands) -> (
    let* qs =
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* q = as_int (Printf.sprintf "gates[%d]" i) v in
          Ok (q :: acc))
        (Ok []) operands
    in
    match List.rev qs with
    | [ q ] -> Ok (name, Olsq2_circuit.Gate.One q)
    | [ a; b ] -> Ok (name, Olsq2_circuit.Gate.Two (a, b))
    | _ -> Error (Printf.sprintf "gates[%d]: expected 1 or 2 operands" i))
  | _ -> Error (Printf.sprintf "gates[%d]: expected [\"name\", q, ...]" i)

let parse_gate_list j =
  let* num_qubits =
    match field "num_qubits" j with
    | Some v -> as_int "circuit.num_qubits" v
    | None -> Error "circuit.num_qubits: required with a gate list"
  in
  let* gates =
    match field "gates" j with
    | Some (Json.Arr gs) ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | g :: rest ->
          let* g = parse_gate i g in
          go (i + 1) (g :: acc) rest
      in
      go 0 [] gs
    | _ -> Error "circuit.gates: expected an array"
  in
  try
    let b = Circuit.builder num_qubits in
    List.iter (fun (name, ops) -> Circuit.add_gate b ~name ops) gates;
    Ok (Circuit.build b ~name:"wire")
  with Invalid_argument m -> Error ("circuit: " ^ m)

let parse_circuit ~device j =
  match field "circuit" j with
  | None -> Error "circuit: required"
  | Some (Json.Str spec) -> (
    try Ok (Suite.parse_spec ~device spec) with
    | Invalid_argument m -> Error ("circuit: " ^ m)
    | Qasm.Parse_error m -> Error ("circuit: " ^ m)
    | Sys_error m -> Error ("circuit: " ^ m))
  | Some (Json.Obj _ as obj) -> (
    match field "qasm" obj with
    | Some (Json.Str text) -> (
      try Ok (Qasm.parse ~name:"wire" text)
      with Qasm.Parse_error m | Invalid_argument m -> Error ("circuit.qasm: " ^ m))
    | Some _ -> Error "circuit.qasm: expected a string"
    | None -> parse_gate_list obj)
  | Some _ -> Error "circuit: expected a spec string or an object"

(* ---- device ---- *)

let parse_edge i = function
  | Json.Arr [ a; b ] ->
    let* a = as_int (Printf.sprintf "edges[%d]" i) a in
    let* b = as_int (Printf.sprintf "edges[%d]" i) b in
    Ok (a, b)
  | _ -> Error (Printf.sprintf "edges[%d]: expected [a, b]" i)

let parse_device j =
  match field "device" j with
  | None -> Error "device: required"
  | Some (Json.Str name) -> (
    try Ok (Devices.by_name name) with Invalid_argument m -> Error ("device: " ^ m))
  | Some (Json.Obj _ as obj) ->
    let* num_qubits =
      match field "num_qubits" obj with
      | Some v -> as_int "device.num_qubits" v
      | None -> Error "device.num_qubits: required with an edge list"
    in
    let* edges =
      match field "edges" obj with
      | Some (Json.Arr es) ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest ->
            let* e = parse_edge i e in
            go (i + 1) (e :: acc) rest
        in
        go 0 [] es
      | _ -> Error "device.edges: expected an array"
    in
    let name =
      match field "name" obj with Some (Json.Str s) -> s | _ -> "wire"
    in
    (try Ok (Coupling.make ~name ~num_qubits edges)
     with Invalid_argument m -> Error ("device: " ^ m))
  | Some _ -> Error "device: expected a name string or an object"

(* ---- objective ---- *)

let parse_objective ~device j =
  let* tag =
    match field "objective" j with
    | None -> Ok "depth"
    | Some v -> as_string "objective" v
  in
  match String.lowercase_ascii tag with
  | "depth" -> Ok (Synthesis.Depth, "depth", true)
  | "swaps" | "swap" ->
    let* warm_start = opt_int "warm_start" j in
    Ok (Synthesis.Swaps { warm_start }, "swaps", true)
  | "tb_blocks" -> Ok (Synthesis.Tb_blocks, "tb_blocks", true)
  | "tb_swaps" -> Ok (Synthesis.Tb_swaps, "tb_swaps", true)
  | "weighted_swaps" -> (
    match field "edge_weights" j with
    | Some (Json.Arr ws) ->
      let* ws =
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | w :: rest ->
            let* w = as_int (Printf.sprintf "edge_weights[%d]" i) w in
            go (i + 1) (w :: acc) rest
        in
        go 0 [] ws
      in
      let ws = Array.of_list ws in
      if Array.length ws <> Coupling.num_edges device then
        Error
          (Printf.sprintf "edge_weights: expected %d weights (one per device edge)"
             (Coupling.num_edges device))
      else
        (* weights are per submitted edge id — not expressible in a
           relabelling-invariant key, so these requests bypass the cache *)
        Ok (Synthesis.Weighted_swaps (fun e -> ws.(e)), "weighted_swaps", false)
    | _ -> Error "edge_weights: required array for objective weighted_swaps")
  | other -> Error (Printf.sprintf "objective: unknown value %S" other)

(* ---- cache key ---- *)

(* The key covers everything that can change the answer: the canonical
   device and circuit, swap duration, objective and encoding config
   (simplification included).  Budget, warm start and certification are
   deliberately excluded — they change how hard we try, not what the
   optimum is — and only proven-optimal results are ever stored. *)
let cache_key ~dkey ~ckey ~swap_duration ~objective_tag (options : Synthesis.Options.t) =
  let cfg =
    Core.Config.to_assoc options.config
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
    |> String.concat ","
  in
  Printf.sprintf "%s|%s|sd=%d|obj=%s|cfg=%s" dkey ckey swap_duration objective_tag cfg

(* ---- request ---- *)

let parse ?(defaults = Synthesis.Options.default) body =
  let* j = Json.parse body in
  let* j = match j with Json.Obj _ -> Ok j | _ -> Error "request: expected a JSON object" in
  (* options first: a request may name its device only through
     [options.device] (the same record the CLI fills from [--device]) *)
  let* options =
    match field "options" j with
    | None | Some Json.Null -> Ok defaults
    | Some o -> (
      (* the daemon never writes files at client-chosen paths *)
      match field "proof_file" o with
      | None | Some Json.Null -> Synthesis.Options.of_json o
      | Some _ -> Error "options.proof_file: not accepted over the wire (the daemon writes no files)")
  in
  let* device =
    match (field "device" j, options.Synthesis.Options.device) with
    | None, Some name -> (
      try Ok (Devices.by_name name)
      with Invalid_argument m -> Error ("options.device: " ^ m))
    | _ -> parse_device j
  in
  let* circuit = parse_circuit ~device j in
  let* objective, objective_tag, obj_cacheable = parse_objective ~device j in
  let* swap_duration =
    let* sd = opt_int "swap_duration" j in
    Ok (match sd with Some sd -> sd | None -> Suite.swap_duration_for circuit)
  in
  let* instance =
    try Ok (Core.Instance.make ~swap_duration circuit device)
    with Invalid_argument m -> Error ("instance: " ^ m)
  in
  let cacheable =
    obj_cacheable && not options.certify
    && (match field "cache" j with Some (Json.Bool false) -> false | _ -> true)
  in
  let { Canonical.dkey; drel } = Canonical.device device in
  let { Canonical.ckey; crel } = Canonical.circuit circuit in
  let cache_key =
    if cacheable then Some (cache_key ~dkey ~ckey ~swap_duration ~objective_tag options)
    else None
  in
  Ok { instance; objective; objective_tag; options; cache_key; drel; crel }

(* ---- responses ---- *)

let result_to_json (r : Result_.t) =
  Json.Obj
    [
      ("status", Json.Str (Result_.status_string r.Result_.status));
      ("depth", Json.Num (float_of_int r.Result_.depth));
      ("swap_count", Json.Num (float_of_int r.Result_.swap_count));
      ( "mapping",
        Json.Arr
          (Array.to_list r.Result_.mapping
          |> List.map (fun row ->
               Json.Arr (Array.to_list row |> List.map (fun p -> Json.Num (float_of_int p))))) );
      ( "schedule",
        Json.Arr
          (Array.to_list r.Result_.schedule |> List.map (fun t -> Json.Num (float_of_int t))) );
      ( "swaps",
        Json.Arr
          (List.map
             (fun (s : Result_.swap) ->
               let a, b = s.Result_.sw_edge in
               Json.Obj
                 [
                   ("edge", Json.Arr [ Json.Num (float_of_int a); Json.Num (float_of_int b) ]);
                   ("finish", Json.Num (float_of_int s.Result_.sw_finish));
                 ])
             r.Result_.swaps) );
    ]

let error_body message = Json.to_string (Json.Obj [ ("error", Json.Str message) ])
