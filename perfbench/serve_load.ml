(* serve-mixed: the in-process daemon under a closed loop of two clients
   posting /synthesize.

   A run sends a stream of 1,000 requests, fixed by the seed, in a fixed
   number of rounds, each to a freshly started daemon, so every round
   does the same work (one daemon would not: it keeps the events of its
   tracer, and each finished job scans them).  Every eighth request is a
   fresh QUEKO problem sent as an explicit gate list (a cache miss: a
   small solve and a cache write).  The fresh problems are the
   constructions of factory seeds 1 to 125, in an order the seed picks:
   their solve times are heavy-tailed, so drawing fresh constructions
   would move the tail latency with the seed.  The rest resubmit one of
   the 64 most recently issued problems, either byte for byte or
   relabelled (program qubits permuted, device sent as a permuted edge
   list), which the daemon answers from its cache through its canonical
   keys.  Each client sends its next request when the previous answer
   arrives.

   Every answer is checked after the load ends: status 200, proved
   optimal, a valid layout for the submitted (possibly relabelled)
   circuit and device, and a depth equal to the construction's. *)

module Obs = Olsq2_obs.Obs
module Json = Obs.Json
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Coupling = Olsq2_device.Coupling
module Instance = Olsq2_core.Instance
module Result_ = Olsq2_core.Result_
module Validate = Olsq2_core.Validate
module Factory = Olsq2_evalbench.Factory
module Known = Olsq2_evalbench.Known
module Server = Olsq2_serve.Server
module Http = Olsq2_serve.Http
module Protocol = Olsq2_serve.Protocol

let device_name = "grid-3x3"
let fresh_depth = 5
let fresh_gates = 24
let recent = 64
let stream_length = 1000

type request = {
  body : string;
  circuit : Circuit.t;  (** as submitted *)
  device : Coupling.t;  (** as submitted *)
  swap_duration : int;
  reference : Known.bound;  (** optimal depth *)
  fresh : bool;
}

let num n = Json.Num (float_of_int n)

let body ~circuit ~device ~swap_duration =
  let gate (g : Gate.t) =
    Json.Arr
      (Json.Str g.Gate.name
      :: (match g.Gate.operands with Gate.One q -> [ num q ] | Gate.Two (a, b) -> [ num a; num b ]))
  in
  Json.to_string
    (Json.Obj
       [
         ( "circuit",
           Json.Obj
             [
               ("num_qubits", num circuit.Circuit.num_qubits);
               ("gates", Json.Arr (Array.to_list (Array.map gate circuit.Circuit.gates)));
             ] );
         ("device", device);
         ("objective", Json.Str "depth");
         ("swap_duration", num swap_duration);
       ])

(* The seed's request stream, fresh problems reference-checked by the
   factory (it rejects a construction whose witness does not validate). *)
let schedule ~seed =
  let st = Gen.rng seed (-1) in
  let named = Gen.device device_name in
  let fresh_count = stream_length / 8 in
  let order = Gen.permutation st fresh_count in
  let problems = ref [||] in
  let fresh () =
    let k =
      Factory.make ~device:device_name ~depth:fresh_depth ~total_gates:fresh_gates
        ~dial:Factory.Zero_swap ~seed:(1 + order.(Array.length !problems)) ()
    in
    let circuit = k.Known.instance.Instance.circuit in
    let sd = k.Known.instance.Instance.swap_duration in
    let r =
      {
        body = body ~circuit ~device:(Json.Str device_name) ~swap_duration:sd;
        circuit;
        device = named;
        swap_duration = sd;
        reference = k.Known.opt_depth;
        fresh = true;
      }
    in
    problems := Array.append !problems [| r |];
    r
  in
  let relabelled r =
    let n = r.circuit.Circuit.num_qubits in
    let pq = Gen.permutation st n in
    let pd = Gen.permutation st named.Coupling.num_qubits in
    let circuit = Circuit.rename_qubits r.circuit ~num_qubits:n (fun q -> pq.(q)) in
    let edges = Array.to_list (Array.map (fun (a, b) -> (pd.(a), pd.(b))) named.Coupling.edges) in
    let device = Coupling.make ~name:"relabelled" ~num_qubits:named.Coupling.num_qubits edges in
    let wire =
      Json.Obj
        [
          ("num_qubits", num named.Coupling.num_qubits);
          ("edges", Json.Arr (List.map (fun (a, b) -> Json.Arr [ num a; num b ]) edges));
        ]
    in
    {
      r with
      body = body ~circuit ~device:wire ~swap_duration:r.swap_duration;
      circuit;
      device;
      fresh = false;
    }
  in
  Array.init stream_length (fun i ->
      if i mod 8 = 0 then fresh ()
      else
        let np = Array.length !problems in
        let window = min recent np in
        let p = !problems.(np - window + Random.State.int st window) in
        if Random.State.bool st then { p with fresh = false } else relabelled p)

type answer = {
  latency : float;
  response : (int * string, string) result;
}

(* One round. *)
type phase = {
  wall : float;  (** wall time of the round *)
  answers : (request * answer) list;  (** in stream order *)
  stats : Json.json option;  (** the daemon's /stats after the round *)
  alloc_words : float;
}

(* Start the daemon and wait until it answers. *)
let start () =
  let server = Server.start { Server.default_config with Server.port = 0 } in
  (match Http.request ~port:(Server.port server) ~meth:"GET" "/healthz" with
  | Ok (200, _) -> ()
  | _ -> failwith "daemon did not come up");
  server

let load ~server requests =
  let port = Server.port server in
  let answers = Array.make (Array.length requests) None in
  let next = Atomic.make 0 in
  let a0 = Stats.allocated_words () in
  let t0 = Stats.now () in
  let client () =
    let obs = Obs.global () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length requests then begin
        let s = Stats.now () in
        let response =
          Obs.with_span obs "serve.http" (fun () ->
              Http.request ~port ~meth:"POST" ~body:requests.(i).body "/synthesize")
        in
        answers.(i) <- Some { latency = Stats.now () -. s; response };
        loop ()
      end
    in
    loop ()
  in
  let other = Domain.spawn client in
  client ();
  Domain.join other;
  let wall = Stats.now () -. t0 in
  let stats =
    match Http.request ~port ~meth:"GET" "/stats" with
    | Ok (200, b) -> Result.to_option (Json.parse b)
    | _ -> None
  in
  let answered = List.combine (Array.to_list requests) (List.map Option.get (Array.to_list answers)) in
  { wall; answers = answered; stats; alloc_words = Stats.allocated_words () -. a0 }

(* ---- checking answers ---- *)

let ( let* ) = Result.bind

let int_of = function Json.Num f -> Ok (int_of_float f) | _ -> Error "expected a number"

let ints = function
  | Json.Arr xs -> List.fold_right (fun x acc -> let* acc = acc in let* i = int_of x in Ok (i :: acc)) xs (Ok [])
  | _ -> Error "expected an array"

let field name j = match Json.member name j with Some v -> Ok v | None -> Error ("missing " ^ name)

let result_of_json j =
  let* depth = Result.bind (field "depth" j) int_of in
  let* swap_count = Result.bind (field "swap_count" j) int_of in
  let* mapping =
    match Json.member "mapping" j with
    | Some (Json.Arr rows) ->
      List.fold_right
        (fun row acc -> let* acc = acc in let* r = ints row in Ok (Array.of_list r :: acc))
        rows (Ok [])
    | _ -> Error "missing mapping"
  in
  let* schedule = Result.bind (field "schedule" j) ints in
  let* swaps =
    match Json.member "swaps" j with
    | Some (Json.Arr ss) ->
      List.fold_right
        (fun s acc ->
          let* acc = acc in
          let* edge = Result.bind (field "edge" s) ints in
          let* finish = Result.bind (field "finish" s) int_of in
          match edge with
          | [ a; b ] -> Ok ({ Result_.sw_edge = (a, b); sw_finish = finish } :: acc)
          | _ -> Error "bad swap edge")
        ss (Ok [])
    | _ -> Error "missing swaps"
  in
  Ok
    {
      Result_.status = Result_.Optimal;
      depth;
      swap_count;
      mapping = Array.of_list mapping;
      schedule = Array.of_list schedule;
      swaps;
      solve_seconds = 0.0;
      iterations = 0;
    }

type checked = {
  hit : bool;
  queue : float;
  solve : float;  (** the response's [seconds]: the solve time, or the cached one on a hit *)
}

let check (r : request) (a : answer) =
  let* status, text = a.response in
  let* () = if status = 200 then Ok () else Error (Printf.sprintf "HTTP %d: %s" status text) in
  let* j = Json.parse text in
  let* () = if Json.member "optimal" j = Some (Json.Bool true) then Ok () else Error "not proved optimal" in
  let* res = Result.bind (field "result" j) result_of_json in
  let inst = Instance.make ~swap_duration:r.swap_duration r.circuit r.device in
  let* () =
    match Validate.check inst res with
    | [] -> Ok ()
    | v :: _ -> Error ("invalid layout: " ^ Validate.violation_to_string v)
  in
  let* () =
    if Known.optimal_consistent r.reference res.Result_.depth then Ok ()
    else
      Error
        (Printf.sprintf "depth %d does not meet reference %s" res.Result_.depth
           (Known.bound_to_string r.reference))
  in
  let num name = match Json.member name j with Some (Json.Num f) -> f | _ -> 0.0 in
  let hit =
    match Json.member "cache" j with
    | Some c -> Json.member "hit" c = Some (Json.Bool true)
    | None -> false
  in
  Ok { hit; queue = num "queue_seconds"; solve = num "seconds" }

let stat path (stats : Json.json option) =
  let rec go j = function
    | [] -> (match j with Json.Num f -> f | _ -> 0.0)
    | k :: rest -> (match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  match stats with Some j -> go j path | None -> 0.0

let per_thousand p x = x /. float_of_int (List.length p.answers) *. 1000.0

(* Like a batch operation's time, each timing is its fastest across the
   rounds; allocation is the median round's.  [peak_heap_mb] is taken
   after the first round ([heap_mb]), as a fresh process serving the stream once
   would see it: in OCaml 5.1 the heap of a stopped daemon's domains is
   not handed back, so later rounds only add to the peak. *)
let end_to_end ~setup_s ~heap_mb rounds =
  let fastest f = List.fold_left (fun acc p -> Float.min acc (f p)) Float.infinity rounds in
  let latency q p = Stats.percentile q (List.map (fun (_, a) -> a.latency) p.answers) in
  Stats.
    [
      metric "setup_s" "s" setup_s;
      metric "wall_s" "s" (fastest (fun p -> per_thousand p p.wall));
      metric "latency_p50_s" "s" (fastest (latency 50.0));
      metric "latency_p99_s" "s" (fastest (latency 99.0));
      metric "alloc_mw" "Mw" (median (List.map (fun p -> per_thousand p p.alloc_words /. 1e6) rounds));
      metric "peak_heap_mb" "MB" heap_mb;
    ]

(* Serve-layer metrics of a phase, from the checked answers, the
   daemon's /stats, and [Protocol.parse] timed on every request body. *)
let serve_layer p checked =
  let ok = List.filter_map (fun ((_, a), c) -> Result.to_option c |> Option.map (fun c -> (a, c))) checked in
  let hits = List.filter (fun (_, c) -> c.hit) ok and misses = List.filter (fun (_, c) -> not c.hit) ok in
  let parse_times =
    List.map
      (fun ((r : request), _) ->
        let t0 = Stats.now () in
        ignore (Protocol.parse r.body);
        Stats.now () -. t0)
      p.answers
  in
  let hits_n = stat [ "cache"; "hits" ] p.stats and misses_n = stat [ "cache"; "misses" ] p.stats in
  [
    ("serve.parse_s", "s", Stats.median parse_times);
    ("serve.queue_p50_s", "s", Stats.percentile 50.0 (List.map (fun (_, c) -> c.queue) ok));
    ("serve.queue_p99_s", "s", Stats.percentile 99.0 (List.map (fun (_, c) -> c.queue) ok));
    ("serve.solve_s", "s", Stats.median (List.map (fun (_, c) -> c.solve) misses));
    ( "serve.overhead_p50_s",
      "s",
      Stats.median (List.map (fun ((a : answer), c) -> a.latency -. c.queue) hits) );
    ("serve.cache_hit_ratio", "ratio", if hits_n +. misses_n > 0.0 then hits_n /. (hits_n +. misses_n) else 0.0);
    ("serve.failures", "count", stat [ "failures" ] p.stats);
  ]

let check_all p = List.map (fun (r, a) -> ((r, a), check r a)) p.answers
