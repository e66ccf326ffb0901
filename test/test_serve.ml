(* lib/serve tests: canonicalization invariance properties, the result
   cache, HTTP framing, the Options JSON codec, preemption, and an
   in-process end-to-end concurrent load test against a live server. *)

module Q = QCheck
module Serve = Olsq2_serve
module Http = Serve.Http
module Canonical = Serve.Canonical
module Cache = Serve.Cache
module Server = Serve.Server
module Core = Olsq2_core
module Budget = Core.Budget
module Synthesis = Core.Synthesis
module Options = Core.Synthesis.Options
module Result_ = Core.Result_
module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Suite = Olsq2_benchgen.Suite
module Json = Olsq2_obs.Obs.Json
module Tuning = Olsq2_sat.Tuning

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ---- generators ---- *)

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let configs =
  [
    Core.Config.olsq_int; Core.Config.olsq_bv; Core.Config.olsq2_int; Core.Config.olsq2_euf_int;
    Core.Config.olsq2_euf_bv; Core.Config.olsq2_bv;
  ]

let options_gen =
  Q.Gen.(
    let* config = oneofl configs in
    let* simplify = bool in
    let* wall = oneofl [ None; Some 1.5; Some 60. ] in
    let* conflicts = oneofl [ None; Some 1000 ] in
    let* per_bound = oneofl [ None; Some 0.25 ] in
    let* certify = bool in
    let* proof_file = oneofl [ None; Some "out.drat" ] in
    let* workers = 1 -- 4 in
    let* cube_depth = oneofl [ None; Some 2 ] in
    let* incremental = bool in
    let* device = oneofl [ None; Some "qx2"; Some "heavy-hex-127" ] in
    let* sat =
      oneofl
        [
          Tuning.default;
          Tuning.(default |> with_restart ~mode:Geometric ~base:50 ~factor:1.5);
          Tuning.(default |> with_phase Phase_negative);
          Tuning.(
            default |> with_vivify 0
            |> with_reduce ~keep:0.75 ~lbd_protect:2
            |> with_share_filters ~max_len:6 ~max_lbd:3
            |> with_probe_conflicts 64
            |> with_arena ~capacity:4096 ~gc_fraction:0.125
            |> with_decay ~var:0.9 ~clause:0.995);
        ]
    in
    return
      {
        Options.config = { config with Core.Config.simplify };
        budget =
          {
            Budget.wall_seconds = wall;
            max_conflicts = conflicts;
            per_bound_seconds = per_bound;
            control = None;
          };
        certify;
        proof_file;
        parallel = { Options.workers; cube_depth };
        incremental;
        device;
        sat;
      })

let options_arbitrary =
  Q.make ~print:(fun o -> Json.to_string (Options.to_json o)) options_gen

(* ---- Options JSON codec ---- *)

let options_roundtrip =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"Options.of_json inverts to_json (through text)" ~count:200
       options_arbitrary (fun o ->
         let text = Json.to_string (Options.to_json o) in
         match Result.bind (Json.parse text) Options.of_json with
         | Ok o' -> Options.equal o o'
         | Error m -> Q.Test.fail_reportf "decode failed: %s on %s" m text))

let test_options_partial () =
  (* missing keys take the default's values *)
  match Options.of_assoc [ ("certify", Json.Bool true) ] with
  | Error m -> Alcotest.failf "partial decode failed: %s" m
  | Ok o ->
    checkb "certify" true o.Options.certify;
    checkb "rest defaults" true (Options.equal { Options.default with certify = true } o)

let test_options_bad () =
  let bad body =
    match Result.bind (Json.parse body) Options.of_json with
    | Ok _ -> Alcotest.failf "accepted %s" body
    | Error _ -> ()
  in
  bad "[1,2]";
  bad {|{"parallel":{"workers":0}}|};
  bad {|{"budget":{"wall_seconds":-2}}|};
  bad {|{"config":{"cardinality":"maybe"}}|};
  bad {|{"sat":{"restart":"fibonacci"}}|};
  bad {|{"sat":{"no_such_knob":1}}|};
  bad {|{"sat":{"var_decay":0.1}}|};
  bad {|{"sat":{"chrono":64}}|};
  bad {|{"parallel":{"share":true}}|};
  bad {|{"certfy":true}|};
  bad {|{"simplify":true}|};
  bad {|{"config":{"symetry":true}}|};
  bad {|{"budget":{"wall_second":5}}|}

(* A request with no top-level "device" falls back to options.device, the
   same field the daemon's --default-device flag fills. *)
let test_protocol_device_fallback () =
  let parse body = Serve.Protocol.parse body in
  let qubits (p : Serve.Protocol.parsed) =
    p.Serve.Protocol.instance.Core.Instance.device.Coupling.num_qubits
  in
  (match parse {|{"circuit":"qft:3","device":"qx2"}|} with
  | Error m -> Alcotest.failf "explicit device: %s" m
  | Ok p -> check Alcotest.int "explicit device qubits" 5 (qubits p));
  (match parse {|{"circuit":"qft:3","options":{"device":"heavy-hex-127"}}|} with
  | Error m -> Alcotest.failf "options.device fallback: %s" m
  | Ok p -> check Alcotest.int "options.device qubits" 127 (qubits p));
  (* top-level device wins over options.device *)
  (match parse {|{"circuit":"qft:3","device":"qx2","options":{"device":"heavy-hex-127"}}|} with
  | Error m -> Alcotest.failf "both devices: %s" m
  | Ok p -> check Alcotest.int "top-level device wins" 5 (qubits p));
  match parse {|{"circuit":"qft:3","options":{"device":"no-such-chip"}}|} with
  | Ok _ -> Alcotest.fail "accepted an unknown options.device"
  | Error m -> checkb "error names the field" true (String.length m > 0)

(* ---- canonicalization ---- *)

let small_devices () =
  [ Devices.line 5; Devices.ring 6; Devices.grid 2 3; Devices.qx2; Devices.grid 3 3 ]

let permute_device st (d : Coupling.t) =
  let p = permutation st d.Coupling.num_qubits in
  Coupling.make ~name:"perm" ~num_qubits:d.Coupling.num_qubits
    (Array.to_list d.Coupling.edges |> List.map (fun (a, b) -> (p.(a), p.(b))))

let canonical_device_invariant =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"Canonical.device is permutation-invariant" ~count:60 Q.small_int
       (fun seed ->
         let st = Random.State.make [| seed |] in
         List.for_all
           (fun d ->
             let k = (Canonical.device d).Canonical.dkey in
             let k' = (Canonical.device (permute_device st d)).Canonical.dkey in
             if k <> k' then
               Q.Test.fail_reportf "device %s: %s <> %s" d.Coupling.name k k'
             else true)
           (small_devices ())))

let canonical_circuit_invariant =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"Canonical.circuit is relabelling-invariant" ~count:60 Q.small_int
       (fun seed ->
         let st = Random.State.make [| seed + 1 |] in
         List.for_all
           (fun spec ->
             let c = Suite.parse_spec spec in
             let p = permutation st c.Circuit.num_qubits in
             let c' = Circuit.rename_qubits c ~num_qubits:c.Circuit.num_qubits (fun q -> p.(q)) in
             let k = (Canonical.circuit c).Canonical.ckey in
             let k' = (Canonical.circuit c').Canonical.ckey in
             if k <> k' then Q.Test.fail_reportf "%s: %s <> %s" spec k k' else true)
           [ "qaoa:6:1"; "qaoa:6:2"; "qft:4"; "ising:5"; "tof:3" ]))

let test_canonical_distinguishes () =
  (* different structures must produce different keys *)
  let k spec = (Canonical.circuit (Suite.parse_spec spec)).Canonical.ckey in
  checkb "qft4 <> qaoa4" true (k "qft:4" <> k "qaoa:4:1");
  let dk d = (Canonical.device d).Canonical.dkey in
  checkb "line <> ring" true (dk (Devices.line 6) <> dk (Devices.ring 6));
  checkb "grid <> ring" true (dk (Devices.grid 2 3) <> dk (Devices.ring 6))

let test_translate_roundtrip () =
  let device = Devices.qx2 in
  let circuit = Suite.parse_spec "qaoa:4:1" in
  let instance = Core.Instance.make ~swap_duration:1 circuit device in
  let report = Synthesis.run ~objective:(Synthesis.Swaps { warm_start = None }) instance in
  let r = Option.get report.Synthesis.result in
  let { Canonical.drel; _ } = Canonical.device device in
  let { Canonical.crel; _ } = Canonical.circuit circuit in
  let r' =
    Canonical.of_canonical ~device:drel ~circuit:crel
      (Canonical.to_canonical ~device:drel ~circuit:crel r)
  in
  checkb "mapping survives round trip" true (r.Result_.mapping = r'.Result_.mapping);
  checkb "swaps survive round trip" true (r.Result_.swaps = r'.Result_.swaps);
  checkb "schedule untouched" true (r.Result_.schedule = r'.Result_.schedule)

(* ---- cache ---- *)

let test_cache () =
  let c = Cache.create ~capacity:2 in
  checkb "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  checkb "hit a" true (Cache.find c "a" = Some 1);
  Cache.add c "a" 99;
  checkb "first write wins" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  (* capacity 2: oldest key (a) evicted *)
  checkb "a evicted" true (Cache.find c "a" = None);
  checkb "b kept" true (Cache.find c "b" = Some 2);
  checkb "c kept" true (Cache.find c "c" = Some 3);
  let s = Cache.stats c in
  check Alcotest.int "size" 2 s.Cache.size;
  check Alcotest.int "evictions" 1 s.Cache.evictions;
  check Alcotest.int "hits" 4 s.Cache.hits;
  check Alcotest.int "misses" 2 s.Cache.misses

(* ---- HTTP framing ---- *)

let test_http_parse () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let body = {|{"x":1}|} in
      let raw =
        Printf.sprintf
          "POST /synthesize?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\nX-Extra: v\r\n\r\n%s"
          (String.length body) body
      in
      let _ = Unix.write_substring a raw 0 (String.length raw) in
      match Http.read_request b with
      | Error m -> Alcotest.failf "parse failed: %s" m
      | Ok req ->
        check Alcotest.string "method" "POST" req.Http.meth;
        check Alcotest.string "target" "/synthesize?x=1" req.Http.target;
        check Alcotest.string "body" body req.Http.body;
        checkb "header" true (List.assoc_opt "x-extra" req.Http.headers = Some "v"))

let test_http_bad_length () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let raw = "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n" in
      let _ = Unix.write_substring a raw 0 (String.length raw) in
      match Http.read_request b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted malformed content-length")

(* ---- preemption ---- *)

let test_preempt_before_start () =
  let ctl = Budget.control () in
  Budget.preempt ctl;
  let options =
    Options.default
    |> Options.with_budget (Budget.with_control ctl (Budget.of_seconds 60.))
  in
  let instance = Core.Instance.make (Suite.parse_spec "qft:4") (Devices.qx2) in
  let t0 = Unix.gettimeofday () in
  let report = Synthesis.run ~options ~objective:Synthesis.Depth instance in
  checkb "not optimal when preempted up front" false report.Synthesis.optimal;
  checkb "stop says interrupted" true (report.Synthesis.stop = Synthesis.Interrupted);
  checkb "returns promptly" true (Unix.gettimeofday () -. t0 < 30.)

let test_preempt_mid_run () =
  let ctl = Budget.control () in
  let options =
    Options.default
    |> Options.with_budget (Budget.with_control ctl (Budget.of_seconds 60.))
  in
  let instance = Core.Instance.make (Suite.parse_spec "qft:5") (Devices.qx2) in
  let worker =
    Domain.spawn (fun () -> Synthesis.run ~options ~objective:Synthesis.Depth instance)
  in
  Unix.sleepf 0.3;
  Budget.preempt ctl;
  let t0 = Unix.gettimeofday () in
  let report = Domain.join worker in
  checkb "an unproved run says it was interrupted" true
    (report.Synthesis.optimal || report.Synthesis.stop = Synthesis.Interrupted);
  (* the interrupt must cut the solve short; allow slack for this box *)
  checkb "join after preempt is prompt" true (Unix.gettimeofday () -. t0 < 30.)

(* A control outlives its run (a serve job keeps it in the done
   registry), so a finished run must leave no solver registered with it:
   what the control reaches is its flag, its list and its mutex. *)
let test_run_leaves_nothing_attached () =
  let run name options objective instance =
    let ctl = Budget.control () in
    let options = Options.with_budget (Budget.with_control ctl (Budget.of_seconds 60.)) options in
    let report = Synthesis.run ~options ~objective instance in
    checkb (name ^ ": optimal") true report.Synthesis.optimal;
    let words = Obj.reachable_words (Obj.repr ctl) in
    if words >= 1_000 then Alcotest.failf "%s: the control still reaches %d words" name words;
    report
  in
  let pinned = Options.(default |> with_workers 1 |> with_incremental true) in
  let qft4 = Core.Instance.make (Suite.parse_spec "qft:4") Devices.qx2 in
  ignore (run "session" pinned Synthesis.Depth qft4);
  (* the classic oracle rebuilds its encoder as the horizon grows *)
  ignore (run "classic oracle" (Options.with_incremental false pinned) Synthesis.Depth qft4);
  let miss =
    run "window miss" pinned Synthesis.Depth
      (Core.Instance.make (Test_window.triangle_circuit ()) Test_window.star_and_triangle)
  in
  checkb "window missed" true
    (match miss.Synthesis.window with Some (Synthesis.Missed _) -> true | _ -> false);
  let symmetry =
    { pinned with Options.config = { Core.Config.default with Core.Config.symmetry = true } }
    |> Options.with_certify true
  in
  let fallback = run "certify fallback" symmetry Synthesis.Depth qft4 in
  checkb "certified by the classic fallback" true
    (match fallback.Synthesis.plan.Synthesis.certification with
    | Synthesis.Classic_fallback _ -> true
    | Synthesis.No_certificate | Synthesis.On_session -> false);
  checkb "fallback certificate valid" true
    (match fallback.Synthesis.certificate with Some c -> Core.Certificate.valid c | None -> false)

(* Nested registrations of one solver: the inner call's exit removes its
   own registration only, so a preempt during the outer solve still
   reaches the solver. *)
let test_nested_registration_preempt () =
  let ctl = Budget.control () in
  let st = Budget.start (Budget.with_control ctl Budget.unlimited) in
  let solver = Test_parallel.solver_of (Test_parallel.php_clauses ~pigeons:11 ~holes:10) in
  let worker =
    Domain.spawn (fun () ->
        Budget.attached st solver (fun () ->
            Budget.attached st solver ignore;
            Olsq2_sat.Solver.solve ~timeout:10. solver))
  in
  Unix.sleepf 0.3;
  Budget.preempt ctl;
  checkb "the outer registration interrupts the solve" true
    (Domain.join worker = Olsq2_sat.Solver.Unknown Olsq2_sat.Solver.Interrupted);
  checkb "nothing left registered" true (Obj.reachable_words (Obj.repr ctl) < 1_000)

(* ---- end-to-end against a live in-process server ---- *)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let with_server ?(pool = 2) ?(handlers = 3) f =
  let cfg =
    { Server.default_config with Server.port = 0; pool_workers = pool; handlers }
  in
  let s = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop s) (fun () -> f s (Server.port s))

let post port path body =
  match Http.request ~port ~meth:"POST" ~body path with
  | Ok r -> r
  | Error m -> Alcotest.failf "POST %s failed: %s" path m

let get port path =
  match Http.request ~port ~meth:"GET" path with
  | Ok r -> r
  | Error m -> Alcotest.failf "GET %s failed: %s" path m

let member name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "missing field %s" name

let as_num = function Json.Num f -> f | _ -> Alcotest.fail "expected number"
let as_int j = int_of_float (as_num j)

let parse_json body =
  match Json.parse body with Ok j -> j | Error m -> Alcotest.failf "bad JSON: %s (%s)" m body

(* rebuild a Result_.t from a response so Validate can check it against
   the submitted instance *)
let result_of_json j =
  let status =
    match member "status" j with
    | Json.Str "optimal" -> Result_.Optimal
    | Json.Str "feasible" -> Result_.Feasible
    | _ -> Result_.Timeout
  in
  let int_array j =
    match j with
    | Json.Arr l -> Array.of_list (List.map as_int l)
    | _ -> Alcotest.fail "expected array"
  in
  let mapping =
    match member "mapping" j with
    | Json.Arr rows -> Array.of_list (List.map int_array rows)
    | _ -> Alcotest.fail "expected mapping rows"
  in
  let swaps =
    match member "swaps" j with
    | Json.Arr l ->
      List.map
        (fun s ->
          match member "edge" s with
          | Json.Arr [ a; b ] ->
            { Result_.sw_edge = (as_int a, as_int b); sw_finish = as_int (member "finish" s) }
          | _ -> Alcotest.fail "expected edge pair")
        l
    | _ -> Alcotest.fail "expected swaps"
  in
  {
    Result_.status;
    depth = as_int (member "depth" j);
    swap_count = as_int (member "swap_count" j);
    mapping;
    schedule = int_array (member "schedule" j);
    swaps;
    solve_seconds = 0.;
    iterations = 0;
  }

(* a workload item: request body, the instance it describes (for
   validation), the objective tag, and the expected optimum *)
type load_case = {
  lc_name : string;
  lc_body : string;
  lc_instance : Core.Instance.t;
  lc_value : [ `Depth | `Swaps ];
  lc_expected : int;
}

let spec_case ~name ~spec ~device_name ~objective ~value =
  let device = Devices.by_name device_name in
  let circuit = Suite.parse_spec ~device spec in
  let instance =
    Core.Instance.make ~swap_duration:(Suite.swap_duration_for circuit) circuit device
  in
  let report = Synthesis.run ~objective instance in
  let r = Option.get report.Synthesis.result in
  let expected = match value with `Depth -> r.Result_.depth | `Swaps -> r.Result_.swap_count in
  assert report.Synthesis.optimal;
  let tag =
    match objective with
    | Synthesis.Depth -> "depth"
    | Synthesis.Swaps _ -> "swaps"
    | Synthesis.Tb_blocks -> "tb_blocks"
    | Synthesis.Tb_swaps -> "tb_swaps"
    | Synthesis.Weighted_swaps _ -> "weighted_swaps"
  in
  {
    lc_name = name;
    lc_body =
      Json.to_string
        (Json.Obj
           [
             ("circuit", Json.Str spec);
             ("device", Json.Str device_name);
             ("objective", Json.Str tag);
           ]);
    lc_instance = instance;
    lc_value = value;
    lc_expected = expected;
  }

(* the same problem as [base], resubmitted with permuted program qubits
   and permuted device labels, as explicit gate/edge lists *)
let relabeled_case st ~name ~spec ~device_name ~objective_tag ~value base =
  let device = Devices.by_name device_name in
  let circuit = Suite.parse_spec ~device spec in
  let sd = Suite.swap_duration_for circuit in
  let pc = permutation st circuit.Circuit.num_qubits in
  let pd = permutation st device.Coupling.num_qubits in
  let circuit' =
    Circuit.rename_qubits circuit ~num_qubits:circuit.Circuit.num_qubits (fun q -> pc.(q))
  in
  let device' =
    Coupling.make ~name:"relabel" ~num_qubits:device.Coupling.num_qubits
      (Array.to_list device.Coupling.edges |> List.map (fun (a, b) -> (pd.(a), pd.(b))))
  in
  let gates =
    Array.to_list circuit'.Circuit.gates
    |> List.map (fun (g : Gate.t) ->
         let ops =
           match g.Gate.operands with
           | Gate.One q -> [ Json.Num (float_of_int q) ]
           | Gate.Two (a, b) -> [ Json.Num (float_of_int a); Json.Num (float_of_int b) ]
         in
         Json.Arr (Json.Str g.Gate.name :: ops))
  in
  let edges =
    Array.to_list device'.Coupling.edges
    |> List.map (fun (a, b) ->
         Json.Arr [ Json.Num (float_of_int a); Json.Num (float_of_int b) ])
  in
  {
    lc_name = name;
    lc_body =
      Json.to_string
        (Json.Obj
           [
             ( "circuit",
               Json.Obj
                 [
                   ("num_qubits", Json.Num (float_of_int circuit'.Circuit.num_qubits));
                   ("gates", Json.Arr gates);
                 ] );
             ( "device",
               Json.Obj
                 [
                   ("num_qubits", Json.Num (float_of_int device'.Coupling.num_qubits));
                   ("edges", Json.Arr edges);
                 ] );
             ("objective", Json.Str objective_tag);
             ("swap_duration", Json.Num (float_of_int sd));
           ]);
    lc_instance = Core.Instance.make ~swap_duration:sd circuit' device';
    lc_value = value;
    lc_expected = base.lc_expected;
  }

let check_load_response case (status, body) =
  check Alcotest.int (case.lc_name ^ " status") 200 status;
  let j = parse_json body in
  checkb (case.lc_name ^ " optimal") true (member "optimal" j = Json.Bool true);
  let r = result_of_json (member "result" j) in
  let got = match case.lc_value with `Depth -> r.Result_.depth | `Swaps -> r.Result_.swap_count in
  check Alcotest.int (case.lc_name ^ " optimum") case.lc_expected got;
  match Core.Validate.check case.lc_instance r with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d validation violations, first: %s" case.lc_name (List.length vs)
      (Core.Validate.violation_to_string (List.hd vs))

let test_end_to_end () =
  let st = Random.State.make [| 0x5e21e |] in
  (* sequential ground truth first: every unique problem solved in-process *)
  let swaps = Synthesis.Swaps { warm_start = None } in
  let u1 = spec_case ~name:"qaoa4s1" ~spec:"qaoa:4:1" ~device_name:"qx2" ~objective:swaps ~value:`Swaps in
  let u2 = spec_case ~name:"qaoa4s2" ~spec:"qaoa:4:2" ~device_name:"qx2" ~objective:swaps ~value:`Swaps in
  let u3 = spec_case ~name:"qft3" ~spec:"qft:3" ~device_name:"qx2" ~objective:Synthesis.Depth ~value:`Depth in
  let u4 = spec_case ~name:"ising4" ~spec:"ising:4" ~device_name:"grid-2x3" ~objective:Synthesis.Depth ~value:`Depth in
  let u5 = spec_case ~name:"qft4" ~spec:"qft:4" ~device_name:"qx2" ~objective:swaps ~value:`Swaps in
  let uniques = [ u1; u2; u3; u4; u5 ] in
  let relabeled =
    List.init 3 (fun i ->
        relabeled_case st
          ~name:(Printf.sprintf "qaoa4s1-relabel%d" i)
          ~spec:"qaoa:4:1" ~device_name:"qx2" ~objective_tag:"swaps" ~value:`Swaps u1)
  in
  (* 5 uniques x 20 copies + 3 relabelings x 2 copies = 106 requests *)
  let workload =
    List.concat_map (fun c -> List.init 20 (fun _ -> c)) uniques
    @ List.concat_map (fun c -> [ c; c ]) relabeled
  in
  (* deterministic shuffle so duplicates interleave across clients *)
  let workload =
    List.map (fun c -> (Random.State.bits st, c)) workload
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let n_clients = 4 in
  with_server ~pool:2 ~handlers:3 (fun server port ->
      let slices = Array.make n_clients [] in
      List.iteri (fun i c -> slices.(i mod n_clients) <- c :: slices.(i mod n_clients)) workload;
      let clients =
        Array.to_list slices
        |> List.map (fun slice ->
             Domain.spawn (fun () ->
                 List.map (fun c -> (c, Http.request ~port ~meth:"POST" ~body:c.lc_body "/synthesize")) slice))
      in
      let responses = List.concat_map Domain.join clients in
      check Alcotest.int "all requests answered" (List.length workload) (List.length responses);
      List.iter
        (fun (c, resp) ->
          match resp with
          | Error m -> Alcotest.failf "%s: transport error %s" c.lc_name m
          | Ok r -> check_load_response c r)
        responses;
      let s = Server.cache_stats server in
      checkb "cache was hit" true (s.Cache.hits > 0);
      (* with 2 workers at most a handful of duplicates can race the
         first solve of their key; everything else must hit *)
      checkb
        (Printf.sprintf "cache hit rate (hits=%d misses=%d)" s.Cache.hits s.Cache.misses)
        true
        (s.Cache.hits >= 60);
      (* relabeled resubmissions landed on the canonical entry: strictly
         fewer misses than distinct submitted bodies *)
      checkb "relabeled submissions shared keys" true (s.Cache.misses <= 5 + 3 + 10);
      (* metrics endpoint exposes the same counters *)
      let status, metrics = get port "/metrics" in
      check Alcotest.int "/metrics status" 200 status;
      checkb "metrics mention cache hits" true
        (let needle = "olsq2_serve_cache_hits_total" in
         let rec find i =
           i + String.length needle <= String.length metrics
           && (String.sub metrics i (String.length needle) = needle || find (i + 1))
         in
         find 0))

let test_async_jobs () =
  with_server ~pool:1 ~handlers:2 (fun _server port ->
      let status, body =
        post port "/jobs"
          {|{"circuit":"qaoa:4:1","device":"qx2","objective":"swaps"}|}
      in
      check Alcotest.int "202 accepted" 202 status;
      let id = match member "request_id" (parse_json body) with
        | Json.Str s -> s
        | _ -> Alcotest.fail "job id missing"
      in
      let rec poll tries =
        if tries = 0 then Alcotest.fail "job never finished"
        else begin
          let status, body = get port ("/jobs/" ^ id) in
          check Alcotest.int "poll status" 200 status;
          let j = parse_json body in
          match Json.member "state" j with
          | Some (Json.Str ("queued" | "running")) ->
            Unix.sleepf 0.2;
            poll (tries - 1)
          | _ -> checkb "finished optimal" true (member "optimal" j = Json.Bool true)
        end
      in
      poll 300;
      let status, _ = get port "/jobs/nosuch" in
      check Alcotest.int "unknown job is 404" 404 status;
      let status, _ = get port "/nosuch" in
      check Alcotest.int "unknown endpoint is 404" 404 status;
      let status, _ = post port "/synthesize" "{not json" in
      check Alcotest.int "bad body is 400" 400 status;
      (* removed and misspelt option keys are rejected by name, never
         silently ignored *)
      List.iter
        (fun (options, key) ->
          let status, body =
            post port "/synthesize"
              (Printf.sprintf {|{"circuit":"qft:3","device":"qx2","options":%s}|} options)
          in
          check Alcotest.int (options ^ " is 400") 400 status;
          checkb (options ^ " names " ^ key) true (contains body key))
        [
          ({|{"parallel":{"share":false}}|}, "share");
          ({|{"certfy":true}|}, "certfy");
          ({|{"sat":{"chrono":64}}|}, "chrono");
          ({|{"simplify":true}|}, "simplify");
          ({|{"config":{"symetry":true}}|}, "symetry");
          ({|{"budget":{"wall_second":5}}|}, "wall_second");
          (* the daemon writes no files at client-chosen paths *)
          ({|{"certify":true,"proof_file":"/tmp/olsq2_wire.drat"}|}, "proof_file");
        ])

(* A certified fresh solve answers with the certificate it computed, and
   the run record says the certificate covers the session that found
   the optimum. *)
let test_certified_response () =
  with_server ~pool:1 ~handlers:1 (fun _server port ->
      let status, body =
        post port "/synthesize"
          {|{"circuit":"qaoa:4","device":"grid-2x2","options":{"certify":true,"incremental":true,"parallel":{"workers":1}}}|}
      in
      check Alcotest.int "certified status" 200 status;
      let j = parse_json body in
      checkb "optimal" true (member "optimal" j = Json.Bool true);
      let cert = member "certificate" j in
      checkb "certificate valid" true (member "valid" cert = Json.Bool true);
      checkb "certificate formula is the session" true (member "formula" cert = Json.Str "session");
      checkb "plan certifies on the session" true
        (member "kind" (member "certification" (member "plan" j)) = Json.Str "on_session");
      checkb "stop is optimal" true (member "reason" (member "stop" j) = Json.Str "optimal");
      List.iter
        (fun key -> checkb ("keeps " ^ key) true (Json.member key j <> None))
        [ "request_id"; "objective"; "preempted"; "iterations"; "seconds"; "queue_seconds"; "cache"; "result" ])

(* ---- request-scoped tracing and observability endpoints ---- *)

let test_request_tracing () =
  let log_path = Filename.temp_file "olsq2_access" ".jsonl" in
  let cfg =
    {
      Server.default_config with
      Server.port = 0;
      pool_workers = 1;
      handlers = 2;
      access_log = Some log_path;
    }
  in
  let s = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop s;
      try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let port = Server.port s in
      (* health + build info *)
      let status, body = get port "/healthz" in
      check Alcotest.int "healthz status" 200 status;
      let j = parse_json body in
      checkb "healthz ok" true (member "status" j = Json.Str "ok");
      checkb "healthz uptime" true (as_num (member "uptime_seconds" j) >= 0.0);
      checkb "healthz version" true
        (match member "version" j with Json.Str v -> String.length v > 0 | _ -> false);
      let status, body = get port "/buildinfo" in
      check Alcotest.int "buildinfo status" 200 status;
      let j = parse_json body in
      checkb "buildinfo commit" true
        (match member "commit" j with Json.Str c -> String.length c > 0 | _ -> false);
      check Alcotest.int "buildinfo workers" 1 (as_int (member "pool_workers" j));
      (* submit an async job, wait for it to finish, and read back its
         trace: the rid minted at submission and the trace's events *)
      let job_trace request =
        let status, body = post port "/jobs" request in
        check Alcotest.int "job accepted" 202 status;
        let id =
          match member "request_id" (parse_json body) with
          | Json.Str s -> s
          | _ -> Alcotest.fail "no job id"
        in
        let rec poll tries =
          if tries = 0 then Alcotest.fail "job never finished";
          let _, body = get port ("/jobs/" ^ id) in
          match Json.member "state" (parse_json body) with
          | Some (Json.Str ("queued" | "running")) ->
            Unix.sleepf 0.1;
            poll (tries - 1)
          | _ -> ()
        in
        poll 300;
        let status, body = get port ("/jobs/" ^ id ^ "/trace") in
        check Alcotest.int "trace status" 200 status;
        let j = parse_json body in
        let rid =
          match member "rid" j with Json.Str r -> r | _ -> Alcotest.fail "trace has no rid"
        in
        checkb "rid shape" true (String.length rid >= 2 && rid.[0] = 'r');
        let evs =
          match member "events" j with Json.Arr evs -> evs | _ -> Alcotest.fail "no events array"
        in
        checkb "trace nonempty" true (evs <> []);
        (rid, evs)
      in
      let named evs n = List.find_opt (fun e -> Json.member "name" e = Some (Json.Str n)) evs in
      (* an async job on the default worker count (the pool under
         OLSQ2_WORKERS > 1): the finished trace must show the worker-domain
         serve.job span stamped with the submitting connection's rid, and
         every event must come from that domain's buffer *)
      let rid, evs = job_trace {|{"circuit":"qaoa:4:1","device":"qx2","objective":"swaps"}|} in
      (match named evs "serve.job" with
      | None -> Alcotest.fail "no serve.job span in trace"
      | Some e -> (
        let tid = Json.member "tid" e in
        checkb "every event on the worker's tid" true
          (List.for_all (fun ev -> Json.member "tid" ev = tid) evs);
        match Json.member "attrs" e with
        | Some attrs ->
          checkb "worker span carries the connection rid" true
            (Json.member "request_id" attrs = Some (Json.Str rid))
        | None -> Alcotest.fail "serve.job span has no attrs"));
      (* with one solver worker the solve runs on the job's domain, so
         its trace also holds the solve's own sat.solve span *)
      let _, evs =
        job_trace
          {|{"circuit":"qft:3","device":"qx2","objective":"depth",
             "options":{"parallel":{"workers":1}}}|}
      in
      (match named evs "serve.job" with
      | None -> Alcotest.fail "no serve.job span in the one-worker trace"
      | Some e ->
        let tid = Json.member "tid" e in
        checkb "one-worker trace on the worker's tid" true
          (List.for_all (fun ev -> Json.member "tid" ev = tid) evs));
      checkb "trace holds the job's own sat.solve span" true
        (match named evs "sat.solve" with
        | Some e -> Json.member "type" e = Some (Json.Str "span")
        | None -> false);
      (* /metrics: per-endpoint latency histograms + cache hit ratio *)
      let _, metrics = get port "/metrics" in
      checkb "per-endpoint latency family" true
        (contains metrics "olsq2_serve_latency_jobs_submit");
      checkb "latency histogram type line" true
        (contains metrics "# TYPE olsq2_serve_latency_healthz histogram");
      checkb "cache hit ratio gauge" true (contains metrics "olsq2_serve_cache_hit_ratio");
      (* access log: one JSON line per connection, unique request ids *)
      let ic = open_in log_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let parsed = List.rev_map parse_json !lines in
      checkb "access log populated" true (List.length parsed >= 3);
      List.iter
        (fun j ->
          checkb "line has a request id" true
            (match member "request_id" j with Json.Str r -> String.length r >= 2 | _ -> false);
          checkb "line has a path" true
            (match member "path" j with Json.Str _ -> true | _ -> false);
          checkb "line has a latency" true (as_num (member "seconds" j) >= 0.0))
        parsed;
      checkb "healthz request logged" true
        (List.exists
           (fun j -> member "path" j = Json.Str "/healthz" && as_int (member "status" j) = 200)
           parsed);
      let rids =
        List.map (fun j -> match member "request_id" j with Json.Str r -> r | _ -> "") parsed
      in
      check Alcotest.int "request ids unique per connection" (List.length rids)
        (List.length (List.sort_uniq compare rids)))

(* Finished jobs stay in the done registry with their status, body and
   trace; they must not keep the solvers their runs built.  Fresh QUEKO
   problems (distinct seeds, so each is a cache miss and a real solve)
   are answered, and the live heap, measured with the jobs still
   registered, may grow by what the cache, the jobs and the tracer keep,
   not by a solver per job. *)
let test_daemon_holds_no_solver () =
  with_server ~pool:1 ~handlers:2 (fun _server port ->
      let solve seed =
        let status, _ =
          post port "/synthesize"
            (Printf.sprintf
               {|{"circuit":"queko:5:24:%d","device":"grid-3x3","objective":"depth",
                  "options":{"parallel":{"workers":1}}}|}
               seed)
        in
        check Alcotest.int "fresh solve status" 200 status
      in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      solve 100;
      let before = live_words () in
      for seed = 1 to 24 do
        solve seed
      done;
      let grown_mb = float_of_int ((live_words () - before) * (Sys.word_size / 8)) /. 1e6 in
      if grown_mb >= 4. then
        Alcotest.failf "live heap grew %.1f MB over 24 finished jobs" grown_mb;
      (* /stats and /metrics report the heap and the tracer's drops *)
      let _, body = get port "/stats" in
      let j = parse_json body in
      let gc = member "gc" j in
      checkb "stats heap_mb" true (as_num (member "heap_mb" gc) > 0.);
      checkb "stats top_heap_mb" true
        (as_num (member "top_heap_mb" gc) >= as_num (member "heap_mb" gc));
      checkb "stats trace dropped" true (as_num (member "dropped" (member "trace" j)) >= 0.);
      let _, metrics = get port "/metrics" in
      List.iter
        (fun g -> checkb ("metrics " ^ g) true (contains metrics ("olsq2_" ^ g)))
        [ "serve_heap_mb"; "serve_top_heap_mb"; "serve_trace_dropped" ])

let test_server_budget () =
  with_server ~pool:1 ~handlers:2 (fun _server port ->
      (* a tiny wall budget on a nontrivial instance: the run must come
         back promptly and unproven rather than hang *)
      let t0 = Unix.gettimeofday () in
      let status, body =
        post port "/synthesize"
          {|{"circuit":"qft:6","device":"grid-2x3","objective":"depth",
             "options":{"budget":{"wall_seconds":0.2}}}|}
      in
      check Alcotest.int "budgeted status" 200 status;
      checkb "budgeted run returns promptly" true (Unix.gettimeofday () -. t0 < 60.);
      let j = parse_json body in
      checkb "not proven optimal under 0.2s budget" true
        (member "optimal" j = Json.Bool false))

let suite =
  [
    ( "serve",
      [
        options_roundtrip;
        Alcotest.test_case "Options partial decode" `Quick test_options_partial;
        Alcotest.test_case "Options rejects malformed" `Quick test_options_bad;
        Alcotest.test_case "Protocol device fallback" `Quick test_protocol_device_fallback;
        canonical_device_invariant;
        canonical_circuit_invariant;
        Alcotest.test_case "canonical keys distinguish structures" `Quick test_canonical_distinguishes;
        Alcotest.test_case "result translation round trip" `Quick test_translate_roundtrip;
        Alcotest.test_case "cache eviction and stats" `Quick test_cache;
        Alcotest.test_case "http request parsing" `Quick test_http_parse;
        Alcotest.test_case "http rejects bad content-length" `Quick test_http_bad_length;
        Alcotest.test_case "preempt before start" `Quick test_preempt_before_start;
        Alcotest.test_case "preempt mid-run" `Slow test_preempt_mid_run;
        Alcotest.test_case "a run leaves nothing attached" `Slow test_run_leaves_nothing_attached;
        Alcotest.test_case "nested registration preempt" `Quick test_nested_registration_preempt;
        Alcotest.test_case "end-to-end concurrent load" `Slow test_end_to_end;
        Alcotest.test_case "async jobs" `Slow test_async_jobs;
        Alcotest.test_case "certified response" `Slow test_certified_response;
        Alcotest.test_case "request tracing + obs endpoints" `Slow test_request_tracing;
        Alcotest.test_case "server honors wall budget" `Slow test_server_budget;
        Alcotest.test_case "daemon holds no solver" `Slow test_daemon_holds_no_solver;
      ] );
  ]
