(* Seeded inputs for the batch workloads, each with a reference answer
   that does not come from the solver.

   Every input is circuit text (OpenQASM) plus a device; the library sees
   only those.  Two kinds of input:

   - brickwork: two layers of nearest-neighbour CX over a chain of [n]
     program qubits.  A relabelling number picks which program qubit sits
     at each chain position, the order of the gates inside each layer and
     the direction of each CX.  Reference: depth 2 and 0 SWAPs, witnessed
     by placing the chain on a path of the device; the dependency chain
     has length 2, so nothing shallower exists.
   - QUEKO / QUEKNO constructions from [Evalbench.Factory].  Reference:
     the construction's [Known] bound; its witness schedule must validate
     on the instance parsed from the printed text.

   Search effort is heavy-tailed: a fresh random construction, or even a
   relabelling of one, changes it by up to five times (brickwork by up
   to two).  So the seed only picks which inputs of a pinned pool run,
   and the pools hold inputs of similar cost.  That keeps a workload's
   figures comparable across seeds. *)

module Circuit = Olsq2_circuit.Circuit
module Qasm = Olsq2_circuit.Qasm
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Instance = Olsq2_core.Instance
module Result_ = Olsq2_core.Result_
module Validate = Olsq2_core.Validate
module Factory = Olsq2_evalbench.Factory
module Known = Olsq2_evalbench.Known

type objective = Depth | Swaps

let objective_name = function Depth -> "depth" | Swaps -> "swaps"

type item = {
  name : string;
  device_name : string;
  device : Coupling.t;
  qasm : string;  (** the circuit text handed to [Qasm.parse] *)
  num_qubits : int;
  swap_duration : int;
  objective : objective;
  reference : Known.bound;  (** optimum of [objective] *)
  extra : (objective * Known.bound) list;  (** further bounds the answer must meet *)
}

(* ---- seeded helpers ---- *)

let rng seed index = Random.State.make [| seed; index; 0x51ed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let permutation st n =
  let p = Array.init n Fun.id in
  shuffle st p;
  p

(* Devices are built by the benchmark's set-up, once per set-up: the
   heavy-hex names resolve to the generator patterns, not to the
   library's prebuilt values. *)
let devices : (string, Coupling.t) Hashtbl.t = Hashtbl.create 8

let device name =
  match Hashtbl.find_opt devices name with
  | Some d -> d
  | None ->
    let pattern =
      match name with "heavy-hex-127" -> "heavy-hex-7x15" | "osprey" -> "heavy-hex-13x27" | n -> n
    in
    let d = Devices.by_name pattern in
    Hashtbl.replace devices name d;
    d

(* The reference check: the witness must satisfy the validity conditions
   on the instance built from the very text the library will parse. *)
let check_witness item witness =
  let inst =
    Instance.make ~swap_duration:item.swap_duration (Qasm.parse ~name:item.name item.qasm)
      item.device
  in
  match Validate.check inst witness with
  | [] -> ()
  | v :: _ ->
    failwith
      (Printf.sprintf "reference witness for %s is invalid: %s" item.name
         (Validate.violation_to_string v))

(* ---- brickwork ---- *)

(* A simple path of [n] physical qubits: depth-first search that tries
   the neighbour with the fewest free neighbours first (Warnsdorff), so
   it walks sparse lattices end to end without backtracking much. *)
let find_path dev n =
  let nq = dev.Coupling.num_qubits in
  let visited = Array.make nq false in
  let path = Array.make n 0 in
  let free q = List.length (List.filter (fun r -> not visited.(r)) (Coupling.neighbors dev q)) in
  let budget = ref 200_000 in
  let rec extend k =
    k = n
    || begin
         decr budget;
         !budget > 0
         && Coupling.neighbors dev path.(k - 1)
            |> List.filter (fun q -> not visited.(q))
            |> List.map (fun q -> (free q, q))
            |> List.sort compare
            |> List.exists (fun (_, q) ->
                   visited.(q) <- true;
                   path.(k) <- q;
                   extend (k + 1) || (visited.(q) <- false; false))
       end
  in
  let starts =
    List.init nq Fun.id
    |> List.map (fun q -> (List.length (Coupling.neighbors dev q), q))
    |> List.sort compare
  in
  if
    List.exists
      (fun (_, s) ->
        visited.(s) <- true;
        path.(0) <- s;
        extend 1 || (visited.(s) <- false; false))
      starts
  then path
  else failwith (Printf.sprintf "no path of %d qubits on %s" n dev.Coupling.name)

let brick ~relabelling ~device_name ~n =
  let st = rng 0 relabelling in
  let dev = device device_name in
  (* [at.(i)]: program qubit at chain position [i] *)
  let at = permutation st n in
  let layer start =
    let pairs = Array.of_list (List.filter (fun i -> i + 1 < n) (List.init ((n + 1) / 2) (fun k -> start + (2 * k)))) in
    shuffle st pairs;
    Array.to_list pairs
    |> List.map (fun i ->
           let a = at.(i) and b = at.(i + 1) in
           if Random.State.bool st then (a, b) else (b, a))
  in
  let first = layer 0 and second = layer 1 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n" n);
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "cx q[%d],q[%d];\n" a b)) (first @ second);
  let item =
    {
      name = Printf.sprintf "brick%d-%s-r%d" n device_name relabelling;
      device_name;
      device = dev;
      qasm = Buffer.contents buf;
      num_qubits = n;
      swap_duration = 3;
      objective = Depth;
      reference = Known.Exact 2;
      extra = [ (Swaps, Known.Exact 0) ];
    }
  in
  let path = find_path dev n in
  let row = Array.make n 0 in
  Array.iteri (fun i q -> row.(q) <- path.(i)) at;
  check_witness item
    {
      Result_.status = Result_.Optimal;
      depth = 2;
      swap_count = 0;
      mapping = [| row; row |];
      schedule = Array.of_list (List.map (fun _ -> 0) first @ List.map (fun _ -> 1) second);
      swaps = [];
      solve_seconds = 0.0;
      iterations = 0;
    };
  item

(* ---- QUEKO / QUEKNO ---- *)

type construction = {
  c_device : string;
  c_depth : int;
  c_gates : int;
  c_swaps : int;  (** 0: QUEKO (exact optimum); k > 0: QUEKNO with k woven SWAPs *)
  c_seed : int;  (** pinned construction seed *)
  c_objective : objective;
}

let factory c =
  let dial = if c.c_swaps = 0 then Factory.Zero_swap else Factory.Near_optimal c.c_swaps in
  let k =
    Factory.make ~device:c.c_device ~depth:c.c_depth ~total_gates:c.c_gates ~dial ~seed:c.c_seed ()
  in
  let circuit = k.Known.instance.Instance.circuit in
  let item =
    {
      name =
        Printf.sprintf "%s-%s-d%dg%d-f%d"
          (if c.c_swaps = 0 then "queko" else Printf.sprintf "quekno%d" c.c_swaps)
          c.c_device c.c_depth c.c_gates c.c_seed;
      device_name = c.c_device;
      device = device c.c_device;
      qasm = Qasm.print circuit;
      num_qubits = circuit.Circuit.num_qubits;
      swap_duration = k.Known.instance.Instance.swap_duration;
      objective = c.c_objective;
      reference = (match c.c_objective with Depth -> k.Known.opt_depth | Swaps -> k.Known.opt_swaps);
      extra = [];
    }
  in
  check_witness item k.Known.witness;
  item

(* ---- the batch workloads ---- *)

let queko c_device c_depth c_gates c_seed =
  { c_device; c_depth; c_gates; c_swaps = 0; c_seed; c_objective = Depth }

let quekno c_device c_depth c_gates c_swaps c_seed =
  { c_device; c_depth; c_gates; c_swaps; c_seed; c_objective = Swaps }

(* [Pool (k, pool)]: the seed picks [k] constructions of [pool], which
   run in pool order.  [Bricks (k, device, n, pool)]: likewise [k]
   brickwork circuits of [n] qubits on [device], one per pinned
   relabelling of [pool]. *)
type source = Pool of int * construction list | Bricks of int * string * int * int list

(* The lists keep each workload's figures steady across seeds: many rows
   of one size class, so the median operation lies inside that class, and
   no row far heavier than the rest, so the 99th percentile (over a few
   dozen operations, hence the slowest row) is the largest of several
   similar rows. *)

(* wide-depth: encode-led.  Wide shallow circuits on 127- and 433-qubit
   heavy-hex devices: the encoding grows with device x circuit width
   while the search stays short.  The heavy-hex-127 pool leaves out the
   15 of 40 relabellings that solved more than a third slower or faster
   than the typical one.  The two osprey rows are the slowest operations,
   so the seed does not pick them: the 99th percentile stays the slower
   of the same two. *)
let wide_depth =
  [
    Bricks
      ( 12,
        "heavy-hex-127",
        30,
        [ 2; 3; 4; 5; 6; 7; 8; 11; 13; 14; 15; 19; 21; 22; 23; 24; 25; 27; 28; 29; 30; 31; 32; 38; 40 ] );
    Bricks (2, "osprey", 20, [ 1; 12 ]);
  ]

(* deep-search: search-led.  Small devices, many gates per qubit, so the
   SAT search and the optimizer's bound loop dominate.  The QUEKNO rows
   (SWAP objective) are constructions whose woven SWAP cannot be avoided,
   so the bound loop has to prove a SWAP count of 1 optimal; the QUEKO
   rows (depth objective) are on a torus.  Every construction here
   solves in 0.12 to 0.31 s, and the middle of that range is dense, so
   which two the seed leaves out barely moves the median. *)
let deep_search =
  [
    Pool
      ( 21,
        List.map (quekno "grid-3x3" 4 16 1) [ 5; 9; 16; 17; 22; 29 ]
        @ List.map (quekno "grid-3x3" 5 20 2) [ 1; 4; 6; 13; 15; 16; 20; 22; 25; 27; 28; 31; 33; 34; 40 ]
        @ List.map (queko "torus-4x4" 7 56) [ 1; 2 ] );
  ]

(* certify: small rows of the deep-search kind, where the proof-logged
   re-solve and the DRAT check dominate, plus four brickwork rows whose
   certificates are wide rather than deep.  The brickwork rows are the
   slowest operations, so, as on wide-depth's osprey rows, the seed does
   not pick them (they are 4 of 16 relabellings that certified in about
   the same time).  The QUEKO rows (depth certificates) are the
   majority, so the median operation is one of them; the QUEKNO row
   certifies a SWAP count. *)
let certify =
  [
    Bricks (4, "heavy-hex-127", 20, [ 9; 10; 11; 13 ]);
    Pool (11, List.map (queko "grid-3x3" 5 30) [ 1; 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13 ]);
    Pool (1, [ quekno "grid-3x3" 4 16 1 1 ]);
  ]

let pick ~seed ~index k pool =
  let order = permutation (rng seed (-2 - index)) (List.length pool) in
  let chosen = Array.make (List.length pool) false in
  Array.iteri (fun rank i -> if rank < k then chosen.(i) <- true) order;
  List.filteri (fun i _ -> chosen.(i)) pool

let items ~seed sources =
  List.concat
    (List.mapi
       (fun index -> function
         | Pool (k, pool) -> List.map factory (pick ~seed ~index k pool)
         | Bricks (k, device_name, n, pool) ->
           List.map (fun relabelling -> brick ~relabelling ~device_name ~n) (pick ~seed ~index k pool))
       sources)
