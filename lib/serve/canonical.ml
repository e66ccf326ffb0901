(* Canonical forms for cache keys.

   The serve daemon's result cache must recognize resubmissions that are
   the same synthesis problem under a different labelling: the same QAOA
   circuit with program qubits permuted, the same coupling graph with
   physical qubits permuted.  We canonicalize both sides:

   - devices by individualization-refinement canonization:
     Weisfeiler-Leman color refinement, then branching over the members
     of the smallest non-singleton color class (individualize, refine,
     recurse) and keeping the lexicographically least discrete-coloring
     edge encoding — the textbook nauty-style scheme, bounded by a work
     cap;
   - circuits by first-appearance relabelling over the gate sequence
     (invariant under any qubit permutation, because the gate order and
     per-gate operand order are what define first appearance).

   Within the work cap the device form is exactly canonical (the serve
   tests assert permutation-invariance by property); if a pathological
   graph exhausts the cap, the best encoding found so far is used, which
   only costs cache HITS, never correctness: the cache compares full
   canonical key strings for equality, so an imperfect canonical form
   (or an FNV collision) can make two equivalent submissions miss each
   other, and nothing else. *)

module Circuit = Olsq2_circuit.Circuit
module Gate = Olsq2_circuit.Gate
module Coupling = Olsq2_device.Coupling
module Result_ = Olsq2_core.Result_

type relabeling = { fwd : int array; inv : int array }

let inverse fwd =
  let inv = Array.make (Array.length fwd) (-1) in
  Array.iteri (fun old nw -> inv.(nw) <- old) fwd;
  inv

let identity n = { fwd = Array.init n Fun.id; inv = Array.init n Fun.id }

(* ---- device canonicalization ---- *)

(* The WL-refinement / individualization-refinement core lives in
   [Olsq2_device.Symmetry] (the encoder's symmetry breaking shares it);
   this module keeps the cache-key assembly and memoization. *)
module Symmetry = Olsq2_device.Symmetry

type device_canon = { dkey : string; drel : relabeling }

let canonize (g : Coupling.t) = Symmetry.canonize g

(* Canonizing a 100+ qubit device costs real work, and serve workloads
   resubmit the same few devices constantly — memoize on the raw
   (pre-canonical) encoding, which distinguishes labelings but keeps the
   common named-device case O(1) after the first request. *)
let device_memo : (string, device_canon) Hashtbl.t = Hashtbl.create 16
let device_memo_m = Mutex.create ()

let device_uncached (g : Coupling.t) =
  let n = g.Coupling.num_qubits in
  let enc, pos = canonize g in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "d%d:" n);
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "%d-%d;" a b)) enc;
  { dkey = Buffer.contents buf; drel = { fwd = pos; inv = inverse pos } }

let device (g : Coupling.t) =
  let raw =
    Printf.sprintf "%d:%s" g.Coupling.num_qubits
      (String.concat ";"
         (Array.to_list g.Coupling.edges
         |> List.sort compare
         |> List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b)))
  in
  Mutex.lock device_memo_m;
  let hit = Hashtbl.find_opt device_memo raw in
  Mutex.unlock device_memo_m;
  match hit with
  | Some d -> d
  | None ->
    let d = device_uncached g in
    Mutex.lock device_memo_m;
    if Hashtbl.length device_memo > 256 then Hashtbl.reset device_memo;
    Hashtbl.replace device_memo raw d;
    Mutex.unlock device_memo_m;
    d

(* ---- circuit canonicalization ---- *)

type circuit_canon = { ckey : string; crel : relabeling }

let circuit (c : Circuit.t) =
  let n = c.Circuit.num_qubits in
  let fwd = Array.make n (-1) in
  let next = ref 0 in
  let visit q =
    if fwd.(q) < 0 then begin
      fwd.(q) <- !next;
      incr next
    end
  in
  Array.iter
    (fun (g : Gate.t) ->
      match g.Gate.operands with
      | Gate.One q -> visit q
      | Gate.Two (a, b) ->
        visit a;
        visit b)
    c.Circuit.gates;
  (* qubits no gate touches: appended in submitted order, so the key is
     still a pure function of the structure the solver sees *)
  for q = 0 to n - 1 do
    visit q
  done;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "c%d:" n);
  Array.iter
    (fun (g : Gate.t) ->
      match g.Gate.operands with
      | Gate.One q -> Buffer.add_string buf (Printf.sprintf "s%d;" fwd.(q))
      | Gate.Two (a, b) ->
        (* layout synthesis treats two-qubit gates symmetrically (the
           gate runs on an edge, direction-free), so the key may too *)
        let a = fwd.(a) and b = fwd.(b) in
        let a, b = if a < b then (a, b) else (b, a) in
        Buffer.add_string buf (Printf.sprintf "t%d-%d;" a b))
    c.Circuit.gates;
  { ckey = Buffer.contents buf; crel = { fwd; inv = inverse fwd } }

(* ---- fingerprint ---- *)

(* FNV-1a, the same construction lib/parallel's Share uses for CNF
   fingerprints; used for request ids and metric labels, never for cache
   equality (full keys are compared). *)
let fingerprint s =
  let open Int64 in
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun ch -> h := mul (logxor !h (of_int (Char.code ch))) prime) s;
  Printf.sprintf "%016Lx" !h

(* ---- result translation ---- *)

(* Results are stored in canonical space and translated per request
   ([Result_.map_physical]).  With [cfwd] mapping submitted program
   qubits to canonical ones and [dfwd] submitted physical qubits to
   canonical ones:
     mapping_canon.(t).(cfwd q) = dfwd.(mapping_sub.(t).(q)) *)

let to_canonical ~device:(d : relabeling) ~circuit:(c : relabeling) r =
  Result_.map_physical ~physical:d.fwd ~program:c.fwd r

let of_canonical ~device:(d : relabeling) ~circuit:(c : relabeling) r =
  (* inverse direction: canonical row index cq corresponds to submitted
     qubit c.inv.(cq); express it as a forward map from canonical space *)
  Result_.map_physical ~physical:d.inv ~program:c.inv r
