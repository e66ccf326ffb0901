(* Device windows: the BFS ball a run solves on first, the induced
   sub-device and the translation of its answers back to the device. *)

module Coupling = Olsq2_device.Coupling

type ball = { root : int; vertices : int array }

let root (g : Coupling.t) =
  let degree p = List.length (Coupling.neighbors g p) in
  let best = ref 0 in
  for p = 1 to g.Coupling.num_qubits - 1 do
    if degree p > degree !best then best := p
  done;
  !best

let ball (g : Coupling.t) ~size =
  let n = g.Coupling.num_qubits in
  let size = min size n in
  let root = root g in
  let inside = Array.make n false in
  let count = ref 0 in
  let frontier = Queue.create () in
  let visit p =
    if (not inside.(p)) && !count < size then begin
      inside.(p) <- true;
      incr count;
      Queue.add p frontier
    end
  in
  visit root;
  while !count < size && not (Queue.is_empty frontier) do
    List.iter visit (List.sort compare (Coupling.neighbors g (Queue.pop frontier)))
  done;
  { root; vertices = Array.of_list (List.filter (fun p -> inside.(p)) (List.init n Fun.id)) }

type t = { instance : Instance.t; vertices : int array; edges : int array }

let restrict (inst : Instance.t) (b : ball) =
  let vertices = b.vertices in
  let device = inst.Instance.device in
  let index = Array.make device.Coupling.num_qubits (-1) in
  Array.iteri (fun i p -> index.(p) <- i) vertices;
  let sub =
    Coupling.make
      ~name:(Printf.sprintf "%s[window %d]" device.Coupling.name (Array.length vertices))
      ~num_qubits:(Array.length vertices)
      (Array.to_list device.Coupling.edges
      |> List.filter_map (fun (a, b) ->
             if index.(a) >= 0 && index.(b) >= 0 then Some (index.(a), index.(b)) else None))
  in
  {
    instance =
      Instance.make ~swap_duration:inst.Instance.swap_duration inst.Instance.circuit sub;
    vertices;
    edges =
      Array.map (fun (a, b) -> Coupling.edge_id device vertices.(a) vertices.(b)) sub.Coupling.edges;
  }

let lift w r = Result_.map_physical ~physical:w.vertices r
