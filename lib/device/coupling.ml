(* Coupling graphs (paper §II-A): vertices are physical qubits, edges are
   two-qubit interaction pairs.  Distances (BFS) drive SABRE's cost
   function and the SWAP-count upper bound heuristic. *)

type t = {
  name : string;
  num_qubits : int;
  edges : (int * int) array; (* normalized with fst < snd *)
  adjacency : int list array;
  edge_index : (int * int, int) Hashtbl.t;
  mutable distances : int array array option; (* lazily computed BFS matrix *)
  mutable incident : int list array option; (* lazily computed E_p lists *)
}

let normalize_edge (p, p') = if p < p' then (p, p') else (p', p)

let make ~name ~num_qubits edge_list =
  let seen = Hashtbl.create (List.length edge_list) in
  let edges =
    List.filter_map
      (fun (p, p') ->
        if p = p' then invalid_arg "Coupling.make: self-loop";
        if p < 0 || p' < 0 || p >= num_qubits || p' >= num_qubits then
          invalid_arg "Coupling.make: qubit out of range";
        let e = normalize_edge (p, p') in
        if Hashtbl.mem seen e then None
        else begin
          Hashtbl.add seen e ();
          Some e
        end)
      edge_list
    |> Array.of_list
  in
  let adjacency = Array.make num_qubits [] in
  let edge_index = Hashtbl.create (Array.length edges) in
  Array.iteri
    (fun i (p, p') ->
      adjacency.(p) <- p' :: adjacency.(p);
      adjacency.(p') <- p :: adjacency.(p');
      Hashtbl.add edge_index (p, p') i)
    edges;
  { name; num_qubits; edges; adjacency; edge_index; distances = None; incident = None }

let num_edges t = Array.length t.edges
let edge t i = t.edges.(i)
let neighbors t p = t.adjacency.(p)

let are_adjacent t p p' = Hashtbl.mem t.edge_index (normalize_edge (p, p'))

let edge_id t p p' =
  match Hashtbl.find_opt t.edge_index (normalize_edge (p, p')) with
  | Some i -> i
  | None -> raise Not_found

(* Edges incident to qubit [p] (the paper's E_p), in ascending edge
   order.  The lists for every vertex are built on the first call. *)
let incident_edges t p =
  let lists =
    match t.incident with
    | Some l -> l
    | None ->
      let l = Array.make t.num_qubits [] in
      for i = Array.length t.edges - 1 downto 0 do
        let a, b = t.edges.(i) in
        l.(a) <- i :: l.(a);
        l.(b) <- i :: l.(b)
      done;
      t.incident <- Some l;
      l
  in
  lists.(p)

let bfs t src =
  let dist = Array.make t.num_qubits max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    List.iter
      (fun p' ->
        if dist.(p') = max_int then begin
          dist.(p') <- dist.(p) + 1;
          Queue.add p' queue
        end)
      t.adjacency.(p)
  done;
  dist

let distance_matrix t =
  match t.distances with
  | Some d -> d
  | None ->
    let d = Array.init t.num_qubits (bfs t) in
    t.distances <- Some d;
    d

let distance t p p' = (distance_matrix t).(p).(p')

let is_connected t =
  t.num_qubits = 0
  ||
  let d = bfs t 0 in
  Array.for_all (fun x -> x < max_int) d

(* Maximum pairwise distance; infinite (max_int) if disconnected. *)
let diameter t =
  let d = distance_matrix t in
  Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 d

let pp fmt t =
  Format.fprintf fmt "%s: %d qubits, %d edges" t.name t.num_qubits (num_edges t)
