(** Coupling graphs: physical qubits and their interaction edges. *)

type t = private {
  name : string;
  num_qubits : int;
  edges : (int * int) array;  (** normalized with [fst < snd] *)
  adjacency : int list array;
  edge_index : (int * int, int) Hashtbl.t;
  mutable distances : int array array option;
  mutable incident : int list array option;
}

(** Deduplicates and normalizes edges; rejects self-loops and
    out-of-range qubits. *)
val make : name:string -> num_qubits:int -> (int * int) list -> t

val num_edges : t -> int
val edge : t -> int -> int * int
val neighbors : t -> int -> int list
val are_adjacent : t -> int -> int -> bool

(** Edge id of a (possibly unordered) pair; raises [Not_found]. *)
val edge_id : t -> int -> int -> int

(** Edge ids incident to a qubit (the paper's E_p), ascending.  The
    lists are computed for every qubit on the first call and cached. *)
val incident_edges : t -> int -> int list

(** Single-source BFS distances. *)
val bfs : t -> int -> int array

(** All-pairs BFS distances, cached. *)
val distance_matrix : t -> int array array

val distance : t -> int -> int -> int
val is_connected : t -> bool
val diameter : t -> int
val pp : Format.formatter -> t -> unit
