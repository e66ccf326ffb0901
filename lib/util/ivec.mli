(** Growable int vectors with amortized O(1) push: {!Vec} specialised to
    [int], whose stores skip the GC write barrier.  The SAT solver keeps
    its trail, clause-reference lists and analysis scratch in these. *)

type t

(** An empty vector; [capacity] (default 16) is the initial allocation. *)
val create : ?capacity:int -> unit -> t

val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

(** Bounds-unchecked read for hot loops. *)
val unsafe_get : t -> int -> int

val push : t -> int -> unit

(** [shrink t n] truncates to the first [n] elements. *)
val shrink : t -> int -> unit

val clear : t -> unit
val iter : (int -> unit) -> t -> unit

(** [filteri keep t] keeps, in order, the elements [x] at index [i] for
    which [keep i x] holds, calling [keep] once per element in index
    order. *)
val filteri : (int -> int -> bool) -> t -> unit

val to_array : t -> int array

(** In-place sort of the elements (the order of [Array.sort]). *)
val sort : (int -> int -> int) -> t -> unit
