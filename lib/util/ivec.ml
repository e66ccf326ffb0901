(* Growable int vector with amortized O(1) push.

   The SAT solver's trail, decision-level marks, clause-reference lists
   and conflict-analysis scratch hold only integers.  Storing into an
   [int array] is a plain write; the polymorphic {!Vec} pays the GC write
   barrier ([caml_modify]) on every push and set, and refills every
   dropped slot on shrink.  Dropped slots here keep their stale ints. *)

type t = { mutable data : int array; mutable size : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; size = 0 }
let length t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Ivec.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Ivec.set";
  Array.unsafe_set t.data i x

(* Bounds-unchecked read for hot loops; the caller guarantees [i < length t]. *)
let unsafe_get t i = Array.unsafe_get t.data i

let push t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data' = Array.make (2 * cap) 0 in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end;
  Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1

let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Ivec.shrink";
  t.size <- n

let clear t = t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.data i)
  done

(* Keep, in order, the elements [x] at index [i] for which [keep i x]
   holds; [keep] is called once per element, in index order. *)
let filteri keep t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let x = Array.unsafe_get t.data i in
    if keep i x then begin
      Array.unsafe_set t.data !j x;
      incr j
    end
  done;
  t.size <- !j

let to_array t = Array.sub t.data 0 t.size

(* In-place sort of the live prefix. *)
let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.size
