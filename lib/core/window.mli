(** Device windows: solve on a connected subgraph of the device first.

    A layout on a connected subgraph of the device is a layout on the
    device.  When the device has more than twice as many physical as
    program qubits, {!Synthesis.plan} picks a {!ball} of [2 * |Q|]
    vertices and {!Synthesis.run} solves the circuit on the induced
    sub-device ({!restrict}) at the dependency-chain depth bound, then
    lifts the answer back ({!lift}).  An answer that meets the bound
    (and, for the SWAP objectives, uses no SWAP) is optimal on the whole
    device; any other outcome falls back to the full device. *)

module Coupling = Olsq2_device.Coupling

(** A window of a device: the BFS ball grown from [root]. *)
type ball = {
  root : int;  (** the highest-degree vertex, lowest id on ties *)
  vertices : int array;  (** device vertices of the ball, increasing *)
}

(** [ball device ~size] is the first [min size |P|] vertices in BFS
    order from the device's highest-degree vertex (lowest id on ties),
    neighbours taken in increasing id.  Connected by construction: every
    vertex but the root joins from a neighbour already in the ball. *)
val ball : Coupling.t -> size:int -> ball

(** A ball made concrete for one instance. *)
type t = {
  instance : Instance.t;
      (** the same circuit and SWAP duration on the induced sub-device,
          whose vertex [i] is device vertex [vertices.(i)] *)
  vertices : int array;  (** window vertex to device vertex *)
  edges : int array;  (** window edge id to device edge id *)
}

(** [restrict instance ball] builds the induced sub-device of [ball] and
    the instance on it. *)
val restrict : Instance.t -> ball -> t

(** [lift w r] translates a result on [w.instance] to the full device
    ({!Result_.map_physical} through [w.vertices]). *)
val lift : t -> Result_.t -> Result_.t
