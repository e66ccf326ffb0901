(** Formulation and encoding configuration (paper Improvements 1 and 3).

    The six configurations of Table I and the cardinality arms of Table II
    are points in this space; see DESIGN.md §2 for how the paper's
    integer/EUF encodings map onto the one-hot/inverse-channel stand-ins. *)

type formulation =
  | Olsq  (** original formulation with redundant space variables *)
  | Olsq2  (** succinct formulation (Improvement 1) *)

type var_encoding =
  | Lazy_int
      (** lazy integer theory (CEGAR over free atoms): the stand-in for
          the paper's integer-variable arm / Z3's arithmetic path *)
  | Onehot  (** direct one-hot encoding (extra ablation arm) *)
  | Binary  (** bit-vector encoding (bit-blasting arm) *)

type injectivity =
  | Pairwise  (** pairwise mapping disequalities per time step *)
  | Inverse  (** inverse mapping function channel (the EUF trick) *)

type cardinality =
  | Seq_counter  (** Sinz sequential counter in CNF (the paper's choice) *)
  | Totalizer  (** unary merge tree (extra ablation arm) *)
  | Adder  (** binary adder network (the "AtMost"/pseudo-Boolean arm) *)

type t = {
  formulation : formulation;
  var_encoding : var_encoding;
  injectivity : injectivity;
  cardinality : cardinality;
  simplify : bool;
      (** run SatELite-style preprocessing (subsumption, strengthening,
          bounded variable elimination) on the encoded CNF before search,
          plus restart-time inprocessing — {!Olsq2_simplify.Simplify}.
          Ignored by the [Lazy_int] arm, whose clause set grows through
          CEGAR refinement.  Default [false]. *)
  symmetry : bool;
      (** break coupling-graph symmetry by restricting the first
          two-qubit gate to automorphism-orbit representative edges
          ({!Olsq2_device.Symmetry.edge_orbits}).  Optimality-preserving
          for depth and SWAP-count objectives; NOT sound for
          weighted-SWAP objectives (distinct orbit members can carry
          different weights), so weighted callers must disable it.
          Default [false]. *)
}

(** OLSQ2(bv) with CNF cardinality: the paper's best configuration. *)
val default : t

val olsq_int : t
val olsq_bv : t
val olsq2_int : t
val olsq2_euf_int : t
val olsq2_euf_bv : t
val olsq2_bv : t

(** Paper-style display name, e.g. ["OLSQ2(EUF+bv)"]. *)
val name : t -> string

val cardinality_name : cardinality -> string

(** Stable key/value rendering of every field (for benchmark-report and
    metrics serialization). *)
val to_assoc : t -> (string * string) list

(** Inverse of {!to_assoc}: missing keys take {!default}'s value; unknown
    keys and unknown values are an [Error] naming them.  Round trip:
    [of_assoc (to_assoc c) = Ok c]. *)
val of_assoc : (string * string) list -> (t, string) result

(** The six Table I configurations, in the paper's column order. *)
val table1_configs : t list
