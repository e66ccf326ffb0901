(* Encoding and formulation configuration.

   The six configurations of the paper's Table I and the cardinality arms
   of Table II are points in this space:

     OLSQ(int)       = { formulation = Olsq;  var_encoding = Onehot; Pairwise }
     OLSQ(bv)        = { formulation = Olsq;  var_encoding = Binary; Pairwise }
     OLSQ2(int)      = { formulation = Olsq2; var_encoding = Onehot; Pairwise }
     OLSQ2(EUF+int)  = { formulation = Olsq2; var_encoding = Onehot; Inverse }
     OLSQ2(EUF+bv)   = { formulation = Olsq2; var_encoding = Binary; Inverse }
     OLSQ2(bv)       = { formulation = Olsq2; var_encoding = Binary; Pairwise }

   (the paper's EUF injectivity trick maps to the inverse-function channel;
   the integer arm maps to the one-hot lowering -- DESIGN.md §2). *)

type formulation =
  | Olsq (* original formulation with redundant space variables *)
  | Olsq2 (* succinct formulation, Improvement 1 *)

type var_encoding =
  | Lazy_int (* lazy integer theory: stands in for Z3's arithmetic path *)
  | Onehot (* direct one-hot encoding; extra ablation arm *)
  | Binary (* bit-vector encoding *)

type injectivity =
  | Pairwise (* pairwise disequalities per time step *)
  | Inverse (* inverse mapping function channel (the EUF trick) *)

type cardinality =
  | Seq_counter (* Sinz sequential counter in CNF (the paper's choice) *)
  | Totalizer (* unary merge tree; extra ablation arm *)
  | Adder (* binary adder network: the "AtMost"/pseudo-Boolean arm *)

type t = {
  formulation : formulation;
  var_encoding : var_encoding;
  injectivity : injectivity;
  cardinality : cardinality;
  simplify : bool;
      (* SatELite-style preprocessing + restart-time inprocessing of the
         CNF (lib/simplify); ignored by the Lazy_int arm, whose clause set
         grows through CEGAR refinement *)
  symmetry : bool;
      (* coupling-graph symmetry breaking: restrict the first two-qubit
         gate to automorphism-orbit representative edges (lib/device
         Symmetry).  Optimality-preserving for depth and SWAP count,
         unsound for weighted-SWAP objectives -- those callers must
         disable it. *)
}

let default =
  {
    formulation = Olsq2;
    var_encoding = Binary;
    injectivity = Pairwise;
    cardinality = Seq_counter;
    simplify = false;
    symmetry = false;
  }

let olsq_int = { default with formulation = Olsq; var_encoding = Lazy_int }

let olsq_bv = { olsq_int with var_encoding = Binary }
let olsq2_int = { olsq_int with formulation = Olsq2 }
let olsq2_euf_int = { olsq2_int with injectivity = Inverse }
let olsq2_euf_bv = { olsq2_euf_int with var_encoding = Binary }
let olsq2_bv = default

let name c =
  let base = match c.formulation with Olsq -> "OLSQ" | Olsq2 -> "OLSQ2" in
  let enc =
    match (c.injectivity, c.var_encoding) with
    | Pairwise, Lazy_int -> "int"
    | Pairwise, Onehot -> "direct"
    | Pairwise, Binary -> "bv"
    | Inverse, Lazy_int -> "EUF+int"
    | Inverse, Onehot -> "EUF+direct"
    | Inverse, Binary -> "EUF+bv"
  in
  Printf.sprintf "%s(%s)" base enc

let cardinality_name = function
  | Seq_counter -> "CNF"
  | Totalizer -> "totalizer"
  | Adder -> "AtMost"

let to_assoc c =
  [
    ("formulation", (match c.formulation with Olsq -> "olsq" | Olsq2 -> "olsq2"));
    ( "var_encoding",
      match c.var_encoding with Lazy_int -> "lazy_int" | Onehot -> "onehot" | Binary -> "binary"
    );
    ("injectivity", (match c.injectivity with Pairwise -> "pairwise" | Inverse -> "inverse"));
    ( "cardinality",
      match c.cardinality with
      | Seq_counter -> "seq_counter"
      | Totalizer -> "totalizer"
      | Adder -> "adder" );
    ("simplify", string_of_bool c.simplify);
    ("symmetry", string_of_bool c.symmetry);
  ]

(* Inverse of [to_assoc].  Missing keys take [default]'s value, so a wire
   request can override just the fields it cares about; unknown keys and
   unknown values are an error naming them, so a misspelt field is never
   a silent no-op. *)
let of_assoc assoc =
  let ( let* ) r f = Result.bind r f in
  let* () =
    let known = List.map fst (to_assoc default) in
    match List.find_opt (fun (k, _) -> not (List.mem k known)) assoc with
    | None -> Ok ()
    | Some (k, _) ->
      Error (Printf.sprintf "unknown config key %S (known: %s)" k (String.concat ", " known))
  in
  let field name ~of_string ~default =
    match List.assoc_opt name assoc with
    | None -> Ok default
    | Some s -> (
      match of_string s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s: unknown value %S" name s))
  in
  let* formulation =
    field "formulation" ~default:default.formulation ~of_string:(function
      | "olsq" -> Some Olsq
      | "olsq2" -> Some Olsq2
      | _ -> None)
  in
  let* var_encoding =
    field "var_encoding" ~default:default.var_encoding ~of_string:(function
      | "lazy_int" -> Some Lazy_int
      | "onehot" -> Some Onehot
      | "binary" -> Some Binary
      | _ -> None)
  in
  let* injectivity =
    field "injectivity" ~default:default.injectivity ~of_string:(function
      | "pairwise" -> Some Pairwise
      | "inverse" -> Some Inverse
      | _ -> None)
  in
  let* cardinality =
    field "cardinality" ~default:default.cardinality ~of_string:(function
      | "seq_counter" -> Some Seq_counter
      | "totalizer" -> Some Totalizer
      | "adder" -> Some Adder
      | _ -> None)
  in
  let* simplify =
    field "simplify" ~default:default.simplify ~of_string:bool_of_string_opt
  in
  let* symmetry =
    field "symmetry" ~default:default.symmetry ~of_string:bool_of_string_opt
  in
  Ok { formulation; var_encoding; injectivity; cardinality; simplify; symmetry }

let table1_configs =
  [ olsq_int; olsq_bv; olsq2_int; olsq2_euf_int; olsq2_euf_bv; olsq2_bv ]
