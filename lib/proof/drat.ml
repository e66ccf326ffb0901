(* DRAT proof sink: records the asserted formula plus the solver's proof
   events, and serializes / parses the two standard DRAT wire formats. *)

module Vec = Olsq2_util.Vec
module Lit = Olsq2_sat.Lit
module Solver = Olsq2_sat.Solver
module Dimacs = Olsq2_sat.Dimacs

type step = Add of Lit.t array | Delete of Lit.t array

type format = Text | Binary

type sink = {
  formula_ : Lit.t array Vec.t;
  steps_ : step Vec.t;
  mutable additions_ : int;
  mutable deletions_ : int;
}

let create () =
  {
    formula_ = Vec.create [||];
    steps_ = Vec.create (Add [||]);
    additions_ = 0;
    deletions_ = 0;
  }

(* The solver never writes to an array after handing it to a hook
   ([Solver.proof_logger]), so the sink keeps them as they come. *)
let logger sink =
  {
    Solver.on_original = (fun lits -> Vec.push sink.formula_ lits);
    Solver.on_learnt =
      (fun lits ->
        sink.additions_ <- sink.additions_ + 1;
        Vec.push sink.steps_ (Add lits));
    Solver.on_delete =
      (fun lits ->
        sink.deletions_ <- sink.deletions_ + 1;
        Vec.push sink.steps_ (Delete lits));
  }

let attach sink s =
  if Solver.n_clauses s > 0 || Solver.nvars s > 0 then
    invalid_arg "Drat.attach: solver already holds clauses; attach to a fresh solver";
  Solver.set_proof_logger s (Some (logger sink))

let formula sink = Vec.to_array sink.formula_
let steps sink = Vec.to_array sink.steps_
let additions sink = sink.additions_
let deletions sink = sink.deletions_

(* ---- text format ---- *)

let text_clause buf lits =
  Array.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l)); Buffer.add_char buf ' ') lits;
  Buffer.add_string buf "0\n"

let text_step buf = function
  | Add lits -> text_clause buf lits
  | Delete lits ->
    Buffer.add_string buf "d ";
    text_clause buf lits

(* ---- binary format (drat-trim's compressed encoding) ----

   Step prefix: 'a' for additions, 'd' for deletions.  Each DIMACS literal
   [l] maps to the unsigned [2*|l| + (if l < 0 then 1 else 0)], written as
   a little-endian base-128 varint (high bit = continuation); the byte 0
   terminates the clause. *)

let binary_varint buf u =
  let u = ref u in
  while !u >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.chr !u)

let binary_lit buf l =
  let d = Lit.to_dimacs l in
  binary_varint buf ((2 * abs d) + if d < 0 then 1 else 0)

let binary_step buf = function
  | Add lits ->
    Buffer.add_char buf 'a';
    Array.iter (binary_lit buf) lits;
    Buffer.add_char buf '\000'
  | Delete lits ->
    Buffer.add_char buf 'd';
    Array.iter (binary_lit buf) lits;
    Buffer.add_char buf '\000'

let to_buffer fmt buf sink =
  let emit = match fmt with Text -> text_step buf | Binary -> binary_step buf in
  Vec.iter emit sink.steps_

let to_string fmt sink =
  let buf = Buffer.create 4096 in
  to_buffer fmt buf sink;
  Buffer.contents buf

let write_channel fmt oc sink =
  let buf = Buffer.create 4096 in
  to_buffer fmt buf sink;
  Buffer.output_buffer oc buf

(* ---- parsing ---- *)

let parse_text s =
  let steps = ref [] in
  let handle_line line =
    let line = String.trim line in
    if String.length line = 0 then ()
    else if line.[0] = 'c' then ()
    else begin
      let delete = line.[0] = 'd' in
      let body = if delete then String.sub line 1 (String.length line - 1) else line in
      let toks = String.split_on_char ' ' body |> List.filter (fun t -> t <> "") in
      let lits = ref [] in
      let closed = ref false in
      List.iter
        (fun tok ->
          if !closed then failwith "Drat.parse: literals after terminating 0"
          else
            match int_of_string_opt tok with
            | None -> failwith (Printf.sprintf "Drat.parse: bad literal %S" tok)
            | Some 0 -> closed := true
            | Some d -> lits := Lit.of_dimacs d :: !lits)
        toks;
      if not !closed then failwith (Printf.sprintf "Drat.parse: unterminated clause %S" line);
      let lits = Array.of_list (List.rev !lits) in
      steps := (if delete then Delete lits else Add lits) :: !steps
    end
  in
  List.iter handle_line (String.split_on_char '\n' s);
  List.rev !steps

let parse_binary s =
  let n = String.length s in
  let pos = ref 0 in
  let read_byte () =
    if !pos >= n then failwith "Drat.parse: truncated binary proof";
    let b = Char.code s.[!pos] in
    incr pos;
    b
  in
  let read_varint () =
    let u = ref 0 and shift = ref 0 and cont = ref true in
    while !cont do
      let b = read_byte () in
      u := !u lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      cont := b land 0x80 <> 0
    done;
    !u
  in
  let steps = ref [] in
  while !pos < n do
    let tag = read_byte () in
    let delete =
      match Char.chr tag with
      | 'a' -> false
      | 'd' -> true
      | c -> failwith (Printf.sprintf "Drat.parse: bad step tag %C" c)
    in
    let lits = ref [] in
    let closed = ref false in
    while not !closed do
      let u = read_varint () in
      if u = 0 then closed := true
      else begin
        let d = if u land 1 = 1 then -(u lsr 1) else u lsr 1 in
        if d = 0 then failwith "Drat.parse: binary literal encodes variable 0";
        lits := Lit.of_dimacs d :: !lits
      end
    done;
    let lits = Array.of_list (List.rev !lits) in
    steps := (if delete then Delete lits else Add lits) :: !steps
  done;
  List.rev !steps

let parse fmt s = match fmt with Text -> parse_text s | Binary -> parse_binary s

let formula_to_dimacs sink =
  let num_vars = ref 0 in
  let clauses =
    Vec.fold
      (fun acc lits ->
        Array.iter (fun l -> num_vars := max !num_vars (abs (Lit.to_dimacs l))) lits;
        Array.to_list lits :: acc)
      [] sink.formula_
    |> List.rev
  in
  Dimacs.to_string { Dimacs.num_vars = !num_vars; clauses }
