(* Test shorthands over [Synthesis.run], the library's one entry point.
   [classic] pins the re-encode oracle that the engine-level tests were
   written against; the library default is the horizon-extension
   session. *)

module Synthesis = Olsq2_core.Synthesis

let classic = Synthesis.Options.(default |> with_incremental false)

let run ?(options = classic) ?budget objective instance =
  let options =
    match budget with Some b -> Synthesis.Options.with_budget b options | None -> options
  in
  Synthesis.run ~options ~objective instance

let depth ?options ?budget instance = run ?options ?budget Synthesis.Depth instance

let swaps ?options ?budget ?warm_start instance =
  run ?options ?budget (Synthesis.Swaps { warm_start }) instance

let weighted ?options ?budget ~weights instance =
  run ?options ?budget (Synthesis.Weighted_swaps weights) instance

let tb_blocks ?options ?budget instance = run ?options ?budget Synthesis.Tb_blocks instance
let tb_swaps ?options ?budget instance = run ?options ?budget Synthesis.Tb_swaps instance

(* [classic] with a non-default encoding configuration. *)
let configured config = Synthesis.Options.with_config config classic
