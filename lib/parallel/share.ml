(* Bounded lossy clause ring.

   The ring is the standard lock-free "latest wins" broadcast: a writer
   claims a monotonically increasing sequence number with fetch_and_add
   and overwrites slot (seq mod capacity); a reader remembers the last
   sequence it saw and reads forward, clamping to the window that is
   still in the ring.  No blocking on either side, at the price of
   losing clauses under pressure — acceptable because shared clauses are
   redundant by construction. *)

module Solver = Olsq2_sat.Solver
module Lit = Olsq2_sat.Lit
module Obs = Olsq2_obs.Obs

type entry = { src : int; lits : Lit.t array }

type channel = {
  slots : entry option Atomic.t array;
  widx : int Atomic.t; (* next sequence number = total publishes *)
  capacity : int;
}

type cursor = { chan : channel; csrc : int; mutable ridx : int; mutable ndropped : int }

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  {
    slots = Array.init capacity (fun _ -> Atomic.make None);
    widx = Atomic.make 0;
    capacity;
  }

let publish chan ~src lits =
  let i = Atomic.fetch_and_add chan.widx 1 in
  Atomic.set chan.slots.(i mod chan.capacity) (Some { src; lits = Array.copy lits })

let reader chan ~src = { chan; csrc = src; ridx = Atomic.get chan.widx; ndropped = 0 }

let drain cur =
  let chan = cur.chan in
  let w = Atomic.get chan.widx in
  if w = cur.ridx then []
  else begin
    (* entries older than one full lap are gone *)
    let lo = max cur.ridx (w - chan.capacity) in
    cur.ndropped <- cur.ndropped + (lo - cur.ridx);
    let out = ref [] in
    for i = w - 1 downto lo do
      match Atomic.get chan.slots.(i mod chan.capacity) with
      | Some e when e.src <> cur.csrc -> out := e.lits :: !out
      | Some _ | None -> ()
    done;
    cur.ridx <- w;
    !out
  end

let published chan = Atomic.get chan.widx
let dropped cur = cur.ndropped

(* Filter defaults come from the ambient [Tuning] record, so a run's
   share policy travels with the rest of its search strategy; the pool
   passes its own tuning's values explicitly. *)
let endpoints chan ~src ?(var_limit = max_int) ?max_len ?max_lbd () =
  let tuning = Olsq2_sat.Tuning.ambient () in
  let max_len =
    match max_len with Some n -> n | None -> tuning.Olsq2_sat.Tuning.share_max_len
  in
  let max_lbd =
    match max_lbd with Some n -> n | None -> tuning.Olsq2_sat.Tuning.share_max_lbd
  in
  let cur = reader chan ~src in
  let sh_export lits ~lbd =
    let len = Array.length lits in
    if
      len >= 1 && len <= max_len
      && (lbd <= max_lbd || len <= 2)
      && Array.for_all (fun l -> Lit.var l < var_limit) lits
    then begin
      publish chan ~src lits;
      let obs = Obs.global () in
      if Obs.enabled obs then Obs.count obs "parallel.share.exported" 1;
      true
    end
    else false
  in
  let sh_import () =
    let cs = drain cur in
    (match cs with
    | [] -> ()
    | _ ->
      let obs = Obs.global () in
      if Obs.enabled obs then Obs.count obs "parallel.share.drained" (List.length cs));
    cs
  in
  { Solver.sh_export; sh_import }
