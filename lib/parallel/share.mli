(** Lock-light learnt-clause sharing between solvers.

    {1 Channel}

    A {!channel} is a bounded, lossy, multi-producer multi-consumer ring
    of clauses.  Writers claim a slot with one [Atomic.fetch_and_add] and
    store unconditionally — under contention or a slow reader, old
    entries are overwritten rather than anyone blocking.  Each reader
    owns a {!cursor} and drains at its own pace; a lapped reader skips
    the overwritten span (counted as drops).  A reader can observe a
    slot mid-overwrite, in which case it sees the {e newer} clause —
    possibly twice across drains.  Duplicated or dropped clauses are both
    harmless: every published clause is implied by the shared formula, so
    the channel needs no delivery guarantee, only cheap non-blocking
    transfer.

    Clauses are never imported into a proof-logging solver (the solver
    itself enforces this; see {!Olsq2_sat.Solver.set_share}), so
    [--certify] runs keep their DRAT streams sound: certifying solvers
    still {e export} — their learnts are logged locally first — but search is
    uninfluenced by foreign clauses. *)

module Solver = Olsq2_sat.Solver
module Lit = Olsq2_sat.Lit

type channel

type cursor

(** [create ?capacity ()] makes a channel holding up to [capacity]
    (default [1024]) clauses. *)
val create : ?capacity:int -> unit -> channel

(** [publish chan ~src lits] copies [lits] into the ring, tagged with the
    publisher's [src] id so its own drains skip it.  Never blocks. *)
val publish : channel -> src:int -> Lit.t array -> unit

(** [reader chan ~src] makes a cursor for one consumer.  A cursor must
    only ever be used from one domain at a time. *)
val reader : channel -> src:int -> cursor

(** Clauses published since the last drain by sources other than the
    cursor's own, oldest first.  Lossy: entries overwritten before being
    read are skipped. *)
val drain : cursor -> Lit.t array list

(** Total clauses ever published to the channel. *)
val published : channel -> int

(** Clauses a lapped cursor had to skip, cumulative. *)
val dropped : cursor -> int

(** [endpoints chan ~src ?var_limit ?max_len ?max_lbd ()] builds solver
    share hooks over [chan]: export copies learnt clauses of at most
    [max_len] literals, LBD at most [max_lbd], and every variable below
    [var_limit] (default unrestricted); import drains the channel.
    [max_len] / [max_lbd] default to the ambient
    {!Olsq2_sat.Tuning.share_max_len} / [share_max_lbd].  Install with
    {!Olsq2_sat.Solver.set_share}. *)
val endpoints :
  channel -> src:int -> ?var_limit:int -> ?max_len:int -> ?max_lbd:int -> unit -> Solver.share
