(* Structured observability: spans + counters + gauges over per-domain
   event buffers.

   Hot-path contract: every recording entry point starts with a single
   [t.on] branch, so permanently-instrumented code (the SAT solver, the
   encoders, the optimizer loops) costs one predictable branch per event
   when tracing is off.  Live recording appends to a buffer owned by the
   current domain (found via [Domain.DLS]), so pool workers and serve
   jobs running in parallel never contend on a lock for ordinary events; the tracer-wide
   mutex is taken only when a domain records its very first event and
   when buffers are merged for export. *)

module Stopwatch = Olsq2_util.Stopwatch

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Span | Instant | Count | Gauge | Hist

(* Log-bucketed histograms: bucket [i] counts samples in
   (2^((i-1-zero)/4), 2^((i-zero)/4)], quarter-powers of two over
   2^-20 .. 2^20, so observation is O(1), the footprint is one fixed int
   array, and quantiles carry <= ~19% relative error.  Two histograms
   add bucket-wise, which is what makes per-domain (pool-worker)
   distributions aggregate into process totals. *)
module Histogram = struct
  let quarter_octaves = 4
  let min_exp = -20 (* 2^-20 ~ 1e-6: timer resolution *)
  let max_exp = 20 (* 2^20 ~ 1e6: trail depths, counts *)

  let zero_index = -min_exp * quarter_octaves
  let n_buckets = ((max_exp - min_exp) * quarter_octaves) + 1

  type t = {
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
    counts : int array;
  }

  let create () =
    { n = 0; total = 0.0; vmin = infinity; vmax = neg_infinity; counts = Array.make n_buckets 0 }

  let bucket_of v =
    if v <= 0.0 then 0
    else begin
      let i =
        zero_index
        + int_of_float (Float.ceil (float_of_int quarter_octaves *. Float.log2 v -. 1e-9))
      in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
    end

  let bound_of i = Float.pow 2.0 (float_of_int (i - zero_index) /. float_of_int quarter_octaves)

  let observe h v =
    h.n <- h.n + 1;
    h.total <- h.total +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1

  let observe_int h v = observe h (float_of_int v)

  let count h = h.n
  let sum h = h.total
  let is_empty h = h.n = 0
  let min_value h = if h.n = 0 then nan else h.vmin
  let max_value h = if h.n = 0 then nan else h.vmax
  let mean h = if h.n = 0 then nan else h.total /. float_of_int h.n

  let percentile h p =
    if h.n = 0 then nan
    else begin
      let rank =
        let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.n)) in
        if r < 1 then 1 else if r > h.n then h.n else r
      in
      let rec walk i seen =
        if i >= n_buckets then h.vmax
        else begin
          let seen = seen + h.counts.(i) in
          if seen >= rank then bound_of i else walk (i + 1) seen
        end
      in
      let v = walk 0 0 in
      Float.min h.vmax (Float.max h.vmin v)
    end

  let copy h =
    { n = h.n; total = h.total; vmin = h.vmin; vmax = h.vmax; counts = Array.copy h.counts }

  let merge_into ~into h =
    into.n <- into.n + h.n;
    into.total <- into.total +. h.total;
    if h.vmin < into.vmin then into.vmin <- h.vmin;
    if h.vmax > into.vmax then into.vmax <- h.vmax;
    for i = 0 to n_buckets - 1 do
      into.counts.(i) <- into.counts.(i) + h.counts.(i)
    done

  let merge a b =
    let m = copy a in
    merge_into ~into:m b;
    m

  (* [before] is an earlier snapshot of [after]'s series: bucket counts
     subtract exactly; the min/max of the delta window are unknowable from
     snapshots alone, so the (conservative) observed range of [after] is
     kept. *)
  let diff ~after ~before =
    let d = copy after in
    d.n <- after.n - before.n;
    d.total <- after.total -. before.total;
    for i = 0 to n_buckets - 1 do
      d.counts.(i) <- after.counts.(i) - before.counts.(i)
    done;
    d

  let buckets h =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then acc := (bound_of i, h.counts.(i)) :: !acc
    done;
    !acc

  let pp fmt h =
    if h.n = 0 then Format.fprintf fmt "count=0"
    else
      Format.fprintf fmt "count=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g" h.n (percentile h 50.0)
        (percentile h 90.0) (percentile h 99.0) h.vmax

  let to_string h = Format.asprintf "%a" pp h
end

type event = {
  kind : kind;
  name : string;
  ts : float;
  dur : float;
  tid : int;
  depth : int;
  attrs : (string * value) list;
}

let dummy_event =
  { kind = Instant; name = ""; ts = 0.0; dur = 0.0; tid = 0; depth = 0; attrs = [] }

type buffer = {
  btid : int;
  mutable evs : event array;
  mutable len : int;
  mutable dropped : int;
  mutable stack : string list; (* open span names, innermost first *)
  mutable registered : bool;
}

type t = {
  on : bool;
  epoch : float;
  capacity : int;
  lock : Mutex.t;
  mutable buffers : buffer list;
  key : buffer Domain.DLS.key;
}

let make_tracer ~on ~capacity =
  let key =
    Domain.DLS.new_key (fun () ->
        {
          btid = (Domain.self () :> int);
          evs = [||];
          len = 0;
          dropped = 0;
          stack = [];
          registered = false;
        })
  in
  { on; epoch = Stopwatch.now (); capacity; lock = Mutex.create (); buffers = []; key }

let disabled = make_tracer ~on:false ~capacity:0

let create ?(capacity = 200_000) () = make_tracer ~on:true ~capacity

let enabled t = t.on

let elapsed t = Stopwatch.now () -. t.epoch

(* ---- ambient tracer ---- *)

let global_tracer = Atomic.make disabled
let set_global t = Atomic.set global_tracer t
let global () = Atomic.get global_tracer

(* ---- recording ---- *)

let buffer_of t =
  let b = Domain.DLS.get t.key in
  if not b.registered then begin
    b.registered <- true;
    Mutex.lock t.lock;
    t.buffers <- b :: t.buffers;
    Mutex.unlock t.lock
  end;
  b

let record t b ev =
  if b.len >= t.capacity then b.dropped <- b.dropped + 1
  else begin
    if b.len = Array.length b.evs then begin
      let cap = min t.capacity (max 256 (2 * Array.length b.evs)) in
      let evs = Array.make cap dummy_event in
      Array.blit b.evs 0 evs 0 b.len;
      b.evs <- evs
    end;
    b.evs.(b.len) <- ev;
    b.len <- b.len + 1
  end

type span = {
  sp_name : string;
  sp_start : float;
  sp_depth : int;
  sp_attrs : (string * value) list;
  sp_live : bool;
  sp_minor : float; (* Gc.quick_stat words/collections at begin_span *)
  sp_major : float;
  sp_minor_col : int;
  sp_major_col : int;
}

let null_span =
  {
    sp_name = "";
    sp_start = 0.0;
    sp_depth = 0;
    sp_attrs = [];
    sp_live = false;
    sp_minor = 0.0;
    sp_major = 0.0;
    sp_minor_col = 0;
    sp_major_col = 0;
  }

let begin_span t ?(attrs = []) name =
  if not t.on then null_span
  else begin
    let b = buffer_of t in
    let depth = List.length b.stack in
    b.stack <- name :: b.stack;
    let g = Gc.quick_stat () in
    {
      sp_name = name;
      sp_start = elapsed t;
      sp_depth = depth;
      sp_attrs = attrs;
      sp_live = true;
      (* quick_stat's minor_words lags until the next minor collection
         (it is sampled at collection time); Gc.minor_words reads the
         live allocation pointer *)
      sp_minor = Gc.minor_words ();
      sp_major = g.Gc.major_words;
      sp_minor_col = g.Gc.minor_collections;
      sp_major_col = g.Gc.major_collections;
    }
  end

let end_span t ?(attrs = []) sp =
  if t.on && sp.sp_live then begin
    let b = buffer_of t in
    (match b.stack with hd :: tl when String.equal hd sp.sp_name -> b.stack <- tl | _ -> ());
    let now = elapsed t in
    let g = Gc.quick_stat () in
    let gc_attrs =
      [
        ("gc_minor_words", Float (Float.max 0.0 (Gc.minor_words () -. sp.sp_minor)));
        ("gc_major_words", Float (Float.max 0.0 (g.Gc.major_words -. sp.sp_major)));
        ("gc_minor_collections", Int (max 0 (g.Gc.minor_collections - sp.sp_minor_col)));
        ("gc_major_collections", Int (max 0 (g.Gc.major_collections - sp.sp_major_col)));
      ]
    in
    record t b
      {
        kind = Span;
        name = sp.sp_name;
        ts = sp.sp_start;
        dur = Float.max 0.0 (now -. sp.sp_start);
        tid = b.btid;
        depth = sp.sp_depth;
        attrs = sp.sp_attrs @ attrs @ gc_attrs;
      }
  end

let with_span t ?attrs name f =
  if not t.on then f ()
  else begin
    let sp = begin_span t ?attrs name in
    Fun.protect ~finally:(fun () -> end_span t sp) f
  end

let instant t ?(attrs = []) name =
  if t.on then begin
    let b = buffer_of t in
    record t b
      {
        kind = Instant;
        name;
        ts = elapsed t;
        dur = 0.0;
        tid = b.btid;
        depth = List.length b.stack;
        attrs;
      }
  end

let count t name delta =
  if t.on then begin
    let b = buffer_of t in
    record t b
      {
        kind = Count;
        name;
        ts = elapsed t;
        dur = 0.0;
        tid = b.btid;
        depth = List.length b.stack;
        attrs = [ ("value", Int delta) ];
      }
  end

let gauge t name v =
  if t.on then begin
    let b = buffer_of t in
    record t b
      {
        kind = Gauge;
        name;
        ts = elapsed t;
        dur = 0.0;
        tid = b.btid;
        depth = List.length b.stack;
        attrs = [ ("value", Float v) ];
      }
  end

let hist t name v =
  if t.on then begin
    let b = buffer_of t in
    record t b
      {
        kind = Hist;
        name;
        ts = elapsed t;
        dur = 0.0;
        tid = b.btid;
        depth = List.length b.stack;
        attrs = [ ("value", Float v) ];
      }
  end

(* ---- reading back ---- *)

(* The order of a stable sort on [(ts, tid)], without boxing a tuple per
   comparison. *)
let by_time a b =
  let c = Float.compare a.ts b.ts in
  if c <> 0 then c else Int.compare a.tid b.tid

(* Each buffer is written only by its own domain, so a reader walks it
   without the tracer lock.  [evs] is read before [len]: a growing buffer
   swaps in a larger array, and the [min] keeps a stale pair in bounds.
   Only the kept events are consed and sorted; a reader asking for one
   job's events pays a walk of the buffers, not a copy and sort of them. *)
let events ?since ?tid t =
  Mutex.lock t.lock;
  let buffers = t.buffers in
  Mutex.unlock t.lock;
  let keep ev = match since with None -> true | Some s -> ev.ts >= s in
  let walk b kept =
    match tid with
    | Some id when id <> b.btid -> kept
    | _ ->
      let evs = b.evs in
      let kept = ref kept in
      for i = min b.len (Array.length evs) - 1 downto 0 do
        let ev = evs.(i) in
        if keep ev then kept := ev :: !kept
      done;
      !kept
  in
  (* walked back to front, so the list holds each buffer in record order
     and the stable sort keeps that order among equal (ts, tid) *)
  List.stable_sort by_time (List.fold_right walk buffers [])

let dropped t =
  Mutex.lock t.lock;
  let d = List.fold_left (fun acc b -> acc + b.dropped) 0 t.buffers in
  Mutex.unlock t.lock;
  d

let reset t =
  Mutex.lock t.lock;
  List.iter
    (fun b ->
      b.len <- 0;
      b.dropped <- 0;
      b.stack <- [])
    t.buffers;
  Mutex.unlock t.lock

type span_stat = { calls : int; total_seconds : float; max_seconds : float }

type summary = {
  span_stats : (string * span_stat) list;
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * Histogram.t) list;
  events_recorded : int;
  events_dropped : int;
}

let empty_summary =
  {
    span_stats = [];
    counters = [];
    gauges = [];
    hists = [];
    events_recorded = 0;
    events_dropped = 0;
  }

let summary ?(since = 0.0) t =
  if not t.on then empty_summary
  else begin
    let evs = events ~since t in
    let spans : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
    let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let gauges : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        match ev.kind with
        | Span ->
          let prev =
            match Hashtbl.find_opt spans ev.name with
            | Some s -> s
            | None -> { calls = 0; total_seconds = 0.0; max_seconds = 0.0 }
          in
          Hashtbl.replace spans ev.name
            {
              calls = prev.calls + 1;
              total_seconds = prev.total_seconds +. ev.dur;
              max_seconds = Float.max prev.max_seconds ev.dur;
            }
        | Count ->
          let delta = match ev.attrs with ("value", Int d) :: _ -> d | _ -> 0 in
          Hashtbl.replace counters ev.name
            (delta + Option.value ~default:0 (Hashtbl.find_opt counters ev.name))
        | Gauge ->
          let v = match ev.attrs with ("value", Float v) :: _ -> v | _ -> 0.0 in
          Hashtbl.replace gauges ev.name v (* events are ts-ordered: last wins *)
        | Hist ->
          let v = match ev.attrs with ("value", Float v) :: _ -> v | _ -> 0.0 in
          let h =
            match Hashtbl.find_opt hists ev.name with
            | Some h -> h
            | None ->
              let h = Histogram.create () in
              Hashtbl.add hists ev.name h;
              h
          in
          Histogram.observe h v
        | Instant -> ())
      evs;
    let dropped = dropped t in
    let sorted_assoc tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
    {
      span_stats =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) spans []
        |> List.sort (fun (_, a) (_, b) -> compare b.total_seconds a.total_seconds);
      counters = sorted_assoc counters;
      gauges = sorted_assoc gauges;
      hists = sorted_assoc hists;
      events_recorded = List.length evs;
      events_dropped = dropped;
    }
  end

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>-- trace summary (%d events%s) --@," s.events_recorded
    (if s.events_dropped > 0 then Printf.sprintf ", %d dropped" s.events_dropped else "");
  if s.span_stats <> [] then begin
    Format.fprintf fmt "%-28s %8s %12s %12s@," "span" "calls" "total(s)" "max(s)";
    List.iter
      (fun (name, st) ->
        Format.fprintf fmt "%-28s %8d %12.4f %12.4f@," name st.calls st.total_seconds
          st.max_seconds)
      s.span_stats
  end;
  if s.counters <> [] then begin
    Format.fprintf fmt "counters:@,";
    List.iter (fun (name, v) -> Format.fprintf fmt "  %-26s %12d@," name v) s.counters
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "gauges:@,";
    List.iter (fun (name, v) -> Format.fprintf fmt "  %-26s %12.4f@," name v) s.gauges
  end;
  if s.hists <> [] then begin
    Format.fprintf fmt "histograms:@,";
    List.iter
      (fun (name, h) -> Format.fprintf fmt "  %-26s %a@," name Histogram.pp h)
      s.hists
  end;
  Format.fprintf fmt "@]"

(* ---- Profile: span-tree self-time and allocation attribution ---- *)

module Profile = struct
  type node = {
    path : string list;
    calls : int;
    total_seconds : float;
    self_seconds : float;
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  let attr_float attrs k =
    match List.assoc_opt k attrs with
    | Some (Float f) -> f
    | Some (Int i) -> float_of_int i
    | _ -> 0.0

  let attr_int attrs k =
    match List.assoc_opt k attrs with
    | Some (Int i) -> i
    | Some (Float f) -> int_of_float f
    | _ -> 0

  (* An open frame while rebuilding one domain's span stack.  Span events
     are complete (recorded at end_span with their duration), so a frame's
     own extent is known at push time; the mutable fields accumulate what
     its direct children consumed, which is what turns inclusive span
     durations into exclusive (self) time and allocations. *)
  type frame = {
    f_path : string list; (* innermost first *)
    f_end : float;
    f_depth : int;
    f_dur : float;
    f_minor : float;
    f_major : float;
    f_mincol : int;
    f_majcol : int;
    mutable f_cdur : float;
    mutable f_cminor : float;
    mutable f_cmajor : float;
    mutable f_cmincol : int;
    mutable f_cmajcol : int;
  }

  let of_events evs =
    let tbl : (string list, node) Hashtbl.t = Hashtbl.create 64 in
    let flush fr =
      let path = List.rev fr.f_path in
      let prev =
        match Hashtbl.find_opt tbl path with
        | Some n -> n
        | None ->
          {
            path;
            calls = 0;
            total_seconds = 0.0;
            self_seconds = 0.0;
            minor_words = 0.0;
            major_words = 0.0;
            minor_collections = 0;
            major_collections = 0;
          }
      in
      Hashtbl.replace tbl path
        {
          prev with
          calls = prev.calls + 1;
          total_seconds = prev.total_seconds +. fr.f_dur;
          self_seconds = prev.self_seconds +. Float.max 0.0 (fr.f_dur -. fr.f_cdur);
          minor_words = prev.minor_words +. Float.max 0.0 (fr.f_minor -. fr.f_cminor);
          major_words = prev.major_words +. Float.max 0.0 (fr.f_major -. fr.f_cmajor);
          minor_collections = prev.minor_collections + max 0 (fr.f_mincol - fr.f_cmincol);
          major_collections = prev.major_collections + max 0 (fr.f_majcol - fr.f_cmajcol);
        }
    in
    let tids = Hashtbl.create 8 in
    List.iter
      (fun ev -> if ev.kind = Span && not (Hashtbl.mem tids ev.tid) then Hashtbl.add tids ev.tid ())
      evs;
    Hashtbl.iter
      (fun tid () ->
        let spans =
          List.filter (fun ev -> ev.kind = Span && ev.tid = tid) evs
          |> List.stable_sort (fun a b -> compare (a.ts, a.depth) (b.ts, b.depth))
        in
        let stack = ref [] in
        let rec unwind ev =
          match !stack with
          | fr :: rest when fr.f_depth >= ev.depth || fr.f_end <= ev.ts +. 1e-12 ->
            flush fr;
            stack := rest;
            unwind ev
          | _ -> ()
        in
        List.iter
          (fun ev ->
            unwind ev;
            let parent_path =
              match !stack with
              | fr :: _ ->
                fr.f_cdur <- fr.f_cdur +. ev.dur;
                fr.f_cminor <- fr.f_cminor +. attr_float ev.attrs "gc_minor_words";
                fr.f_cmajor <- fr.f_cmajor +. attr_float ev.attrs "gc_major_words";
                fr.f_cmincol <- fr.f_cmincol + attr_int ev.attrs "gc_minor_collections";
                fr.f_cmajcol <- fr.f_cmajcol + attr_int ev.attrs "gc_major_collections";
                fr.f_path
              | [] -> []
            in
            stack :=
              {
                f_path = ev.name :: parent_path;
                f_end = ev.ts +. ev.dur;
                f_depth = ev.depth;
                f_dur = ev.dur;
                f_minor = attr_float ev.attrs "gc_minor_words";
                f_major = attr_float ev.attrs "gc_major_words";
                f_mincol = attr_int ev.attrs "gc_minor_collections";
                f_majcol = attr_int ev.attrs "gc_major_collections";
                f_cdur = 0.0;
                f_cminor = 0.0;
                f_cmajor = 0.0;
                f_cmincol = 0;
                f_cmajcol = 0;
              }
              :: !stack)
          spans;
        List.iter flush !stack)
      tids;
    Hashtbl.fold (fun _ n acc -> n :: acc) tbl []
    |> List.sort (fun a b -> compare a.path b.path)

  let of_tracer t = of_events (events t)

  let total_self nodes = List.fold_left (fun acc n -> acc +. n.self_seconds) 0.0 nodes

  (* Collapsed-stack format (Brendan Gregg's flamegraph.pl /
     inferno-flamegraph input): one line per distinct stack,
     [outer;inner <self-microseconds>]. *)
  let flamegraph_of_nodes nodes =
    let buf = Buffer.create 1024 in
    List.iter
      (fun n ->
        let us = int_of_float ((n.self_seconds *. 1e6) +. 0.5) in
        Buffer.add_string buf (String.concat ";" n.path);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int us);
        Buffer.add_char buf '\n')
      nodes;
    Buffer.contents buf

  let to_flamegraph_string t = flamegraph_of_nodes (of_tracer t)

  let write_flamegraph t oc = output_string oc (to_flamegraph_string t)

  let pp_node_table fmt nodes =
    let by_self = List.sort (fun a b -> compare b.self_seconds a.self_seconds) nodes in
    Format.fprintf fmt "@[<v>%-44s %8s %10s %10s %12s %10s@," "stack" "calls" "self(s)"
      "total(s)" "minor(Mw)" "major(Mw)";
    List.iter
      (fun n ->
        Format.fprintf fmt "%-44s %8d %10.4f %10.4f %12.3f %10.3f@,"
          (String.concat ";" n.path) n.calls n.self_seconds n.total_seconds
          (n.minor_words /. 1e6) (n.major_words /. 1e6))
      by_self;
    Format.fprintf fmt "@]"
end

(* ---- JSON ---- *)

module Json = struct
  type json =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of json list
    | Obj of (string * json) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_num buf f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
    else Buffer.add_string buf "null"

  let rec add buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> escape buf s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 128 in
    add buf j;
    Buffer.contents buf

  let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

  (* Recursive-descent parser over the subset the sinks emit (which is
     all of JSON minus \u surrogate pairs, decoded best-effort). *)
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else fail "invalid literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
            advance ();
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?'
            | _ -> fail "bad escape");
            go ())
        | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing input";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

(* ---- sinks ---- *)

let value_to_json = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let kind_to_string = function
  | Span -> "span"
  | Instant -> "instant"
  | Count -> "counter"
  | Gauge -> "gauge"
  | Hist -> "hist"

let event_to_json ev =
  let attrs = List.map (fun (k, v) -> (k, value_to_json v)) ev.attrs in
  Json.Obj
    ([
       ("type", Json.Str (kind_to_string ev.kind));
       ("name", Json.Str ev.name);
       ("ts", Json.Num ev.ts);
     ]
    @ (if ev.kind = Span then [ ("dur", Json.Num ev.dur) ] else [])
    @ [ ("tid", Json.Num (float_of_int ev.tid)); ("depth", Json.Num (float_of_int ev.depth)) ]
    @ if attrs = [] then [] else [ ("attrs", Json.Obj attrs) ])

let to_jsonl_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Json.add buf (event_to_json ev);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let write_jsonl t oc = output_string oc (to_jsonl_string t)

let event_to_chrome ev =
  let args = List.map (fun (k, v) -> (k, value_to_json v)) ev.attrs in
  let us x = Json.Num (x *. 1e6) in
  let common =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str "olsq2");
      ("ts", us ev.ts);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int ev.tid));
    ]
  in
  let args_field = if args = [] then [] else [ ("args", Json.Obj args) ] in
  match ev.kind with
  | Span -> Json.Obj (common @ [ ("ph", Json.Str "X"); ("dur", us ev.dur) ] @ args_field)
  | Instant -> Json.Obj (common @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ] @ args_field)
  | Count | Gauge | Hist -> Json.Obj (common @ [ ("ph", Json.Str "C") ] @ args_field)

let to_chrome_string t =
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (List.map event_to_chrome (events t))) ])

let write_chrome t oc = output_string oc (to_chrome_string t)

(* Prometheus text exposition (version 0.0.4). *)

let prom_name s =
  String.map
    (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

(* Label-value escaping per the exposition format: backslash, quote, newline. *)
let prom_label s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prometheus_of_summary ?(namespace = "olsq2") s =
  let buf = Buffer.create 4096 in
  let metric name = prom_name (namespace ^ "_" ^ name) in
  let typ name t = Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name t) in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, v) ->
      let m = metric name ^ "_total" in
      typ m "counter";
      line "%s %d" m v)
    s.counters;
  List.iter
    (fun (name, v) ->
      let m = metric name in
      typ m "gauge";
      line "%s %s" m (prom_float v))
    s.gauges;
  if s.span_stats <> [] then begin
    let calls = metric "span_calls_total" in
    let seconds = metric "span_seconds_total" in
    typ calls "counter";
    List.iter (fun (name, st) -> line "%s{span=\"%s\"} %d" calls (prom_label name) st.calls) s.span_stats;
    typ seconds "counter";
    List.iter
      (fun (name, st) -> line "%s{span=\"%s\"} %s" seconds (prom_label name) (prom_float st.total_seconds))
      s.span_stats
  end;
  List.iter
    (fun (name, h) ->
      let m = metric name in
      typ m "histogram";
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          line "%s_bucket{le=\"%s\"} %d" m (prom_float le) !cum)
        (Histogram.buckets h);
      line "%s_bucket{le=\"+Inf\"} %d" m (Histogram.count h);
      line "%s_sum %s" m (prom_float (Histogram.sum h));
      line "%s_count %d" m (Histogram.count h))
    s.hists;
  let recorded = metric "events_recorded_total" and dropped = metric "events_dropped_total" in
  typ recorded "counter";
  line "%s %d" recorded s.events_recorded;
  typ dropped "counter";
  line "%s %d" dropped s.events_dropped;
  Buffer.contents buf

let to_prometheus_string ?namespace t = prometheus_of_summary ?namespace (summary t)
let write_prometheus ?namespace t oc = output_string oc (to_prometheus_string ?namespace t)

(* Single-series exposition lines for metrics kept outside a tracer
   (e.g. the serve daemon's atomic request counters), in the exact shape
   [prometheus_of_summary] emits. *)
let prometheus_series ?(namespace = "olsq2") ~kind ?(labels = []) name v =
  let m = prom_name (namespace ^ "_" ^ name) in
  let m = match kind with `Counter -> m ^ "_total" | `Gauge -> m in
  let labels =
    match labels with
    | [] -> ""
    | kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_label v)) kvs)
      ^ "}"
  in
  Printf.sprintf "# TYPE %s %s\n%s%s %s\n" m
    (match kind with `Counter -> "counter" | `Gauge -> "gauge")
    m labels (prom_float v)
