(** Structured observability for the solving stack: hierarchical spans,
    monotonic counters and gauges, recorded into per-domain event buffers
    and exported as human-readable summaries, JSON-lines traces, or Chrome
    [trace_event] files (loadable in about://tracing / Perfetto).

    Design constraints (see DESIGN.md §3):
    - zero dependencies beyond [olsq2.util] (timing);
    - a *disabled* tracer costs one branch per event, so instrumentation
      can stay on permanently in the hot solving paths (verified by the
      [bench/micro] obs kernels);
    - recording is domain-safe: each domain appends to its own buffer
      (pool workers and serve jobs trace concurrently without locks on
      the hot path). *)

(** Attribute values attached to events. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Span  (** a completed span: [ts] is the start, [dur] the duration *)
  | Instant  (** a point event *)
  | Count  (** a counter increment; the delta is attribute ["value"] *)
  | Gauge  (** a gauge sample; the value is attribute ["value"] *)
  | Hist  (** a histogram observation; the sample is attribute ["value"] *)

(** Log-bucketed value distributions: constant-size (fixed bucket array),
    O(1) observation, and mergeable — two histograms recorded in different
    domains (or solver instances) add bucket-wise, which is what lets
    per-iteration solver statistics aggregate into run totals.

    Buckets are quarter-powers of two ([2^(k/4)]), covering [2^-20 ..
    2^20] (about 1e-6 to 1e6), so quantile estimates carry at most ~19%
    relative error — plenty for LBD, trail-depth and latency
    distributions.  Non-positive samples land in the lowest bucket. *)
module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  val observe_int : t -> int -> unit

  val count : t -> int

  val sum : t -> float

  (** Smallest / largest sample observed; [nan] while empty. *)
  val min_value : t -> float

  val max_value : t -> float

  val mean : t -> float

  val is_empty : t -> bool

  (** [percentile h p] for [p] in [0..100]: upper bound of the bucket
      holding the rank-[p] sample, clamped into the observed [min..max]
      range.  [nan] while empty. *)
  val percentile : t -> float -> float

  val copy : t -> t

  (** [merge_into ~into h] adds [h]'s buckets into [into]. *)
  val merge_into : into:t -> t -> unit

  (** Fresh histogram holding the sum of both. *)
  val merge : t -> t -> t

  (** [diff ~after ~before] is the distribution of samples recorded after
      the [before] snapshot was taken ([before] must be an earlier
      snapshot of [after]'s series; bucket counts subtract).  The observed
      min/max are conservatively taken from [after]. *)
  val diff : after:t -> before:t -> t

  (** Non-empty buckets, as [(inclusive upper bound, count)] pairs in
      increasing bound order (for sinks). *)
  val buckets : t -> (float * int) list

  (** One-line rendering: [count=… p50=… p90=… p99=… max=…]. *)
  val pp : Format.formatter -> t -> unit

  val to_string : t -> string
end

type event = {
  kind : kind;
  name : string;
  ts : float;  (** seconds since the tracer's epoch *)
  dur : float;  (** spans only; [0.] otherwise *)
  tid : int;  (** recording domain's id *)
  depth : int;  (** span-nesting depth at record time *)
  attrs : (string * value) list;
}

(** A tracer: either live (records events) or disabled (every operation is
    a single branch). *)
type t

(** The shared always-off tracer. *)
val disabled : t

(** Create a live tracer.  [capacity] bounds the number of events kept
    per domain (default 200_000); further events are counted as dropped. *)
val create : ?capacity:int -> unit -> t

val enabled : t -> bool

(** Seconds since the tracer was created (its event-timestamp epoch). *)
val elapsed : t -> float

(** {2 Ambient tracer}

    Instrumented modules read the process-wide tracer so tracing needs no
    API threading.  Defaults to {!disabled}; set it once at startup. *)

val set_global : t -> unit
val global : unit -> t

(** {2 Spans} *)

type span

(** The inert span returned by a disabled tracer. *)
val null_span : span

(** Open a span.  Attributes given here are merged with the ones supplied
    at {!end_span}. *)
val begin_span : t -> ?attrs:(string * value) list -> string -> span

val end_span : t -> ?attrs:(string * value) list -> span -> unit

(** [with_span t name f] runs [f] inside a span (closed even on raise). *)
val with_span : t -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

val instant : t -> ?attrs:(string * value) list -> string -> unit

(** {2 Counters and gauges} *)

(** [count t name delta] bumps the monotonic counter [name]. *)
val count : t -> string -> int -> unit

(** [gauge t name v] records the current value of gauge [name]. *)
val gauge : t -> string -> float -> unit

(** [hist t name v] records one observation of distribution [name].
    Observations recorded by different domains merge in {!summary}.  Like
    every recording entry point, a disabled tracer costs one branch. *)
val hist : t -> string -> float -> unit

(** {2 Reading back} *)

(** Recorded events, merged across domains, ordered by timestamp (ties by
    [tid], then record order).  [since] keeps events with [ts >= since];
    [tid] walks only that domain's buffer.  The filters apply while the
    buffers are walked, so only the kept events are copied and sorted. *)
val events : ?since:float -> ?tid:int -> t -> event list

(** Events refused because their domain's buffer was full, summed over
    every domain; reads the per-buffer counts, not the events. *)
val dropped : t -> int

(** Drop all recorded events (buffers stay registered). *)
val reset : t -> unit

type span_stat = { calls : int; total_seconds : float; max_seconds : float }

type summary = {
  span_stats : (string * span_stat) list;  (** sorted by total time, desc *)
  counters : (string * int) list;  (** summed deltas, sorted by name *)
  gauges : (string * float) list;  (** last sampled value, sorted by name *)
  hists : (string * Histogram.t) list;
      (** per-name distributions, merged across domains, sorted by name *)
  events_recorded : int;
  events_dropped : int;
}

val empty_summary : summary

(** Aggregate the recorded events of every domain, read as {!events}
    reads them; [since] (a {!elapsed}-style timestamp, default [0.0])
    restricts to events starting at or after it.  [events_dropped]
    counts every domain's drops, whatever [since]. *)
val summary : ?since:float -> t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** {2 Profile: span-tree self-time and allocation attribution}

    Rebuilds the call tree from recorded span events (per recording
    domain, using start time, duration and nesting depth) and aggregates
    one {!Profile.node} per distinct stack of span names.  A node's
    [self_seconds] is its spans' duration minus the duration of their
    direct child spans — the quantity a flamegraph plots — and the GC
    fields are the same exclusive accounting applied to the per-span
    allocation deltas that {!end_span} records (attributes
    [gc_minor_words], [gc_major_words], [gc_minor_collections],
    [gc_major_collections]). *)
module Profile : sig
  type node = {
    path : string list;  (** stack of span names, outermost first *)
    calls : int;
    total_seconds : float;  (** inclusive: sum of span durations *)
    self_seconds : float;  (** exclusive: total minus direct children *)
    minor_words : float;  (** exclusive minor-heap allocation *)
    major_words : float;  (** exclusive major-heap allocation *)
    minor_collections : int;
    major_collections : int;
  }

  (** Aggregate span events (other kinds are ignored) into per-stack
      nodes, sorted by path.  Events may come from several domains; each
      domain's stack is rebuilt independently. *)
  val of_events : event list -> node list

  val of_tracer : t -> node list

  (** Sum of [self_seconds] — equals total traced wall time per domain
      (the acceptance check against measured wall). *)
  val total_self : node list -> float

  (** Collapsed-stack flamegraph format ([outer;inner <self-µs>], one
      line per stack) — feed to flamegraph.pl or inferno. *)
  val flamegraph_of_nodes : node list -> string

  val to_flamegraph_string : t -> string

  val write_flamegraph : t -> out_channel -> unit

  (** Table of nodes sorted by self time: stack, calls, self/total
      seconds, minor/major megawords. *)
  val pp_node_table : Format.formatter -> node list -> unit
end

(** {2 Sinks} *)

(** One JSON object per line, e.g.
    [{"type":"span","name":"sat.solve","ts":0.000012,"dur":0.003400,
      "tid":0,"depth":2,"attrs":{"result":"sat","conflicts":41}}]. *)
val to_jsonl_string : t -> string

val write_jsonl : t -> out_channel -> unit

(** Chrome [trace_event] JSON (one [{"traceEvents":[...]}] object):
    spans become ["ph":"X"] complete events, counters/gauges ["ph":"C"].
    Load the file in about://tracing or https://ui.perfetto.dev. *)
val to_chrome_string : t -> string

val write_chrome : t -> out_channel -> unit

(** Prometheus text exposition (version 0.0.4) of a summary: counters
    become [counter] metrics (suffix [_total]), gauges [gauge] metrics,
    span stats [<ns>_span_calls_total] / [<ns>_span_seconds_total]
    counters labelled by span name, and histograms full [histogram]
    families with cumulative [_bucket{le="…"}] series plus [_sum] /
    [_count].  Metric names are sanitized to the Prometheus charset
    (dots become underscores) and prefixed with [namespace]
    (default ["olsq2"]). *)
val prometheus_of_summary : ?namespace:string -> summary -> string

(** [prometheus_of_summary] of the tracer's current {!summary}. *)
val to_prometheus_string : ?namespace:string -> t -> string

val write_prometheus : ?namespace:string -> t -> out_channel -> unit

(** [prometheus_series ~kind name v] is one complete exposition series
    ([# TYPE] comment plus sample line) for a metric kept outside any
    tracer — e.g. a server's atomic request counters — in the exact
    shape {!prometheus_of_summary} emits: counters get the [_total]
    suffix, names are sanitized and [namespace]-prefixed (default
    ["olsq2"]), label values escaped. *)
val prometheus_series :
  ?namespace:string ->
  kind:[ `Counter | `Gauge ] ->
  ?labels:(string * string) list ->
  string ->
  float ->
  string

(** Minimal JSON representation used by the sinks, with a parser so tests
    and smoke checks can validate emitted traces without external
    dependencies. *)
module Json : sig
  type json =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of json list
    | Obj of (string * json) list

  val parse : string -> (json, string) result

  (** Object field lookup ([None] on non-objects / missing keys). *)
  val member : string -> json -> json option

  val to_string : json -> string
end

(** One event in the JSON-lines schema (the shape {!to_jsonl_string}
    emits per line; used by the serve daemon's per-job trace endpoint). *)
val event_to_json : event -> Json.json
