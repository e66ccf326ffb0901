(** The olsq2-serve daemon: layout synthesis as a service.

    HTTP/1.1 + JSON over plain [Unix] sockets.  Endpoints:

    - [POST /synthesize] — synchronous: body per README "Serving"
      (circuit, device, objective, serialized {!Olsq2_core.Synthesis.Options});
      responds when the run finishes (or is answered from cache).
    - [POST /jobs] — asynchronous: [202] with a job id immediately.
    - [GET /jobs/ID] — job state, or the finished response verbatim.
    - [GET /jobs/ID/trace] — the finished job's span trace (JSON-lines
      event objects in an ["events"] array, including the worker-domain
      [serve.job] span stamped with the submitting connection's request
      id); [409] while the job is queued or running.
    - [GET /healthz] (status, uptime, version),
      [GET /buildinfo] (version, build commit from [OLSQ2_BUILD_COMMIT],
      uptime, domain counts), [GET /metrics] (Prometheus text),
      [GET /stats] (JSON).

    Request-scoped tracing: every connection is minted a request id
    ([r<n>]) that rides through the handler's [serve.request] span, the
    worker's [serve.job] span, and any watchdog [serve.preempt] instant,
    so one id links all three domains' events.  Per-endpoint request
    latencies land in [serve.latency.<endpoint>] histograms (a closed
    label vocabulary) and the cache hit ratio in the
    [olsq2_serve_cache_hit_ratio] gauge, both on [/metrics].  With
    [access_log] set, each request appends one JSON line (ts, request
    id, method, path, status, seconds).

    Requests run on a persistent worker-domain pool; each run's budget
    carries a preemption control that a watchdog domain fires (via
    {!Olsq2_core.Budget.preempt}, which interrupts the SAT solver
    mid-search) when the wall budget is overrun; the control holds a
    solver only while it solves, so a finished job keeps its status,
    body and trace and no solver.  [/stats] reports the major heap
    ([gc.heap_mb], [gc.top_heap_mb]) and the events the tracer refused
    once full ([trace.dropped]), and [/metrics] the same as gauges.
    Proven-optimal results are cached under {!Canonical} keys, so
    isomorphic resubmissions — including relabelled ones — are answered
    without solving. *)

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port (tests); see {!port} *)
  pool_workers : int;  (** synthesis worker domains *)
  handlers : int;  (** connection handler domains *)
  cache_capacity : int;
  default_options : Olsq2_core.Synthesis.Options.t;
      (** applied to requests that carry no ["options"] object; its wall
          budget additionally backstops requests whose own options have
          none *)
  verbose : bool;  (** log request lifecycle on stderr *)
  access_log : string option;
      (** append a JSON line per request to this path ([None]: no log) *)
}

(** 127.0.0.1:8265, 1 worker, 2 handlers, cache 256, library default
    options, no access log. *)
val default_config : config

type t

(** Bind, listen, spawn handler/worker/watchdog domains, and return
    immediately.  Also ignores [SIGPIPE] process-wide (a client hangup
    must not kill the daemon). *)
val start : config -> t

(** The actually bound port (== [config.port] unless it was [0]). *)
val port : t -> int

(** Graceful shutdown: preempt running jobs, drain the queue, join every
    domain.  Idempotent. *)
val stop : t -> unit

val cache_stats : t -> Cache.stats
