(* olsq2-serve: synthesis-as-a-service over HTTP/1.1 + JSON.

   Architecture (one process, OCaml 5 domains):

   - [handlers] connection-handler domains share one listening socket
     (nonblocking accept behind a short select, so shutdown needs no
     wake-up tricks).  Handlers parse requests and render responses;
     synchronous /synthesize calls park on a condition variable until
     their job finishes.
   - [pool_workers] persistent {!Olsq2_parallel.Taskpool} domains run the
     actual synthesis jobs, FIFO.  Each job's budget carries a
     {!Olsq2_core.Budget.control} preemption handle, which holds a solver
     only while that solver is solving.
   - a finished job stays in the done registry (the last
     [max_done_jobs]) with its status, body and trace, not its solvers.
   - one watchdog domain scans running jobs every ~20 ms and
     {!Olsq2_core.Budget.preempt}s any that outlived its wall budget by
     the grace period — interrupting the SAT solver mid-search, not just
     between bound queries.
   - results land in a {!Cache} keyed by {!Canonical} fingerprints, so a
     relabelled resubmission of a solved instance is answered without
     touching a solver. *)

module Obs = Olsq2_obs.Obs
module Json = Obs.Json
module Budget = Olsq2_core.Budget
module Synthesis = Olsq2_core.Synthesis
module Result_ = Olsq2_core.Result_
module Taskpool = Olsq2_parallel.Taskpool

type config = {
  host : string;
  port : int;  (* 0 picks an ephemeral port; see [port] accessor *)
  pool_workers : int;
  handlers : int;
  cache_capacity : int;
  default_options : Synthesis.Options.t;
  verbose : bool;
  access_log : string option;  (* JSON-lines access log path *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8265;
    pool_workers = 1;
    handlers = 2;
    cache_capacity = 256;
    default_options = Synthesis.Options.default;
    verbose = false;
    access_log = None;
  }

let version = "1.0.0"

(* Build commit for fleet observability ([Synthesis.build_commit], the
   run record's reader); "unknown" when unset. *)
let build_commit () = Option.value ~default:"unknown" (Synthesis.build_commit ())

(* seconds past its own wall budget a run gets before the watchdog
   preempts it: the engine normally stops itself at the deadline via
   per-solve timeouts, so the watchdog only fires when a solve overruns *)
let deadline_grace = 1.0
let watchdog_interval = 0.02
let max_done_jobs = 512

type cached = { c_result : Result_.t; c_iterations : int; c_seconds : float }

type job_state = Queued | Running | Finished of int * string

type job = {
  id : string;
  rid : string;  (* request id of the connection that submitted the job *)
  mutable state : job_state;
  control : Budget.control;
      (* the watchdog's handle on the run; the run registers a solver with
         it only for one solve call, so a finished job holds none *)
  mutable deadline : float;  (* absolute; infinity until the run starts *)
  jm : Mutex.t;
  done_cv : Condition.t;
  submitted_at : float;
  mutable trace : Json.json option;  (* per-job span trace, set at finish *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  actual_port : int;
  pool : Taskpool.t;
  cache : cached Cache.t;
  jobs : (string, job) Hashtbl.t;
  done_order : string Queue.t;
  registry_m : Mutex.t;
  stopping : bool Atomic.t;
  requests : int Atomic.t;  (* HTTP requests served, any endpoint *)
  synth_requests : int Atomic.t;
  bad_requests : int Atomic.t;
  failures : int Atomic.t;  (* unexpected exceptions during jobs *)
  preemptions : int Atomic.t;
  next_id : int Atomic.t;
  next_rid : int Atomic.t;  (* request ids, minted per connection *)
  mutable handler_domains : unit Domain.t list;
  mutable watchdog_domain : unit Domain.t option;
  obs : Obs.t;
  owns_obs : bool;  (* the server installed the global tracer; stop resets it *)
  started_at : float;
  access_oc : out_channel option;  (* JSON-lines access log sink *)
  access_m : Mutex.t;
}

let port t = t.actual_port

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("olsq2-serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ---- job registry ---- *)

let new_job t ~rid =
  let id = Printf.sprintf "j%d" (Atomic.fetch_and_add t.next_id 1) in
  let job =
    {
      id;
      rid;
      state = Queued;
      control = Budget.control ();
      deadline = infinity;
      jm = Mutex.create ();
      done_cv = Condition.create ();
      submitted_at = Unix.gettimeofday ();
      trace = None;
    }
  in
  Mutex.lock t.registry_m;
  Hashtbl.replace t.jobs id job;
  Mutex.unlock t.registry_m;
  job

let finish_job t job status body =
  Mutex.lock job.jm;
  job.state <- Finished (status, body);
  Condition.broadcast job.done_cv;
  Mutex.unlock job.jm;
  Mutex.lock t.registry_m;
  Queue.push job.id t.done_order;
  while Queue.length t.done_order > max_done_jobs do
    Hashtbl.remove t.jobs (Queue.pop t.done_order)
  done;
  Mutex.unlock t.registry_m

let wait_job job =
  Mutex.lock job.jm;
  let rec loop () =
    match job.state with
    | Finished (status, body) -> (status, body)
    | Queued | Running ->
      Condition.wait job.done_cv job.jm;
      loop ()
  in
  let r = loop () in
  Mutex.unlock job.jm;
  r

let find_job t id =
  Mutex.lock t.registry_m;
  let j = Hashtbl.find_opt t.jobs id in
  Mutex.unlock t.registry_m;
  j

(* ---- running a request ---- *)

(* A fresh solve answers with its run record ({!Synthesis.report_to_json})
   under the daemon's own keys; a cache hit ran nothing, so it has no
   record. *)
let response_body ~job ~(p : Protocol.parsed) ~hit ~optimal ~iterations ~seconds ~queue_seconds
    ?(record = Json.Obj []) result =
  let head =
    [
      ("request_id", Json.Str job.id);
      ("objective", Json.Str p.Protocol.objective_tag);
      ("optimal", Json.Bool optimal);
      ("preempted", Json.Bool (Budget.preempted job.control));
      ("iterations", Json.Num (float_of_int iterations));
      ("seconds", Json.Num seconds);
      ("queue_seconds", Json.Num queue_seconds);
      ( "cache",
        Json.Obj
          [
            ("hit", Json.Bool hit);
            ( "key",
              match p.Protocol.cache_key with
              | Some k -> Json.Str (Canonical.fingerprint k)
              | None -> Json.Null );
          ] );
      ("result", match result with Some r -> Protocol.result_to_json r | None -> Json.Null);
    ]
  in
  let rest =
    match record with
    | Json.Obj kvs -> List.filter (fun (k, _) -> not (List.mem_assoc k head)) kvs
    | _ -> []
  in
  Json.to_string (Json.Obj (head @ rest))

(* How many events a stored per-job trace keeps (the SAT solver records
   one span per solve, so even deep bound refinements stay well under
   this; the cap bounds memory held by the done-job registry). *)
let max_trace_events = 2000

(* Snapshot the span/instant events this worker domain recorded during
   the job's window — the global tracer is shared, so the (tid, time
   window) pair is what scopes a job's trace.  The read walks only the
   worker's buffer and keeps only the window's events.  The request id
   rides in the surrounding [serve.job] span's attributes, which is how a
   trace retrieved via [GET /jobs/:id/trace] proves cross-domain
   propagation. *)
let capture_trace t ~tid ~t0 ~t1 =
  let evs =
    List.filter
      (fun ev ->
        (ev.Obs.kind = Obs.Span || ev.Obs.kind = Obs.Instant) && ev.Obs.ts <= t1 +. 1e-9)
      (Obs.events ~since:(t0 -. 1e-9) ~tid t.obs)
  in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  Json.Arr (List.map Obs.event_to_json (take max_trace_events evs))

let run_job t job (p : Protocol.parsed) =
  Mutex.lock job.jm;
  job.state <- Running;
  Mutex.unlock job.jm;
  let trace_tid = (Domain.self () :> int) in
  let trace_t0 = Obs.elapsed t.obs in
  let sp =
    Obs.begin_span t.obs "serve.job"
      ~attrs:[ ("request_id", Obs.Str job.rid); ("job", Obs.Str job.id) ]
  in
  let started = Unix.gettimeofday () in
  let queue_seconds = started -. job.submitted_at in
  let options =
    let o = p.Protocol.options in
    (* a request that brings no wall budget of its own still falls under
       the daemon's default one, so one stuck query cannot absorb a
       worker forever *)
    let budget =
      match
        ( o.Synthesis.Options.budget.Budget.wall_seconds,
          t.cfg.default_options.Synthesis.Options.budget.Budget.wall_seconds )
      with
      | None, Some w -> { o.Synthesis.Options.budget with Budget.wall_seconds = Some w }
      | _ -> o.Synthesis.Options.budget
    in
    { o with Synthesis.Options.budget = Budget.with_control job.control budget }
  in
  (match options.Synthesis.Options.budget.Budget.wall_seconds with
  | Some w -> job.deadline <- started +. w +. deadline_grace
  | None -> ());
  let status, body =
    match
      match p.Protocol.cache_key with
      | Some key -> Cache.find t.cache key |> Option.map (fun e -> (key, e))
      | None -> None
    with
    | Some (_, e) ->
      (* translate the canonical-space result into this submission's
         labelling; optimality is a property of the instance, so it
         transfers as-is *)
      let r =
        Canonical.of_canonical ~device:p.Protocol.drel ~circuit:p.Protocol.crel e.c_result
      in
      log t "job %s: cache hit (%.3fs queued)" job.id queue_seconds;
      ( 200,
        response_body ~job ~p ~hit:true ~optimal:true ~iterations:e.c_iterations
          ~seconds:e.c_seconds ~queue_seconds (Some r) )
    | None -> (
      match Synthesis.run ~options ~objective:p.Protocol.objective p.Protocol.instance with
      | report ->
        (match (report.Synthesis.result, report.Synthesis.optimal, p.Protocol.cache_key) with
        | Some r, true, Some key when r.Result_.status = Result_.Optimal ->
          Cache.add t.cache key
            {
              c_result =
                Canonical.to_canonical ~device:p.Protocol.drel ~circuit:p.Protocol.crel r;
              c_iterations = report.Synthesis.iterations;
              c_seconds = report.Synthesis.seconds;
            }
        | _ -> ());
        log t "job %s: solved in %.3fs (optimal=%b)" job.id report.Synthesis.seconds
          report.Synthesis.optimal;
        ( 200,
          response_body ~job ~p ~hit:false ~optimal:report.Synthesis.optimal
            ~iterations:report.Synthesis.iterations ~seconds:report.Synthesis.seconds
            ~queue_seconds
            ~record:(Synthesis.report_to_json ~options ~objective:p.Protocol.objective report)
            report.Synthesis.result )
      | exception exn ->
        Atomic.incr t.failures;
        log t "job %s: failed: %s" job.id (Printexc.to_string exn);
        (500, Protocol.error_body (Printexc.to_string exn)))
  in
  Obs.end_span t.obs sp ~attrs:[ ("status", Obs.Int status) ];
  if Obs.enabled t.obs then begin
    let trace = capture_trace t ~tid:trace_tid ~t0:trace_t0 ~t1:(Obs.elapsed t.obs) in
    Mutex.lock job.jm;
    job.trace <- Some trace;
    Mutex.unlock job.jm
  end;
  finish_job t job status body

let submit t ~rid body =
  Atomic.incr t.synth_requests;
  match Protocol.parse ~defaults:t.cfg.default_options body with
  | Error m ->
    Atomic.incr t.bad_requests;
    Error (400, Protocol.error_body m)
  | Ok p ->
    let job = new_job t ~rid in
    if Taskpool.submit t.pool (fun () -> run_job t job p) then Ok job
    else begin
      finish_job t job 503 (Protocol.error_body "server is shutting down");
      Error (503, Protocol.error_body "server is shutting down")
    end

(* ---- endpoints ---- *)

(* Major heap now and at its peak, in MB (10^6 bytes, as perfbench's
   [peak_heap_mb]), from the counters the GC keeps: no heap walk. *)
let heap_mb () =
  let g = Gc.quick_stat () in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  (mb g.Gc.heap_words, mb g.Gc.top_heap_words)

let metrics_body t =
  let s = Cache.stats t.cache in
  let heap_mb, top_heap_mb = heap_mb () in
  let series kind name v = Obs.prometheus_series ~kind name v in
  String.concat ""
    [
      Obs.to_prometheus_string t.obs;
      series `Counter "serve_requests" (float_of_int (Atomic.get t.requests));
      series `Counter "serve_synth_requests" (float_of_int (Atomic.get t.synth_requests));
      series `Counter "serve_bad_requests" (float_of_int (Atomic.get t.bad_requests));
      series `Counter "serve_failures" (float_of_int (Atomic.get t.failures));
      series `Counter "serve_preemptions" (float_of_int (Atomic.get t.preemptions));
      series `Counter "serve_cache_hits" (float_of_int s.Cache.hits);
      series `Counter "serve_cache_misses" (float_of_int s.Cache.misses);
      series `Counter "serve_cache_evictions" (float_of_int s.Cache.evictions);
      series `Gauge "serve_cache_size" (float_of_int s.Cache.size);
      series `Gauge "serve_cache_hit_ratio"
        (let lookups = s.Cache.hits + s.Cache.misses in
         if lookups = 0 then 0.0 else float_of_int s.Cache.hits /. float_of_int lookups);
      series `Gauge "serve_jobs_pending" (float_of_int (Taskpool.pending t.pool));
      series `Gauge "serve_jobs_running" (float_of_int (Taskpool.running t.pool));
      series `Counter "serve_jobs_completed" (float_of_int (Taskpool.completed t.pool));
      series `Gauge "serve_uptime_seconds" (Unix.gettimeofday () -. t.started_at);
      series `Gauge "serve_heap_mb" heap_mb;
      series `Gauge "serve_top_heap_mb" top_heap_mb;
      series `Gauge "serve_trace_dropped" (float_of_int (Obs.dropped t.obs));
    ]

let stats_body t =
  let s = Cache.stats t.cache in
  let heap_mb, top_heap_mb = heap_mb () in
  Json.to_string
    (Json.Obj
       [
         ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.started_at));
         ("requests", Json.Num (float_of_int (Atomic.get t.requests)));
         ("synth_requests", Json.Num (float_of_int (Atomic.get t.synth_requests)));
         ("bad_requests", Json.Num (float_of_int (Atomic.get t.bad_requests)));
         ("failures", Json.Num (float_of_int (Atomic.get t.failures)));
         ("preemptions", Json.Num (float_of_int (Atomic.get t.preemptions)));
         ( "cache",
           Json.Obj
             [
               ("size", Json.Num (float_of_int s.Cache.size));
               ("capacity", Json.Num (float_of_int s.Cache.capacity));
               ("hits", Json.Num (float_of_int s.Cache.hits));
               ("misses", Json.Num (float_of_int s.Cache.misses));
               ("evictions", Json.Num (float_of_int s.Cache.evictions));
             ] );
         ( "pool",
           Json.Obj
             [
               ("workers", Json.Num (float_of_int (Taskpool.workers t.pool)));
               ("pending", Json.Num (float_of_int (Taskpool.pending t.pool)));
               ("running", Json.Num (float_of_int (Taskpool.running t.pool)));
               ("completed", Json.Num (float_of_int (Taskpool.completed t.pool)));
             ] );
         ("gc", Json.Obj [ ("heap_mb", Json.Num heap_mb); ("top_heap_mb", Json.Num top_heap_mb) ]);
         ("trace", Json.Obj [ ("dropped", Json.Num (float_of_int (Obs.dropped t.obs))) ]);
       ])

let job_status_body job =
  Json.to_string
    (Json.Obj
       [
         ("request_id", Json.Str job.id);
         ( "state",
           Json.Str (match job.state with Queued -> "queued" | Running -> "running" | Finished _ -> "done")
         );
       ])

let healthz_body t =
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str "ok");
         ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.started_at));
         ("version", Json.Str version);
       ])

let buildinfo_body t =
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Str version);
         ("commit", Json.Str (build_commit ()));
         ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.started_at));
         ("started_unix", Json.Num (Float.round t.started_at));
         ("handlers", Json.Num (float_of_int (max 1 t.cfg.handlers)));
         ("pool_workers", Json.Num (float_of_int (Taskpool.workers t.pool)));
       ])

let job_trace_body job =
  Mutex.lock job.jm;
  let state = job.state and trace = job.trace in
  Mutex.unlock job.jm;
  match state with
  | Queued | Running -> Error (409, Protocol.error_body ("job " ^ job.id ^ " is not finished"))
  | Finished _ ->
    let events = match trace with Some tr -> tr | None -> Json.Arr [] in
    Ok
      (Json.to_string
         (Json.Obj
            [
              ("request_id", Json.Str job.id);
              ("rid", Json.Str job.rid);
              ("events", events);
            ]))

(* Endpoint label for per-endpoint latency histograms: a closed
   vocabulary (job ids collapse into jobs_poll/jobs_trace), so the
   metric family's cardinality stays fixed. *)
let endpoint_label meth path =
  let is_jobs = String.length path > 6 && String.sub path 0 6 = "/jobs/" in
  match (meth, path) with
  | "GET", "/healthz" -> "healthz"
  | "GET", "/metrics" -> "metrics"
  | "GET", "/stats" -> "stats"
  | "GET", "/buildinfo" -> "buildinfo"
  | "POST", "/synthesize" -> "synthesize"
  | "POST", "/jobs" -> "jobs_submit"
  | "GET", _ when is_jobs ->
    let suffix = "/trace" in
    let ls = String.length suffix and lp = String.length path in
    if lp > ls && String.sub path (lp - ls) ls = suffix then "jobs_trace" else "jobs_poll"
  | _ -> "other"

let route t ~rid (req : Http.request) =
  let path =
    match String.index_opt req.Http.target '?' with
    | Some i -> String.sub req.Http.target 0 i
    | None -> req.Http.target
  in
  match (req.Http.meth, path) with
  | "GET", "/healthz" -> (200, `Json (healthz_body t))
  | "GET", "/buildinfo" -> (200, `Json (buildinfo_body t))
  | "GET", "/metrics" -> (200, `Text (metrics_body t))
  | "GET", "/stats" -> (200, `Json (stats_body t))
  | "POST", "/synthesize" -> (
    match submit t ~rid req.Http.body with
    | Error (status, body) -> (status, `Json body)
    | Ok job ->
      let status, body = wait_job job in
      (status, `Json body))
  | "POST", "/jobs" -> (
    match submit t ~rid req.Http.body with
    | Error (status, body) -> (status, `Json body)
    | Ok job ->
      ( 202,
        `Json
          (Json.to_string
             (Json.Obj
                [ ("request_id", Json.Str job.id); ("status_url", Json.Str ("/jobs/" ^ job.id)) ]))
      ))
  | "GET", path
    when String.length path > 12
         && String.sub path 0 6 = "/jobs/"
         && String.sub path (String.length path - 6) 6 = "/trace" -> (
    let id = String.sub path 6 (String.length path - 12) in
    match find_job t id with
    | None -> (404, `Json (Protocol.error_body ("unknown job " ^ id)))
    | Some job -> (
      match job_trace_body job with
      | Ok body -> (200, `Json body)
      | Error (status, body) -> (status, `Json body)))
  | "GET", path when String.length path > 6 && String.sub path 0 6 = "/jobs/" -> (
    let id = String.sub path 6 (String.length path - 6) in
    match find_job t id with
    | None -> (404, `Json (Protocol.error_body ("unknown job " ^ id)))
    | Some job -> (
      match job.state with
      | Finished (status, body) -> (status, `Json body)
      | Queued | Running -> (200, `Json (job_status_body job))))
  | ("GET" | "POST"), _ -> (404, `Json (Protocol.error_body ("no such endpoint: " ^ path)))
  | meth, _ -> (405, `Json (Protocol.error_body ("unsupported method " ^ meth)))

(* ---- connection handling ---- *)

(* One JSON object per request on the access log: timestamp, request id,
   method, path, status, wall seconds.  The channel is shared by all
   handler domains, so line writes serialize on [access_m]. *)
let access_log_line t ~rid ~meth ~path ~status ~seconds =
  match t.access_oc with
  | None -> ()
  | Some oc ->
    let line =
      Json.to_string
        (Json.Obj
           [
             ("ts", Json.Num (Unix.gettimeofday ()));
             ("request_id", Json.Str rid);
             ("method", Json.Str meth);
             ("path", Json.Str path);
             ("status", Json.Num (float_of_int status));
             ("seconds", Json.Num seconds);
           ])
    in
    Mutex.lock t.access_m;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.access_m

let handle_connection t fd =
  (* a silent client must not wedge a handler domain forever *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0 with Unix.Unix_error _ -> ());
  (match Http.read_request fd with
  | Error m -> Http.write_response fd ~status:400 (Protocol.error_body m)
  | Ok req ->
    Atomic.incr t.requests;
    let rid = Printf.sprintf "r%d" (Atomic.fetch_and_add t.next_rid 1) in
    let label = endpoint_label req.Http.meth req.Http.target in
    let t0 = Unix.gettimeofday () in
    let sp =
      Obs.begin_span t.obs "serve.request"
        ~attrs:
          [
            ("request_id", Obs.Str rid);
            ("method", Obs.Str req.Http.meth);
            ("path", Obs.Str req.Http.target);
          ]
    in
    let status, body =
      try route t ~rid req
      with exn ->
        Atomic.incr t.failures;
        (500, `Json (Protocol.error_body (Printexc.to_string exn)))
    in
    Obs.end_span t.obs sp ~attrs:[ ("status", Obs.Int status) ];
    let seconds = Unix.gettimeofday () -. t0 in
    Obs.hist t.obs ("serve.latency." ^ label) seconds;
    access_log_line t ~rid ~meth:req.Http.meth ~path:req.Http.target ~status ~seconds;
    (match body with
    | `Json b -> Http.write_response fd ~status b
    | `Text b -> Http.write_response fd ~status ~content_type:"text/plain; version=0.0.4" b));
  try Unix.close fd with Unix.Unix_error _ -> ()

let handler_loop t () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ -> ( try handle_connection t fd with _ -> (try Unix.close fd with _ -> ()))
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> if not (Atomic.get t.stopping) then Unix.sleepf 0.05)
      | exception Unix.Unix_error _ -> if not (Atomic.get t.stopping) then Unix.sleepf 0.05);
      loop ()
    end
  in
  loop ()

let watchdog_loop t () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      let now = Unix.gettimeofday () in
      Mutex.lock t.registry_m;
      let overdue =
        Hashtbl.fold
          (fun _ job acc ->
            match job.state with
            | Running when now > job.deadline && not (Budget.preempted job.control) ->
              job :: acc
            | _ -> acc)
          t.jobs []
      in
      Mutex.unlock t.registry_m;
      List.iter
        (fun job ->
          Atomic.incr t.preemptions;
          log t "job %s: wall deadline exceeded, preempting" job.id;
          (* the watchdog domain stamps the same request id the handler
             minted, so a preemption shows up in the request's trace *)
          Obs.instant t.obs "serve.preempt"
            ~attrs:[ ("request_id", Obs.Str job.rid); ("job", Obs.Str job.id) ];
          Budget.preempt job.control)
        overdue;
      Unix.sleepf watchdog_interval;
      loop ()
    end
  in
  loop ()

(* ---- lifecycle ---- *)

let start cfg =
  (* writing to a client that hung up must be an EPIPE, not process death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let actual_port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let obs, owns_obs =
    if Obs.enabled (Obs.global ()) then (Obs.global (), false)
    else begin
      let o = Obs.create () in
      Obs.set_global o;
      (o, true)
    end
  in
  let t =
    {
      cfg;
      listen_fd;
      actual_port;
      pool = Taskpool.create ~workers:cfg.pool_workers;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      jobs = Hashtbl.create 64;
      done_order = Queue.create ();
      registry_m = Mutex.create ();
      stopping = Atomic.make false;
      requests = Atomic.make 0;
      synth_requests = Atomic.make 0;
      bad_requests = Atomic.make 0;
      failures = Atomic.make 0;
      preemptions = Atomic.make 0;
      next_id = Atomic.make 0;
      next_rid = Atomic.make 0;
      handler_domains = [];
      watchdog_domain = None;
      obs;
      owns_obs;
      started_at = Unix.gettimeofday ();
      access_oc =
        (match cfg.access_log with
        | None -> None
        | Some path ->
          Some (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path));
      access_m = Mutex.create ();
    }
  in
  t.handler_domains <-
    List.init (max 1 cfg.handlers) (fun _ -> Domain.spawn (handler_loop t));
  t.watchdog_domain <- Some (Domain.spawn (watchdog_loop t));
  log t "listening on %s:%d (%d handlers, %d workers, cache %d)" cfg.host actual_port
    (max 1 cfg.handlers) (Taskpool.workers t.pool) cfg.cache_capacity;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* preempt whatever is still running so shutdown is prompt *)
    Mutex.lock t.registry_m;
    let running =
      Hashtbl.fold (fun _ j acc -> match j.state with Running -> j :: acc | _ -> acc) t.jobs []
    in
    Mutex.unlock t.registry_m;
    List.iter (fun j -> Budget.preempt j.control) running;
    List.iter Domain.join t.handler_domains;
    t.handler_domains <- [];
    (match t.watchdog_domain with Some d -> Domain.join d | None -> ());
    t.watchdog_domain <- None;
    Taskpool.shutdown t.pool;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.access_oc with Some oc -> ( try close_out oc with Sys_error _ -> ()) | None -> ());
    if t.owns_obs then Obs.set_global Obs.disabled;
    log t "stopped"
  end

let cache_stats t = Cache.stats t.cache
