(* Tests for the observability layer (lib/obs) and the Synthesis facade
   built on top of it: span nesting, counter aggregation, JSON-lines and
   Chrome trace export, disabled-tracer no-op behavior, domain safety,
   and facade/engine equivalence. *)

module Obs = Olsq2_obs.Obs
module Json = Olsq2_obs.Obs.Json
module Core = Olsq2_core
module Instance = Core.Instance
module Optimizer = Core.Optimizer
module Synthesis = Core.Synthesis
module Result_ = Core.Result_
module Devices = Olsq2_device.Devices
module B = Olsq2_benchgen

(* Run [f] with a fresh live tracer installed globally; always restore the
   disabled tracer so other suites stay untraced. *)
let with_global_tracer f =
  let t = Obs.create () in
  Obs.set_global t;
  Fun.protect ~finally:(fun () -> Obs.set_global Obs.disabled) (fun () -> f t)

(* ---- spans ---- *)

let test_span_nesting () =
  let t = Obs.create () in
  Obs.with_span t "outer" (fun () ->
      Obs.with_span t "inner" (fun () -> ignore (Sys.opaque_identity 42)));
  let evs = Obs.events t in
  Alcotest.(check int) "two spans" 2 (List.length evs);
  match
    ( List.find_opt (fun e -> e.Obs.name = "outer") evs,
      List.find_opt (fun e -> e.Obs.name = "inner") evs )
  with
  | Some outer, Some inner ->
    Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
    Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
    Alcotest.(check bool) "inner starts after outer" true (inner.Obs.ts >= outer.Obs.ts);
    Alcotest.(check bool) "inner contained in outer" true
      (inner.Obs.ts +. inner.Obs.dur <= outer.Obs.ts +. outer.Obs.dur +. 1e-9)
  | _ -> Alcotest.fail "expected exactly outer+inner spans"

let test_span_closed_on_raise () =
  let t = Obs.create () in
  (try Obs.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.events t with
  | [ e ] ->
    Alcotest.(check string) "span recorded despite raise" "boom" e.Obs.name;
    Alcotest.(check int) "stack unwound" 0
      (let sp = Obs.begin_span t "probe" in
       Obs.end_span t sp;
       match Obs.events t with
       | _ :: [ probe ] -> probe.Obs.depth
       | _ -> -1)
  | es -> Alcotest.failf "expected one span, got %d events" (List.length es)

let test_counter_deltas () =
  let t = Obs.create () in
  Obs.count t "conflicts" 5;
  Obs.count t "conflicts" 7;
  Obs.count t "restarts" 1;
  Obs.gauge t "clauses" 10.0;
  Obs.gauge t "clauses" 25.0;
  let s = Obs.summary t in
  Alcotest.(check (list (pair string int)))
    "counters summed and sorted" [ ("conflicts", 12); ("restarts", 1) ] s.Obs.counters;
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauge keeps last sample" [ ("clauses", 25.0) ] s.Obs.gauges;
  Alcotest.(check int) "events recorded" 5 s.Obs.events_recorded;
  Alcotest.(check int) "no drops" 0 s.Obs.events_dropped

let test_summary_since () =
  let t = Obs.create () in
  Obs.count t "early" 1;
  (* the clock has finite resolution: advance past the early event's stamp *)
  let rec advance t0 =
    let e = Obs.elapsed t in
    if e > t0 then e else advance t0
  in
  let cut = advance (Obs.elapsed t) in
  Obs.count t "late" 1;
  let s = Obs.summary ~since:cut t in
  Alcotest.(check (list (pair string int))) "only late events" [ ("late", 1) ] s.Obs.counters

let test_capacity_drops () =
  let t = Obs.create ~capacity:4 () in
  for _ = 1 to 10 do
    Obs.count t "tick" 1
  done;
  let s = Obs.summary t in
  Alcotest.(check int) "kept at capacity" 4 s.Obs.events_recorded;
  Alcotest.(check int) "rest counted as dropped" 6 s.Obs.events_dropped

(* Capacity is a per-domain bound: each domain fills (and overflows) its
   own buffer, the drop counts are exact per domain, and events admitted
   before the overflow keep full fidelity in the summary. *)
let test_capacity_drops_per_domain () =
  let t = Obs.create ~capacity:4 () in
  let work tag () =
    Obs.with_span t ("keep." ^ tag) (fun () -> ());
    for _ = 1 to 9 do
      Obs.count t ("tick." ^ tag) 1
    done
  in
  let d = Domain.spawn (work "b") in
  work "a" ();
  Domain.join d;
  let s = Obs.summary t in
  Alcotest.(check int) "each domain keeps its own 4" 8 s.Obs.events_recorded;
  Alcotest.(check int) "6 dropped in each domain" 12 s.Obs.events_dropped;
  List.iter
    (fun tag ->
      match List.assoc_opt ("keep." ^ tag) s.Obs.span_stats with
      | Some st -> Alcotest.(check int) ("span keep." ^ tag ^ " retained") 1 st.Obs.calls
      | None -> Alcotest.failf "span keep.%s lost to overflow" tag)
    [ "a"; "b" ];
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun e ->
      Hashtbl.replace by_tid e.Obs.tid
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_tid e.Obs.tid)))
    (Obs.events t);
  Alcotest.(check int) "two recording domains" 2 (Hashtbl.length by_tid);
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "domain buffer at capacity" 4 n) by_tid

(* ---- histograms ---- *)

module Hist = Obs.Histogram

let test_histogram_basics () =
  let h = Hist.create () in
  Alcotest.(check bool) "fresh is empty" true (Hist.is_empty h);
  Alcotest.(check bool) "empty percentile is nan" true (Float.is_nan (Hist.percentile h 50.0));
  for i = 1 to 100 do
    Hist.observe_int h i
  done;
  Alcotest.(check int) "count" 100 (Hist.count h);
  Alcotest.(check (float 1e-9)) "sum is exact" 5050.0 (Hist.sum h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Hist.mean h);
  (* quarter-octave buckets: quantiles within ~19% relative error *)
  let p50 = Hist.percentile h 50.0 in
  Alcotest.(check bool) "p50 near the median" true (p50 >= 40.0 && p50 <= 60.0);
  let p90 = Hist.percentile h 90.0 in
  Alcotest.(check bool) "p90 near rank 90" true (p90 >= 72.0 && p90 <= 108.0);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 100.0 (Hist.percentile h 100.0);
  let p0 = Hist.percentile h 0.0 in
  Alcotest.(check bool) "p0 clamps near min" true (p0 >= 1.0 && p0 <= 1.2);
  Alcotest.(check bool) "quantiles are monotone" true (p0 <= p50 && p50 <= p90);
  let bucket_total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.buckets h) in
  Alcotest.(check int) "bucket counts cover every sample" 100 bucket_total;
  let bounds = List.map fst (Hist.buckets h) in
  Alcotest.(check bool) "bucket bounds increase" true (List.sort compare bounds = bounds)

let test_histogram_merge_diff () =
  let a = Hist.create () and b = Hist.create () in
  for i = 1 to 10 do
    Hist.observe_int a i
  done;
  for i = 101 to 110 do
    Hist.observe_int b i
  done;
  let m = Hist.merge a b in
  Alcotest.(check int) "merged count" 20 (Hist.count m);
  Alcotest.(check (float 1e-9)) "merged min" 1.0 (Hist.min_value m);
  Alcotest.(check (float 1e-9)) "merged max" 110.0 (Hist.max_value m);
  Alcotest.(check (float 1e-9)) "merged sum" 1110.0 (Hist.sum m);
  Alcotest.(check int) "merge leaves inputs alone" 10 (Hist.count a);
  let before = Hist.copy a in
  for i = 1 to 5 do
    Hist.observe_int a (1000 * i)
  done;
  let d = Hist.diff ~after:a ~before in
  Alcotest.(check int) "diff keeps only the new samples" 5 (Hist.count d);
  Alcotest.(check (float 1e-9)) "diff sum" 15000.0 (Hist.sum d);
  Alcotest.(check bool) "diff p50 in the new range" true (Hist.percentile d 50.0 >= 1000.0)

(* [Obs.hist] events recorded in different domains merge per name in the
   summary, and export as their own JSON-lines event type. *)
let test_hist_events_merge () =
  let t = Obs.create () in
  let work lo () =
    for i = lo to lo + 9 do
      Obs.hist t "lbd" (float_of_int i)
    done
  in
  let d = Domain.spawn (work 100) in
  work 1 ();
  Domain.join d;
  let s = Obs.summary t in
  (match List.assoc_opt "lbd" s.Obs.hists with
  | None -> Alcotest.fail "summary has no merged histogram"
  | Some h ->
    Alcotest.(check int) "samples from both domains" 20 (Hist.count h);
    Alcotest.(check (float 1e-9)) "min from this domain" 1.0 (Hist.min_value h);
    Alcotest.(check (float 1e-9)) "max from the spawned domain" 109.0 (Hist.max_value h));
  let hist_lines =
    String.split_on_char '\n' (Obs.to_jsonl_string t)
    |> List.filter (fun line ->
           match Json.parse line with
           | Ok j -> Json.member "type" j = Some (Json.Str "hist")
           | Error _ -> false)
  in
  Alcotest.(check int) "one jsonl line per observation" 20 (List.length hist_lines)

let test_prometheus_export () =
  let t = Obs.create () in
  Obs.count t "sat.conflicts" 5;
  Obs.count t "sat.conflicts" 7;
  Obs.gauge t "clauses" 42.0;
  Obs.with_span t "solve" (fun () -> ());
  Obs.hist t "lbd" 3.0;
  Obs.hist t "lbd" 5.0;
  Obs.hist t "lbd" 70.0;
  let lines = String.split_on_char '\n' (Obs.to_prometheus_string t) in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter sanitized, namespaced, totalled" true
    (has "olsq2_sat_conflicts_total 12");
  Alcotest.(check bool) "counter TYPE comment" true
    (has "# TYPE olsq2_sat_conflicts_total counter");
  Alcotest.(check bool) "gauge" true (has "olsq2_clauses 42");
  Alcotest.(check bool) "span calls series" true (has {|olsq2_span_calls_total{span="solve"} 1|});
  Alcotest.(check bool) "histogram TYPE comment" true (has "# TYPE olsq2_lbd histogram");
  Alcotest.(check bool) "+Inf bucket counts everything" true
    (has {|olsq2_lbd_bucket{le="+Inf"} 3|});
  Alcotest.(check bool) "histogram _count" true (has "olsq2_lbd_count 3");
  Alcotest.(check bool) "histogram _sum" true (has "olsq2_lbd_sum 78");
  (* bucket series must be cumulative (non-decreasing) *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        let prefix = "olsq2_lbd_bucket{" in
        if String.length l > String.length prefix && String.sub l 0 (String.length prefix) = prefix
        then
          match String.rindex_opt l ' ' with
          | Some i -> int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "several bucket series" true (List.length bucket_counts >= 3);
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  Alcotest.(check bool) "buckets cumulative" true (monotone bucket_counts);
  (* namespace override flows through *)
  Alcotest.(check bool) "namespace override" true
    (List.mem "acme_sat_conflicts_total 12"
       (String.split_on_char '\n' (Obs.to_prometheus_string ~namespace:"acme" t)))

(* ---- disabled tracer ---- *)

let test_disabled_noop () =
  let t = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled t);
  let sp = Obs.begin_span t "x" ~attrs:[ ("a", Obs.Int 1) ] in
  Obs.end_span t sp;
  Obs.instant t "y";
  Obs.count t "c" 3;
  Obs.gauge t "g" 1.0;
  Obs.hist t "h" 1.0;
  Alcotest.(check int) "no events" 0 (List.length (Obs.events t));
  let s = Obs.summary t in
  Alcotest.(check int) "empty summary" 0 s.Obs.events_recorded;
  Alcotest.(check bool) "with_span still runs the body" true
    (Obs.with_span t "z" (fun () -> true))

(* ---- domain safety ---- *)

let test_domains_record_independently () =
  let t = Obs.create () in
  let work tag () =
    for i = 1 to 50 do
      Obs.with_span t tag (fun () -> Obs.count t (tag ^ ".n") i)
    done
  in
  let d1 = Domain.spawn (work "a") and d2 = Domain.spawn (work "b") in
  Domain.join d1;
  Domain.join d2;
  let s = Obs.summary t in
  let calls name = (List.assoc name s.Obs.span_stats).Obs.calls in
  Alcotest.(check int) "arm a spans" 50 (calls "a");
  Alcotest.(check int) "arm b spans" 50 (calls "b");
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Obs.tid) (Obs.events t))
  in
  Alcotest.(check bool) "two recording domains" true (List.length tids = 2)

(* ---- filtered reads against the copy-sort-filter reader ---- *)

(* One domain's share of an interleaved load: nested spans, instants,
   counters, gauges and hists under names both domains use.  Every event
   carries the domain's record sequence number (spans and instants as a
   "seq" attribute, counters as their delta, gauges and hists as their
   value), so each buffer's record order can be rebuilt from any read.
   Returns how many events the domain tried to record. *)
let record_mix t n =
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  for i = 1 to n do
    let outer = Obs.begin_span t "mix.outer" in
    Obs.instant t ~attrs:[ ("seq", Obs.Int (next ())) ] "mix.mark";
    Obs.count t "mix.count" (next ());
    (match i mod 3 with
    | 0 ->
      let inner = Obs.begin_span t "mix.inner" in
      Obs.gauge t "mix.gauge" (float_of_int (next ()));
      Obs.end_span t ~attrs:[ ("seq", Obs.Int (next ())) ] inner
    | 1 -> Obs.hist t "mix.hist" (float_of_int (next ()))
    | _ -> Obs.gauge t "mix.gauge" (float_of_int (next ())));
    Obs.end_span t ~attrs:[ ("seq", Obs.Int (next ())) ] outer
  done;
  !seq

let seq_of ev =
  match (ev.Obs.kind, ev.Obs.attrs) with
  | (Obs.Span | Obs.Instant), attrs -> (
    match List.assoc_opt "seq" attrs with Some (Obs.Int n) -> n | _ -> Alcotest.fail "no seq")
  | Obs.Count, ("value", Obs.Int n) :: _ -> n
  | (Obs.Gauge | Obs.Hist), ("value", Obs.Float v) :: _ -> int_of_float v
  | _ -> Alcotest.fail "event without a sequence number"

(* The reader as it was before filtered walks: every buffer copied out in
   record order, the whole list stable-sorted on the boxed (ts, tid)
   tuple, then filtered. *)
let reference_events ?since ?tid t =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      Hashtbl.replace by_tid ev.Obs.tid
        (ev :: Option.value ~default:[] (Hashtbl.find_opt by_tid ev.Obs.tid)))
    (Obs.events t);
  let buffers =
    Hashtbl.fold
      (fun _ evs acc ->
        let buf = List.sort (fun a b -> compare (seq_of a) (seq_of b)) evs in
        let seqs = List.map seq_of buf in
        Alcotest.(check int) "sequence numbers unique per domain" (List.length seqs)
          (List.length (List.sort_uniq compare seqs));
        buf :: acc)
      by_tid []
  in
  List.concat buffers
  |> List.stable_sort (fun a b -> compare (a.Obs.ts, a.Obs.tid) (b.Obs.ts, b.Obs.tid))
  |> List.filter (fun ev ->
         (match since with None -> true | Some s -> ev.Obs.ts >= s)
         && match tid with None -> true | Some id -> ev.Obs.tid = id)

(* The summary's aggregation over the reference events, as it was. *)
let reference_summary ~since ~dropped t =
  let evs = reference_events ~since t in
  let spans = Hashtbl.create 4 and counters = Hashtbl.create 4 in
  let gauges = Hashtbl.create 4 and hists = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      match (ev.Obs.kind, ev.Obs.attrs) with
      | Obs.Span, _ ->
        let calls, total, mx =
          Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt spans ev.Obs.name)
        in
        Hashtbl.replace spans ev.Obs.name (calls + 1, total +. ev.Obs.dur, Float.max mx ev.Obs.dur)
      | Obs.Count, ("value", Obs.Int d) :: _ ->
        Hashtbl.replace counters ev.Obs.name
          (d + Option.value ~default:0 (Hashtbl.find_opt counters ev.Obs.name))
      | Obs.Gauge, ("value", Obs.Float v) :: _ -> Hashtbl.replace gauges ev.Obs.name v
      | Obs.Hist, ("value", Obs.Float v) :: _ ->
        let h =
          match Hashtbl.find_opt hists ev.Obs.name with
          | Some h -> h
          | None ->
            let h = Obs.Histogram.create () in
            Hashtbl.add hists ev.Obs.name h;
            h
        in
        Obs.Histogram.observe h v
      | _ -> ())
    evs;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  ( sorted spans,
    sorted counters,
    sorted gauges,
    List.map (fun (k, h) -> (k, Obs.Histogram.buckets h, Obs.Histogram.sum h)) (sorted hists),
    List.length evs,
    dropped )

let summary_fields (s : Obs.summary) =
  ( List.sort compare
      (List.map
         (fun (k, st) -> (k, (st.Obs.calls, st.Obs.total_seconds, st.Obs.max_seconds)))
         s.Obs.span_stats),
    s.Obs.counters,
    s.Obs.gauges,
    List.map (fun (k, h) -> (k, Obs.Histogram.buckets h, Obs.Histogram.sum h)) s.Obs.hists,
    s.Obs.events_recorded,
    s.Obs.events_dropped )

(* Two domains record the mix at once; at [capacity] each buffer fills
   and drops the rest.  Every filtered read and summary must equal the
   reference event for event, field for field. *)
let check_filtered_reads ~capacity ~n =
  let t = Obs.create ~capacity () in
  let other = Domain.spawn (fun () -> record_mix t n) in
  let here = record_mix t n in
  let there = Domain.join other in
  let dropped = max 0 (here - capacity) + max 0 (there - capacity) in
  (* tie the reader to what was written, not to itself: every kept event
     read exactly once, and a full buffer drops the newest, so each
     domain's sequence numbers run 1, 2, ... without a gap *)
  let read = Obs.events t in
  Alcotest.(check int) "events read = recorded - dropped" (here + there - dropped)
    (List.length read);
  let kept =
    List.sort_uniq compare (List.map (fun ev -> ev.Obs.tid) read)
    |> List.map (fun id ->
           List.filter (fun ev -> ev.Obs.tid = id) read |> List.map seq_of |> List.sort compare)
  in
  List.iter
    (fun seqs ->
      Alcotest.(check (list int)) "sequence numbers contiguous from 1"
        (List.init (List.length seqs) (fun i -> i + 1))
        seqs)
    kept;
  Alcotest.(check (list int)) "per-domain kept counts"
    (List.sort compare [ min here capacity; min there capacity ])
    (List.sort compare (List.map List.length kept));
  let all = reference_events t in
  let tids = List.sort_uniq compare (List.map (fun ev -> ev.Obs.tid) all) in
  Alcotest.(check int) "two recording domains" 2 (List.length tids);
  let nth_ts k = (List.nth all (k * (List.length all - 1) / 4)).Obs.ts in
  let last = (List.nth all (List.length all - 1)).Obs.ts in
  let sinces = [ None; Some 0.0; Some (nth_ts 1); Some (nth_ts 2); Some (nth_ts 3); Some last; Some (last +. 1.0) ] in
  let same msg a b = Alcotest.(check bool) msg true (a = b) in
  List.iter
    (fun since ->
      List.iter
        (fun tid ->
          let got = Obs.events ?since ?tid t and want = reference_events ?since ?tid t in
          Alcotest.(check int) "filtered read length" (List.length want) (List.length got);
          same "filtered read matches the copy-sort-filter reader" want got)
        (None :: List.map Option.some tids);
      let s = Option.value ~default:0.0 since in
      same "summary matches the reference aggregation"
        (reference_summary ~since:s ~dropped t)
        (summary_fields (Obs.summary ?since t)))
    sinces;
  let s = Obs.summary t in
  Alcotest.(check int) "dropped count" dropped s.Obs.events_dropped;
  Alcotest.(check bool) "gauge read back" true (List.mem_assoc "mix.gauge" s.Obs.gauges)

let test_filtered_reads () = check_filtered_reads ~capacity:200_000 ~n:400

let test_filtered_reads_at_capacity () = check_filtered_reads ~capacity:500 ~n:400

(* ---- export formats ---- *)

let test_jsonl_golden () =
  let t = Obs.create () in
  let sp = Obs.begin_span t "solve" ~attrs:[ ("vars", Obs.Int 7) ] in
  Obs.end_span t sp ~attrs:[ ("result", Obs.Str "sat"); ("ok", Obs.Bool true) ];
  Obs.count t "conflicts" 3;
  let lines = String.split_on_char '\n' (String.trim (Obs.to_jsonl_string t)) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparsable trace line %S: %s" line e)
      lines
  in
  let str_field name j =
    match Json.member name j with Some (Json.Str s) -> s | _ -> Alcotest.failf "missing %s" name
  in
  let span = List.hd parsed and counter = List.nth parsed 1 in
  Alcotest.(check string) "span type" "span" (str_field "type" span);
  Alcotest.(check string) "span name" "solve" (str_field "name" span);
  (match Json.member "attrs" span with
  | Some attrs ->
    Alcotest.(check bool) "begin attr kept" true (Json.member "vars" attrs = Some (Json.Num 7.0));
    Alcotest.(check bool) "end attr kept" true (Json.member "result" attrs = Some (Json.Str "sat"));
    Alcotest.(check bool) "bool attr kept" true (Json.member "ok" attrs = Some (Json.Bool true))
  | None -> Alcotest.fail "span has no attrs");
  Alcotest.(check string) "counter type" "counter" (str_field "type" counter);
  (match Json.member "dur" span with
  | Some (Json.Num d) -> Alcotest.(check bool) "duration non-negative" true (d >= 0.0)
  | _ -> Alcotest.fail "span has no dur")

let test_json_roundtrip () =
  (* deterministic golden check of the writer itself *)
  let j =
    Json.Obj
      [
        ("name", Json.Str "a\"b\\c\n");
        ("xs", Json.Arr [ Json.Num 1.0; Json.Num 2.5; Json.Bool false; Json.Null ]);
      ]
  in
  let s = Json.to_string j in
  Alcotest.(check string) "escapes"
    {|{"name":"a\"b\\c\n","xs":[1,2.5,false,null]}|} s;
  match Json.parse s with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_chrome_export () =
  let t = Obs.create () in
  Obs.with_span t "solve" (fun () -> Obs.count t "conflicts" 2);
  match Json.parse (Obs.to_chrome_string t) with
  | Error e -> Alcotest.failf "chrome trace unparsable: %s" e
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.Arr evs) ->
      Alcotest.(check int) "two trace events" 2 (List.length evs);
      let phases =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> match Json.member "ph" e with Some (Json.Str p) -> Some p | _ -> None)
             evs)
      in
      Alcotest.(check (list string)) "complete + counter phases" [ "C"; "X" ] phases
    | _ -> Alcotest.fail "no traceEvents array")

(* ---- profile / flamegraph ---- *)

(* Synthetic span events with exact timestamps, so self-time arithmetic
   and the collapsed-stack rendering can be checked against goldens. *)
let mk_span ?(tid = 0) ?(attrs = []) name ~ts ~dur ~depth =
  { Obs.kind = Obs.Span; name; ts; dur; tid; depth; attrs }

let profile_find nodes path =
  match List.find_opt (fun n -> n.Obs.Profile.path = path) nodes with
  | Some n -> n
  | None -> Alcotest.failf "no profile node for stack %s" (String.concat ";" path)

let test_profile_flamegraph_golden () =
  (* root [0,10] with children a [1,4] and b [5,9]; a has leaf [2,3].
     Self times: root 10-(3+4)=3, a 3-1=2, leaf 1, b 4. *)
  let evs =
    [
      mk_span "root" ~ts:0.0 ~dur:10.0 ~depth:0;
      mk_span "a" ~ts:1.0 ~dur:3.0 ~depth:1;
      mk_span "leaf" ~ts:2.0 ~dur:1.0 ~depth:2;
      mk_span "b" ~ts:5.0 ~dur:4.0 ~depth:1;
      (* non-span events must be ignored by the profiler *)
      { Obs.kind = Obs.Count; name = "noise"; ts = 0.5; dur = 0.0; tid = 0; depth = 1;
        attrs = [ ("value", Obs.Int 1) ] };
    ]
  in
  let nodes = Obs.Profile.of_events evs in
  Alcotest.(check int) "four stacks" 4 (List.length nodes);
  let self path = (profile_find nodes path).Obs.Profile.self_seconds in
  Alcotest.(check (float 1e-9)) "root self excludes children" 3.0 (self [ "root" ]);
  Alcotest.(check (float 1e-9)) "a self excludes leaf" 2.0 (self [ "root"; "a" ]);
  Alcotest.(check (float 1e-9)) "leaf keeps its full time" 1.0 (self [ "root"; "a"; "leaf" ]);
  Alcotest.(check (float 1e-9)) "b keeps its full time" 4.0 (self [ "root"; "b" ]);
  Alcotest.(check (float 1e-9)) "root total is inclusive" 10.0
    (profile_find nodes [ "root" ]).Obs.Profile.total_seconds;
  Alcotest.(check (float 1e-9)) "self times sum to the wall" 10.0 (Obs.Profile.total_self nodes);
  Alcotest.(check string) "collapsed-stack golden"
    "root 3000000\nroot;a 2000000\nroot;a;leaf 1000000\nroot;b 4000000\n"
    (Obs.Profile.flamegraph_of_nodes nodes)

let test_profile_gc_accounting () =
  let gc minor majcol =
    [
      ("gc_minor_words", Obs.Float minor);
      ("gc_major_words", Obs.Float 0.0);
      ("gc_minor_collections", Obs.Int 0);
      ("gc_major_collections", Obs.Int majcol);
    ]
  in
  let evs =
    [
      mk_span "outer" ~ts:0.0 ~dur:2.0 ~depth:0 ~attrs:(gc 100.0 3);
      mk_span "inner" ~ts:0.5 ~dur:1.0 ~depth:1 ~attrs:(gc 60.0 1);
    ]
  in
  let nodes = Obs.Profile.of_events evs in
  let outer = profile_find nodes [ "outer" ] and inner = profile_find nodes [ "outer"; "inner" ] in
  Alcotest.(check (float 1e-9)) "outer allocation is exclusive" 40.0 outer.Obs.Profile.minor_words;
  Alcotest.(check (float 1e-9)) "inner keeps its allocation" 60.0 inner.Obs.Profile.minor_words;
  Alcotest.(check int) "outer collections exclusive" 2 outer.Obs.Profile.major_collections;
  Alcotest.(check int) "inner collections kept" 1 inner.Obs.Profile.major_collections

let test_profile_domains () =
  (* per-domain stack reconstruction: overlapping timestamps in different
     tids must not interleave *)
  let evs =
    [
      mk_span "r" ~tid:0 ~ts:0.0 ~dur:1.0 ~depth:0;
      mk_span "r" ~tid:1 ~ts:0.2 ~dur:1.0 ~depth:0;
    ]
  in
  let nodes = Obs.Profile.of_events evs in
  Alcotest.(check int) "one stack across domains" 1 (List.length nodes);
  Alcotest.(check int) "both calls counted" 2 (profile_find nodes [ "r" ]).Obs.Profile.calls;
  Alcotest.(check (float 1e-9)) "durations summed" 2.0
    (profile_find nodes [ "r" ]).Obs.Profile.total_seconds

(* Live-tracer end-to-end: spans carry GC deltas, and the profile's
   self-times sum exactly to the root span's inclusive duration (the
   flamegraph-vs-wall acceptance invariant). *)
let test_profile_of_tracer () =
  let t = Obs.create () in
  Obs.with_span t "root" (fun () ->
      Obs.with_span t "child" (fun () ->
          ignore (Sys.opaque_identity (List.init 10_000 (fun i -> i)))));
  (match List.find_opt (fun e -> e.Obs.name = "child") (Obs.events t) with
  | None -> Alcotest.fail "no child span"
  | Some e -> (
    match List.assoc_opt "gc_minor_words" e.Obs.attrs with
    | Some (Obs.Float w) -> Alcotest.(check bool) "allocation counted" true (w > 0.0)
    | _ -> Alcotest.fail "span has no gc_minor_words attr"));
  let nodes = Obs.Profile.of_tracer t in
  let root = profile_find nodes [ "root" ] in
  Alcotest.(check (float 1e-9)) "self times sum to the root wall"
    root.Obs.Profile.total_seconds (Obs.Profile.total_self nodes);
  let child = profile_find nodes [ "root"; "child" ] in
  Alcotest.(check bool) "child allocation attributed" true (child.Obs.Profile.minor_words > 0.0);
  Alcotest.(check bool) "allocations are exclusive" true
    (root.Obs.Profile.minor_words +. child.Obs.Profile.minor_words > 0.0
    && root.Obs.Profile.minor_words >= 0.0)

(* ---- solver integration ---- *)

let test_solver_records_spans () =
  with_global_tracer (fun t ->
      let inst =
        Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:104 4) (Devices.grid 2 2)
      in
      let o = Synth.depth inst in
      Alcotest.(check bool) "solved" true (o.Synthesis.result <> None);
      let s = Obs.summary t in
      let has name = List.mem_assoc name s.Obs.span_stats in
      Alcotest.(check bool) "sat.solve spans" true (has "sat.solve");
      Alcotest.(check bool) "encode.build spans" true (has "encode.build");
      Alcotest.(check bool) "opt.depth_iter spans" true (has "opt.depth_iter");
      Alcotest.(check bool) "conflict counter" true (List.mem_assoc "sat.conflicts" s.Obs.counters))

module Solver = Olsq2_sat.Solver
module Lit = Olsq2_sat.Lit

(* Per-solve statistics and the rate-limited progress callback, on a
   conflict-rich UNSAT instance (pigeonhole PHP(4,3)). *)
let test_solver_stats_and_progress () =
  let s = Solver.create () in
  let holes = 3 in
  let pigeons = holes + 1 in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_lit s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.negate v.(p).(h); Lit.negate v.(q).(h) ]
      done
    done
  done;
  let fired = ref 0 in
  Solver.set_progress ~interval:1 s (Some (fun _ -> incr fired));
  Alcotest.(check bool) "php(4,3) is unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "propagations counted" true (st.Solver.propagations > 0);
  Alcotest.(check bool) "callback fired" true (!fired > 0);
  Alcotest.(check bool) "at most one callback per conflict" true (!fired <= st.Solver.conflicts);
  Alcotest.(check bool) "lbd samples recorded" true (Hist.count st.Solver.lbd_hist > 0);
  Alcotest.(check bool) "trail sampled at conflicts" true
    (Hist.count st.Solver.trail_hist > 0
    && Hist.count st.Solver.trail_hist <= st.Solver.conflicts);
  Alcotest.(check bool) "solve wall time recorded" true (st.Solver.solve_seconds > 0.0);
  Alcotest.(check bool) "propagation rate derived" true (Solver.propagations_per_second st > 0.0);
  (* phase attribution: the per-phase split is populated and stays inside
     the measured solve wall (the conflict-rich instance spends real time
     in both propagation and analysis) *)
  let phase_total =
    st.Solver.propagate_seconds +. st.Solver.analyze_seconds +. st.Solver.reduce_seconds
    +. st.Solver.restart_seconds
  in
  Alcotest.(check bool) "propagate phase timed" true (st.Solver.propagate_seconds > 0.0);
  Alcotest.(check bool) "analyze phase timed" true (st.Solver.analyze_seconds > 0.0);
  Alcotest.(check bool) "phases within the solve wall" true
    (phase_total <= st.Solver.solve_seconds +. 0.005);
  Alcotest.(check bool) "no negative phase" true
    (st.Solver.reduce_seconds >= 0.0 && st.Solver.restart_seconds >= 0.0);
  (* clause-arena gauges: a conflict-rich solve holds learnt clauses and
     non-trivial watcher lists *)
  Alcotest.(check bool) "learnt arena measured" true (Solver.learnt_bytes s > 0);
  Alcotest.(check bool) "watcher arena measured" true (Solver.watcher_bytes s > 0);
  (* stats snapshots: copy freezes, diff isolates the delta *)
  let snap = Solver.stats_copy st in
  Alcotest.(check int) "copy sees the same conflicts" st.Solver.conflicts snap.Solver.conflicts;
  let d = Solver.stats_diff ~after:st ~before:snap in
  Alcotest.(check int) "self-diff is empty" 0 d.Solver.conflicts;
  Alcotest.(check int) "self-diff histograms empty" 0 (Hist.count d.Solver.lbd_hist);
  (* uninstalling the callback silences it *)
  let fired_before = !fired in
  Solver.set_progress s None;
  ignore (Solver.solve s);
  Alcotest.(check int) "uninstalled callback stays quiet" fired_before !fired

(* ---- Synthesis facade ---- *)

let facade_instance () =
  Instance.make ~swap_duration:1 (B.Qaoa.random ~seed:104 4) (Devices.grid 2 2)

let test_facade_trace_summary () =
  let inst = facade_instance () in
  (* disabled global tracer: report carries the empty summary *)
  let quiet = Synthesis.run ~objective:Synthesis.Depth inst in
  Alcotest.(check int) "no trace when disabled" 0 quiet.Synthesis.trace.Obs.events_recorded;
  with_global_tracer (fun _ ->
      let traced = Synthesis.run ~objective:Synthesis.Depth inst in
      Alcotest.(check bool) "trace captured" true
        (traced.Synthesis.trace.Obs.events_recorded > 0);
      Alcotest.(check bool) "facade span present" true
        (List.mem_assoc "synthesis.depth" traced.Synthesis.trace.Obs.span_stats);
      (* a second run's summary must not include the first run's events *)
      let again = Synthesis.run ~objective:Synthesis.Depth inst in
      let calls =
        (List.assoc "synthesis.depth" again.Synthesis.trace.Obs.span_stats).Obs.calls
      in
      Alcotest.(check int) "summary scoped to the run" 1 calls)

(* Solver statistics thread through Optimizer into the report (no tracer
   needed), and the ambient progress sink sees the optimizer's heartbeat
   forwarding with phase/bound context attached. *)
let test_facade_stats_threading () =
  let inst = facade_instance () in
  let beats = ref [] in
  Optimizer.set_progress_sink ~interval:1 (Some (fun p -> beats := p :: !beats));
  Fun.protect
    ~finally:(fun () -> Optimizer.set_progress_sink None)
    (fun () ->
      let r = Synthesis.run ~objective:Synthesis.Depth inst in
      Alcotest.(check bool) "solved" true (r.Synthesis.result <> None);
      let st = r.Synthesis.solver_stats in
      Alcotest.(check bool) "propagations aggregated" true (st.Solver.propagations > 0);
      Alcotest.(check bool) "per-iteration stats present" true (r.Synthesis.iter_stats <> []);
      let sum_conflicts =
        List.fold_left
          (fun acc (it : Optimizer.iter_stat) -> acc + it.Optimizer.iter_stats.Solver.conflicts)
          0 r.Synthesis.iter_stats
      in
      Alcotest.(check int) "iteration deltas sum to the aggregate" st.Solver.conflicts
        sum_conflicts;
      List.iter
        (fun it ->
          Alcotest.(check bool) "iteration names its phase" true
            (String.length it.Optimizer.iter_phase > 0);
          Alcotest.(check bool) "iteration records a verdict" true
            (it.Optimizer.iter_verdict <> "");
          Alcotest.(check bool) "iteration time non-negative" true
            (it.Optimizer.iter_seconds >= 0.0))
        r.Synthesis.iter_stats;
      if st.Solver.conflicts > 0 then begin
        Alcotest.(check bool) "heartbeats fired" true (!beats <> []);
        List.iter
          (fun p ->
            Alcotest.(check bool) "heartbeat carries an opt phase" true
              (String.length p.Optimizer.prog_phase >= 3
              && String.sub p.Optimizer.prog_phase 0 3 = "opt");
            Alcotest.(check bool) "heartbeat counters sane" true
              (p.Optimizer.prog_conflicts > 0 && p.Optimizer.prog_propagations > 0))
          !beats
      end);
  (* with the sink uninstalled, a fresh run fires no heartbeats *)
  let before = List.length !beats in
  ignore (Synthesis.run ~objective:Synthesis.Depth inst);
  Alcotest.(check int) "uninstalled sink stays quiet" before (List.length !beats)

(* The session ignores simplification and the Config encoding arms, so
   a run that asks for either must solve on the classic encoder, which
   honours them, even when the session is requested. *)
let session_requested = Synthesis.Options.(default |> with_incremental true)

let test_simplify_routes_to_encoder () =
  let inst = facade_instance () in
  with_global_tracer (fun _ ->
      let options = Synthesis.Options.with_simplify true session_requested in
      let r = Synthesis.run ~options ~objective:Synthesis.Depth inst in
      Alcotest.(check bool) "solved" true (r.Synthesis.optimal && r.Synthesis.result <> None);
      let count k = Option.value (List.assoc_opt k r.Synthesis.trace.Obs.counters) ~default:0 in
      Alcotest.(check bool) "simplification ran" true (count "simplify.runs" > 0);
      Alcotest.(check bool) "clauses before counted" true
        (count "simplify.clauses_before" >= count "simplify.clauses_removed"
        && count "simplify.clauses_before" > 0);
      Alcotest.(check bool) "the plan says the classic encoder ran" true
        (r.Synthesis.plan.Synthesis.oracle = Synthesis.Classic))

let test_config_arm_routes_to_encoder () =
  let inst = facade_instance () in
  with_global_tracer (fun t ->
      (* attributes of every encode.build span recorded by one run *)
      let builds options =
        Obs.reset t;
        let r = Synthesis.run ~options ~objective:Synthesis.Depth inst in
        Alcotest.(check bool) "solved" true r.Synthesis.optimal;
        List.filter_map
          (fun (e : Obs.event) -> if e.Obs.name = "encode.build" then Some e.Obs.attrs else None)
          (Obs.events t)
      in
      let all_have key value attrs =
        attrs <> [] && List.for_all (fun a -> List.assoc_opt key a = Some value) attrs
      in
      let arm = Core.Config.olsq2_euf_bv in
      Alcotest.(check bool) "non-default arm: the classic encoder ran" true
        (all_have "config"
           (Obs.Str (Core.Config.name arm))
           (builds (Synthesis.Options.with_config arm session_requested)));
      Alcotest.(check bool) "default arms: the session ran" true
        (all_have "incremental" (Obs.Bool true) (builds session_requested)))

(* Malformed environment defaults are errors naming the variable and its
   value, never a silent fallback. *)
let test_env_default_parsers () =
  let module O = Synthesis.Options in
  let mentions needle = function
    | Ok _ -> false
    | Error msg ->
      let n = String.length needle in
      let rec at i = i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1)) in
      at 0
  in
  Alcotest.(check (result int string)) "workers" (Ok 4) (O.workers_of_env " 4 ");
  Alcotest.(check bool) "workers: word rejected" true
    (mentions "OLSQ2_WORKERS=\"four\"" (O.workers_of_env "four"));
  Alcotest.(check bool) "workers: zero rejected" true (mentions "OLSQ2_WORKERS" (O.workers_of_env "0"));
  Alcotest.(check (result bool string)) "incremental" (Ok false) (O.incremental_of_env "false");
  Alcotest.(check bool) "incremental: yes rejected" true
    (mentions "OLSQ2_INCREMENTAL=\"yes\"" (O.incremental_of_env "yes"))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span closed on raise" `Quick test_span_closed_on_raise;
        Alcotest.test_case "counter deltas" `Quick test_counter_deltas;
        Alcotest.test_case "summary since" `Quick test_summary_since;
        Alcotest.test_case "capacity drops" `Quick test_capacity_drops;
        Alcotest.test_case "capacity drops per domain" `Quick test_capacity_drops_per_domain;
        Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
        Alcotest.test_case "histogram merge/diff" `Quick test_histogram_merge_diff;
        Alcotest.test_case "hist events merge" `Quick test_hist_events_merge;
        Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
        Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        Alcotest.test_case "domain-safe recording" `Quick test_domains_record_independently;
        Alcotest.test_case "filtered reads match the reference" `Quick test_filtered_reads;
        Alcotest.test_case "filtered reads at capacity" `Quick test_filtered_reads_at_capacity;
        Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
        Alcotest.test_case "profile flamegraph golden" `Quick test_profile_flamegraph_golden;
        Alcotest.test_case "profile gc accounting" `Quick test_profile_gc_accounting;
        Alcotest.test_case "profile domains" `Quick test_profile_domains;
        Alcotest.test_case "profile of live tracer" `Quick test_profile_of_tracer;
        Alcotest.test_case "solver records spans" `Quick test_solver_records_spans;
        Alcotest.test_case "solver stats + progress" `Quick test_solver_stats_and_progress;
      ] );
    ( "synthesis",
      [
        Alcotest.test_case "report trace summary" `Quick test_facade_trace_summary;
        Alcotest.test_case "report solver stats" `Quick test_facade_stats_threading;
        Alcotest.test_case "simplify runs on the encoder" `Quick test_simplify_routes_to_encoder;
        Alcotest.test_case "config arm runs on the encoder" `Quick test_config_arm_routes_to_encoder;
        Alcotest.test_case "environment default parsers" `Quick test_env_default_parsers;
      ] );
  ]
