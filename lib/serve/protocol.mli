(** The serve daemon's wire protocol: parse JSON request bodies into
    ready-to-run synthesis work, render results back to JSON.  README
    "Serving" documents the schema. *)

module Json = Olsq2_obs.Obs.Json

type parsed = {
  instance : Olsq2_core.Instance.t;
  objective : Olsq2_core.Synthesis.objective;
  objective_tag : string;  (** stable objective name for keys and responses *)
  options : Olsq2_core.Synthesis.Options.t;
  cache_key : string option;
      (** canonical cache key; [None] when the request must bypass the
          cache (weighted objectives, certification, ["cache": false]) *)
  drel : Canonical.relabeling;  (** device relabelling for cache translation *)
  crel : Canonical.relabeling;  (** circuit relabelling for cache translation *)
}

(** Parse a request body.  [defaults] (default
    {!Olsq2_core.Synthesis.Options.default}) is used when the request
    carries no ["options"] object — the daemon passes its command-line
    configuration here.  A request without a top-level ["device"] field
    falls back to the parsed options' [device] name
    ({!Olsq2_device.Devices.by_name}).  A non-null
    [options.proof_file] is an [Error]: the daemon writes no files at
    client-chosen paths.  [Error] messages name the offending field and
    are safe to echo back to the client. *)
val parse :
  ?defaults:Olsq2_core.Synthesis.Options.t -> string -> (parsed, string) result

(** Render a synthesis result (status, depth, swap count, mapping,
    schedule, swaps). *)
val result_to_json : Olsq2_core.Result_.t -> Json.json

(** [{"error": message}] *)
val error_body : string -> string
