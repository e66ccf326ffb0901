(* olsq2-serve: the synthesis daemon.  All synthesis knobs come from
   Serve.Cli_options, so they are spelled exactly like `olsq2 synth`'s;
   flags parsed here only configure the server itself. *)

module Serve = Olsq2_serve
open Cmdliner

let port_arg =
  let doc = "TCP port to listen on (0 picks an ephemeral port and prints it)." in
  Arg.(value & opt int Serve.Server.default_config.Serve.Server.port & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let pool_arg =
  let doc = "Synthesis worker domains: how many requests solve concurrently." in
  Arg.(value & opt int 1 & info [ "pool" ] ~docv:"N" ~doc)

let handlers_arg =
  let doc = "Connection handler domains (bounds concurrent synchronous requests)." in
  Arg.(value & opt int 2 & info [ "handlers" ] ~docv:"N" ~doc)

let cache_capacity_arg =
  let doc = "Maximum cached results (canonically keyed, FIFO eviction)." in
  Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N" ~doc)

let default_device_arg =
  let doc =
    "Default target device by name (e.g. $(b,heavy-hex-127)); requests without an explicit \
     device resolve against it.  `olsq2 devices` lists names and accepted patterns."
  in
  Arg.(value & opt (some string) None & info [ "default-device" ] ~docv:"NAME" ~doc)

let verbose_arg =
  let doc = "Log request lifecycle on stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let access_log_arg =
  let doc =
    "Append one JSON line per request (ts, request id, method, path, status, seconds) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)

let run (common : Serve.Cli_options.common) port host pool handlers cache_capacity
    default_device verbose access_log =
  (* the shared synthesis flags become the per-request defaults: a
     request without an "options" object runs under them, and the
     daemon's --budget backstops requests that bring none of their own *)
  let cfg =
    {
      Serve.Server.host;
      port;
      pool_workers = pool;
      handlers;
      cache_capacity;
      default_options =
        (let o = Serve.Cli_options.options common in
         match default_device with
         | Some d -> Olsq2_core.Synthesis.Options.with_device d o
         | None -> o);
      verbose;
      access_log;
    }
  in
  let server = Serve.Server.start cfg in
  Printf.printf "olsq2-serve listening on %s:%d\n%!" host (Serve.Server.port server);
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.2
  done;
  prerr_endline "olsq2-serve: shutting down";
  Serve.Server.stop server;
  0

let cmd =
  let doc = "serve OLSQ2 layout synthesis over HTTP (JSON requests, cached canonical results)" in
  let info = Cmd.info "olsq2-serve" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ Serve.Cli_options.term $ port_arg $ host_arg $ pool_arg $ handlers_arg
      $ cache_capacity_arg $ default_device_arg $ verbose_arg $ access_log_arg)

let () = exit (Cmd.eval' cmd)
