(* Determinism check of the batch workloads: two processes given the same
   seed must find the same optima and report the same search counts.

     dune build @perfbench/test/determinism

   serve-mixed is exempt: with two clients, a resubmission can race the
   first solve of its key, so the number of solves varies. *)

module Json = Olsq2_obs.Obs.Json

let workloads = [ "wide-depth"; "deep-search"; "certify" ]
let counts = [ "sat.conflicts"; "sat.propagations"; "encode.clauses"; "opt.iterations" ]

(* The children must measure the library defaults whatever the caller's
   environment says. *)
let environment () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"OLSQ2_WORKERS=" kv
           || String.starts_with ~prefix:"OLSQ2_INCREMENTAL=" kv))
  |> Array.of_list

let run exe workload =
  let args =
    [| exe; "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace"; "1" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe args (environment ()) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ ": benchmark run failed"));
  let answers = List.filter (String.starts_with ~prefix:"answer ") lines in
  let result =
    match Json.parse (List.nth lines (List.length lines - 1)) with
    | Ok j -> j
    | Error e -> failwith (workload ^ ": bad result line: " ^ e)
  in
  let count name =
    match Option.bind (Json.member "metrics" result) (Json.member name) with
    | Some m -> (
      match Json.member "value" m with Some (Json.Num v) -> v | _ -> failwith ("no value for " ^ name))
    | None -> failwith (workload ^ ": missing metric " ^ name)
  in
  (answers, List.map (fun name -> (name, count name)) counts)

let () =
  let exe = Sys.argv.(1) in
  let failures =
    List.filter
      (fun workload ->
        let a1, c1 = run exe workload and a2, c2 = run exe workload in
        let same = a1 = a2 && c1 = c2 in
        Printf.printf "%-12s %s  %s\n%!" workload
          (if same then "same" else "DIFFERENT")
          (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.0f" n v) c1));
        if not same then
          List.iter2
            (fun (n, v1) (_, v2) -> if v1 <> v2 then Printf.printf "  %s: %.0f vs %.0f\n" n v1 v2)
            c1 c2;
        not same)
      workloads
  in
  if failures <> [] then exit 1
