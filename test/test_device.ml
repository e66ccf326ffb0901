(* Tests for coupling graphs, device builders and automorphism orbits. *)

module Q = QCheck
module Coupling = Olsq2_device.Coupling
module Devices = Olsq2_device.Devices
module Symmetry = Olsq2_device.Symmetry

let test_make_normalization () =
  let c = Coupling.make ~name:"t" ~num_qubits:3 [ (1, 0); (0, 1); (2, 1) ] in
  (* duplicate (0,1)/(1,0) collapses *)
  Alcotest.(check int) "edges deduped" 2 (Coupling.num_edges c);
  Alcotest.(check bool) "adjacent" true (Coupling.are_adjacent c 0 1);
  Alcotest.(check bool) "adjacent reversed" true (Coupling.are_adjacent c 1 0);
  Alcotest.(check bool) "not adjacent" false (Coupling.are_adjacent c 0 2)

let test_make_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Coupling.make: self-loop") (fun () ->
      ignore (Coupling.make ~name:"t" ~num_qubits:2 [ (0, 0) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Coupling.make: qubit out of range")
    (fun () -> ignore (Coupling.make ~name:"t" ~num_qubits:2 [ (0, 5) ]))

let test_edge_ids () =
  let c = Devices.qx2 in
  for e = 0 to Coupling.num_edges c - 1 do
    let p, p' = Coupling.edge c e in
    Alcotest.(check int) "edge_id roundtrip" e (Coupling.edge_id c p p');
    Alcotest.(check int) "edge_id unordered" e (Coupling.edge_id c p' p)
  done;
  Alcotest.check_raises "missing edge" Not_found (fun () -> ignore (Coupling.edge_id c 0 3))

let test_incident_edges () =
  let c = Devices.qx2 in
  (* qubit 2 of QX2 touches 4 of the 6 edges *)
  Alcotest.(check int) "degree of hub" 4 (List.length (Coupling.incident_edges c 2));
  List.iter
    (fun e ->
      let p, p' = Coupling.edge c e in
      if p <> 2 && p' <> 2 then Alcotest.fail "incident edge does not touch qubit")
    (Coupling.incident_edges c 2);
  (* the cached lists are exactly the edges touching each qubit, ascending *)
  List.iter
    (fun c ->
      for p = 0 to c.Coupling.num_qubits - 1 do
        let scan =
          List.filter
            (fun e ->
              let a, b = Coupling.edge c e in
              a = p || b = p)
            (List.init (Coupling.num_edges c) Fun.id)
        in
        Alcotest.(check (list int)) "incident edges of a qubit" scan (Coupling.incident_edges c p)
      done)
    [ c; Devices.eagle127; Devices.grid 3 4 ]

let test_distances_line () =
  let c = Devices.line 5 in
  Alcotest.(check int) "dist end to end" 4 (Coupling.distance c 0 4);
  Alcotest.(check int) "dist adjacent" 1 (Coupling.distance c 2 3);
  Alcotest.(check int) "dist self" 0 (Coupling.distance c 1 1);
  Alcotest.(check int) "diameter" 4 (Coupling.diameter c)

let test_distance_symmetry_grid () =
  let c = Devices.grid 3 4 in
  let d = Coupling.distance_matrix c in
  for p = 0 to 11 do
    for q = 0 to 11 do
      Alcotest.(check int) "symmetric" d.(p).(q) d.(q).(p)
    done
  done;
  (* manhattan distance on a grid *)
  Alcotest.(check int) "corner to corner" 5 (Coupling.distance c 0 11)

let test_ring () =
  let c = Devices.ring 6 in
  Alcotest.(check int) "edges" 6 (Coupling.num_edges c);
  Alcotest.(check int) "opposite" 3 (Coupling.distance c 0 3);
  Alcotest.check_raises "tiny ring rejected"
    (Invalid_argument "Devices.ring: need at least 3 qubits") (fun () -> ignore (Devices.ring 2))

let check_device name expected_qubits expected_edges max_degree =
  let c = Devices.by_name name in
  Alcotest.(check int) (name ^ " qubits") expected_qubits c.Coupling.num_qubits;
  Alcotest.(check int) (name ^ " edges") expected_edges (Coupling.num_edges c);
  Alcotest.(check bool) (name ^ " connected") true (Coupling.is_connected c);
  for p = 0 to c.Coupling.num_qubits - 1 do
    if List.length (Coupling.neighbors c p) > max_degree then
      Alcotest.fail (Printf.sprintf "%s qubit %d exceeds degree %d" name p max_degree)
  done

let test_qx2 () = check_device "qx2" 5 6 4

let test_aspen4 () = check_device "aspen-4" 16 18 3

let test_sycamore () = check_device "sycamore" 54 85 4

let test_eagle () =
  (* ibm_washington: 127 qubits, 144 edges, heavy-hex degree <= 3 *)
  check_device "eagle" 127 144 3

let test_eagle_heavy_hex_structure () =
  let c = Devices.eagle127 in
  (* every spacer qubit (degree 2) connects two distinct rows *)
  let spacers = [ 14; 15; 16; 17; 33; 34; 35; 36; 52; 53; 54; 55 ] in
  List.iter
    (fun p -> Alcotest.(check int) "spacer degree" 2 (List.length (Coupling.neighbors c p)))
    spacers

let test_eagle_pinned_edges () =
  (* the generator reproduces ibm_washington's published numbering: row 0
     hangs off spacer 14 at column 0, and the last row ends at qubit 126 *)
  let c = Devices.eagle127 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "edge %d-%d" a b) true (Coupling.are_adjacent c a b))
    [ (0, 14); (14, 18); (108, 112); (112, 126) ];
  (* eagle127 is exactly heavy_hex ~rows:7 ~row_len:15 *)
  let g = Devices.heavy_hex ~rows:7 ~row_len:15 () in
  Alcotest.(check int) "same qubits" c.Coupling.num_qubits g.Coupling.num_qubits;
  Alcotest.(check int) "same edges" (Coupling.num_edges c) (Coupling.num_edges g);
  for e = 0 to Coupling.num_edges c - 1 do
    let a, b = Coupling.edge c e in
    Alcotest.(check bool) "edge present in generator" true (Coupling.are_adjacent g a b)
  done

let test_osprey () = check_device "osprey" 433 504 3

let test_heavy_hex_small () = check_device "heavy-hex-3x7" 23 24 3

(* ---- generator properties ---- *)

let degrees c = List.init c.Coupling.num_qubits (fun p -> List.length (Coupling.neighbors c p))

(* [Coupling.make] collapses duplicates, so an exact edge-count pin
   doubles as a no-duplicate-edges check on the generator's raw list. *)
let qcheck_generators =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"generator graphs: size, degree, connectivity" ~count:60
       Q.(pair (2 -- 6) (3 -- 7))
       (fun (r, c) ->
         let grid = Devices.grid r c in
         let torus = Devices.torus (max r 3) c in
         let tr, tc = (max r 3, c) in
         let ring = Devices.ring (r + c) in
         let line = Devices.line (r + c) in
         List.for_all Coupling.is_connected [ grid; torus; ring; line ]
         && grid.Coupling.num_qubits = r * c
         && Coupling.num_edges grid = (r * (c - 1)) + (c * (r - 1))
         && List.for_all (fun d -> d <= 4) (degrees grid)
         && torus.Coupling.num_qubits = tr * tc
         && Coupling.num_edges torus = 2 * tr * tc
         && List.for_all (fun d -> d = 4) (degrees torus)
         && Coupling.num_edges ring = r + c
         && List.for_all (fun d -> d = 2) (degrees ring)
         && Coupling.num_edges line = r + c - 1))

let qcheck_heavy_hex =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~name:"heavy-hex generator: size formula, degree <= 3, connected" ~count:20
       (* rows odd >= 3, row_len = 4k+3 *)
       Q.(pair (1 -- 3) (1 -- 6))
       (fun (i, k) ->
         let rows = (2 * i) + 1 and row_len = (4 * k) + 3 in
         let c = Devices.heavy_hex ~rows ~row_len () in
         let spacers_per_gap = (row_len + 1) / 4 in
         c.Coupling.num_qubits = (rows * row_len) - 2 + ((rows - 1) * spacers_per_gap)
         && Coupling.is_connected c
         && List.for_all (fun d -> d <= 3) (degrees c)))

(* ---- automorphism edge orbits ---- *)

let test_edge_orbits () =
  let reps d = List.length (Symmetry.edge_orbit_representatives d) in
  (* vertex-transitive cycles/tori: a single edge orbit *)
  Alcotest.(check int) "ring-5 one orbit" 1 (reps (Devices.ring 5));
  Alcotest.(check int) "torus-3x3 one orbit" 1 (reps (Devices.torus 3 3));
  (* grid-3x3 under the dihedral group: border edges vs center-incident *)
  Alcotest.(check int) "grid-3x3 two orbits" 2 (reps (Devices.grid 3 3));
  (* line-4: end edges vs the middle edge *)
  Alcotest.(check int) "line-4 two orbits" 2 (reps (Devices.line 4));
  (* eagle's lateral reflection halves the edge count *)
  Alcotest.(check int) "eagle-127 orbit reps" 72 (reps Devices.eagle127);
  (* representative array invariants: idempotent, rep is orbit minimum *)
  let orbits = Symmetry.edge_orbits (Devices.grid 3 4) in
  Array.iteri
    (fun e r ->
      Alcotest.(check bool) "rep <= member" true (r <= e);
      Alcotest.(check int) "rep is a fixpoint" r orbits.(r))
    orbits

let test_by_name_grid () =
  let c = Devices.by_name "grid-4x5" in
  Alcotest.(check int) "grid qubits" 20 c.Coupling.num_qubits;
  (* the unknown-name error must name what IS available: every fixed
     device and every generator pattern *)
  match Devices.by_name "nope" with
  | _ -> Alcotest.fail "unknown device should raise"
  | exception Invalid_argument msg ->
    let contains sub =
      let n = String.length sub and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "error mentions %S" sub) true (go 0)
    in
    contains "unknown device \"nope\"";
    List.iter contains Devices.all_names;
    contains "grid-RxC";
    contains "heavy-hex-RxC"

let test_all_names_resolve () =
  List.iter (fun n -> ignore (Devices.by_name n)) Devices.all_names

let suite =
  [
    ( "device",
      [
        Alcotest.test_case "normalization" `Quick test_make_normalization;
        Alcotest.test_case "rejects bad edges" `Quick test_make_rejects;
        Alcotest.test_case "edge ids" `Quick test_edge_ids;
        Alcotest.test_case "incident edges" `Quick test_incident_edges;
        Alcotest.test_case "line distances" `Quick test_distances_line;
        Alcotest.test_case "grid distance symmetry" `Quick test_distance_symmetry_grid;
        Alcotest.test_case "ring" `Quick test_ring;
        Alcotest.test_case "qx2" `Quick test_qx2;
        Alcotest.test_case "aspen-4" `Quick test_aspen4;
        Alcotest.test_case "sycamore" `Quick test_sycamore;
        Alcotest.test_case "eagle 127" `Quick test_eagle;
        Alcotest.test_case "eagle heavy-hex spacers" `Quick test_eagle_heavy_hex_structure;
        Alcotest.test_case "eagle pinned edges" `Quick test_eagle_pinned_edges;
        Alcotest.test_case "osprey 433" `Quick test_osprey;
        Alcotest.test_case "heavy-hex 3x7" `Quick test_heavy_hex_small;
        qcheck_generators;
        qcheck_heavy_hex;
        Alcotest.test_case "edge orbits" `Quick test_edge_orbits;
        Alcotest.test_case "by_name grid" `Quick test_by_name_grid;
        Alcotest.test_case "all names resolve" `Quick test_all_names_resolve;
      ] );
  ]
