(* Unit and property tests for Olsq2_util: Vec, Ivec, Rng, Stopwatch. *)

module Vec = Olsq2_util.Vec
module Ivec = Olsq2_util.Ivec
module Rng = Olsq2_util.Rng
module Stopwatch = Olsq2_util.Stopwatch

let test_vec_push_pop () =
  let v = Vec.create 0 in
  Alcotest.(check bool) "fresh vec empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length after pushes" 100 (Vec.length v);
  Alcotest.(check int) "get 42" 42 (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_shrink_clear () =
  let v = Vec.of_list 0 [ 1; 2; 3; 4; 5 ] in
  Vec.shrink v 2;
  Alcotest.(check (list int)) "shrunk" [ 1; 2 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let test_vec_remove_swap () =
  let v = Vec.of_list 0 [ 10; 20; 30; 40 ] in
  Vec.remove_swap v 1;
  (* 40 moves into slot 1 *)
  Alcotest.(check (list int)) "remove_swap" [ 10; 40; 30 ] (Vec.to_list v);
  Vec.remove_swap v 2;
  Alcotest.(check (list int)) "remove last" [ 10; 40 ] (Vec.to_list v)

let test_vec_set_get_bounds () =
  let v = Vec.of_list 0 [ 1 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Vec.set") (fun () -> Vec.set v 5 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      let e = Vec.create 0 in
      ignore (Vec.pop e))

let test_vec_iter_fold () =
  let v = Vec.of_list 0 [ 1; 2; 3 ] in
  Alcotest.(check int) "fold sum" 6 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (2, 3); (1, 2); (0, 1) ] !acc;
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_vec_sort () =
  let v = Vec.of_list 0 [ 3; 1; 2 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let ivec_list v =
  let acc = ref [] in
  Ivec.iter (fun x -> acc := x :: !acc) v;
  List.rev !acc

let test_ivec_grow_get_set () =
  let v = Ivec.create ~capacity:1 () in
  Alcotest.(check int) "fresh ivec empty" 0 (Ivec.length v);
  for i = 0 to 99 do
    Ivec.push v (i * i)
  done;
  Alcotest.(check int) "length after growing from capacity 1" 100 (Ivec.length v);
  Alcotest.(check int) "get" (42 * 42) (Ivec.get v 42);
  Alcotest.(check int) "unsafe_get" (99 * 99) (Ivec.unsafe_get v 99);
  Ivec.set v 42 (-7);
  Alcotest.(check int) "set" (-7) (Ivec.get v 42);
  Alcotest.(check (array int))
    "to_array copies the live prefix"
    (Array.init 100 (fun i -> if i = 42 then -7 else i * i))
    (Ivec.to_array v);
  Alcotest.check_raises "get past the end" (Invalid_argument "Ivec.get") (fun () ->
      ignore (Ivec.get v 100));
  Alcotest.check_raises "set past the end" (Invalid_argument "Ivec.set") (fun () -> Ivec.set v 100 0)

let test_ivec_shrink_clear () =
  let v = Ivec.create () in
  List.iter (Ivec.push v) [ 1; 2; 3; 4; 5 ];
  Ivec.shrink v 2;
  Alcotest.(check (list int)) "shrunk" [ 1; 2 ] (ivec_list v);
  Alcotest.check_raises "get a dropped slot" (Invalid_argument "Ivec.get") (fun () ->
      ignore (Ivec.get v 2));
  Alcotest.check_raises "shrink cannot grow" (Invalid_argument "Ivec.shrink") (fun () ->
      Ivec.shrink v 3);
  Ivec.push v 9;
  Alcotest.(check (list int)) "push after shrink overwrites" [ 1; 2; 9 ] (ivec_list v);
  Ivec.clear v;
  Alcotest.(check int) "cleared" 0 (Ivec.length v);
  Alcotest.(check (array int)) "cleared to_array" [||] (Ivec.to_array v)

let test_ivec_filteri_sort () =
  let v = Ivec.create () in
  List.iter (Ivec.push v) [ 5; 3; 8; 1; 9; 2 ];
  let calls = ref [] in
  Ivec.filteri
    (fun i x ->
      calls := i :: !calls;
      i = 0 || x mod 2 = 1)
    v;
  Alcotest.(check (list int)) "filteri calls each index in order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !calls);
  Alcotest.(check (list int)) "filteri keeps order" [ 5; 3; 1; 9 ] (ivec_list v);
  Ivec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 9 ] (ivec_list v);
  Ivec.sort (fun a b -> compare b a) v;
  Alcotest.(check (list int)) "sorted descending" [ 9; 5; 3; 1 ] (ivec_list v)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create 43 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed, different stream" true (xs <> zs)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let arr = Array.init 30 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 30 (fun i -> i)) sorted

let test_rng_copy_split () =
  let a = Rng.create 5 in
  let b = Rng.copy a in
  Alcotest.(check int) "copies track" (Rng.int a 100) (Rng.int b 100);
  let child = Rng.split a in
  (* child should diverge from parent *)
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "split diverges" true (xs <> ys)

let test_stopwatch_budget () =
  Alcotest.(check bool) "unlimited never exhausts" false (Stopwatch.exhausted Stopwatch.unlimited);
  let b = Stopwatch.budget (Some 1000.0) in
  Alcotest.(check bool) "fresh budget not exhausted" false (Stopwatch.exhausted b);
  Alcotest.(check bool) "remaining positive" true (Stopwatch.remaining b > 0.0);
  let tiny = Stopwatch.budget (Some (-1.0)) in
  Alcotest.(check bool) "expired budget exhausted" true (Stopwatch.exhausted tiny)

let suite =
  [
    ( "util",
      [
        Alcotest.test_case "vec push/pop" `Quick test_vec_push_pop;
        Alcotest.test_case "vec shrink/clear" `Quick test_vec_shrink_clear;
        Alcotest.test_case "vec remove_swap" `Quick test_vec_remove_swap;
        Alcotest.test_case "vec bounds" `Quick test_vec_set_get_bounds;
        Alcotest.test_case "vec iter/fold" `Quick test_vec_iter_fold;
        Alcotest.test_case "vec sort" `Quick test_vec_sort;
        Alcotest.test_case "ivec grow/get/set/to_array" `Quick test_ivec_grow_get_set;
        Alcotest.test_case "ivec shrink/clear" `Quick test_ivec_shrink_clear;
        Alcotest.test_case "ivec filteri/iter/sort" `Quick test_ivec_filteri_sort;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "rng copy/split" `Quick test_rng_copy_split;
        Alcotest.test_case "stopwatch budget" `Quick test_stopwatch_budget;
      ] );
  ]
