module H = Rs_histogram
module Bucket = H.Bucket
module Reopt = H.Reopt
module Matrix = Rs_linalg.Matrix
module Prefix = Rs_util.Prefix
module Rng = Rs_dist.Rng
module D = Rs_histogram.Decomposable

let random_bucketing rng ~n ~buckets =
  let b = min buckets n in
  let perm = Rng.permutation rng (n - 1) in
  let cuts = Array.sub perm 0 (b - 1) in
  Array.sort compare cuts;
  Bucket.of_rights ~n (Array.append (Array.map (fun c -> c + 1) cuts) [| n |])

let check_matrices_close name (q1, g1, c1) (q2, g2, c2) =
  let b = Matrix.rows q1 in
  for i = 0 to b - 1 do
    for j = 0 to b - 1 do
      Helpers.check_close ~tol:1e-6
        (Printf.sprintf "%s Q[%d,%d]" name i j)
        (Matrix.get q2 i j) (Matrix.get q1 i j)
    done;
    Helpers.check_close ~tol:1e-6 (Printf.sprintf "%s g[%d]" name i) g2.(i) g1.(i)
  done;
  Helpers.check_close ~tol:1e-6 (name ^ " const") c2 c1

(* The O(n + B²) closed form equals enumeration over all ranges. *)
let test_normal_equations_closed_vs_brute () =
  let rng = Rng.create 200 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 18 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Helpers.prefix_of data in
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng (min n 5)) in
    check_matrices_close "closed vs brute" (Reopt.normal_equations p bk)
      (Reopt.Brute.normal_equations p bk)
  done

let test_quadratic_matches_direct_sse () =
  (* sse_of_values = brute-force SSE of the corresponding histogram. *)
  let rng = Rng.create 201 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 14 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let p = Helpers.prefix_of data in
    let b = 1 + Rng.int rng (min n 4) in
    let bk = random_bucketing rng ~n ~buckets:b in
    let values = Array.init (Bucket.count bk) (fun _ -> Rng.float rng *. 10.) in
    let h =
      H.Histogram.make ~name:"test" bk (H.Histogram.Avg values)
    in
    Helpers.check_close ~tol:1e-6 "quadratic = sse"
      (Helpers.hist_sse p h)
      (Reopt.sse_of_values p bk values)
  done

let test_optimal_values_are_stationary () =
  (* Perturbing the optimal values never helps. *)
  let rng = Rng.create 202 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 12 in
    let data = Helpers.random_int_data rng ~n ~hi:25 in
    let p = Helpers.prefix_of data in
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng (min n 4)) in
    let x = Reopt.optimal_values p bk in
    let base = Reopt.sse_of_values p bk x in
    for k = 0 to Array.length x - 1 do
      List.iter
        (fun delta ->
          let x' = Array.copy x in
          x'.(k) <- x'.(k) +. delta;
          Alcotest.(check bool) "stationary" true
            (Reopt.sse_of_values p bk x' >= base -. 1e-6))
        [ 0.5; -0.5; 2.; -2. ]
    done
  done

let test_reopt_never_worse_than_averages () =
  (* The paper's motivating observation: re-optimizing values for fixed
     boundaries can only improve the SSE vs storing plain averages. *)
  let rng = Rng.create 203 in
  for _ = 1 to 10 do
    let n = 4 + Rng.int rng 16 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Helpers.prefix_of data in
    let b = 1 + Rng.int rng (min n 5) in
    List.iter
      (fun h ->
        let h' = Reopt.apply p h in
        Alcotest.(check bool)
          ("reopt <= " ^ H.Histogram.name h)
          true
          (Helpers.hist_sse p h' <= Helpers.hist_sse p h +. 1e-6))
      [
        H.Baselines.equi_width p ~buckets:b;
        D.build D.a0 p ~buckets:b;
        D.build D.point_opt p ~buckets:b;
      ]
  done

let test_reopt_keeps_boundaries_and_storage () =
  let data = [| 5.; 1.; 8.; 2.; 9.; 3. |] in
  let p = Helpers.prefix_of data in
  let h = H.Baselines.equi_width p ~buckets:3 in
  let h' = Reopt.apply p h in
  Alcotest.(check bool) "same bucketing" true
    (Bucket.equal (H.Histogram.bucketing h) (H.Histogram.bucketing h'));
  Alcotest.(check int) "same storage" (H.Histogram.storage_words h)
    (H.Histogram.storage_words h');
  Alcotest.(check string) "name tagged" "equi-width-reopt" (H.Histogram.name h')

let test_reopt_rejects_sap () =
  let data = [| 1.; 2.; 3.; 4. |] in
  let p = Helpers.prefix_of data in
  let ctx = H.Cost.make p in
  let bk = Bucket.equi_width ~n:4 ~buckets:2 in
  let h = H.Summaries.sap0_histogram ctx bk in
  try
    ignore (Reopt.apply p h);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_reopt_exact_on_piecewise_constant () =
  (* When the data is constant per bucket, averages are already optimal
     and reopt leaves the SSE at zero. *)
  let data = [| 4.; 4.; 4.; 7.; 7.; 7. |] in
  let p = Helpers.prefix_of data in
  let bk = Bucket.of_rights ~n:6 [| 3; 6 |] in
  let x = Reopt.optimal_values p bk in
  Helpers.check_close "sse zero" 0. (Reopt.sse_of_values p bk x);
  Helpers.check_close "value 0" 4. x.(0);
  Helpers.check_close "value 1" 7. x.(1)

let prop_q_symmetric_psd =
  Helpers.qtest ~count:60 "Q symmetric with non-negative diagonal"
    Helpers.small_data_arb (fun data ->
      let n = Array.length data in
      if n < 2 then true
      else begin
        let p = Helpers.prefix_of data in
        let rng = Rng.create (Hashtbl.hash data) in
        let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng (min n 4)) in
        let q, _, c = Reopt.normal_equations p bk in
        Matrix.is_symmetric q
        && c >= -1e-6
        &&
        let ok = ref true in
        for i = 0 to Matrix.rows q - 1 do
          if Matrix.get q i i < 0. then ok := false
        done;
        !ok
      end)

let () =
  Alcotest.run "reopt"
    [
      ( "normal-equations",
        [
          Alcotest.test_case "closed vs brute" `Quick test_normal_equations_closed_vs_brute;
          Alcotest.test_case "quadratic = sse" `Quick test_quadratic_matches_direct_sse;
          prop_q_symmetric_psd;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "stationary" `Quick test_optimal_values_are_stationary;
          Alcotest.test_case "never worse" `Quick test_reopt_never_worse_than_averages;
          Alcotest.test_case "piecewise constant" `Quick test_reopt_exact_on_piecewise_constant;
        ] );
      ( "api",
        [
          Alcotest.test_case "keeps boundaries" `Quick test_reopt_keeps_boundaries_and_storage;
          Alcotest.test_case "rejects sap" `Quick test_reopt_rejects_sap;
        ] );
    ]
