module H = Rs_histogram
module Wsap0 = H.Wsap0
module Bucket = H.Bucket
module Prefix = Rs_util.Prefix
module Error = Rs_query.Error
module Rng = Rs_dist.Rng
module D = Rs_histogram.Decomposable

let random_weights rng n =
  {
    Wsap0.u = Array.init n (fun _ -> Rng.float rng *. 3.);
    v = Array.init n (fun _ -> Rng.float rng *. 3.);
  }

let random_bucketing rng ~n ~buckets =
  let b = min buckets n in
  let perm = Rng.permutation rng (n - 1) in
  let cuts = Array.sub perm 0 (b - 1) in
  Array.sort compare cuts;
  Bucket.of_rights ~n (Array.append (Array.map (fun c -> c + 1) cuts) [| n |])

let test_closed_vs_brute () =
  let rng = Rng.create 1 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 18 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Helpers.prefix_of data in
    let ctx = Wsap0.make p (random_weights rng n) in
    for l = 1 to n do
      for r = l to n do
        Helpers.check_close ~tol:1e-6
          (Printf.sprintf "bucket cost [%d,%d]" l r)
          (Wsap0.Brute.bucket_cost ctx ~l ~r)
          (Wsap0.bucket_cost ctx ~l ~r)
      done
    done
  done

let test_cost_equals_weighted_sse () =
  (* Σ bucket costs = the true weighted SSE of the built histogram. *)
  let rng = Rng.create 2 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 15 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let p = Helpers.prefix_of data in
    let weights = random_weights rng n in
    let ctx = Wsap0.make p weights in
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng (min n 5)) in
    let h = Wsap0.histogram_of_bucketing ctx bk in
    let w = Wsap0.workload weights in
    Helpers.check_close ~tol:1e-6 "decomposition exact"
      (Error.sse_of_workload p w (Helpers.hist_estimator h))
      (Wsap0.weighted_sse_of_bucketing ctx bk)
  done

let test_uniform_weights_match_sap0 () =
  (* With u = v = 1 the weighted DP solves exactly the SAP0 problem. *)
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:25 in
    let p = Helpers.prefix_of data in
    for b = 1 to 4 do
      let _, c0 = D.build_with_cost D.sap0 p ~buckets:b in
      let _, cw = Wsap0.build_with_cost p (Wsap0.uniform_weights ~n) ~buckets:b in
      Helpers.check_close ~tol:1e-6 "same optimum" c0 cw
    done
  done

let test_dp_optimal_vs_exhaustive () =
  let rng = Rng.create 4 in
  for _ = 1 to 6 do
    let n = 3 + Rng.int rng 7 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let weights = random_weights rng n in
    let ctx = Wsap0.make p weights in
    for b = 1 to min 3 n do
      let _, cost = Wsap0.build_with_cost p weights ~buckets:b in
      let best =
        List.fold_left
          (fun acc bk -> Float.min acc (Wsap0.weighted_sse_of_bucketing ctx bk))
          Float.infinity
          (List.concat_map
             (fun k -> Bucket.enumerate ~n ~buckets:k)
             (List.init b (fun i -> i + 1)))
      in
      Helpers.check_close ~tol:1e-6 "dp = exhaustive" best cost
    done
  done

let test_aware_beats_blind () =
  (* Under the weighted objective, the workload-aware optimum is never
     worse than the workload-blind SAP0 filled with weighted summaries
     on its own boundaries. *)
  let rng = Rng.create 5 in
  for _ = 1 to 8 do
    let n = 8 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Helpers.prefix_of data in
    let weights = Wsap0.recency_weights ~n ~half_life:(float_of_int n /. 8.) in
    let ctx = Wsap0.make p weights in
    let b = 3 in
    let blind, _ = D.build_with_cost D.sap0 p ~buckets:b in
    let blind_cost =
      Wsap0.weighted_sse_of_bucketing ctx (H.Histogram.bucketing blind)
    in
    let _, aware_cost = Wsap0.build_with_cost p weights ~buckets:b in
    Alcotest.(check bool) "aware <= blind" true (aware_cost <= blind_cost +. 1e-6)
  done

let test_weight_constructors () =
  let w = Wsap0.recency_weights ~n:10 ~half_life:2. in
  Alcotest.(check int) "length" 10 (Array.length w.Wsap0.u);
  Helpers.check_close "latest weight" 1. w.Wsap0.u.(9);
  Helpers.check_close "half-life decay" 0.5 w.Wsap0.u.(7);
  let h = Wsap0.hot_range_weights ~n:10 ~lo:3 ~hi:5 ~cold:0.1 in
  Helpers.check_close "hot" 1. h.Wsap0.u.(3);
  Helpers.check_close "cold" 0.1 h.Wsap0.u.(0);
  let u = Wsap0.uniform_weights ~n:4 in
  Array.iter (fun x -> Helpers.check_close "uniform" 1. x) u.Wsap0.u

let test_validation () =
  let p = Helpers.prefix_of [| 1.; 2.; 3. |] in
  (try
     ignore (Wsap0.make p { Wsap0.u = [| 1.; 1. |]; v = [| 1.; 1.; 1. |] });
     Alcotest.fail "expected Invalid_argument (length)"
   with Invalid_argument _ -> ());
  try
    ignore (Wsap0.make p { Wsap0.u = [| 1.; -1.; 1. |]; v = [| 1.; 1.; 1. |] });
    Alcotest.fail "expected Invalid_argument (negative)"
  with Invalid_argument _ -> ()

let test_zero_weights_ok () =
  (* Buckets with all-zero endpoint weights cost nothing and answer
     finitely. *)
  let p = Helpers.prefix_of [| 5.; 7.; 2.; 9. |] in
  let weights = { Wsap0.u = [| 0.; 0.; 1.; 1. |]; v = [| 1.; 1.; 0.; 0. |] } in
  let ctx = Wsap0.make p weights in
  let h = Wsap0.histogram_of_bucketing ctx (Bucket.equi_width ~n:4 ~buckets:2) in
  for a = 1 to 4 do
    for b = a to 4 do
      Alcotest.(check bool) "finite" true
        (Float.is_finite (H.Histogram.estimate h ~a ~b))
    done
  done

let test_storage_words () =
  let p = Helpers.prefix_of (Array.make 12 3.) in
  let ctx = Wsap0.make p (Wsap0.uniform_weights ~n:12) in
  let h = Wsap0.histogram_of_bucketing ctx (Bucket.equi_width ~n:12 ~buckets:3) in
  Alcotest.(check int) "4B" 12 (H.Histogram.storage_words h)

let () =
  Alcotest.run "wsap0"
    [
      ( "correctness",
        [
          Alcotest.test_case "closed vs brute" `Quick test_closed_vs_brute;
          Alcotest.test_case "cost = weighted sse" `Quick test_cost_equals_weighted_sse;
          Alcotest.test_case "uniform = sap0" `Quick test_uniform_weights_match_sap0;
          Alcotest.test_case "dp optimal" `Quick test_dp_optimal_vs_exhaustive;
          Alcotest.test_case "aware beats blind" `Quick test_aware_beats_blind;
        ] );
      ( "api",
        [
          Alcotest.test_case "constructors" `Quick test_weight_constructors;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "zero weights" `Quick test_zero_weights_ok;
          Alcotest.test_case "storage" `Quick test_storage_words;
        ] );
    ]
