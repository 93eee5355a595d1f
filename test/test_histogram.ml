module H = Rs_histogram
module Histogram = H.Histogram
module Bucket = H.Bucket
module Cost = H.Cost
module Summaries = H.Summaries
module Exact_sse = H.Exact_sse
module Prefix = Rs_util.Prefix
module Error = Rs_query.Error
module Rng = Rs_dist.Rng
module D = Rs_histogram.Decomposable

let random_bucketing rng ~n ~buckets =
  let b = min buckets n in
  let perm = Rng.permutation rng (n - 1) in
  let cuts = Array.sub perm 0 (b - 1) in
  Array.sort compare cuts;
  Bucket.of_rights ~n (Array.append (Array.map (fun c -> c + 1) cuts) [| n |])

(* --- answering procedures --- *)

let test_full_range_exact () =
  (* With true averages, the Avg representation answers s[1,n] exactly
     (SAP0/SAP1 answer end pieces from bucket-level summaries, so they
     are deliberately insensitive to the exact endpoints and need not be
     exact here). *)
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Helpers.prefix_of data in
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng n) in
    Helpers.check_close "full range" (Prefix.total p)
      (Histogram.estimate (Summaries.avg_histogram p bk) ~a:1 ~b:n)
  done

let test_sap_intra_full_domain_exact () =
  (* When the whole domain is one bucket, intra answering uses the true
     average, so the full-range query is exact for all representations. *)
  let rng = Rng.create 6 in
  for _ = 1 to 5 do
    let n = 2 + Rng.int rng 15 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    let bk = Bucket.single ~n in
    List.iter
      (fun h ->
        Helpers.check_close "single-bucket full range" (Prefix.total p)
          (Histogram.estimate h ~a:1 ~b:n))
      [
        Summaries.avg_histogram p bk;
        Summaries.sap0_histogram ctx bk;
        Summaries.sap1_histogram ctx bk;
      ]
  done

let test_middle_piece_exact () =
  (* For true averages, a query spanning exact bucket boundaries is
     answered exactly. *)
  let data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8. |] in
  let p = Helpers.prefix_of data in
  let bk = Bucket.of_rights ~n:8 [| 2; 5; 8 |] in
  let h = Summaries.avg_histogram p bk in
  Helpers.check_close "bucket-aligned query" (Prefix.range_sum p ~a:3 ~b:5)
    (Histogram.estimate h ~a:3 ~b:5);
  Helpers.check_close "two buckets" (Prefix.range_sum p ~a:1 ~b:5)
    (Histogram.estimate h ~a:1 ~b:5)

let test_avg_answering_matches_formula_one () =
  (* ŝ[a,b] = Σ_i c_i(a,b)·v_i — check against a direct overlap loop. *)
  let rng = Rng.create 11 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 15 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Helpers.prefix_of data in
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng n) in
    let h = Summaries.avg_histogram p bk in
    let v = Histogram.avg_values h in
    for a = 1 to n do
      for b = a to n do
        let direct = ref 0. in
        Bucket.iter
          (fun k ~l ~r ->
            let o = min b r - max a l + 1 in
            if o > 0 then direct := !direct +. (float_of_int o *. v.(k)))
          bk;
        Helpers.check_close "formula (1)" !direct (Histogram.estimate h ~a ~b)
      done
    done
  done

let test_sap0_intra_uses_recovered_avg () =
  let data = [| 2.; 4.; 6.; 8.; 10.; 12. |] in
  let p = Helpers.prefix_of data in
  let ctx = Cost.make p in
  let bk = Bucket.of_rights ~n:6 [| 3; 6 |] in
  let h = Summaries.sap0_histogram ctx bk in
  (* Intra query in bucket 0 (values 2,4,6, avg 4). *)
  Helpers.check_close "intra" 8. (Histogram.estimate h ~a:1 ~b:2)

let test_rounded_answering () =
  let data = [| 1.; 2.; 2. |] in
  let p = Helpers.prefix_of data in
  let bk = Bucket.single ~n:3 in
  let h = Summaries.avg_histogram ~rounded:true p bk in
  (* avg = 5/3; query (1,1) = 1.666... rounds to 2. *)
  Helpers.check_close "rounded" 2. (Histogram.estimate h ~a:1 ~b:1);
  let h' = Summaries.avg_histogram p bk in
  Helpers.check_close "unrounded" (5. /. 3.) (Histogram.estimate h' ~a:1 ~b:1)

let test_storage_words () =
  let data = Array.make 10 1. in
  let p = Helpers.prefix_of data in
  let ctx = Cost.make p in
  let bk = Bucket.equi_width ~n:10 ~buckets:4 in
  Alcotest.(check int) "avg 2B" 8
    (Histogram.storage_words (Summaries.avg_histogram p bk));
  Alcotest.(check int) "sap0 3B" 12
    (Histogram.storage_words (Summaries.sap0_histogram ctx bk));
  Alcotest.(check int) "sap1 5B" 20
    (Histogram.storage_words (Summaries.sap1_histogram ctx bk))

let test_with_values () =
  let data = [| 1.; 5.; 9.; 2. |] in
  let p = Helpers.prefix_of data in
  let ctx = Cost.make p in
  let bk = Bucket.equi_width ~n:4 ~buckets:2 in
  let h = Summaries.avg_histogram p bk in
  let h' = Histogram.with_values h [| 10.; 20. |] in
  Helpers.check_close "new value used" 20. (Histogram.estimate h' ~a:4 ~b:4);
  Helpers.check_close "across buckets" 30. (Histogram.estimate h' ~a:2 ~b:3);
  (try
     ignore (Histogram.with_values (Summaries.sap0_histogram ctx bk) [| 1.; 2. |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Histogram.with_values h [| 1. |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* --- closed-form SSE vs brute force --- *)

let check_exact_sse data =
  let p = Helpers.prefix_of data in
  let ctx = Cost.make p in
  let n = Array.length data in
  let rng = Rng.create (Array.length data + int_of_float data.(0)) in
  for _ = 1 to 8 do
    let bk = random_bucketing rng ~n ~buckets:(1 + Rng.int rng n) in
    Helpers.check_close ~tol:1e-6 "avg sse"
      (Helpers.hist_sse p (Summaries.avg_histogram p bk))
      (Exact_sse.avg_histogram ctx bk);
    Helpers.check_close ~tol:1e-6 "sap0 sse"
      (Helpers.hist_sse p (Summaries.sap0_histogram ctx bk))
      (Exact_sse.sap0_histogram ctx bk);
    Helpers.check_close ~tol:1e-6 "sap1 sse"
      (Helpers.hist_sse p (Summaries.sap1_histogram ctx bk))
      (Exact_sse.sap1_histogram ctx bk)
  done

let test_exact_sse_small () =
  List.iter (fun (_, data) -> check_exact_sse data) Helpers.small_datasets

let test_exact_sse_random () =
  let rng = Rng.create 123 in
  for _ = 1 to 8 do
    let n = 2 + Rng.int rng 25 in
    check_exact_sse (Helpers.random_int_data rng ~n ~hi:15)
  done

(* --- DP optimality --- *)

let min_over_bucketings ~n ~buckets f =
  List.fold_left
    (fun acc bk -> Float.min acc (f bk))
    Float.infinity
    (List.concat_map
       (fun b -> Bucket.enumerate ~n ~buckets:b)
       (List.init buckets (fun i -> i + 1)))

let test_sap0_dp_optimal () =
  let rng = Rng.create 17 in
  for _ = 1 to 6 do
    let n = 3 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    for b = 1 to min 4 n do
      let _, cost = D.build_with_cost D.sap0 p ~buckets:b in
      let best = min_over_bucketings ~n ~buckets:b (Exact_sse.sap0_histogram ctx) in
      Helpers.check_close ~tol:1e-6 "sap0 dp = exhaustive" best cost
    done
  done

let test_sap1_dp_optimal () =
  let rng = Rng.create 18 in
  for _ = 1 to 6 do
    let n = 3 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    for b = 1 to min 4 n do
      let _, cost = D.build_with_cost D.sap1 p ~buckets:b in
      let best = min_over_bucketings ~n ~buckets:b (Exact_sse.sap1_histogram ctx) in
      Helpers.check_close ~tol:1e-6 "sap1 dp = exhaustive" best cost
    done
  done

let test_dp_cost_equals_true_sse () =
  (* For SAP0/SAP1 the DP objective is the true SSE of the histogram. *)
  let rng = Rng.create 19 in
  for _ = 1 to 6 do
    let n = 3 + Rng.int rng 15 in
    let data = Helpers.random_int_data rng ~n ~hi:20 in
    let p = Helpers.prefix_of data in
    let h0, c0 = D.build_with_cost D.sap0 p ~buckets:3 in
    Helpers.check_close ~tol:1e-6 "sap0" (Helpers.hist_sse p h0) c0;
    let h1, c1 = D.build_with_cost D.sap1 p ~buckets:3 in
    Helpers.check_close ~tol:1e-6 "sap1" (Helpers.hist_sse p h1) c1
  done

let test_sap1_beats_sap0_with_same_buckets () =
  (* SAP1 strictly generalizes SAP0's answering, so its optimal SSE is
     never larger at equal bucket count. *)
  let rng = Rng.create 20 in
  for _ = 1 to 10 do
    let n = 4 + Rng.int rng 20 in
    let data = Helpers.random_int_data rng ~n ~hi:25 in
    let p = Helpers.prefix_of data in
    for b = 1 to 5 do
      let _, c0 = D.build_with_cost D.sap0 p ~buckets:b in
      let _, c1 = D.build_with_cost D.sap1 p ~buckets:b in
      Alcotest.(check bool) "sap1 <= sap0" true (c1 <= c0 +. 1e-6)
    done
  done

let test_more_buckets_no_worse () =
  (* The DPs allow fewer buckets, so the objective is monotone in B. *)
  let rng = Rng.create 21 in
  let n = 18 in
  let data = Helpers.random_int_data rng ~n ~hi:25 in
  let p = Helpers.prefix_of data in
  let prev = ref Float.infinity in
  for b = 1 to 8 do
    let _, c = D.build_with_cost D.sap0 p ~buckets:b in
    Alcotest.(check bool) "monotone" true (c <= !prev +. 1e-9);
    prev := c
  done

let test_singletons_zero_error () =
  let data = [| 3.; 1.; 4.; 1.; 5. |] in
  let p = Helpers.prefix_of data in
  let h, c = D.build_with_cost D.sap0 p ~buckets:5 in
  Helpers.check_close "zero cost" 0. c;
  Helpers.check_close "zero sse" 0. (Helpers.hist_sse p h);
  let h1, _ = D.build_with_cost D.sap1 p ~buckets:5 in
  Helpers.check_close "sap1 zero" 0. (Helpers.hist_sse p h1)

(* --- V-Optimal / POINT-OPT --- *)

let test_vopt_unweighted_optimal () =
  let rng = Rng.create 22 in
  for _ = 1 to 5 do
    let n = 3 + Rng.int rng 7 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    for b = 1 to min 3 n do
      let _, cost = D.build_with_cost D.v_optimal p ~buckets:b in
      let best =
        min_over_bucketings ~n ~buckets:b (fun bk ->
            Bucket.fold
              (fun acc _ ~l ~r -> acc +. Cost.point_unweighted ctx ~l ~r)
              0. bk)
      in
      Helpers.check_close ~tol:1e-6 "vopt dp = exhaustive" best cost
    done
  done

let test_vopt_point_queries () =
  (* The unweighted V-Optimal objective equals the SSE over point
     queries. *)
  let rng = Rng.create 23 in
  let n = 12 in
  let data = Helpers.random_int_data rng ~n ~hi:20 in
  let p = Helpers.prefix_of data in
  let h, cost = D.build_with_cost D.v_optimal p ~buckets:4 in
  let w = Rs_query.Workload.point_queries ~n in
  let sse = Error.sse_of_workload p w (Helpers.hist_estimator h) in
  Helpers.check_close ~tol:1e-6 "point sse" sse cost

(* --- prefix-query-optimal (restricted class) --- *)

let test_prefix_opt_optimal_for_prefix_queries () =
  let rng = Rng.create 55 in
  for _ = 1 to 6 do
    let n = 3 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    for b = 1 to min 3 n do
      let _, cost = D.build_with_cost D.prefix_opt p ~buckets:b in
      let best =
        min_over_bucketings ~n ~buckets:b (fun bk ->
            Bucket.fold (fun acc _ ~l ~r -> acc +. Cost.a0_prefix ctx ~l ~r) 0. bk)
      in
      Helpers.check_close ~tol:1e-6 "prefix-opt dp = exhaustive" best cost
    done
  done

let test_prefix_opt_cost_is_prefix_sse () =
  (* The DP objective equals the SSE over the n prefix queries. *)
  let rng = Rng.create 56 in
  let n = 14 in
  let data = Helpers.random_int_data rng ~n ~hi:20 in
  let p = Helpers.prefix_of data in
  let h, cost = D.build_with_cost D.prefix_opt p ~buckets:4 in
  let w = Rs_query.Workload.of_pairs ~n (Array.init n (fun i -> (1, i + 1))) in
  Helpers.check_close ~tol:1e-6 "prefix sse"
    (Error.sse_of_workload p w (Helpers.hist_estimator h))
    cost

let test_prefix_opt_not_range_optimal () =
  (* The motivating gap: a prefix-optimal histogram is generally NOT
     optimal for all ranges (direction check on the paper dataset). *)
  let data = Array.map float_of_int (Rs_dist.Datasets.paper ()) in
  let p = Helpers.prefix_of data in
  let { H.Opt_a.sse = opt; _ } = H.Opt_a.build_staged ~max_states:2_000_000 p ~buckets:6 in
  let pre = D.build D.prefix_opt p ~buckets:6 in
  let pre_sse = Helpers.hist_sse p pre in
  Alcotest.(check bool) "prefix-opt worse on all ranges" true (pre_sse >= opt)

(* --- baselines --- *)

let test_naive () =
  let data = [| 1.; 2.; 3.; 4. |] in
  let p = Helpers.prefix_of data in
  let h = H.Baselines.naive p in
  Alcotest.(check int) "one bucket" 1 (Histogram.buckets h);
  Helpers.check_close "estimate" 5. (Histogram.estimate h ~a:1 ~b:2);
  Alcotest.(check string) "name" "naive" (Histogram.name h)

let test_equi_depth_masses () =
  let rng = Rng.create 31 in
  let n = 50 in
  let data = Helpers.random_int_data rng ~n ~hi:20 in
  data.(0) <- data.(0) +. 1. (* ensure positive total *);
  let p = Helpers.prefix_of data in
  let h = H.Baselines.equi_depth p ~buckets:5 in
  let bk = Histogram.bucketing h in
  Alcotest.(check int) "count" 5 (Bucket.count bk);
  (* Each bucket's mass is at most total/B plus one maximal value. *)
  let vmax = Array.fold_left Float.max 0. data in
  let budget = (Prefix.total p /. 5.) +. vmax +. 1e-9 in
  Bucket.iter
    (fun _ ~l ~r ->
      Alcotest.(check bool) "mass bounded" true
        (Prefix.range_sum p ~a:l ~b:r <= budget))
    bk

let test_equi_depth_head_heavy_regression () =
  (* Regression: all the mass on the first key used to push the interior
     cut to position n, duplicating the final right endpoint. *)
  List.iter
    (fun b ->
      let data = [| 100.; 0.; 0.; 0. |] in
      let p = Helpers.prefix_of data in
      let h = H.Baselines.equi_depth p ~buckets:b in
      Alcotest.(check int) "bucket count" (min b 4) (Histogram.buckets h))
    [ 2; 3; 4 ];
  (* And with the mass at the end. *)
  let p = Helpers.prefix_of [| 0.; 0.; 0.; 100. |] in
  Alcotest.(check int) "tail heavy" 2
    (Histogram.buckets (H.Baselines.equi_depth p ~buckets:2))

let test_max_diff_cuts () =
  let data = [| 1.; 1.; 50.; 1.; 1.; 90.; 1.; 1. |] in
  let p = Helpers.prefix_of data in
  let h = H.Baselines.max_diff p ~buckets:3 in
  let rights = Bucket.rights (Histogram.bucketing h) in
  (* Adjacent jumps: |A[6]−A[5]| = |A[7]−A[6]| = 89 (boundaries 5 and 6)
     dominate the 49s around the first spike, so the two cuts isolate
     the value 90 in its own bucket. *)
  Alcotest.(check (array int)) "cuts" [| 5; 6; 8 |] rights

let () =
  Alcotest.run "histogram"
    [
      ( "answering",
        [
          Alcotest.test_case "full range exact" `Quick test_full_range_exact;
          Alcotest.test_case "single-bucket exact" `Quick test_sap_intra_full_domain_exact;
          Alcotest.test_case "middle piece exact" `Quick test_middle_piece_exact;
          Alcotest.test_case "formula (1)" `Quick test_avg_answering_matches_formula_one;
          Alcotest.test_case "sap0 intra avg" `Quick test_sap0_intra_uses_recovered_avg;
          Alcotest.test_case "rounded" `Quick test_rounded_answering;
          Alcotest.test_case "storage" `Quick test_storage_words;
          Alcotest.test_case "with_values" `Quick test_with_values;
        ] );
      ( "exact-sse",
        [
          Alcotest.test_case "small datasets" `Quick test_exact_sse_small;
          Alcotest.test_case "random" `Quick test_exact_sse_random;
        ] );
      ( "dp",
        [
          Alcotest.test_case "sap0 optimal" `Quick test_sap0_dp_optimal;
          Alcotest.test_case "sap1 optimal" `Quick test_sap1_dp_optimal;
          Alcotest.test_case "dp cost = sse" `Quick test_dp_cost_equals_true_sse;
          Alcotest.test_case "sap1 <= sap0" `Quick test_sap1_beats_sap0_with_same_buckets;
          Alcotest.test_case "monotone in B" `Quick test_more_buckets_no_worse;
          Alcotest.test_case "singletons zero" `Quick test_singletons_zero_error;
        ] );
      ( "vopt",
        [
          Alcotest.test_case "unweighted optimal" `Quick test_vopt_unweighted_optimal;
          Alcotest.test_case "point query sse" `Quick test_vopt_point_queries;
        ] );
      ( "prefix-opt",
        [
          Alcotest.test_case "optimal for prefixes" `Quick test_prefix_opt_optimal_for_prefix_queries;
          Alcotest.test_case "cost is prefix sse" `Quick test_prefix_opt_cost_is_prefix_sse;
          Alcotest.test_case "not range optimal" `Quick test_prefix_opt_not_range_optimal;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive" `Quick test_naive;
          Alcotest.test_case "equi-depth masses" `Quick test_equi_depth_masses;
          Alcotest.test_case "equi-depth head-heavy" `Quick test_equi_depth_head_heavy_regression;
          Alcotest.test_case "max-diff cuts" `Quick test_max_diff_cuts;
        ] );
    ]
