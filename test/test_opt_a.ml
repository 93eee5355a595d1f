module H = Rs_histogram
module Bucket = H.Bucket
module Cost = H.Cost
module Exact_sse = H.Exact_sse
module Opt_a = H.Opt_a
module Prefix = Rs_util.Prefix
module Rng = Rs_dist.Rng
module D = Rs_histogram.Decomposable

let min_over_bucketings ~n ~buckets f =
  List.fold_left
    (fun acc bk -> Float.min acc (f bk))
    Float.infinity
    (List.concat_map
       (fun b -> Bucket.enumerate ~n ~buckets:b)
       (List.init buckets (fun i -> i + 1)))

(* The heart of the reproduction: the pseudopolynomial DP finds the true
   optimum of the full range-SSE, cross terms included — checked against
   exhaustive search over all bucketings. *)
let test_exact_vs_exhaustive () =
  let rng = Rng.create 100 in
  for _trial = 1 to 12 do
    let n = 3 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    for b = 1 to min 4 n do
      let { Opt_a.sse; _ } = Opt_a.build_exact p ~buckets:b in
      let best = min_over_bucketings ~n ~buckets:b (Exact_sse.avg_histogram ctx) in
      Helpers.check_close ~tol:1e-6
        (Printf.sprintf "opt-a = exhaustive (n=%d b=%d)" n b)
        best sse
    done
  done

let test_dp_sse_is_true_sse () =
  (* The DP objective equals the brute-force SSE of the histogram it
     returns. *)
  let rng = Rng.create 101 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 12 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let p = Helpers.prefix_of data in
    let { Opt_a.histogram; sse; _ } = Opt_a.build_exact p ~buckets:3 in
    Helpers.check_close ~tol:1e-6 "dp sse = brute sse"
      (Helpers.hist_sse p histogram)
      sse
  done

let test_opt_a_beats_other_boundaries () =
  (* No other bucketing with B buckets (filled with true averages) does
     better. *)
  let rng = Rng.create 102 in
  for _ = 1 to 6 do
    let n = 5 + Rng.int rng 6 in
    let data = Helpers.random_int_data rng ~n ~hi:10 in
    let p = Helpers.prefix_of data in
    let ctx = Cost.make p in
    let { Opt_a.sse; _ } = Opt_a.build_exact p ~buckets:3 in
    List.iter
      (fun bk ->
        Alcotest.(check bool) "opt-a is minimal" true
          (sse <= Exact_sse.avg_histogram ctx bk +. 1e-6))
      (Bucket.enumerate ~n ~buckets:3)
  done

let test_requires_integral_data () =
  let p = Helpers.prefix_of [| 1.5; 2. |] in
  try
    ignore (Opt_a.build p ~buckets:2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_singletons_zero () =
  let p = Helpers.prefix_of [| 3.; 9.; 4. |] in
  let { Opt_a.sse; _ } = Opt_a.build_exact p ~buckets:3 in
  Helpers.check_close "zero" 0. sse

let test_one_bucket_matches_naive () =
  let data = [| 2.; 8.; 5.; 5. |] in
  let p = Helpers.prefix_of data in
  let { Opt_a.histogram; sse; _ } = Opt_a.build_exact p ~buckets:1 in
  Alcotest.(check int) "one bucket" 1 (H.Histogram.buckets histogram);
  Helpers.check_close "matches naive sse"
    (Helpers.hist_sse p (H.Baselines.naive p))
    sse

let test_sap1_no_worse_than_opt_a_same_buckets () =
  (* Theorem-level claim (Section 2.2.2): SAP1 with the same number of
     buckets is never worse than OPT-A. *)
  let rng = Rng.create 103 in
  for _ = 1 to 8 do
    let n = 4 + Rng.int rng 10 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    for b = 1 to 4 do
      let { Opt_a.sse = opt_a; _ } = Opt_a.build_exact p ~buckets:b in
      let _, sap1 = D.build_with_cost D.sap1 p ~buckets:b in
      Alcotest.(check bool)
        (Printf.sprintf "sap1 <= opt-a (n=%d b=%d)" n b)
        true (sap1 <= opt_a +. 1e-6)
    done
  done

let test_opt_a_no_worse_than_a0_and_baselines () =
  let rng = Rng.create 104 in
  for _ = 1 to 6 do
    let n = 5 + Rng.int rng 10 in
    let data = Helpers.random_int_data rng ~n ~hi:15 in
    let p = Helpers.prefix_of data in
    let b = 3 in
    let { Opt_a.sse = opt; _ } = Opt_a.build_exact p ~buckets:b in
    List.iter
      (fun h ->
        Alcotest.(check bool)
          ("opt-a <= " ^ H.Histogram.name h)
          true
          (opt <= Helpers.hist_sse p h +. 1e-6))
      [
        D.build D.a0 p ~buckets:b;
        (* weighted POINT-OPT stores weighted means, which fall outside
           the class OPT-A is optimal over — use the unweighted variant *)
        D.build D.v_optimal p ~buckets:b;
        H.Baselines.equi_width p ~buckets:b;
        H.Baselines.equi_depth p ~buckets:b;
        H.Baselines.max_diff p ~buckets:b;
      ]
  done

let test_rounded_x1_matches_exact () =
  (* x = 1 only rounds to integers, which the data already is. *)
  let rng = Rng.create 105 in
  for _ = 1 to 5 do
    let n = 4 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:12 in
    let p = Helpers.prefix_of data in
    let exact = Opt_a.build_exact p ~buckets:3 in
    let rounded = Opt_a.build_rounded p ~buckets:3 ~x:1 in
    Helpers.check_close ~tol:1e-6 "same sse" exact.Opt_a.sse rounded.Opt_a.sse
  done

let test_rounded_quality_degrades_gracefully () =
  let rng = Rng.create 106 in
  let n = 16 in
  let data = Helpers.random_int_data rng ~n ~hi:100 in
  let p = Helpers.prefix_of data in
  let exact = Opt_a.build_exact p ~buckets:4 in
  List.iter
    (fun x ->
      let r = Opt_a.build_rounded p ~buckets:4 ~x in
      (* Never better than the optimum, and the SSE it reports is the
         true SSE of its histogram. *)
      Alcotest.(check bool) "not better than optimal" true
        (r.Opt_a.sse >= exact.Opt_a.sse -. 1e-6);
      Helpers.check_close ~tol:1e-6 "reported sse is true"
        (Helpers.hist_sse p r.Opt_a.histogram)
        r.Opt_a.sse)
    [ 2; 5; 10; 50 ]

let test_x_of_eps () =
  let p = Helpers.prefix_of (Array.make 100 10.) in
  Alcotest.(check int) "eps=0.1" (max 1 (int_of_float (ceil (0.1 *. 1000. /. 100.))))
    (Opt_a.x_of_eps p ~eps:0.1);
  Alcotest.(check int) "tiny eps floors at 1" 1 (Opt_a.x_of_eps p ~eps:1e-9)

let test_beam_is_sound () =
  (* A beam returns a valid histogram whose reported SSE is its true
     SSE and is no better than the optimum. *)
  let rng = Rng.create 107 in
  let n = 14 in
  let data = Helpers.random_int_data rng ~n ~hi:40 in
  let p = Helpers.prefix_of data in
  let exact = Opt_a.build_exact p ~buckets:4 in
  let beamed = Opt_a.build_exact ~beam:3 p ~buckets:4 in
  Alcotest.(check bool) "beam >= exact" true
    (beamed.Opt_a.sse >= exact.Opt_a.sse -. 1e-6);
  Helpers.check_close ~tol:1e-6 "beam sse true"
    (Helpers.hist_sse p beamed.Opt_a.histogram)
    beamed.Opt_a.sse

let test_max_states_guard () =
  let rng = Rng.create 108 in
  let n = 24 in
  let data = Helpers.random_int_data rng ~n ~hi:200 in
  let p = Helpers.prefix_of data in
  try
    ignore (Opt_a.build_exact ~max_states:50 p ~buckets:6);
    Alcotest.fail "expected Too_many_states"
  with Opt_a.Too_many_states { states; limit } ->
    Alcotest.(check bool) "reported" true (states > limit - 10)

let prop_opt_a_optimal_small =
  Helpers.qtest ~count:40 "opt-a optimal on random small data"
    Helpers.small_data_arb (fun data ->
      let n = Array.length data in
      if n < 2 then true
      else begin
        let p = Helpers.prefix_of data in
        let ctx = Cost.make p in
        let b = min 3 n in
        let { Opt_a.sse; _ } = Opt_a.build_exact p ~buckets:b in
        let best = min_over_bucketings ~n ~buckets:b (Exact_sse.avg_histogram ctx) in
        Helpers.close ~tol:1e-6 sse best
      end)

(* The Section-2.1.1 warm-up DP (two-parameter state) must agree with
   the improved Section-2.1.2 algorithm on the optimum. *)
let test_warmup_matches_improved () =
  let rng = Rng.create 110 in
  for _ = 1 to 10 do
    let n = 3 + Rng.int rng 8 in
    let data = Helpers.random_int_data rng ~n ~hi:10 in
    let p = Helpers.prefix_of data in
    for b = 1 to min 3 n do
      let improved = Opt_a.build_exact p ~buckets:b in
      let warmup = H.Opt_a_warmup.build_exact p ~buckets:b in
      Helpers.check_close ~tol:1e-6
        (Printf.sprintf "warmup = improved (n=%d b=%d)" n b)
        improved.Opt_a.sse warmup.H.Opt_a_warmup.sse
    done
  done

let test_warmup_state_guard () =
  let rng = Rng.create 111 in
  let data = Helpers.random_int_data rng ~n:20 ~hi:300 in
  let p = Helpers.prefix_of data in
  try
    ignore (H.Opt_a_warmup.build_exact ~max_states:30 p ~buckets:5);
    Alcotest.fail "expected Too_many_states"
  with Opt_a.Too_many_states _ -> ()

let test_warmup_uses_more_states () =
  (* The whole point of Section 2.1.2: dropping Λ₂ shrinks the state
     space.  Check the warm-up is never smaller on non-trivial inputs. *)
  let rng = Rng.create 112 in
  let data = Helpers.random_int_data rng ~n:12 ~hi:15 in
  let p = Helpers.prefix_of data in
  let improved = Opt_a.build_exact p ~buckets:3 in
  let warmup = H.Opt_a_warmup.build_exact p ~buckets:3 in
  Alcotest.(check bool) "warmup >= improved states" true
    (warmup.H.Opt_a_warmup.states >= improved.Opt_a.states)

(* --- Fast vs Reference transition kernels ---

   The fused unboxed kernel (Ktbl.relax over a sealed level) is
   contractually bit-identical to the iter+update_min reference: same
   SSE bits, same bucketing, same state counts, same Too_many_states
   payload, and byte-identical snapshots — so an interrupted run under
   one kernel resumes under the other. *)

let check_kernels_equal label (a : Opt_a.result) (b : Opt_a.result) =
  if not (Float.equal a.Opt_a.sse b.Opt_a.sse) then
    Alcotest.failf "%s: sse %.17g <> %.17g" label a.Opt_a.sse b.Opt_a.sse;
  Alcotest.(check (array int))
    (label ^ ": rights")
    (Bucket.rights (H.Histogram.bucketing a.Opt_a.histogram))
    (Bucket.rights (H.Histogram.bucketing b.Opt_a.histogram));
  Alcotest.(check int) (label ^ ": states") a.Opt_a.states b.Opt_a.states

let test_kernel_twins_random () =
  let rng = Rng.create 0xF457 in
  for trial = 1 to 15 do
    let n = 4 + Rng.int rng 14 in
    let data = Helpers.random_int_data rng ~n ~hi:30 in
    let p = Helpers.prefix_of data in
    let buckets = 1 + Rng.int rng 4 in
    check_kernels_equal
      (Printf.sprintf "trial %d" trial)
      (Opt_a.build_exact ~kernel:Opt_a.Fast p ~buckets)
      (Opt_a.build_exact ~kernel:Opt_a.Reference p ~buckets)
  done

let test_kernel_twins_beam () =
  let data = [| 9.; 1.; 4.; 4.; 7.; 2.; 8.; 3.; 6.; 5.; 2.; 7. |] in
  let p = Prefix.create data in
  List.iter
    (fun beam ->
      check_kernels_equal
        (Printf.sprintf "beam %d" beam)
        (Opt_a.build_exact ~kernel:Opt_a.Fast ~beam p ~buckets:4)
        (Opt_a.build_exact ~kernel:Opt_a.Reference ~beam p ~buckets:4))
    [ 1; 3; 17 ]

let test_kernel_twins_too_many_states () =
  let data = Array.init 14 (fun i -> float_of_int ((i * 5 mod 11) + 1)) in
  let p = Prefix.create data in
  let payload kernel =
    match Opt_a.build_exact ~kernel ~max_states:40 p ~buckets:4 with
    | _ -> Alcotest.failf "%s: 40 states must not suffice" (Opt_a.kernel_name kernel)
    | exception Opt_a.Too_many_states { states; limit } -> (states, limit)
  in
  Alcotest.(check (pair int int))
    "identical Too_many_states payload" (payload Opt_a.Fast)
    (payload Opt_a.Reference)

let test_kernel_twins_snapshots_interchange () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let with_tmp f =
    let path = Filename.temp_file "rs_opta_k" ".ckpt" in
    Sys.remove path;
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists path then Sys.remove path;
        let tmp = path ^ ".tmp" in
        if Sys.file_exists tmp then Sys.remove tmp)
      (fun () -> f path)
  in
  let data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8.; 4.; 6. |] in
  let p = Prefix.create data in
  let buckets = 4 in
  (* pin key_cap so the governed UB-seeding pass is skipped and every
     poll lands in the exact DP, where snapshots exist *)
  let key_cap = 100_000 in
  let base = Opt_a.build_exact ~key_cap p ~buckets in
  let module Governor = Rs_util.Governor in
  let compared = ref 0 in
  for budget = 1 to 40 do
    (* interrupt under [kernel], resume under the other one (while the
       checkpoint file still exists), and hand back the snapshot bytes *)
    let snap kernel ~resume_kernel =
      with_tmp (fun path ->
          let governor =
            Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:budget
              ()
          in
          match
            Opt_a.build_exact ~kernel ~key_cap ~governor ~checkpoint_path:path
              p ~buckets
          with
          | _ -> None
          | exception Governor.Interrupted { checkpoint; _ } ->
              let bytes = read_file path in
              check_kernels_equal
                (Printf.sprintf "budget %d %s->%s resume" budget
                   (Opt_a.kernel_name kernel)
                   (Opt_a.kernel_name resume_kernel))
                base
                (Opt_a.build_exact ~kernel:resume_kernel ~key_cap
                   ~resume_from:checkpoint p ~buckets);
              Some bytes)
    in
    match
      ( snap Opt_a.Fast ~resume_kernel:Opt_a.Reference,
        snap Opt_a.Reference ~resume_kernel:Opt_a.Fast )
    with
    | None, None -> ()
    | Some _, None | None, Some _ ->
        Alcotest.failf "budget %d: kernels disagree on interruption" budget
    | Some fast_bytes, Some ref_bytes ->
        incr compared;
        if fast_bytes <> ref_bytes then
          Alcotest.failf "budget %d: snapshot bytes differ across kernels"
            budget
  done;
  Alcotest.(check bool) "at least one interruption" true (!compared > 0)

let () =
  Alcotest.run "opt_a"
    [
      ( "optimality",
        [
          Alcotest.test_case "exact vs exhaustive" `Quick test_exact_vs_exhaustive;
          Alcotest.test_case "dp sse is true sse" `Quick test_dp_sse_is_true_sse;
          Alcotest.test_case "beats all boundaries" `Quick test_opt_a_beats_other_boundaries;
          Alcotest.test_case "sap1 <= opt-a" `Quick test_sap1_no_worse_than_opt_a_same_buckets;
          Alcotest.test_case "opt-a <= heuristics" `Quick test_opt_a_no_worse_than_a0_and_baselines;
          prop_opt_a_optimal_small;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "requires ints" `Quick test_requires_integral_data;
          Alcotest.test_case "singletons zero" `Quick test_singletons_zero;
          Alcotest.test_case "one bucket" `Quick test_one_bucket_matches_naive;
        ] );
      ( "rounded",
        [
          Alcotest.test_case "x=1 exact" `Quick test_rounded_x1_matches_exact;
          Alcotest.test_case "graceful degradation" `Quick test_rounded_quality_degrades_gracefully;
          Alcotest.test_case "x_of_eps" `Quick test_x_of_eps;
        ] );
      ( "engineering",
        [
          Alcotest.test_case "beam sound" `Quick test_beam_is_sound;
          Alcotest.test_case "state guard" `Quick test_max_states_guard;
        ] );
      ( "kernel-twins",
        [
          Alcotest.test_case "random sweeps" `Quick test_kernel_twins_random;
          Alcotest.test_case "beam truncation" `Quick test_kernel_twins_beam;
          Alcotest.test_case "state-budget payload" `Quick
            test_kernel_twins_too_many_states;
          Alcotest.test_case "snapshot interchange" `Quick
            test_kernel_twins_snapshots_interchange;
        ] );
      ( "warmup",
        [
          Alcotest.test_case "matches improved" `Quick test_warmup_matches_improved;
          Alcotest.test_case "state guard" `Quick test_warmup_state_guard;
          Alcotest.test_case "more states" `Quick test_warmup_uses_more_states;
        ] );
    ]
