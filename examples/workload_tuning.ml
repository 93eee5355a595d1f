(* Workload-aware synopses and live maintenance.

   Scenario: a metrics store keeps one small histogram per time-series
   column.  Queries are recency-biased (dashboards look at the last few
   hours far more often than last month), and the data keeps changing.

   Part 1 shows the workload-aware optimum (Wsap0, this library's
   extension of the paper's Decomposition Lemma to weighted workloads)
   against the workload-blind optimum at the same bucket count.

   Part 2 shows dynamic maintenance of a wavelet synopsis under point
   updates (O(log n) coefficient corrections), the cheap alternative to
   rebuilding after every insert.

   Run with:  dune exec examples/workload_tuning.exe *)

module Dataset = Rs_core.Dataset
module Wsap0 = Rs_histogram.Wsap0
module Decomposable = Rs_histogram.Decomposable
module Histogram = Rs_histogram.Histogram
module Synopsis = Rs_wavelet.Synopsis
module Prefix = Rs_util.Prefix
module Error = Rs_query.Error
module Rng = Rs_dist.Rng

let () =
  Rs_util.Logging.setup_from_env ();
  (* Part 1: recency-weighted histograms. *)
  let ds = Dataset.generate "zipf-perm-255" in
  let p = Dataset.prefix ds in
  let n = Dataset.n ds in
  Printf.printf "column with n=%d values; dashboard queries hit recent values\n" n;
  let weights = Wsap0.recency_weights ~n ~half_life:(float_of_int n /. 10.) in
  let ctx = Wsap0.make p weights in
  Printf.printf "\n%6s %22s %22s %8s\n" "B" "blind sap0 (wSSE)" "workload-aware (wSSE)" "gain";
  List.iter
    (fun b ->
      let blind, _ =
        Decomposable.build_with_cost Decomposable.sap0 p ~buckets:b
      in
      let blind_w =
        Wsap0.weighted_sse_of_bucketing ctx (Histogram.bucketing blind)
      in
      let _, aware_w = Wsap0.build_with_cost p weights ~buckets:b in
      Printf.printf "%6d %22.4g %22.4g %7.1f%%\n" b blind_w aware_w
        (100. *. (blind_w -. aware_w) /. blind_w))
    [ 4; 8; 16; 32 ];

  (* Part 2: dynamic maintenance. *)
  Printf.printf "\n--- live updates on a wavelet synopsis ---\n";
  let data = Array.map float_of_int (Rs_dist.Datasets.by_name "zipf-127") in
  let current = Array.copy data in
  let synopsis = ref (Synopsis.range_optimal data ~b:16) in
  let rng = Rng.create 99 in
  let report step =
    let p = Prefix.create current in
    let maintained = Error.sse_prefix_form p (Synopsis.prefix_hat !synopsis) in
    let rebuilt =
      Error.sse_prefix_form p
        (Synopsis.prefix_hat (Synopsis.range_optimal current ~b:16))
    in
    Printf.printf
      "after %4d updates: maintained synopsis SSE %12.1f | fresh rebuild %12.1f\n"
      step maintained rebuilt
  in
  report 0;
  let steps = 500 in
  for step = 1 to steps do
    let i = 1 + Rng.int rng 127 in
    let delta = float_of_int (Rng.int rng 7 - 3) in
    if current.(i - 1) +. delta >= 0. then begin
      current.(i - 1) <- current.(i - 1) +. delta;
      synopsis := Synopsis.update !synopsis ~i ~delta
    end;
    if step mod 100 = 0 then report step
  done;
  print_newline ();
  print_endline
    "Maintained coefficients track the kept set exactly (O(log n) per update);";
  print_endline
    "the gap to a fresh rebuild is the drift of the dropped coefficients —";
  print_endline "rebuild occasionally, update continuously."
