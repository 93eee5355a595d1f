module Wsap0 = Rs_histogram.Wsap0
module Decomposable = Rs_histogram.Decomposable
module Histogram = Rs_histogram.Histogram
module Dataset = Rs_core.Dataset
module Text_table = Rs_util.Text_table

type row = {
  workload : string;
  buckets : int;
  blind_sse : float;
  aware_sse : float;
  improvement_pct : float;
}

let workloads n =
  [
    ("uniform", Wsap0.uniform_weights ~n);
    ("recency", Wsap0.recency_weights ~n ~half_life:(float_of_int n /. 8.));
    ( "hot-middle",
      Wsap0.hot_range_weights ~n ~lo:(n / 3) ~hi:(2 * n / 3) ~cold:0.05 );
  ]

let run ?(buckets_list = [ 4; 8; 16 ]) ds =
  let p = Dataset.prefix ds in
  let n = Dataset.n ds in
  List.concat_map
    (fun (name, weights) ->
      let ctx = Wsap0.make p weights in
      List.map
        (fun buckets ->
          let blind, _ =
            Decomposable.build_with_cost Decomposable.sap0 p ~buckets
          in
          let blind_sse =
            Wsap0.weighted_sse_of_bucketing ctx (Histogram.bucketing blind)
          in
          let _, aware_sse = Wsap0.build_with_cost p weights ~buckets in
          {
            workload = name;
            buckets;
            blind_sse;
            aware_sse;
            improvement_pct =
              (if blind_sse > 0. then
                 100. *. (blind_sse -. aware_sse) /. blind_sse
               else 0.);
          })
        buckets_list)
    (workloads n)

let table rows =
  Text_table.render
    ~header:[ "workload"; "B"; "blind sap0 (weighted sse)"; "wsap0"; "gain" ]
    (List.map
       (fun r ->
         [
           r.workload;
           string_of_int r.buckets;
           Text_table.float_cell ~prec:4 r.blind_sse;
           Text_table.float_cell ~prec:4 r.aware_sse;
           Printf.sprintf "%.1f%%" r.improvement_pct;
         ])
       rows)

let verdict rows =
  let non_uniform = List.filter (fun r -> r.workload <> "uniform") rows in
  let uniform = List.filter (fun r -> r.workload = "uniform") rows in
  let never_worse = List.for_all (fun r -> r.improvement_pct >= -1e-6) rows in
  let best =
    List.fold_left (fun acc r -> Float.max acc r.improvement_pct) 0. non_uniform
  in
  let uniform_noop =
    List.for_all (fun r -> abs_float r.improvement_pct < 1e-6) uniform
  in
  {
    Claims.claim_id = "W1";
    description =
      "(extension) knowing the workload improves the optimal histogram; \
       uniform weights recover SAP0 exactly";
    measured =
      Printf.sprintf
        "aware never worse: %b; best gain %.0f%%; uniform gain = 0: %b"
        never_worse best uniform_noop;
    holds = never_worse && uniform_noop && best > 5.;
  }
