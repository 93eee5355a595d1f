type t = {
  name : string;
  cost : Cost.t -> l:int -> r:int -> float;
  certified : Cost.t -> bool;
  summarise : name:string -> Cost.t -> Bucket.t -> Histogram.t;
}

let never _ = false

let avg ~name ctx bucketing =
  Summaries.avg_histogram ~name (Cost.prefix ctx) bucketing

let a0 =
  { name = "a0"; cost = Cost.a0_bucket; certified = never; summarise = avg }

let sap0 =
  {
    name = "sap0";
    cost = Cost.sap0_bucket;
    certified = never;
    summarise = (fun ~name -> Summaries.sap0_histogram ~name);
  }

let sap1 =
  {
    name = "sap1";
    cost = Cost.sap1_bucket;
    certified = never;
    summarise = (fun ~name -> Summaries.sap1_histogram ~name);
  }

let prefix_opt =
  {
    name = "prefix-opt";
    cost = Cost.a0_prefix;
    certified = Cost.data_sorted;
    summarise = avg;
  }

let point_opt =
  {
    name = "point-opt";
    cost = Cost.point_range_weighted;
    certified = Cost.data_sorted;
    summarise =
      (fun ~name ctx bucketing ->
        let values =
          Array.init (Bucket.count bucketing) (fun k ->
              let l, r = Bucket.bounds bucketing k in
              Cost.point_range_weighted_value ctx ~l ~r)
        in
        Histogram.make ~name bucketing (Histogram.Avg values));
  }

let v_optimal =
  {
    name = "v-optimal";
    cost = Cost.point_unweighted;
    certified = Cost.data_sorted;
    summarise = avg;
  }

let build_with_cost ?engine ?governor ?stage ?jobs t p ~buckets =
  let ctx = Cost.make p in
  let cost ~l ~r = t.cost ctx ~l ~r in
  let { Dp.cost = objective; bucketing } =
    Dp.solve_with ?engine ~certified:(t.certified ctx) ?governor ?stage ?jobs
      ~n:(Rs_util.Prefix.n p) ~buckets ~cost ()
  in
  (t.summarise ~name:t.name ctx bucketing, objective)

let build ?engine ?governor ?stage ?jobs t p ~buckets =
  fst (build_with_cost ?engine ?governor ?stage ?jobs t p ~buckets)
