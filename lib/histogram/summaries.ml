let per_bucket f bucketing =
  Array.init (Bucket.count bucketing) (fun k ->
      let l, r = Bucket.bounds bucketing k in
      f ~l ~r)

let avg_histogram ?rounded ?(name = "avg") p bucketing =
  let mean ~l ~r = Rs_util.Prefix.mean p ~a:l ~b:r in
  Histogram.make ?rounded ~name bucketing
    (Histogram.Avg (per_bucket mean bucketing))

let sap0_histogram ?(name = "sap0") ctx bucketing =
  let suff = per_bucket (Cost.sap0_suffix_value ctx) bucketing in
  let pref = per_bucket (Cost.sap0_prefix_value ctx) bucketing in
  Histogram.make ~name bucketing (Histogram.Sap0 { suff; pref })

let sap1_histogram ?(name = "sap1") ctx bucketing =
  let suff = per_bucket (Cost.sap1_suffix_fit ctx) bucketing in
  let pref = per_bucket (Cost.sap1_prefix_fit ctx) bucketing in
  Histogram.make ~name bucketing (Histogram.Sap1 { suff; pref })
