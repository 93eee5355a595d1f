module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Synopsis = Rs_core.Synopsis

let tmp_file suffix =
  Filename.temp_file "rs_core_test" suffix

let test_dataset_of_ints () =
  let ds = Dataset.of_ints ~name:"t" [| 1; 2; 3 |] in
  Alcotest.(check int) "n" 3 (Dataset.n ds);
  Helpers.check_close "total" 6. (Dataset.total ds);
  Alcotest.(check bool) "integral" true (Dataset.is_integral ds);
  Alcotest.(check string) "name" "t" (Dataset.name ds)

let test_dataset_rejects_negative () =
  try
    ignore (Dataset.of_floats [| 1.; -2. |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_dataset_save_load_roundtrip () =
  let ds = Dataset.of_floats ~name:"rt" [| 1.; 2.5; 0.; 42. |] in
  let path = tmp_file ".txt" in
  Dataset.save ds path;
  let ds' = Dataset.load path in
  Sys.remove path;
  Alcotest.(check bool) "values" true
    (Rs_util.Float_cmp.close_arrays (Dataset.values ds) (Dataset.values ds'))

let test_dataset_load_comments_and_blanks () =
  let path = tmp_file ".txt" in
  let oc = open_out path in
  output_string oc "# header\n10\n\n  20 \n# trailing\n30\n";
  close_out oc;
  let ds = Dataset.load path in
  Sys.remove path;
  Alcotest.(check int) "n" 3 (Dataset.n ds);
  Helpers.check_close "total" 60. (Dataset.total ds)

let test_dataset_load_rejects_garbage () =
  let path = tmp_file ".txt" in
  let oc = open_out path in
  output_string oc "10\nnot-a-number\n";
  close_out oc;
  let r = try ignore (Dataset.load path); false with Invalid_argument _ -> true in
  Sys.remove path;
  Alcotest.(check bool) "raises" true r

let test_dataset_generate () =
  let ds = Dataset.generate "zipf-32" in
  Alcotest.(check int) "n" 32 (Dataset.n ds);
  try
    ignore (Dataset.generate "nope");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let small_ds = lazy (Dataset.generate "zipf-32")

let test_builder_all_methods_run () =
  let ds = Lazy.force small_ds in
  List.iter
    (fun m ->
      let s = Builder.build ds ~method_name:m ~budget_words:12 in
      (* Storage within budget (naive uses a fixed 2 words). *)
      Alcotest.(check bool)
        (m ^ " within budget")
        true
        (Synopsis.storage_words s <= 12);
      (* Estimates are finite everywhere. *)
      for a = 1 to Dataset.n ds do
        for b = a to Dataset.n ds do
          if not (Float.is_finite (Synopsis.estimate s ~a ~b)) then
            Alcotest.failf "%s produced a non-finite estimate" m
        done
      done;
      ignore (Synopsis.describe s))
    Builder.methods

let test_builder_unknown_method () =
  (try
     ignore
       (Builder.build (Lazy.force small_ds) ~method_name:"bogus" ~budget_words:8);
     Alcotest.fail "expected Rs_error (Unknown_method _)"
   with Rs_util.Error.Rs_error (Rs_util.Error.Unknown_method { name; _ }) ->
     Alcotest.(check string) "offender named" "bogus" name);
  match
    Builder.build_result (Lazy.force small_ds) ~method_name:"bogus"
      ~budget_words:8
  with
  | Error (Rs_util.Error.Unknown_method _) -> ()
  | Ok _ -> Alcotest.fail "expected Error (Unknown_method _)"
  | Error e -> Alcotest.failf "wrong error: %s" (Rs_util.Error.to_string e)

let test_builder_opt_a_requires_ints () =
  let ds = Dataset.of_floats [| 1.5; 2.; 3. |] in
  try
    ignore (Builder.build ds ~method_name:"opt-a" ~budget_words:4);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_builder_units () =
  Alcotest.(check int) "avg" 6
    (Builder.units_for_budget ~method_name:"opt-a" ~budget_words:12);
  Alcotest.(check int) "sap0" 4
    (Builder.units_for_budget ~method_name:"sap0" ~budget_words:12);
  Alcotest.(check int) "sap1" 2
    (Builder.units_for_budget ~method_name:"sap1" ~budget_words:12);
  Alcotest.(check int) "at least one" 1
    (Builder.units_for_budget ~method_name:"sap1" ~budget_words:3)

let test_synopsis_sse_consistent () =
  (* The wavelet prefix-form fast path agrees with brute force for both
     shared- and two-sided synopses. *)
  let ds = Lazy.force small_ds in
  let p = Dataset.prefix ds in
  List.iter
    (fun m ->
      let s = Builder.build ds ~method_name:m ~budget_words:10 in
      Helpers.check_close ~tol:1e-6 (m ^ " sse")
        (Rs_query.Error.sse_all_ranges p (Synopsis.estimator s))
        (Synopsis.sse ds s))
    [ "topbb"; "wave-range-opt"; "wave-aa"; "sap0"; "opt-a" ]

let test_synopsis_point () =
  let ds = Dataset.of_ints [| 10; 20; 30 |] in
  let s = Builder.build ds ~method_name:"naive" ~budget_words:2 in
  Helpers.check_close "point" 20. (Synopsis.point s ~i:2);
  Alcotest.(check int) "domain size" 3 (Synopsis.domain_size s)

let test_synopsis_quantile () =
  (* An exact synopsis (one bucket per point) reports true quantiles. *)
  let data = [| 10; 10; 10; 10; 10; 10; 10; 10; 10; 10 |] in
  let ds = Dataset.of_ints data in
  let s = Builder.build ds ~method_name:"sap0" ~budget_words:30 in
  Alcotest.(check int) "median" 5 (Synopsis.quantile s ~q:0.5);
  Alcotest.(check int) "q=0.1" 1 (Synopsis.quantile s ~q:0.1);
  Alcotest.(check int) "q=1" 10 (Synopsis.quantile s ~q:1.);
  Alcotest.(check int) "q clamped" 10 (Synopsis.quantile s ~q:7.);
  (* A head-heavy distribution puts the median at the first key. *)
  let ds2 = Dataset.of_ints [| 90; 2; 2; 2; 2; 2 |] in
  let s2 = Builder.build ds2 ~method_name:"opt-a" ~budget_words:12 in
  Alcotest.(check int) "head median" 1 (Synopsis.quantile s2 ~q:0.5);
  (* Approximate quantiles stay near truth for a good synopsis. *)
  let big = Dataset.generate "zipf-128" in
  let s3 = Builder.build big ~method_name:"a0" ~budget_words:32 in
  let p = Dataset.prefix big in
  let truth q =
    let target = q *. Rs_util.Prefix.total p in
    let rec go b = if Rs_util.Prefix.prefix p b >= target then b else go (b + 1) in
    go 1
  in
  List.iter
    (fun q ->
      let approx = Synopsis.quantile s3 ~q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f close" q)
        true
        (abs (approx - truth q) <= 4))
    [ 0.25; 0.5; 0.9 ]

let test_builder_budget_monotone_quality () =
  (* More budget never hurts for the optimal constructions. *)
  let ds = Lazy.force small_ds in
  List.iter
    (fun m ->
      let prev = ref Float.infinity in
      List.iter
        (fun budget ->
          let s = Builder.build ds ~method_name:m ~budget_words:budget in
          let e = Synopsis.sse ds s in
          Alcotest.(check bool)
            (Printf.sprintf "%s monotone at %dw" m budget)
            true (e <= !prev +. 1e-6);
          prev := e)
        [ 6; 12; 24; 48 ])
    [ "sap0"; "sap1"; "opt-a"; "wave-range-opt" ]

(* --- codec --- *)

module Codec = Rs_core.Codec

let test_codec_roundtrip_all_methods () =
  let ds = Lazy.force small_ds in
  let n = Dataset.n ds in
  List.iter
    (fun m ->
      let s = Builder.build ds ~method_name:m ~budget_words:10 in
      let s' = Codec.of_string (Codec.to_string s) in
      Alcotest.(check string) (m ^ " name") (Synopsis.name s) (Synopsis.name s');
      Alcotest.(check int)
        (m ^ " storage")
        (Synopsis.storage_words s)
        (Synopsis.storage_words s');
      (* Bit-exact estimates everywhere. *)
      for a = 1 to n do
        for b = a to n do
          let e = Synopsis.estimate s ~a ~b and e' = Synopsis.estimate s' ~a ~b in
          if e <> e' then
            Alcotest.failf "%s: estimate differs after roundtrip at (%d,%d)" m a b
        done
      done)
    Builder.methods

let test_codec_file_roundtrip () =
  let ds = Lazy.force small_ds in
  let s = Builder.build ds ~method_name:"sap1" ~budget_words:15 in
  let path = tmp_file ".syn" in
  Codec.save s path;
  let s' = Codec.load path in
  Sys.remove path;
  Helpers.check_close "estimate preserved"
    (Synopsis.estimate s ~a:3 ~b:17)
    (Synopsis.estimate s' ~a:3 ~b:17)

let test_codec_rejects_garbage () =
  let reject what s =
    try
      ignore (Codec.of_string s);
      Alcotest.fail ("expected Invalid_argument for " ^ what)
    with Invalid_argument _ -> ()
  in
  reject "empty" "";
  reject "wrong magic" "not-a-synopsis 1\n";
  reject "future version" "range-synopsis 99\nkind histogram\n";
  reject "unknown kind" "range-synopsis 1\nkind sketch\n";
  reject "bad repr"
    "range-synopsis 1\nkind histogram\nname x\nn 4\nrounded false\nrights 4\nrepr nope\n";
  reject "bad float"
    "range-synopsis 1\nkind histogram\nname x\nn 4\nrounded false\nrights 4\nrepr avg\nvalues abc\n"

let test_codec_sap0_explicit_roundtrip () =
  (* The workload-weighted representation is not in the Builder
     registry, so cover its codec arm directly. *)
  let ds = Lazy.force small_ds in
  let p = Dataset.prefix ds in
  let n = Dataset.n ds in
  let weights =
    Rs_histogram.Wsap0.recency_weights ~n ~half_life:(float_of_int n /. 6.)
  in
  let h = Rs_histogram.Wsap0.build p weights ~buckets:4 in
  let s = Synopsis.Histogram h in
  let s' = Codec.of_string (Codec.to_string s) in
  Alcotest.(check int) "storage" (Synopsis.storage_words s) (Synopsis.storage_words s');
  for a = 1 to n do
    for b = a to n do
      if Synopsis.estimate s ~a ~b <> Synopsis.estimate s' ~a ~b then
        Alcotest.failf "sap0x roundtrip differs at (%d,%d)" a b
    done
  done

let test_codec_rounded_flag_survives () =
  let ds = Lazy.force small_ds in
  let p = Dataset.prefix ds in
  let h =
    Rs_histogram.Summaries.avg_histogram ~rounded:true ~name:"r" p
      (Rs_histogram.Bucket.equi_width ~n:(Dataset.n ds) ~buckets:3)
  in
  let s' = Codec.of_string (Codec.to_string (Synopsis.Histogram h)) in
  match s' with
  | Synopsis.Histogram h' ->
      Alcotest.(check bool) "rounded" true (Rs_histogram.Histogram.rounded h')
  | Synopsis.Wavelet _ -> Alcotest.fail "kind changed"

(* --- golden builder bytes ---

   The Codec encoding of every registered method, built at jobs=1 on
   [small_ds] with a 12-word budget, pinned against a fixture written
   by the code before the method table was introduced
   (test/fixtures/builder-v1.golden).  Any change to method dispatch
   must leave these bytes alone; never regenerate the fixture to make a
   refactor pass. *)

let builder_golden_bytes () =
  let ds = Lazy.force small_ds in
  String.concat ""
    (List.map
       (fun m ->
         match Builder.build_result ds ~method_name:m ~budget_words:12 with
         | Ok b -> Printf.sprintf "== %s\n%s" m (Codec.to_string b.Builder.synopsis)
         | Error e -> Alcotest.failf "%s: %s" m (Rs_util.Error.to_string e))
       Builder.methods)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_builder_golden () =
  let want = read_file (Filename.concat "fixtures" "builder-v1.golden") in
  let got = builder_golden_bytes () in
  if not (String.equal want got) then begin
    let lim = min (String.length want) (String.length got) in
    let d = ref 0 in
    while !d < lim && want.[!d] = got.[!d] do incr d done;
    Alcotest.failf
      "builder bytes drifted from the committed fixture (fixture %d bytes, \
       rebuilt %d bytes, first difference at offset %d)"
      (String.length want) (String.length got) !d
  end;
  (* The raising [build] path produces the same bytes as [build_result]. *)
  let ds = Lazy.force small_ds in
  List.iter
    (fun m ->
      let plain = Builder.build ds ~method_name:m ~budget_words:12 in
      match Builder.build_result ds ~method_name:m ~budget_words:12 with
      | Ok b ->
          Alcotest.(check string) (m ^ " build = build_result")
            (Codec.to_string b.Builder.synopsis) (Codec.to_string plain)
      | Error e -> Alcotest.failf "%s: %s" m (Rs_util.Error.to_string e))
    Builder.methods

(* --- the method table ---

   Every per-method decision the builder and the supervisor make, pinned
   for every method in registry order. *)

let pinned_methods =
  [
    "naive"; "equi-width"; "equi-depth"; "max-diff"; "point-opt"; "v-optimal";
    "a0"; "prefix-opt"; "sap0"; "sap1"; "opt-a"; "opt-a-rounded"; "a0-reopt";
    "opt-a-reopt"; "equi-width-reopt"; "point-opt-reopt"; "topbb"; "topbb-rw";
    "wave-range-opt"; "wave-aa";
  ]

let pinned_monotone_capable =
  [
    "point-opt"; "v-optimal"; "a0"; "prefix-opt"; "sap0"; "sap1"; "a0-reopt";
    "point-opt-reopt";
  ]

let test_builder_table_pin () =
  Alcotest.(check (list string)) "methods" pinned_methods Builder.methods;
  List.iter
    (fun m ->
      let words = match m with "sap0" -> 3 | "sap1" -> 5 | _ -> 2 in
      Alcotest.(check int) (m ^ " words") words (Builder.words_per_unit m);
      let ladder =
        match m with
        | "opt-a" -> [ "opt-a-rounded"; "a0" ]
        | "a0" | "naive" | "topbb" -> []
        | "topbb-rw" | "wave-range-opt" | "wave-aa" -> [ "topbb" ]
        | _ -> [ "a0" ]
      in
      Alcotest.(check (list string)) (m ^ " ladder") ladder
        (Builder.fallback_ladder m);
      let proxy =
        match m with "opt-a" | "opt-a-rounded" | "opt-a-reopt" -> "a0" | m -> m
      in
      Alcotest.(check string) (m ^ " pricing proxy") proxy
        (Builder.pricing_proxy m);
      Alcotest.(check bool) (m ^ " checkpointable") (m = "opt-a")
        (Builder.checkpointable m))
    pinned_methods;
  Alcotest.(check (list string)) "unknown ladder" []
    (Builder.fallback_ladder "bogus");
  (* The monotone-capable set is visible through the typed refusal. *)
  let ds = Dataset.of_ints [| 1; 2; 3; 5; 8; 13; 21; 34 |] in
  let options = { Builder.default_options with engine = Rs_histogram.Dp.Monotone } in
  let refusal m =
    Printf.sprintf
      "engine \"monotone\" is not applicable to method %S (it only applies \
       to the interval-DP methods: %s); use \"auto\" or \"level\""
      m
      (String.concat ", " pinned_monotone_capable)
  in
  List.iter
    (fun m ->
      match Builder.build_result ~options ds ~method_name:m ~budget_words:8 with
      | Error e when List.mem m pinned_monotone_capable ->
          if Rs_util.Error.to_string e = refusal m then
            Alcotest.failf "%s refused as not monotone-capable" m
      | Error e ->
          Alcotest.(check string) (m ^ " refusal") (refusal m)
            (Rs_util.Error.to_string e)
      | Ok _ when List.mem m pinned_monotone_capable -> ()
      | Ok _ -> Alcotest.failf "%s accepted --engine monotone" m)
    pinned_methods

(* Every interval-DP method honours [jobs]: the level-parallel engine
   runs (pool chunks are recorded) and the bytes match the sequential
   build. *)
let test_builder_jobs_reach_dp () =
  let rng = Rs_dist.Rng.create 7 in
  let ds =
    Dataset.of_floats (Helpers.random_int_data rng ~n:160 ~hi:50)
  in
  let build jobs m =
    let options = { Builder.default_options with jobs } in
    match Builder.build_result ~options ds ~method_name:m ~budget_words:24 with
    | Ok b -> Codec.to_string b.Builder.synopsis
    | Error e -> Alcotest.failf "%s jobs=%d: %s" m jobs (Rs_util.Error.to_string e)
  in
  let module Metrics = Rs_util.Metrics in
  List.iter
    (fun m ->
      let seq = build 1 m in
      Metrics.reset ();
      let par, report =
        Fun.protect ~finally:Metrics.reset (fun () ->
            Metrics.with_enabled (fun () ->
                let par = build 2 m in
                (par, Metrics.report ())))
      in
      let chunks =
        Option.value ~default:0
          (List.assoc_opt "pool.chunks" report.Metrics.r_counters)
      in
      Alcotest.(check bool) (m ^ " advances pool.chunks") true (chunks > 0);
      Alcotest.(check string) (m ^ " jobs=2 bytes = jobs=1") seq par)
    pinned_monotone_capable

let () =
  Alcotest.run "core"
    [
      ( "dataset",
        [
          Alcotest.test_case "of_ints" `Quick test_dataset_of_ints;
          Alcotest.test_case "rejects negative" `Quick test_dataset_rejects_negative;
          Alcotest.test_case "save/load" `Quick test_dataset_save_load_roundtrip;
          Alcotest.test_case "comments" `Quick test_dataset_load_comments_and_blanks;
          Alcotest.test_case "garbage" `Quick test_dataset_load_rejects_garbage;
          Alcotest.test_case "generate" `Quick test_dataset_generate;
        ] );
      ( "builder",
        [
          Alcotest.test_case "all methods" `Quick test_builder_all_methods_run;
          Alcotest.test_case "unknown method" `Quick test_builder_unknown_method;
          Alcotest.test_case "opt-a needs ints" `Quick test_builder_opt_a_requires_ints;
          Alcotest.test_case "units" `Quick test_builder_units;
          Alcotest.test_case "budget monotone" `Quick test_builder_budget_monotone_quality;
          Alcotest.test_case "method table pin" `Quick test_builder_table_pin;
          Alcotest.test_case "jobs reach every DP method" `Quick
            test_builder_jobs_reach_dp;
        ] );
      ( "synopsis",
        [
          Alcotest.test_case "sse consistent" `Quick test_synopsis_sse_consistent;
          Alcotest.test_case "point" `Quick test_synopsis_point;
          Alcotest.test_case "quantile" `Quick test_synopsis_quantile;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip all methods" `Quick test_codec_roundtrip_all_methods;
          Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "sap0x roundtrip" `Quick test_codec_sap0_explicit_roundtrip;
          Alcotest.test_case "rounded flag" `Quick test_codec_rounded_flag_survives;
          Alcotest.test_case "builder golden bytes" `Quick test_builder_golden;
        ] );
    ]
