(* The [build] workload: offline construction, in-process, into a
   scratch store.  One pass builds a fixed suite with the public build
   entry points and [Store.put]s every result:

   - opt-a-rounded on the 127-key paper set, 24 words, jobs 1
     (the OPT-A kernel and its key table);
   - sap1 on zipf-1024, 96 words, jobs 2 (the Dp level engine, Pool);
   - point-opt split into 8 segments on zipf-4096, 96 words, jobs 2
     (Supervisor waves over Segmented);
   - wave-range-opt on zipf-4096, 256 words (the wavelet selection). *)

open Common
module Builder = Rs_core.Builder
module Store = Rs_core.Store
module Synopsis = Rs_core.Synopsis
module Segmented = Rs_core.Segmented

type member = {
  label : string;  (** layer name, also the store entry name *)
  data : Rs_core.Dataset.t;
  method_name : string;
  words : int;
  jobs : int;
  segments : int option;
}

type built = Flat of Synopsis.t | Segs of Segmented.t

let options jobs = { Builder.default_options with Builder.jobs }

let suite ~seed =
  let z1024 = Lifecycle.zipf_data ~seed ~n:1024
  and z4096 = Lifecycle.zipf_data ~seed ~n:4096 in
  [
    { label = "opt_a"; data = Rs_core.Dataset.paper (); method_name = "opt-a-rounded";
      words = 24; jobs = 1; segments = None };
    { label = "dp"; data = z1024; method_name = "sap1"; words = 96; jobs = 2;
      segments = None };
    { label = "segmented"; data = z4096; method_name = "point-opt"; words = 96;
      jobs = 2; segments = Some 8 };
    { label = "wavelet"; data = z4096; method_name = "wave-range-opt"; words = 256;
      jobs = 1; segments = None };
  ]

let build_one m =
  match m.segments with
  | None -> (
      match
        Builder.build_result ~options:(options m.jobs) m.data
          ~method_name:m.method_name ~budget_words:m.words
      with
      | Ok b -> Ok (Flat b.Builder.synopsis)
      | Error e -> Error (Rs_util.Error.to_string e))
  | Some segments -> (
      match
        Rs_core.Supervisor.build ~options:(options m.jobs) m.data
          ~method_name:m.method_name ~budget_words:m.words ~segments
      with
      | Ok (s, report) when not (Rs_core.Supervisor.degraded report) -> Ok (Segs s)
      | Ok _ -> Error "segmented build degraded"
      | Error e -> Error (Rs_util.Error.to_string e))

(* Store entries written for one member. *)
let entries m = function
  | Flat s -> [ (m.label, s) ]
  | Segs t ->
      Array.to_list
        (Array.mapi
           (fun i (p : Segmented.part) -> (Printf.sprintf "%s.seg%d" m.label i, p.synopsis))
           (Segmented.parts t))

let rendering = function
  | Flat s -> Rs_core.Codec.to_string s
  | Segs t -> Segmented.to_string t

(* Registry counters read around each member in traced runs. *)
let tracked =
  [ "dp.cells"; "opt_a.states"; "pool.chunks"; "segmented.waves"; "segmented.retries" ]

(* One member: build, then put every entry.  Spans name the layer. *)
let run_member store m =
  let before = if !Span.on then List.map counter tracked else [] in
  let built = Span.time (m.label ^ ".build") (fun () -> build_one m) in
  let counts =
    if !Span.on then List.map2 (fun name c0 -> (name, counter name - c0)) tracked before
    else []
  in
  (match built with
  | Ok b ->
      List.iter
        (fun (name, s) -> Span.time "store.put" (fun () -> Store.put store ~name s))
        (entries m b)
  | Error _ -> ());
  (built, counts)

(* Relative tolerance of the SSE agreement: the test suite's default
   closeness.  The O(n) closed forms cancel large moments, so at
   n = 1024 they drift from the sweep by about 1e-7 (reported as
   [sse_rel_gap_max]). *)
let sse_tol = 1e-6

let sse_gap = ref 0.

(* Oracles, outside the timed window.  The first pass checks word
   budgets, the O(n) SSE against the O(n²) sweep, and the store round
   trip; later passes must reproduce the first pass byte for byte. *)
let check_first store m b =
  let words, sse, sweep =
    match b with
    | Flat s -> (Synopsis.storage_words s, Synopsis.sse m.data s, Synopsis.sse_sweep m.data s)
    | Segs t -> (Segmented.storage_words t, Segmented.sse m.data t, Segmented.sse_sweep m.data t)
  in
  check (words <= m.words) (fun () ->
      Printf.sprintf "%s: %d words over the %d-word budget" m.label words m.words);
  let gap = Float.abs (sse -. sweep) /. Float.max 1. (Float.abs sweep) in
  sse_gap := Float.max !sse_gap gap;
  check (gap <= sse_tol)
    (fun () -> Printf.sprintf "%s: fast SSE %h vs sweep %h" m.label sse sweep);
  List.iter
    (fun (name, s) ->
      check
        (match Store.get store ~name with
        | Ok s' -> Rs_core.Codec.to_string s' = Rs_core.Codec.to_string s
        | Error _ -> false)
        (fun () -> Printf.sprintf "%s: store entry %s does not round-trip" m.label name))
    (entries m b)

type state = {
  members : member list;
  store : Store.t;
  dir : string;
  first : (string, string) Hashtbl.t;  (** label -> first-pass rendering *)
  pass_s : Samples.t;
  member_s : Samples.t array;  (** per member, in suite order *)
  counts : (string, Samples.t) Hashtbl.t;
  mutable active : float;
}

(* One pass; with [quiet], each member is one quiet window of its own
   instance. *)
let pass ?quiet st =
  let t0 = now () in
  let results =
    Span.time "build.pass" (fun () ->
        List.mapi
          (fun i m ->
            Option.iter (fun q -> Quiet.skip q.(i)) quiet;
            let t0 = now () in
            let r = run_member st.store m in
            Samples.add st.member_s.(i) (now () -. t0);
            Option.iter (fun q -> Quiet.close q.(i)) quiet;
            (m, r))
          st.members)
  in
  let dt = now () -. t0 in
  st.active <- st.active +. dt;
  Samples.add st.pass_s dt;
  let pass_counts = Hashtbl.create 8 in
  List.iter
    (fun (m, (built, counts)) ->
      (match built with
      | Error e -> check false (fun () -> m.label ^ ": " ^ e)
      | Ok b -> (
          let r = rendering b in
          match Hashtbl.find_opt st.first m.label with
          | None ->
              Hashtbl.replace st.first m.label r;
              check_first st.store m b
          | Some r0 ->
              check (r = r0) (fun () -> m.label ^ ": pass differs from the first pass")));
      List.iter
        (fun (name, v) ->
          Hashtbl.replace pass_counts name
            (v + Option.value ~default:0 (Hashtbl.find_opt pass_counts name)))
        counts)
    results;
  (* Counters are reported per pass. *)
  Hashtbl.iter
    (fun name v ->
      let s =
        match Hashtbl.find_opt st.counts name with
        | Some s -> s
        | None ->
            let s = Samples.create () in
            Hashtbl.replace st.counts name s;
            s
      in
      Samples.add s (float_of_int v))
    pass_counts

(* Passes until [seconds] of pass time have elapsed ([quiet]: one
   instance per member); [between] runs after each pass, outside it. *)
let run_passes ?quiet ?(between = ignore) st ~seconds =
  let stop = st.active +. seconds in
  Gc.compact ();
  let one () =
    pass ?quiet st;
    between ()
  in
  one ();
  while st.active < stop do
    one ()
  done

(* Set-up: datasets, the scratch store, and one warm-up build per
   member on a smaller, fixed input at jobs 1 (first-use costs land
   here, not in the timed passes).  The inputs are fixed because the
   cost of OPT-A on a small input varies threefold with its values; the
   jobs are 1 because at jobs 2 every fork-join barrier of so short a
   build can wait out a descheduled virtual CPU, which tripled the
   set-up time from one run to the next. *)
let setup ~seed ~dir =
  let t0 = now () in
  let members = suite ~seed in
  let store = Store.open_dir (Filename.concat dir "store") in
  List.iter
    (fun m ->
      let n = match m.label with "opt_a" -> 32 | "dp" -> 256 | _ -> 512 in
      ignore (build_one { m with data = Lifecycle.zipf_data ~seed:0 ~n; jobs = 1 }))
    members;
  let setup_s = now () -. t0 in
  ( {
      members;
      store;
      dir;
      first = Hashtbl.create 8;
      pass_s = Samples.create ();
      member_s = Array.of_list (List.map (fun _ -> Samples.create ()) members);
      counts = Hashtbl.create 8;
      active = 0.;
    },
    setup_s )

let setup_reps = 5

let run ~dir ~seed ~seconds ~trace =
  let setups =
    List.init setup_reps (fun i ->
        let d = Filename.concat dir (Printf.sprintf "s%d" i) in
        Unix.mkdir d 0o755;
        Gc.compact ();
        setup ~seed ~dir:d)
  in
  let setup_s = median (Array.of_list (List.map snd setups)) in
  let st = fst (List.nth setups (setup_reps - 1)) in
  if not trace then begin
    let probe = Lifecycle.Probe.start ~seed ~dir in
    let quiet = Array.map (fun s -> Quiet.create [| s |]) st.member_s in
    (* After each pass, a probe slice in proportion to it. *)
    let share = Lifecycle.Probe.share in
    run_passes st ~quiet ~seconds:((1. -. share) *. seconds) ~between:(fun () ->
        let last = (Samples.to_array st.pass_s).(Samples.length st.pass_s - 1) in
        Lifecycle.Probe.slice probe (last *. share /. (1. -. share)));
    let probe = Lifecycle.Probe.finish probe in
    (* A pass assembled from each member's median over its quiet
       builds: with a handful of passes, a burst of steal inside one
       member then moves nothing. *)
    let build_s =
      Array.fold_left ( +. ) 0. (Array.map (fun q -> median (Quiet.samples q 0)) quiet)
    in
    let e2e =
      [
        m "setup_s" "s" setup_s;
        m "build_s" "s" build_s;
        m "ops_per_s" "1/s" (float_of_int (List.length st.members) /. build_s);
        m "query_p50_us" "us" probe.Lifecycle.Probe.query_p50_us;
        m "query_p99_us" "us" probe.query_p99_us;
        m "ingest_p50_us" "us" probe.ingest_p50_us;
        m "fresh_lag_ms" "ms" probe.fresh_lag_ms;
        m "peak_rss_mb" "MB" (peak_rss_mb "self");
      ]
    in
    ( e2e,
      ("passes", float_of_int (Samples.length st.pass_s))
      :: ("sse_rel_gap_max", !sse_gap)
      :: (List.concat
            (List.mapi
               (fun i m ->
                 List.map (fun (k, v) -> (m.label ^ "_" ^ k, v)) (Quiet.report quiet.(i)))
               st.members)
         @ probe.counts) )
  end
  else begin
    (* Untraced half, then the traced half with the registry on. *)
    run_passes st ~seconds:(seconds /. 2.);
    let untraced = p50 st.pass_s in
    let pass_plain = Samples.length st.pass_s in
    Span.on := true;
    Rs_util.Metrics.enable ();
    run_passes st ~seconds:(seconds /. 2.);
    Span.on := false;
    Rs_util.Metrics.disable ();
    let traced = Span.median_dur "build.pass" in
    let dp = List.find (fun mb -> mb.label = "dp") st.members in
    let time_jobs jobs =
      let t0 = now () in
      ignore (build_one { dp with jobs });
      now () -. t0
    in
    let j1 = time_jobs 1 and j2 = time_jobs 2 in
    let count name =
      match Hashtbl.find_opt st.counts name with
      | Some s when Samples.length s > 0 -> p50 s
      | _ -> 0.
    in
    let layers =
      [
        m "opt_a.build_s" "s" (Span.median_self "opt_a.build");
        m "opt_a.states" "count" (count "opt_a.states");
        m "dp.build_s" "s" (Span.median_self "dp.build");
        m "dp.cells" "count" (count "dp.cells");
        m "pool.speedup_jobs2" "ratio" (j1 /. j2);
        m "pool.chunks" "count" (count "pool.chunks");
        m "segmented.build_s" "s" (Span.median_self "segmented.build");
        m "segmented.waves" "count" (count "segmented.waves");
        m "segmented.retries" "count" (count "segmented.retries");
        m "wavelet.build_s" "s" (Span.median_self "wavelet.build");
        m "store.put_ms" "ms" (1e3 *. Span.median_self "store.put");
        m "trace.overhead_frac" "ratio" ((traced -. untraced) /. untraced);
        m "unattributed_frac" "ratio"
          (Span.median_self "build.pass" /. Span.median_dur "build.pass");
      ]
      @ Layers.store (Filename.concat st.dir "store")
    in
    (layers, [ ("passes_untraced", float_of_int pass_plain);
               ("passes_traced", float_of_int (Samples.length st.pass_s - pass_plain)) ])
  end
