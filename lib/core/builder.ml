module H = Rs_histogram
module W = Rs_wavelet.Synopsis
module Checks = Rs_util.Checks
module Error = Rs_util.Error
module Governor = Rs_util.Governor
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace

let log_src = Logs.Src.create "rs.builder" ~doc:"Name-keyed synopsis builder"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  opt_a_max_states : int;
  governor : Governor.t;
  jobs : int;
  engine : H.Dp.engine;
}

let default_options =
  {
    opt_a_max_states = 60_000_000;
    governor = Governor.unlimited;
    jobs = 1;
    engine = H.Dp.Auto;
  }

(* --- the method table ---

   Every per-method decision (storage accounting, engine applicability,
   the supervisor's fallback ladder and pricing proxy, which build is
   laddered and checkpointable) is derived from these entries; nothing
   else in the builder or the supervisor matches on method names. *)

type construction =
  | Baseline of (Rs_util.Prefix.t -> buckets:int -> H.Histogram.t)
      (** closed-form heuristics; no DP *)
  | Decomposable of H.Decomposable.t  (** the interval DP (Lemma 5) *)
  | Opt_a of [ `Exact | `Rounded ]  (** OPT-A's pseudopolynomial DP *)
  | Wavelet of (float array -> b:int -> W.t)

type entry = {
  name : string;
  words_per_unit : int;
  construction : construction;
  reopt : bool;  (** Section-5 value re-optimization on top *)
}

let entry ?(words = 2) name construction =
  { name; words_per_unit = words; construction; reopt = false }

(* A [-reopt] entry is its base entry plus [Reopt.apply]: it builds the
   base's boundaries with the base's options (jobs, engine) intact. *)
let reopt name base = { base with name; reopt = true }

let naive = entry "naive" (Baseline (fun p ~buckets:_ -> H.Baselines.naive p))
let equi_width = entry "equi-width" (Baseline H.Baselines.equi_width)
let point_opt = entry "point-opt" (Decomposable H.Decomposable.point_opt)
let a0 = entry "a0" (Decomposable H.Decomposable.a0)
let opt_a = entry "opt-a" (Opt_a `Exact)
let opt_a_rounded = entry "opt-a-rounded" (Opt_a `Rounded)
let topbb = entry "topbb" (Wavelet W.top_b_data)

let registry =
  [
    naive;
    equi_width;
    entry "equi-depth" (Baseline H.Baselines.equi_depth);
    entry "max-diff" (Baseline H.Baselines.max_diff);
    point_opt;
    entry "v-optimal" (Decomposable H.Decomposable.v_optimal);
    a0;
    entry "prefix-opt" (Decomposable H.Decomposable.prefix_opt);
    entry ~words:3 "sap0" (Decomposable H.Decomposable.sap0);
    entry ~words:5 "sap1" (Decomposable H.Decomposable.sap1);
    opt_a;
    opt_a_rounded;
    reopt "a0-reopt" a0;
    reopt "opt-a-reopt" opt_a;
    reopt "equi-width-reopt" equi_width;
    reopt "point-opt-reopt" point_opt;
    topbb;
    entry "topbb-rw" (Wavelet W.top_b_range_weighted);
    entry "wave-range-opt" (Wavelet W.range_optimal);
    entry "wave-aa" (Wavelet W.aa_2d);
  ]

let methods = List.map (fun e -> e.name) registry
let find name = List.find_opt (fun e -> e.name = name) registry

let lookup name =
  match find name with
  | Some e -> e
  | None ->
      Error.raise_error (Error.Unknown_method { name; known = methods })

let is_decomposable e =
  match e.construction with Decomposable _ -> true | _ -> false

(* Exact OPT-A is the only governed ladder and the only long-running DP,
   hence the only checkpointable build. *)
let is_laddered e =
  match e.construction with Opt_a `Exact -> not e.reopt | _ -> false

(* Only the interval DP has a monotone engine: OPT-A's Ktbl engine and
   the closed-form baselines/wavelets have none, so an explicit
   [--engine monotone] there is a typed error, not a silent no-op. *)
let monotone_capable =
  List.filter_map
    (fun e -> if is_decomposable e then Some e.name else None)
    registry

(* The supervisor's cross-method degradation ladder: which cheaper
   methods to fall back to when a per-segment build keeps failing.
   Mirrors OPT-A's internal ladder (exact -> rounded -> A0) and gives
   every other bucketed histogram the A0 polynomial floor; wavelet
   methods floor at the greedy data-domain TOPBB.  The floors
   themselves (and NAIVE, which is cheaper still) have no fallback —
   below them there is nothing cheaper that still answers range
   queries. *)
let fallback_ladder name =
  match find name with
  | None -> []
  | Some e when e == a0 || e == naive || e == topbb -> []
  | Some e when is_laddered e -> [ opt_a_rounded.name; a0.name ]
  | Some { construction = Wavelet _; _ } -> [ topbb.name ]
  | Some _ -> [ a0.name ]

(* The greedy planner prices a segment with the requested method's own
   error curve when cheap, and with the polynomial A0 floor as a proxy
   for the (expensive) OPT-A family. *)
let pricing_proxy name =
  match find name with
  | Some { construction = Opt_a _; _ } -> a0.name
  | _ -> name

let checkpointable name =
  match find name with Some e -> is_laddered e | None -> false

let words_per_unit name = (lookup name).words_per_unit

let units_for_budget ~method_name ~budget_words =
  max 1 (budget_words / words_per_unit method_name)

let require_integral p =
  Array.iter
    (fun v ->
      Checks.check (Float.is_integer v)
        (Printf.sprintf
           "Builder: method %S requires integral frequencies (round the data \
            first)"
           opt_a.name))
    (Rs_util.Prefix.data p)

let construct o e ds ~units =
  let p = Dataset.prefix ds in
  let hist h = Synopsis.Histogram (if e.reopt then H.Reopt.apply p h else h) in
  match e.construction with
  | Baseline f -> hist (f p ~buckets:units)
  | Decomposable d ->
      hist
        (H.Decomposable.build ~engine:o.engine ~governor:o.governor
           ~stage:e.name ~jobs:o.jobs d p ~buckets:units)
  | Opt_a `Exact ->
      require_integral p;
      hist
        (H.Opt_a.build_staged ~max_states:o.opt_a_max_states
           ~governor:o.governor ~jobs:o.jobs p ~buckets:units)
          .H.Opt_a.histogram
  | Opt_a `Rounded ->
      (* Definition 3 rounds the data itself, so float frequencies are
         fine here. *)
      hist
        (H.Opt_a.build_rounded ~max_states:o.opt_a_max_states
           ~governor:o.governor ~jobs:o.jobs p ~buckets:units ~x:8)
          .H.Opt_a.histogram
  | Wavelet f -> Synopsis.Wavelet (f (Dataset.values ds) ~b:units)

let build ?(options = default_options) ds ~method_name ~budget_words =
  construct options (lookup method_name) ds
    ~units:(units_for_budget ~method_name ~budget_words)

(* --- the Result-returning boundary with degradation reporting --- *)

type degradation_report = {
  requested : string;
  delivered : string;
  attempts : H.Opt_a.attempt list;
  elapsed : float;
}

type built = { synopsis : Synopsis.t; report : degradation_report option }

let report_lines r =
  Printf.sprintf "degradation ladder: requested %s, delivered %s (%.3fs total)"
    r.requested r.delivered r.elapsed
  :: List.map
       (fun a ->
         Printf.sprintf "  %-22s %s (%.3fs)" a.H.Opt_a.rung
           (H.Opt_a.describe_outcome a.H.Opt_a.outcome)
           a.H.Opt_a.elapsed)
       r.attempts

(* When even the A0 floor failed, surface the most actionable reason:
   a deadline beats a state budget beats an injected fault. *)
let ladder_error attempts =
  let timeout =
    List.find_map
      (fun a ->
        match a.H.Opt_a.outcome with
        | H.Opt_a.Timed_out { elapsed; deadline; reason } ->
            Some
              (Error.Timeout { stage = a.H.Opt_a.rung; elapsed; deadline; reason })
        | _ -> None)
      attempts
  in
  let exhausted =
    List.find_map
      (fun a ->
        match a.H.Opt_a.outcome with
        | H.Opt_a.Exhausted { states; limit } ->
            Some
              (Error.Budget_exhausted
                 { stage = a.H.Opt_a.rung; states_used = states; limit })
        | _ -> None)
      attempts
  in
  match (timeout, exhausted) with
  | Some e, _ | None, Some e -> e
  | None, None ->
      Error.Invalid_input
        (Printf.sprintf "every ladder rung failed: %s"
           (String.concat "; "
              (List.map
                 (fun a ->
                   Printf.sprintf "%s: %s" a.H.Opt_a.rung
                     (H.Opt_a.describe_outcome a.H.Opt_a.outcome))
                 attempts)))

let build_result ?(options = default_options) ?deadline ?checkpoint_path
    ?resume_from ?checkpoint_every ds ~method_name ~budget_words =
  match find method_name with
  | None ->
      Error.fail (Error.Unknown_method { name = method_name; known = methods })
  | Some e when options.engine = H.Dp.Monotone && not (is_decomposable e) ->
      Error.fail
        (Error.Invalid_input
           (Printf.sprintf
              "engine \"monotone\" is not applicable to method %S (it only \
               applies to the interval-DP methods: %s); use \"auto\" or \
               \"level\""
              method_name
              (String.concat ", " monotone_capable)))
  | Some _
    when options.engine = H.Dp.Monotone
         && (checkpoint_path <> None || resume_from <> None) ->
      Error.fail
        (Error.Invalid_input
           "engine \"monotone\" cannot checkpoint or resume (the \
            divide-and-conquer order leaves no completed row prefix to \
            snapshot); drop --checkpoint-dir/--resume or use --engine level")
  | Some _ when options.engine = H.Dp.Monotone && options.jobs > 1 ->
      Error.fail
        (Error.Invalid_input
           (Printf.sprintf
              "engine \"monotone\" is sequential-only (jobs=%d requested); \
               drop --jobs or use --engine level"
              options.jobs))
  | Some e
    when (not (is_laddered e))
         && (checkpoint_path <> None || resume_from <> None) ->
      Error.fail
        (Error.Invalid_input
           (Printf.sprintf
              "checkpoint/resume is only supported for method %S (its DP is \
               the only long-running one); %S is not checkpointable"
              opt_a.name method_name))
  | Some e ->
      let governor =
        match (deadline, checkpoint_path, checkpoint_every) with
        | None, None, None -> options.governor
        | None, _, None when options.governor != Governor.unlimited ->
            (* A caller-supplied governor (e.g. the supervisor's
               deterministic poll-budget one) keeps governing even when
               a checkpoint path is armed — the path only says where
               snapshots go, not when to expire. *)
            options.governor
        | _ ->
            (* A checkpoint path turns deadline expiry into
               snapshot-and-exit instead of ladder degradation. *)
            let deadline_mode =
              if checkpoint_path <> None then Governor.Snapshot
              else Governor.Degrade
            in
            Governor.create ?deadline ~deadline_mode
              ?checkpoint_interval:checkpoint_every ()
      in
      let options = { options with governor } in
      let t0 = Rs_util.Mclock.now () in
      let run f =
        Trace.with_span "builder.build" @@ fun () ->
        Metrics.count "builder.builds" 1;
        let res =
          match f () with
          | v -> Ok v
          | exception Error.Rs_error e -> Error e
          | exception Invalid_argument m -> Error (Error.Invalid_input m)
          | exception Failure m -> Error (Error.Invalid_input m)
          | exception H.Opt_a.Too_many_states { states; limit } ->
              Error
                (Error.Budget_exhausted
                   { stage = method_name; states_used = states; limit })
          | exception Governor.Deadline_exceeded
              { stage; elapsed; deadline; reason } ->
              Error (Error.Timeout { stage; elapsed; deadline; reason })
          | exception Governor.Interrupted { stage; checkpoint } ->
              Error (Error.Interrupted { stage; checkpoint })
          | exception Rs_util.Faults.Injected { site; reason } ->
              Error (Error.injected ~site ~reason)
        in
        (match res with
        | Ok _ ->
            Log.debug (fun m ->
                m "build %s ok (%.3fs)" method_name
                  (Rs_util.Mclock.now () -. t0))
        | Error e ->
            Metrics.count "builder.errors" 1;
            Log.warn (fun m ->
                m "build %s failed: %s" method_name (Error.to_string e)));
        res
      in
      let units = units_for_budget ~method_name ~budget_words in
      if is_laddered e then
        (* The governed ladder: deliver from a lower rung rather than
           fail, and report every rung attempted. *)
        run (fun () ->
            let p = Dataset.prefix ds in
            require_integral p;
            match
              H.Opt_a.build_governed ~max_states:options.opt_a_max_states
                ~governor ~jobs:options.jobs ?checkpoint_path ?resume_from p
                ~buckets:units
            with
            | staged ->
                {
                  synopsis =
                    Synopsis.Histogram
                      staged.H.Opt_a.result.H.Opt_a.histogram;
                  report =
                    Some
                      {
                        requested = method_name;
                        delivered = staged.H.Opt_a.delivered;
                        attempts = staged.H.Opt_a.attempts;
                        elapsed = Rs_util.Mclock.now () -. t0;
                      };
                }
            | exception H.Opt_a.All_rungs_failed attempts ->
                Error.raise_error (ladder_error attempts))
      else
        run (fun () ->
            Governor.check governor ~stage:method_name;
            { synopsis = construct options e ds ~units; report = None })
