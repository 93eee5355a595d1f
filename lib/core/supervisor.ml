module Error = Rs_util.Error
module Governor = Rs_util.Governor
module Faults = Rs_util.Faults
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace
module Pool = Rs_util.Pool
module Crc32 = Rs_util.Crc32

let log_src =
  Logs.Src.create "rs.supervisor" ~doc:"Segmented build supervisor"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Backoff = struct
  type policy = {
    base : float;
    cap : float;
    retries : int;
    jitter : float;
    seed : int;
  }

  let default =
    { base = 0.02; cap = 0.25; retries = 3; jitter = 0.5; seed = 0x5eed }

  (* A pure integer hash of (seed, seg, attempt) mapped to [0, 1): the
     jitter must be deterministic (replayable tests, bit-identical
     reruns) yet uncorrelated across segments so retries never
     thundering-herd against the same shared resource. *)
  let jitter_unit policy ~seg ~attempt =
    let mix h k =
      let h = (h lxor (k * 0x9e3779b1)) * 0x85ebca6b in
      h lxor (h lsr 13)
    in
    let h = mix (mix (mix 0x2545f491 policy.seed) seg) attempt in
    float_of_int (h land 0xFF_FFFF) /. 16777216.

  let delay policy ~seg ~attempt =
    if attempt < 1 then invalid_arg "Backoff.delay: attempt must be >= 1";
    let expo = policy.base *. (2. ** float_of_int (attempt - 1)) in
    Float.min policy.cap
      (expo *. (1. +. (policy.jitter *. jitter_unit policy ~seg ~attempt)))
end

type seg_report = {
  seg : int;
  lo : int;
  hi : int;
  granted_words : int;
  delivered : string;
  retries : int;
  resumed : bool;
  abandoned : (string * string) list;
}

type report = {
  requested : string;
  planner : [ `Greedy | `Uniform ];
  budget_words : int;
  storage_words : int;
  segs : seg_report array;
}

let degraded r = Array.exists (fun s -> s.delivered <> r.requested) r.segs

let planner_name = function `Greedy -> "greedy" | `Uniform -> "uniform"

let report_lines r =
  let summary =
    Printf.sprintf "segmented %s over %d segments (%s planner, %d of %d words)%s"
      r.requested (Array.length r.segs) (planner_name r.planner)
      r.storage_words r.budget_words
      (if degraded r then " -- DEGRADED" else "")
  in
  let seg_lines =
    Array.to_list r.segs
    |> List.filter_map (fun s ->
           let notes = if s.resumed then [ "resumed" ] else [] in
           let notes =
             if s.retries > 0 then
               notes @ [ Printf.sprintf "%d retries" s.retries ]
             else notes
           in
           let notes =
             notes
             @ List.map
                 (fun (rung, why) ->
                   Printf.sprintf "abandoned %s: %s" rung why)
                 s.abandoned
           in
           if s.delivered = r.requested && notes = [] then None
           else
             Some
               (Printf.sprintf "  seg %d [%d..%d] %dw -> %s%s" s.seg s.lo s.hi
                  s.granted_words s.delivered
                  (if notes = [] then ""
                   else " (" ^ String.concat "; " notes ^ ")")))
  in
  summary :: seg_lines

(* --- the build manifest ---

   The durable record of a segmented build: identity (fingerprint over
   data and parameters), the planner's grants, and per-segment status.
   Stored through [Store.save_build_manifest], so it inherits the CRC
   framing and temp+fsync+rename discipline of every other durable
   byte in the system — a torn manifest fails [Checkpoint.load]'s
   checksum and is quarantined by the resume path, never trusted. *)

type manifest = {
  m_fingerprint : string;
  m_grants : int array;
  m_status : (string * int) option array;  (* (delivered, retries) when done *)
}

let fingerprint ds ~method_name ~budget_words ~segments ~planner =
  let buf = Buffer.create (4096 + (Dataset.n ds * 8)) in
  Printf.bprintf buf "%s|%s|%d|%d|%d|" method_name (planner_name planner)
    budget_words segments (Dataset.n ds);
  Array.iter (fun v -> Printf.bprintf buf "%h " v) (Dataset.values ds);
  Crc32.digest (Buffer.contents buf)

let render_manifest ~fp ~method_name ~planner ~n ~grants ~status =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "method %s\nplanner %s\nn %d\nsegments %d\nbudget-fp %s\n"
    method_name (planner_name planner) n (Array.length status) fp;
  Buffer.add_string buf "grant";
  Array.iter (fun g -> Printf.bprintf buf " %d" g) grants;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i st ->
      match st with
      | Some (delivered, retries) ->
          Printf.bprintf buf "seg %d done %s %d\n" i delivered retries
      | None -> Printf.bprintf buf "seg %d pending\n" i)
    status;
  Buffer.contents buf

let parse_manifest ~path body =
  let bad reason =
    Error.raise_error (Error.Corrupt_checkpoint { path; reason })
  in
  let int_in line v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> bad (Printf.sprintf "bad integer in build-manifest line %S" line)
  in
  let fp = ref None
  and segs = ref None
  and grants = ref None
  and status = ref [] in
  List.iter
    (fun line ->
      match
        List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
      with
      | [] -> ()
      | [ "method"; _ ] | [ "planner"; _ ] | [ "n"; _ ] ->
          (* identity lives in the fingerprint; these are for humans *)
          ()
      | [ "segments"; v ] -> segs := Some (int_in line v)
      | [ "budget-fp"; v ] -> fp := Some v
      | "grant" :: gs ->
          grants :=
            Some (Array.of_list (List.map (fun g -> int_in line g) gs))
      | [ "seg"; i; "pending" ] -> status := (int_in line i, None) :: !status
      | [ "seg"; i; "done"; delivered; retries ] ->
          status :=
            (int_in line i, Some (delivered, int_in line retries)) :: !status
      | _ -> bad (Printf.sprintf "bad build-manifest line %S" line))
    (String.split_on_char '\n' body);
  let req name = function
    | Some v -> v
    | None -> bad (Printf.sprintf "build manifest is missing its %s line" name)
  in
  let s = req "segments" !segs in
  if s < 1 then bad "build manifest has a non-positive segment count";
  let m_grants = req "grant" !grants in
  if Array.length m_grants <> s then
    bad "build manifest grant vector does not match its segment count";
  let m_status = Array.make s None in
  let seen = Array.make s false in
  List.iter
    (fun (i, st) ->
      if i < 0 || i >= s then
        bad (Printf.sprintf "build manifest has out-of-range segment %d" i)
      else if seen.(i) then
        bad (Printf.sprintf "build manifest repeats segment %d" i)
      else begin
        seen.(i) <- true;
        m_status.(i) <- st
      end)
    !status;
  if not (Array.for_all Fun.id seen) then
    bad "build manifest is missing a segment status line";
  { m_fingerprint = req "budget-fp" !fp; m_grants; m_status }

(* --- the supervisor --- *)

let seg_entry i = Printf.sprintf "seg-%d" i
let seg_ckpt st i = Filename.concat (Store.dir st) (seg_entry i ^ ".ckpt")

let build ?(options = Builder.default_options) ?(policy = Backoff.default)
    ?(sleep = Unix.sleepf) ?manifest_dir ?(resume = false) ?deadline
    ?checkpoint_every ?seg_poll_budget ?(planner = `Greedy) ds ~method_name
    ~budget_words ~segments =
  Error.guard @@ fun () ->
  Trace.with_span "supervisor.build" @@ fun () ->
  Metrics.count "segmented.builds" 1;
  if not (List.mem method_name Builder.methods) then
    Error.raise_error
      (Error.Unknown_method { name = method_name; known = Builder.methods });
  let n = Dataset.n ds in
  let plan = Segmented.plan ~n ~segments in
  let bounds = plan.Segmented.bounds in
  let s = segments in
  let seg_width i =
    let lo, hi = bounds.(i) in
    hi - lo + 1
  in
  let sub =
    Array.init s (fun i ->
        let lo, hi = bounds.(i) in
        Segmented.sub_dataset ds ~lo ~hi)
  in
  let fp = fingerprint ds ~method_name ~budget_words ~segments ~planner in
  let store = Option.map Store.open_dir manifest_dir in
  (* Pricing for the greedy planner ({!Builder.pricing_proxy}).
     Pricing builds are pure planning work: ungoverned, sequential,
     invisible to metrics. *)
  let pricing_method = Builder.pricing_proxy method_name in
  let price ~seg ~units =
    let b = units * Builder.words_per_unit pricing_method in
    let syn =
      Metrics.with_disabled @@ fun () ->
      Trace.with_disabled @@ fun () ->
      Builder.build
        ~options:
          {
            options with
            Builder.governor = Governor.unlimited;
            jobs = 1;
            engine = Rs_histogram.Dp.Auto;
          }
        sub.(seg) ~method_name:pricing_method ~budget_words:b
    in
    Synopsis.sse sub.(seg) syn
  in
  let compute_grants () =
    Trace.with_span "supervisor.plan" @@ fun () ->
    match planner with
    | `Uniform -> Segmented.uniform_split plan ~method_name ~budget_words
    | `Greedy -> Segmented.greedy_split ~price plan ~method_name ~budget_words
  in
  let fresh_state () =
    (compute_grants (), Array.make s None, Array.make s None,
     Array.make s false)
  in
  let quarantine_and_restart st why =
    Log.warn (fun m ->
        m "build manifest unusable (%s); quarantining it and rebuilding" why);
    Metrics.count "segmented.manifest_quarantined" 1;
    Store.quarantine_build_manifest st;
    fresh_state ()
  in
  (* grants: per-segment words; status.(i): (delivered, retries) once
     committed; synopses.(i): the committed synopsis; resumed.(i):
     restored from a previous run rather than built here. *)
  let grants, status, synopses, resumed_flags =
    match store with
    | Some st when resume -> (
        match Store.load_build_manifest st with
        | Ok None -> fresh_state ()
        | Error (Error.Io_failure _ as e) -> Error.raise_error e
        | Error e -> quarantine_and_restart st (Error.to_string e)
        | Ok (Some body) -> (
            let path = Store.build_manifest_path st in
            match parse_manifest ~path body with
            | exception Error.Rs_error (Error.Corrupt_checkpoint { reason; _ })
              ->
                quarantine_and_restart st reason
            | m ->
                if m.m_fingerprint <> fp then
                  Error.raise_error
                    (Error.Corrupt_checkpoint
                       {
                         path;
                         reason =
                           "build manifest belongs to a different build \
                            (data, method, budget, planner or segment count \
                            changed); remove it or use a fresh directory";
                       })
                else begin
                  let synopses = Array.make s None in
                  let status = Array.make s None in
                  let resumed = Array.make s false in
                  Array.iteri
                    (fun i st_i ->
                      match st_i with
                      | None -> ()
                      | Some (delivered, retries) -> (
                          match Store.get st ~name:(seg_entry i) with
                          | Ok syn when Synopsis.domain_size syn = seg_width i
                            ->
                              synopses.(i) <- Some syn;
                              status.(i) <- Some (delivered, retries);
                              resumed.(i) <- true
                          | Ok _ | Error _ ->
                              (* the manifest says done but the entry is
                                 gone or damaged: rebuild that segment
                                 rather than fail the resume *)
                              Log.warn (fun m ->
                                  m
                                    "segment %d is marked done but its \
                                     stored synopsis is unusable; rebuilding"
                                    i);
                              Metrics.count "segmented.segments_rebuilt" 1))
                    m.m_status;
                  (m.m_grants, status, synopses, resumed)
                end))
    | _ -> fresh_state ()
  in
  let resumed_count =
    Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 resumed_flags
  in
  Metrics.count "segmented.segments" s;
  if resumed_count > 0 then Metrics.count "segmented.segments_skipped" resumed_count;
  let sup_governor =
    match deadline with
    | Some d ->
        Governor.create ~deadline:d
          ~deadline_mode:
            (if Option.is_some store then Governor.Snapshot
             else Governor.Degrade)
          ()
    | None -> options.Builder.governor
  in
  let manifest_body () =
    render_manifest ~fp ~method_name ~planner ~n ~grants ~status
  in
  let write_manifest () =
    match store with
    | None -> ()
    | Some st -> Store.save_build_manifest st (manifest_body ())
  in
  (* Retry transient failures — injected faults and I/O errors — with
     capped exponential backoff.  [key] seeds the jitter (the segment
     index; [s] for build-level writes), [tally] accumulates the
     segment's retry count for its report and the manifest. *)
  let retryable = function
    | Error.Io_failure _ -> true
    | e -> Error.is_injected e
  in
  let with_retries ~key ~tally f =
    let rec go attempt =
      match Error.guard f with
      | Ok v -> v
      | Error e when retryable e && attempt <= policy.Backoff.retries ->
          incr tally;
          Metrics.count "segmented.retries" 1;
          Log.warn (fun m ->
              m "transient failure (attempt %d of %d): %s; backing off"
                attempt (policy.Backoff.retries + 1) (Error.to_string e));
          sleep (Backoff.delay policy ~seg:key ~attempt);
          go (attempt + 1)
      | Error e -> Error.raise_error e
    in
    go 1
  in
  let scratch = ref 0 in
  let seg_retries = Array.init s (fun _ -> ref 0) in
  (* Pin the manifest before any segment work: a kill during the very
     first segment must still find a resumable record on disk. *)
  with_retries ~key:s ~tally:scratch write_manifest;
  let boundary_poll () =
    match Governor.poll sup_governor with
    | Governor.Continue -> ()
    | Governor.Checkpoint_due -> with_retries ~key:s ~tally:scratch write_manifest
    | Governor.Expired { resumable = true; _ } when Option.is_some store ->
        with_retries ~key:s ~tally:scratch write_manifest;
        Metrics.count "segmented.interrupts" 1;
        let st = Option.get store in
        Error.raise_error
          (Error.Interrupted
             { stage = "segmented"; checkpoint = Store.build_manifest_path st })
    | Governor.Expired { elapsed; deadline; reason; _ } ->
        Error.raise_error
          (Error.Timeout { stage = "segmented"; elapsed; deadline; reason })
  in
  let boundary () =
    (* the kill-and-resume simulation: an armed abort here is a hard
       crash at a segment boundary, never retried *)
    Faults.trip "supervisor.abort";
    boundary_poll ()
  in
  let remaining_deadline () =
    if Option.is_some seg_poll_budget then None
      (* a deterministic per-segment governor replaces the wall clock *)
    else
      match Governor.deadline sup_governor with
      | Some d -> Some (Float.max 0.05 (d -. Governor.elapsed sup_governor))
      | None -> None
  in
  (* One builder invocation for segment [i] at ladder rung [rung].
     Observability is suspended for the whole inner build on {e every}
     path — sequential and parallel alike — so counter totals cannot
     depend on the job count; the supervisor re-records segment-level
     outcomes itself. *)
  let run_attempt i rung =
    let checkpointable = Option.is_some store && Builder.checkpointable rung in
    let ckpt =
      if checkpointable then Some (seg_ckpt (Option.get store) i) else None
    in
    let resume_from =
      match ckpt with Some p when Sys.file_exists p -> Some p | _ -> None
    in
    let opts =
      let governor =
        match seg_poll_budget with
        | Some b ->
            Governor.create ~poll_budget:b
              ~deadline_mode:
                (if checkpointable then Governor.Snapshot
                 else Governor.Degrade)
              ()
        | None -> Governor.unlimited
      in
      { options with Builder.governor; jobs = 1 }
    in
    let deadline = remaining_deadline () in
    let checkpoint_every =
      if checkpointable && Option.is_none seg_poll_budget then checkpoint_every
      else None
    in
    let budget =
      min grants.(i) (seg_width i * Builder.words_per_unit rung)
    in
    Metrics.with_disabled @@ fun () ->
    Trace.with_disabled @@ fun () ->
    Builder.build_result ~options:opts ?deadline ?checkpoint_path:ckpt
      ?resume_from ?checkpoint_every sub.(i) ~method_name:rung
      ~budget_words:budget
  in
  let run_rung i rung ~tally =
    let attempt () =
      Faults.trip "segment.build";
      match run_attempt i rung with
      | Ok built -> built
      | Error (Error.Corrupt_checkpoint _) when Option.is_some store -> (
          (* a stale or damaged per-segment snapshot: drop it and build
             the segment from scratch instead of failing the build *)
          let p = seg_ckpt (Option.get store) i in
          if Sys.file_exists p then begin
            Log.warn (fun m ->
                m "segment %d snapshot is unusable; dropping it" i);
            Metrics.count "segmented.snapshots_dropped" 1;
            try Sys.remove p with Sys_error _ -> ()
          end;
          match run_attempt i rung with
          | Ok built -> built
          | Error e -> Error.raise_error e)
      | Error e -> Error.raise_error e
    in
    with_retries ~key:i ~tally attempt
  in
  let requested = method_name in
  let abandoned_of = Array.make s [] in
  (* Retries exhausted (or a permanent failure): fall down the
     cross-method ladder before giving up on the whole build. *)
  let run_segment i ~tally =
    let rec walk rung rest =
      match Error.guard (fun () -> run_rung i rung ~tally) with
      | Ok built -> (built, rung)
      | Error (Error.Interrupted _) ->
          (* the inner build wrote a per-segment snapshot; pin the
             manifest (segment [i] stays pending) and surface the
             interruption at build level, pointing at the manifest *)
          with_retries ~key:s ~tally:scratch write_manifest;
          Metrics.count "segmented.interrupts" 1;
          let st = Option.get store in
          Error.raise_error
            (Error.Interrupted
               {
                 stage = Printf.sprintf "segmented:seg-%d" i;
                 checkpoint = Store.build_manifest_path st;
               })
      | Error e -> (
          match rest with
          | next :: rest' ->
              Log.warn (fun m ->
                  m "segment %d: abandoning %s (%s); degrading to %s" i rung
                    (Error.to_string e) next);
              Metrics.count "segmented.rungs_abandoned" 1;
              abandoned_of.(i) <- abandoned_of.(i) @ [ (rung, Error.to_string e) ];
              walk next rest'
          | [] -> Error.raise_error e)
    in
    walk requested (Builder.fallback_ladder requested)
  in
  let commit i (built : Builder.built) rung ~tally =
    let delivered =
      match built.Builder.report with
      | Some r -> r.Builder.delivered
      | None -> rung
    in
    synopses.(i) <- Some built.Builder.synopsis;
    status.(i) <- Some (delivered, !tally);
    (match store with
     | None -> ()
     | Some st ->
         with_retries ~key:i ~tally (fun () ->
             Faults.trip "segment.commit";
             status.(i) <- Some (delivered, !tally);
             Store.put st ~name:(seg_entry i) built.Builder.synopsis;
             Store.save_build_manifest st (manifest_body ()));
         (* the committed segment subsumes its snapshot *)
         let p = seg_ckpt st i in
         if Sys.file_exists p then
           try Sys.remove p with Sys_error _ -> ());
    Metrics.count "segmented.segments_completed" 1;
    if delivered <> requested then Metrics.count "segmented.segments_degraded" 1
  in
  let pending =
    List.filter (fun i -> Option.is_none synopses.(i)) (List.init s Fun.id)
  in
  let jobs = max 1 options.Builder.jobs in
  (* The parallel phase is taken only when every seam is quiet and no
     deterministic per-segment governor is requested: fault seams,
     governor polls, manifest writes and metrics are coordinator-only,
     so injection and kill sweeps always run the sequential path.  With
     faults provably disarmed, the [Faults.trip] calls inside a worker's
     build are the free single-int-compare path and cannot fire. *)
  let parallel_ok =
    jobs > 1 && (not (Faults.any_armed ())) && Option.is_none seg_poll_budget
  in
  (if pending <> [] then
     if parallel_ok then begin
       let pending = Array.of_list pending in
       let np = Array.length pending in
       Pool.with_pool ~jobs (fun pool ->
           let wave_start = ref 0 in
           while !wave_start < np do
             let wave_len = min jobs (np - !wave_start) in
             boundary ();
             Metrics.count "segmented.waves" 1;
             let slots = Array.make wave_len None in
             (Metrics.with_disabled @@ fun () ->
              Trace.with_disabled @@ fun () ->
              Pool.run pool ~lo:0 ~hi:(wave_len - 1) (fun k ->
                  let i = pending.(!wave_start + k) in
                  let opts =
                    {
                      options with
                      Builder.governor = Governor.unlimited;
                      jobs = 1;
                    }
                  in
                  let budget =
                    min grants.(i)
                      (seg_width i * Builder.words_per_unit requested)
                  in
                  slots.(k) <-
                    Some
                      (Builder.build_result ~options:opts sub.(i)
                         ~method_name:requested ~budget_words:budget)));
             (* wave barrier: the coordinator commits in segment order;
                any worker failure goes through the full sequential
                retry/degradation machinery *)
             for k = 0 to wave_len - 1 do
               let i = pending.(!wave_start + k) in
               match slots.(k) with
               | Some (Ok built) -> commit i built requested ~tally:seg_retries.(i)
               | Some (Error _) | None ->
                   let built, rung = run_segment i ~tally:seg_retries.(i) in
                   commit i built rung ~tally:seg_retries.(i)
             done;
             wave_start := !wave_start + wave_len
           done)
     end
     else
       List.iter
         (fun i ->
           boundary ();
           let built, rung = run_segment i ~tally:seg_retries.(i) in
           commit i built rung ~tally:seg_retries.(i))
         pending);
  let syns =
    Array.mapi
      (fun i -> function
        | Some syn -> syn
        | None ->
            Error.raise_error
              (Error.Invalid_input
                 (Printf.sprintf "segment %d finished without a synopsis" i)))
      synopses
  in
  let t = Segmented.make ds plan syns in
  let storage = Segmented.storage_words t in
  (* The planner never over-grants and degradation only moves to
     cheaper representations, so this can fire only on a bug — enforce
     the invariant rather than assume it. *)
  if storage > budget_words then
    Error.raise_error
      (Error.Invalid_input
         (Printf.sprintf
            "segmented build used %d words against a %d-word budget — \
             planner invariant violated"
            storage budget_words));
  let segs =
    Array.init s (fun i ->
        let lo, hi = bounds.(i) in
        let delivered, retries =
          match status.(i) with Some v -> v | None -> assert false
        in
        {
          seg = i;
          lo;
          hi;
          granted_words = grants.(i);
          delivered;
          retries;
          resumed = resumed_flags.(i);
          abandoned = abandoned_of.(i);
        })
  in
  let report = { requested; planner; budget_words; storage_words = storage; segs } in
  Log.info (fun m -> m "%s" (Segmented.describe t));
  (t, report)
