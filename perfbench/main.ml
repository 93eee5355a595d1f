(* perfbench: one seeded workload per run, every output checked, every
   metric printed by name with its unit.

     sh perfbench/run.sh --workload build|serve|ingest --seed N \
       --seconds S --trace 0|1

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The line
   before it is the run's report: the hardware/environment block, the
   workload, the seed and the sample counts.  A wrong answer makes the
   run exit 1; a run that cannot proceed exits 2 without a result. *)

open Common

let e2e_units =
  [
    ("setup_s", "s"); ("build_s", "s"); ("ops_per_s", "1/s"); ("query_p50_us", "us");
    ("query_p99_us", "us"); ("ingest_p50_us", "us");
    ("fresh_lag_ms", "ms"); ("peak_rss_mb", "MB");
  ]

let layer_units =
  [
    ("opt_a.build_s", "s"); ("opt_a.states", "count"); ("dp.build_s", "s");
    ("dp.cells", "count"); ("pool.speedup_jobs2", "ratio"); ("pool.chunks", "count");
    ("segmented.build_s", "s"); ("segmented.waves", "count");
    ("segmented.retries", "count"); ("wavelet.build_s", "s"); ("store.put_ms", "ms");
    ("store.bytes_per_word", "B/word"); ("generation.load_ms", "ms");
    ("generation.reload_ms", "ms"); ("protocol.decode_us.narrow", "us");
    ("protocol.decode_us.wide", "us"); ("protocol.encode_us.narrow", "us");
    ("protocol.encode_us.wide", "us"); ("batch.eval_ns_per_range", "ns");
    ("cache.put_ns", "ns"); ("server.request_us.narrow", "us");
    ("server.request_us.wide", "us"); ("server.minor_words.narrow", "words");
    ("server.minor_words.wide", "words"); ("governor.polls", "count");
    ("serve.rung.exact", "count"); ("serve.rung.bound", "count");
    ("serve.queue.shed", "count"); ("serve.eval_ns.exact.p50", "ns");
    ("daemon.overhead_us", "us"); ("ingest.p99_us", "us"); ("stream.ingest_us", "us");
    ("store.wal_append_us", "us"); ("store.wal_bytes_per_delta", "B");
    ("stream.refresh_ms", "ms"); ("stream.rebuilt_frac", "ratio");
    ("trace.overhead_frac", "ratio"); ("unattributed_frac", "ratio");
    ("fail_frac", "ratio");
  ]

let workloads =
  [ ("build", Wl_build.run); ("serve", Wl_serve.run); ("ingest", Wl_ingest.run) ]

(* The spawn rule: the benchmark starts processes only through
   Unix.create_process.  A fork is refused by OCaml 5 once a process
   has created domains, which the build workload does at jobs 2. *)
let check_no_fork () =
  let needle = "Unix" ^ "." ^ "fork" in
  let dir = "perfbench" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ml" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let nl = String.length needle in
        for i = 0 to String.length text - nl do
          if String.sub text i nl = needle then
            failwith (Printf.sprintf "%s uses %s; spawn with Unix.create_process" path needle)
        done
      end)
    (Sys.readdir dir)

let env_block ~workload ~seed ~seconds ~trace ~steal_frac ~calibration =
  let fields =
    [
      ("nproc", string_of_int (nproc ()));
      ("cpus_allowed", json_string (cpus_allowed ()));
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("seed", string_of_int seed);
      ("git_commit", json_string (git_commit ()));
      ("source_digest", json_string (source_digest ()));
      ("scratch_fs", json_string (filesystem "."));
      ("monotonic_clock", string_of_bool Rs_util.Mclock.monotonic);
      ("cpu_steal_frac", json_number steal_frac);
      ("calibration_ms_start", json_number (fst calibration));
      ("calibration_ms_end", json_number (snd calibration));
      ("workload", json_string workload);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
    ]
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME build | serve | ingest");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jiffies0 = cpu_jiffies () in
  let calibration0 = calibration_ms () in
  match
    let run =
      match List.assoc_opt !workload workloads with
      | Some r -> r
      | None -> failwith (Printf.sprintf "unknown workload %S" !workload)
    in
    if !seconds <= 0. then failwith "--seconds must be positive";
    check_no_fork ();
    let trace = !trace = 1 in
    let dir = make_scratch !workload in
    let metrics, detail =
      Fun.protect
        ~finally:(fun () ->
          rm_rf dir;
          try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
        (fun () -> run ~dir ~seed:!seed ~seconds:!seconds ~trace)
    in
    (trace, metrics, detail)
  with
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
  | trace, metrics, detail ->
      let fail_frac = float_of_int !failed /. float_of_int (max 1 !attempted) in
      let metrics = m "fail_frac" "ratio" fail_frac :: metrics in
      let wanted = if trace then layer_units else e2e_units in
      (* A per-layer metric the workload does not exercise reads 0. *)
      let value name =
        match List.find_opt (fun x -> x.name = name) metrics with
        | Some x when Float.is_finite x.value -> x.value
        | _ when trace -> 0.
        | _ -> failwith ("no value for end-to-end metric " ^ name)
      in
      let body =
        List.map
          (fun (name, unit_) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_number (value name)) (json_string unit_))
          wanted
      in
      let detail =
        String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_number v) detail)
      in
      let spans =
        String.concat ", "
          (List.map
             (fun (name, count, dur, self) ->
               Printf.sprintf "%s: {\"count\": %d, \"median_s\": %s, \"self_median_s\": %s}"
                 (json_string name) count (json_number dur) (json_number self))
             (Span.summary ()))
      in
      Printf.printf "{\"report\": %s, \"detail\": {%s}, \"spans\": {%s}}\n"
        (env_block ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
           ~steal_frac:(steal_share jiffies0 (cpu_jiffies ()))
           ~calibration:(calibration0, calibration_ms ()))
        detail spans;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        (!failed = 0) (max 1 !attempted) !failed (String.concat ", " body);
      exit (if !failed = 0 then 0 else 1)
