(* The [ingest] workload: writes beside reads, in-process, through
   [Server.handle_line] on a stream-backed store (zipf-4096, 8
   segments, a DP-backed per-segment method).  The loop itself is
   [Lifecycle]; this module sets it up, times it and reports. *)

open Common

let setup_reps = 5

(* On one CPU throughout, like the lifecycle probe inside [build] and
   [serve]. *)
let run ~dir ~seed ~seconds ~trace =
  Affinity.pinned @@ fun () ->
  let setups =
    List.init setup_reps (fun i ->
        let d = Filename.concat dir (Printf.sprintf "s%d" i) in
        Unix.mkdir d 0o755;
        let last = i = setup_reps - 1 in
        Gc.compact ();
        let s = Lifecycle.setup Lifecycle.main_config ~seed ~dir:d ~twin:(trace && last) in
        if not last then Lifecycle.close s.Lifecycle.st;
        (d, s))
  in
  let last_dir, { Lifecycle.st; _ } = List.nth setups (setup_reps - 1) in
  let setup_s = median (Array.of_list (List.map (fun (_, s) -> s.Lifecycle.setup_s) setups)) in
  Gc.compact ();
  if not trace then begin
    let q =
      Quiet.create
        [| st.ingest_lat; st.query_lat; st.fresh_lag; st.refresh_s; st.cycle_rate |]
    in
    Lifecycle.run st ~seconds ~on_cycle:(fun () -> Quiet.close q);
    let s = Quiet.samples q in
    let e2e =
      [
        m "setup_s" "s" setup_s;
        m "build_s" "s" (median (s 3));
        m "ops_per_s" "1/s" (median (s 4));
        m "query_p50_us" "us" (1e6 *. median (s 1));
        m "query_p99_us" "us" (1e6 *. p99_windowed (s 1));
        m "ingest_p50_us" "us" (1e6 *. median (s 0));
        m "fresh_lag_ms" "ms" (1e3 *. median (s 2));
        m "peak_rss_mb" "MB" (peak_rss_mb "self");
      ]
    in
    Lifecycle.close st;
    Lifecycle.check_resume st ~dir:last_dir;
    (e2e, Lifecycle.sample_counts ~prefix:"" st @ Quiet.report q)
  end
  else begin
    Lifecycle.run st ~seconds:(seconds /. 2.);
    let plain = Samples.to_array st.ingest_lat in
    let untraced = median plain in
    Span.on := true;
    Rs_util.Metrics.enable ();
    Lifecycle.run st ~seconds:(seconds /. 2.);
    Span.on := false;
    Rs_util.Metrics.disable ();
    let traced = Span.median_dur "server.ingest" in
    Lifecycle.close st;
    Lifecycle.check_resume st ~dir:last_dir;
    let us name = 1e6 *. Span.median_self name in
    let wal_bytes =
      match st.twin with
      | Some (_, wal) -> float_of_int (file_size (Rs_core.Store.wal_path wal))
      | None -> nan
    in
    let attributed =
      us "protocol.decode.ingest" +. us "stream.ingest" +. us "protocol.encode.ingest"
    in
    ( [
        m "ingest.p99_us" "us" (1e6 *. p99_windowed plain);
        m "stream.ingest_us" "us" (us "stream.ingest");
        m "store.wal_append_us" "us" (us "store.wal_append");
        m "store.wal_bytes_per_delta" "B" (wal_bytes /. float_of_int st.wal_deltas);
        m "stream.refresh_ms" "ms" (1e3 *. Span.median_self "stream.refresh");
        m "stream.rebuilt_frac" "ratio" (p50 st.rebuilt_frac);
        m "protocol.decode_us.narrow" "us" (us "protocol.decode.narrow");
        m "protocol.encode_us.narrow" "us" (us "protocol.encode.narrow");
        m "batch.eval_ns_per_range" "ns" (Span.median_self "batch.eval_ns_per_range");
        m "cache.put_ns" "ns" (1e9 *. Span.median_self "cache.put");
        m "server.request_us.narrow" "us" (us "server.request.narrow");
        m "trace.overhead_frac" "ratio" ((traced -. untraced) /. untraced);
        m "unattributed_frac" "ratio" ((untraced *. 1e6 -. attributed) /. (untraced *. 1e6));
      ]
      @ Layers.store
          ~reload:(1e3 *. Span.median_self "generation.reload")
          (Filename.concat last_dir "store"),
      [
        ("batches", float_of_int st.batches);
        ("ingests_untraced", float_of_int (Array.length plain));
        ("refreshes", float_of_int (Samples.length st.fresh_lag));
      ] )
  end
