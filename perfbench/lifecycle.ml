(* The write-beside-read loop of the [ingest] workload: one in-process
   caller drives [Server.handle_line] on a stream-backed store, closed
   loop.  Each step ingests one batch of point-deltas at Zipf-skewed
   positions (WAL-fsynced before the ack), then sends a few narrow
   queries to the per-segment entries; every [refresh_every] batches it
   runs [Stream.refresh], [Server.reload] and one query that must come
   back fresh.

   The same loop, in timed slices, is the lifecycle probe that the
   [build] and [serve] workloads use for the metrics their own loops do
   not produce (query, ingest and freshness latency). *)

open Common
module P = Rs_serve.Protocol
module Server = Rs_serve.Server
module Stream = Rs_core.Stream
module Store = Rs_core.Store

type config = {
  n : int;
  segments : int;
  method_name : string;  (** per-segment method, DP-backed *)
  budget_words : int;
  threshold : float;  (** staleness threshold, in |δ| mass *)
  skew : float;  (** Zipf exponent of delta positions *)
  batch : int;  (** deltas per ingest *)
  queries_per_batch : int;
  refresh_every : int;  (** batches between refreshes *)
}

(* The threshold keeps the work of a refresh stationary.  Segment 0
   takes about 84 % of the delta mass (some 9,000 per 75-batch cycle)
   and is stale at every refresh; the other seven share about 1,800 per
   cycle, so about three refreshes in four rebuild segment 0 alone.  At
   a threshold near one cycle's mass of the middle segments, the number
   rebuilt per refresh cycles through 3..8 with a period of several
   refreshes, and the median lag jumps with the phase. *)
let main_config =
  {
    n = 4096;
    segments = 8;
    method_name = "sap0";
    budget_words = 104;
    threshold = 6000.;
    skew = 1.1;
    batch = 64;
    queries_per_batch = 8;
    refresh_every = 75;
  }

let entry_prefix = "stream"
let seg_name k = Printf.sprintf "%s.seg%d" entry_prefix k

(* The generator's zipf-<n> set, rounded under the workload seed. *)
let zipf_data ~seed ~n =
  Rs_core.Dataset.of_ints
    ~name:(Printf.sprintf "zipf-%d" n)
    (Rs_dist.Datasets.zipf
       ~seed:(2001 + seed) (* 2001: the generator's default seed *)
       ~n ~alpha:1.8
       ~total:(float_of_int (n * 80))
       ())

type t = {
  cfg : config;
  rng : Rs_dist.Rng.t;
  srv : Server.t;
  bounds : (int * int) array;
  grants : int array;
  cdf : float array;  (** cumulative position weights *)
  shadow : float array;  (** the benchmark's own copy of the live data *)
  mass : float array;  (** |δ| mass per segment since its last rebuild *)
  ingest_lat : Samples.t;
  query_lat : Samples.t;
  fresh_lag : Samples.t;
  refresh_s : Samples.t;  (** [Stream.refresh] alone *)
  cycle_rate : Samples.t;  (** operations per second of each refresh cycle *)
  rebuilt_frac : Samples.t;
  mutable ops : int;
  mutable active : float;  (** seconds spent in the timed loop *)
  mutable batches : int;
  mutable cycle_start : int * float;  (** ops and active time at the last refresh *)
  (* Traced runs only: a twin stream and a bare WAL store that receive
     the same batches, and a cache the layer replay writes into. *)
  twin : (Stream.t * Store.t) option;
  cache : float array Rs_serve.Cache.t;
  mutable wal_deltas : int;
}

type setup = { st : t; setup_s : float }

let config_of cfg =
  {
    Stream.default_config with
    Stream.method_name = cfg.method_name;
    budget_words = cfg.budget_words;
    segments = cfg.segments;
    stale_threshold = cfg.threshold;
    entry_prefix;
  }

(* Set-up: dataset, stream construction into a fresh store, server
   load and the first answer.  [twin] also builds the traced run's twin
   stream (outside the set-up time). *)
let setup cfg ~seed ~dir ~twin =
  let t0 = now () in
  let data = zipf_data ~seed ~n:cfg.n in
  let store_dir = Filename.concat dir "store" in
  let store = Store.open_dir store_dir in
  let scfg = config_of cfg in
  let stream = Stream.create ~config:scfg ~store data in
  let srv =
    match Server.create (Server.default_config ~store_dir) with
    | Ok s -> s
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let first =
    Server.handle_line srv
      (P.encode_request
         (P.Query
            {
              id = None;
              synopsis = seg_name 0;
              ranges = [| (1, 1) |];
              deadline_ms = None;
              poll_budget = None;
              attempt = 1;
            }))
  in
  let setup_s = now () -. t0 in
  check
    (match P.decode_response first with
    | Ok (P.Answers { rung = P.Exact; _ }) -> true
    | _ -> false)
    (fun () -> "ingest set-up: first answer " ^ first);
  let plan = Stream.plan stream in
  let bounds = plan.Rs_core.Segmented.bounds in
  let grants =
    Rs_core.Segmented.uniform_split plan ~method_name:cfg.method_name
      ~budget_words:cfg.budget_words
  in
  let cdf = Array.make cfg.n 0. in
  let acc = ref 0. in
  for i = 0 to cfg.n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) cfg.skew);
    cdf.(i) <- !acc
  done;
  let twin =
    if twin then begin
      let tdir = Filename.concat dir "twin" in
      let s = Stream.create ~config:scfg ~store:(Store.open_dir tdir) data in
      Some (s, Store.open_dir (Filename.concat dir "twin-wal"))
    end
    else None
  in
  let st =
    {
      cfg;
      rng = Rs_dist.Rng.create (seed * 7919 + 17);
      srv;
      bounds;
      grants;
      cdf;
      shadow = Array.copy (Rs_core.Dataset.values data);
      mass = Array.make cfg.segments 0.;
      ingest_lat = Samples.create ();
      query_lat = Samples.create ();
      fresh_lag = Samples.create ();
      refresh_s = Samples.create ();
      cycle_rate = Samples.create ();
      rebuilt_frac = Samples.create ();
      ops = 0;
      active = 0.;
      batches = 0;
      cycle_start = (0, 0.);
      twin;
      cache = Rs_serve.Cache.create ~policy:Rs_serve.Cache.Lru ~capacity:256;
      wal_deltas = 0;
    }
  in
  { st; setup_s }

let close st = Server.close st.srv

let segment_of st i =
  let k = ref 0 in
  while snd st.bounds.(!k) < i do incr k done;
  !k

let sample_position st =
  let total = st.cdf.(st.cfg.n - 1) in
  let u = Rs_dist.Rng.float st.rng *. total in
  let lo = ref 0 and hi = ref (st.cfg.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

(* One batch: positive deltas 1..4, and -1 where the pre-batch value is
   large enough that no order of the batch can go negative. *)
let make_batch st =
  Array.init st.cfg.batch (fun _ ->
      let i = sample_position st in
      let d =
        if st.shadow.(i - 1) >= float_of_int st.cfg.batch
           && Rs_dist.Rng.int st.rng 8 = 0
        then -1.
        else float_of_int (1 + Rs_dist.Rng.int st.rng 4)
      in
      (i, d))

let narrow_ranges rng width =
  Array.init
    (1 + Rs_dist.Rng.int rng 4)
    (fun _ ->
      let a = 1 + Rs_dist.Rng.int rng width and b = 1 + Rs_dist.Rng.int rng width in
      (min a b, max a b))

let query_line ~synopsis ranges =
  P.encode_request
    (P.Query
       {
         id = None;
         synopsis;
         ranges;
         deadline_ms = None;
         poll_budget = None;
         attempt = 1;
       })

let do_ingest st =
  let deltas = make_batch st in
  let line = P.encode_request (P.Ingest { id = None; synopsis = entry_prefix; deltas }) in
  let t0 = now () in
  let resp = Span.time "server.ingest" (fun () -> Server.handle_line st.srv line) in
  let dt = now () -. t0 in
  Samples.add st.ingest_lat dt;
  st.active <- st.active +. dt;
  st.ops <- st.ops + 1;
  Array.iter
    (fun (i, d) ->
      st.shadow.(i - 1) <- st.shadow.(i - 1) +. d;
      let k = segment_of st i in
      st.mass.(k) <- st.mass.(k) +. Float.abs d)
    deltas;
  check
    (match P.decode_response resp with
    | Ok (P.Ingested { applied; _ }) -> applied = Array.length deltas
    | _ -> false)
    (fun () -> "ingest: " ^ resp);
  Layers.replay ~gen:(Server.generation st.srv) ~cache:st.cache ~kind:"ingest" line resp;
  (* The twins take every batch, so their data stays the live data. *)
  match st.twin with
  | Some (stream, wal) ->
      ignore (Span.time "stream.ingest" (fun () -> Stream.ingest stream deltas));
      ignore
        (Span.time "store.wal_append" (fun () ->
             Store.wal_append wal [ (entry_prefix, deltas) ]));
      st.wal_deltas <- st.wal_deltas + Array.length deltas
  | None -> ()

let do_query st =
  let k = Rs_dist.Rng.int st.rng st.cfg.segments in
  let lo, hi = st.bounds.(k) in
  let ranges = narrow_ranges st.rng (hi - lo + 1) in
  let line = query_line ~synopsis:(seg_name k) ranges in
  let t0 = now () in
  let resp = Span.time "server.request.narrow" (fun () -> Server.handle_line st.srv line) in
  let dt = now () -. t0 in
  Samples.add st.query_lat dt;
  st.active <- st.active +. dt;
  st.ops <- st.ops + 1;
  let want_stale = st.mass.(k) > st.cfg.threshold in
  check
    (match P.decode_response resp with
    | Ok (P.Answers { rung = P.Exact; stale; estimates; _ }) ->
        stale = want_stale && Array.length estimates = Array.length ranges
    | _ -> false)
    (fun () ->
      Printf.sprintf "ingest query seg %d (expect stale=%b): %s" k want_stale resp);
  Layers.replay ~gen:(Server.generation st.srv) ~cache:st.cache ~kind:"narrow" line resp

(* Oracle, outside the timed window: answers from a rebuilt segment
   must match a from-scratch build of the segment's current data. *)
let check_rebuilt st k =
  let lo, hi = st.bounds.(k) in
  let width = hi - lo + 1 in
  let ds =
    Rs_core.Dataset.of_floats ~name:(seg_name k) (Array.sub st.shadow (lo - 1) width)
  in
  let syn =
    Rs_core.Builder.build ds ~method_name:st.cfg.method_name
      ~budget_words:st.grants.(k)
  in
  let ranges =
    Array.init 8 (fun _ ->
        let a = 1 + Rs_dist.Rng.int st.rng width
        and b = 1 + Rs_dist.Rng.int st.rng width in
        (min a b, max a b))
  in
  let resp = Server.handle_line st.srv (query_line ~synopsis:(seg_name k) ranges) in
  check
    (match P.decode_response resp with
    | Ok (P.Answers { rung = P.Exact; stale = false; estimates; _ }) ->
        Array.length estimates = Array.length ranges
        && Array.for_all2
             (fun (a, b) e -> same_bits e (Rs_core.Synopsis.estimate syn ~a ~b))
             ranges estimates
    | _ -> false)
    (fun () -> Printf.sprintf "refresh oracle seg %d: %s" k resp)

let do_refresh st =
  let stale = List.filter (fun k -> st.mass.(k) > st.cfg.threshold) (List.init st.cfg.segments Fun.id) in
  let t0 = now () in
  let stream = Option.get (Server.stream st.srv) in
  let report = Span.time "stream.refresh" (fun () -> Stream.refresh stream) in
  Samples.add st.refresh_s (now () -. t0);
  let reload = Span.time "generation.reload" (fun () -> Server.reload st.srv) in
  let k = match report.Stream.rebuilt with k :: _ -> k | [] -> 0 in
  let lo, hi = st.bounds.(k) in
  let line = query_line ~synopsis:(seg_name k) (narrow_ranges st.rng (hi - lo + 1)) in
  let resp = Server.handle_line st.srv line in
  let dt = now () -. t0 in
  Samples.add st.fresh_lag dt;
  Samples.add st.rebuilt_frac
    (float_of_int (List.length report.Stream.rebuilt) /. float_of_int st.cfg.segments);
  st.active <- st.active +. dt;
  st.ops <- st.ops + 1;
  List.iter (fun k -> st.mass.(k) <- 0.) report.Stream.rebuilt;
  let ops0, active0 = st.cycle_start in
  Samples.add st.cycle_rate (float_of_int (st.ops - ops0) /. (st.active -. active0));
  st.cycle_start <- (st.ops, st.active);
  check
    (report.Stream.rebuilt = stale
    && (match P.decode_response reload with Ok (P.Reloaded _) -> true | _ -> false)
    &&
    match P.decode_response resp with
    | Ok (P.Answers { rung = P.Exact; stale = false; _ }) -> true
    | _ -> false)
    (fun () ->
      Printf.sprintf "refresh: rebuilt [%s], expected [%s]; reload %s; first answer %s"
        (String.concat "," (List.map string_of_int report.Stream.rebuilt))
        (String.concat "," (List.map string_of_int stale))
        reload resp);
  (* Two rebuilt segments per refresh go through the oracle. *)
  (match report.Stream.rebuilt with
  | [] -> ()
  | l ->
      let a = Array.of_list l in
      check_rebuilt st a.(Rs_dist.Rng.int st.rng (Array.length a));
      check_rebuilt st a.(Rs_dist.Rng.int st.rng (Array.length a)))

(* Run batches until [seconds] of timed loop have elapsed; [on_cycle]
   runs after each refresh. *)
let run ?(on_cycle = ignore) st ~seconds =
  let stop = st.active +. seconds in
  while st.active < stop do
    do_ingest st;
    for _ = 1 to st.cfg.queries_per_batch do
      do_query st
    done;
    st.batches <- st.batches + 1;
    if st.batches mod st.cfg.refresh_every = 0 then begin
      do_refresh st;
      on_cycle ()
    end
  done

(* End-of-run oracle: a fresh [Stream.resume] of the store must hold
   exactly the benchmark's shadow copy, so no acknowledged delta was
   lost.  The server must be closed first. *)
let check_resume st ~dir =
  match Stream.resume (Store.open_dir (Filename.concat dir "store")) with
  | Ok (Some s) ->
      let data = Stream.data s in
      check
        (Array.length data = Array.length st.shadow
        && Array.for_all2 same_bits data st.shadow)
        (fun () -> "resume: live data differs from the acknowledged deltas")
  | Ok None -> check false (fun () -> "resume: no stream manifest")
  | Error e -> check false (fun () -> "resume: " ^ Rs_util.Error.to_string e)

let sample_counts ~prefix st =
  List.map
    (fun (k, s) -> (prefix ^ k, float_of_int (Samples.length s)))
    [ ("queries", st.query_lat); ("ingests", st.ingest_lat); ("refreshes", st.fresh_lag) ]

(* The lifecycle probe: this loop on the main configuration, run in
   timed slices between the host workload's own timed steps, so the
   probe samples the same stretch of time; it reads the three latency
   families at the end.  Each slice starts and ends on a compacted
   heap, so neither side pays for the other's garbage. *)
module Probe = struct
  type probe = { pst : t; pdir : string; quiet : Quiet.t }

  (* The probe's share of a host workload's timed phase. *)
  let share = 0.3

  let start ~seed ~dir =
    let pdir = Filename.concat dir "probe" in
    Unix.mkdir pdir 0o755;
    let { st; _ } = setup main_config ~seed:(seed + 1) ~dir:pdir ~twin:false in
    { pst = st; pdir; quiet = Quiet.create [| st.query_lat; st.ingest_lat; st.fresh_lag |] }

  (* Run [seconds] more of the loop on one CPU; each refresh cycle, and
     the part of one at either end, is a quiet window. *)
  let slice p seconds =
    Gc.compact ();
    Affinity.pinned (fun () ->
        Quiet.skip p.quiet;
        run p.pst ~seconds ~on_cycle:(fun () -> Quiet.close p.quiet);
        Quiet.close p.quiet);
    Gc.compact ()

  type result = {
    query_p50_us : float;
    query_p99_us : float;
    ingest_p50_us : float;
    fresh_lag_ms : float;
    counts : (string * float) list;  (** sample counts, for the run report *)
  }

  let finish p =
    close p.pst;
    check_resume p.pst ~dir:p.pdir;
    let q = Quiet.samples p.quiet in
    {
      query_p50_us = 1e6 *. median (q 0);
      query_p99_us = 1e6 *. p99_windowed (q 0);
      ingest_p50_us = 1e6 *. median (q 1);
      fresh_lag_ms = 1e3 *. median (q 2);
      counts =
        sample_counts ~prefix:"probe_" p.pst
        @ List.map (fun (k, v) -> ("probe_" ^ k, v)) (Quiet.report p.quiet);
    }
end
