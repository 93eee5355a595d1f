(* The [serve] workload: the real daemon, spawned as a child process
   ([Unix.create_process], never a fork: the benchmark itself has
   created domains by then), on a store of zipf-4096 entries, one per
   plan shape — bucketed point-opt, two-sided sap1, wave-range-opt.

   Closed loop: one single-threaded client holds two Unix-socket
   connections with one request outstanding on each.  7 of 8 requests
   are narrow (1-4 uniform ranges), 1 of 8 wide (256 ranges); half of
   the wide ones carry a poll budget too small for the exact rung, so
   they route to the bound rung.  No request has a deadline.

   Every expected response line is computed before the timed window
   from the entries decoded from the store ([Synopsis.estimate] for
   exact answers, the prefix-vector difference for bound answers), so
   checking an answer in the loop is one string comparison. *)

open Common
module P = Rs_serve.Protocol
module Store = Rs_core.Store
module Synopsis = Rs_core.Synopsis

let n = 4096

(* name, method, words, build jobs *)
let shapes =
  [ ("hist", "point-opt", 32, 2); ("sap1", "sap1", 10, 2); ("wave", "wave-range-opt", 256, 1) ]

let served_exe = "_build/default/bin/rs_served.exe"
let pool_size = 4096
let wide_ranges = 256
let bound_poll_budget = 3

type request = {
  line : string;  (** with the trailing newline *)
  wide : bool;
  expected : string;  (** the exact response line, without newline *)
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable inflight : int;  (** pool index, or -1 *)
  mutable sent : float;
}

type daemon = { pid : int; conns : conn array }

(* {2 The daemon process} *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let chunk = Bytes.create 65536

(* Blocking read of one response line on [c]. *)
let rec read_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      String.sub s 0 i
  | None ->
      let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
      if k = 0 then failwith "daemon closed the connection";
      Buffer.add_subbytes c.buf chunk 0 k;
      read_line c

let call c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

let spawn ~dir ~store_dir ~data_path ~metrics =
  let sock = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv > 11 && String.sub kv 0 11 = "RS_METRICS="))
            (Array.to_list (Unix.environment ()))))
      (if metrics then [| "RS_METRICS=1" |] else [||])
  in
  let pid =
    Unix.create_process_env served_exe
      [| served_exe; "--jobs"; "1"; "--data"; data_path; "--store"; store_dir; "--socket"; sock |]
      env devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  let deadline = now () +. 60. in
  let rec wait_conn () =
    match connect sock with
    | Some fd -> fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "rs_served exited during start-up (see daemon.log)");
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "rs_served did not open its socket"
        end;
        Unix.sleepf 0.005;
        wait_conn ()
  in
  let fd0 = wait_conn () in
  let fd1 = Option.get (connect sock) in
  let mk fd = { fd; buf = Buffer.create 65536; inflight = -1; sent = 0. } in
  { pid; conns = [| mk fd0; mk fd1 |] }

let stop d =
  (try ignore (call d.conns.(0) (P.encode_request P.Shutdown)) with _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with _ -> ()) d.conns;
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

(* {2 Set-up} *)

type setup = {
  data : Rs_core.Dataset.t;
  store_dir : string;
  d : daemon;
  setup_s : float;
  build_s : float;
}

let setup ~seed ~dir ~metrics =
  let t0 = now () in
  let data = Lifecycle.zipf_data ~seed ~n in
  let data_path = Filename.concat dir "zipf-4096.txt" in
  Rs_core.Dataset.save data data_path;
  let store_dir = Filename.concat dir "store" in
  let store = Store.open_dir store_dir in
  let tb = now () in
  List.iter
    (fun (name, method_name, words, jobs) ->
      match
        Rs_core.Builder.build_result
          ~options:{ Rs_core.Builder.default_options with Rs_core.Builder.jobs }
          data ~method_name ~budget_words:words
      with
      | Ok b -> Store.put store ~name b.Rs_core.Builder.synopsis
      | Error e -> failwith (name ^ ": " ^ Rs_util.Error.to_string e))
    shapes;
  let build_s = now () -. tb in
  let d = spawn ~dir ~store_dir ~data_path ~metrics in
  let first =
    try call d.conns.(0) (Lifecycle.query_line ~synopsis:"hist" [| (1, n) |])
    with e ->
      stop d;
      raise e
  in
  let setup_s = now () -. t0 in
  check
    (match P.decode_response first with
    | Ok (P.Answers { rung = P.Exact; _ }) -> true
    | _ -> false)
    (fun () -> "serve set-up: first answer " ^ first);
  { data; store_dir; d; setup_s; build_s }

(* {2 The request pool and its expected responses} *)

let make_pool ~seed ~data ~store_dir =
  let store = Store.open_dir store_dir in
  let gen =
    match Rs_serve.Generation.load ~dataset:data ~gen_id:1 store_dir with
    | Ok g -> g
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let entry name =
    let syn =
      match Store.get store ~name with
      | Ok s -> s
      | Error e -> failwith (Rs_util.Error.to_string e)
    in
    let rmse = (Option.get (Rs_serve.Generation.find gen name)).Rs_serve.Generation.rmse_bound in
    (name, syn, Synopsis.prefix_vector syn, rmse)
  in
  let all = Array.of_list (List.map (fun (name, _, _, _) -> entry name) shapes) in
  let with_prefix = Array.of_list (List.filter (fun (_, _, p, _) -> p <> None) (Array.to_list all)) in
  let rng = Rs_dist.Rng.create (seed * 104729 + 3) in
  let range () =
    let a = 1 + Rs_dist.Rng.int rng n and b = 1 + Rs_dist.Rng.int rng n in
    (min a b, max a b)
  in
  (* The mix is fixed, only the ranges are random: every 8th request is
     wide, every other wide one budgeted; entries go round robin. *)
  Array.init pool_size (fun i ->
      let wide = i mod 8 = 7 in
      let bound = wide && i / 8 mod 2 = 1 in
      let name, syn, prefix, rmse =
        if bound then with_prefix.(i / 16 mod Array.length with_prefix)
        else all.(i mod Array.length all)
      in
      let ranges =
        Array.init (if wide then wide_ranges else 1 + Rs_dist.Rng.int rng 4) (fun _ -> range ())
      in
      let line =
        P.encode_request
          (P.Query
             {
               id = None;
               synopsis = name;
               ranges;
               deadline_ms = None;
               poll_budget = (if bound then Some bound_poll_budget else None);
               attempt = 1;
             })
      in
      let rung, estimates =
        if bound then
          let p = Option.get prefix in
          (P.Bound, Array.map (fun (a, b) -> p.(b) -. p.(a - 1)) ranges)
        else (P.Exact, Array.map (fun (a, b) -> Synopsis.estimate syn ~a ~b) ranges)
      in
      let expected =
        P.encode_response
          (P.Answers
             { id = None; generation = 1; rung; estimates; rmse_bound = rmse; stale = false })
      in
      { line = line ^ "\n"; wide; expected })

let describe_mismatch req got =
  match (P.decode_response req.expected, P.decode_response got) with
  | Ok (P.Answers e), Ok (P.Answers g) ->
      Printf.sprintf "rung %s vs expected %s; %d estimates differ"
        (P.rung_to_string g.rung) (P.rung_to_string e.rung)
        (if Array.length e.estimates <> Array.length g.estimates then -1
         else
           Array.fold_left ( + ) 0
             (Array.map2 (fun a b -> if same_bits a b then 0 else 1) e.estimates g.estimates))
  | _ -> "got " ^ String.sub got 0 (min 200 (String.length got))

(* {2 The closed client loop} *)

type lat = {
  all : Samples.t;
  narrow : Samples.t;
  wide : Samples.t;
  rates : Samples.t;  (** completions per second in each whole window *)
}

let new_lat () =
  { all = Samples.create (); narrow = Samples.create (); wide = Samples.create ();
    rates = Samples.create () }

(* Drive both connections for [seconds], taking requests from the pool
   in order from a seeded offset.  With [quiet], latencies go to [lat]
   and the loop is cut into quiet windows of equal length, at most a
   second, each adding its completion rate to [lat.rates].  Without,
   nothing is recorded (warm-up). *)
let drive ?quiet d pool ~cursor ~seconds lat =
  let send c =
    let i = !cursor mod Array.length pool in
    incr cursor;
    c.inflight <- i;
    c.sent <- now ();
    write_all c.fd pool.(i).line 0
  in
  Array.iter send d.conns;
  let t0 = now () in
  let stop = t0 +. seconds in
  let wlen = seconds /. Float.ceil seconds in
  let boundary = ref (t0 +. wlen) and count = ref 0 in
  Option.iter Quiet.skip quiet;
  let fds = Array.to_list (Array.map (fun c -> c.fd) d.conns) in
  let on_line c got =
    let t = now () in
    let req = pool.(c.inflight) in
    c.inflight <- -1;
    (match quiet with
    | None -> ()
    | Some q ->
        while t >= !boundary do
          Samples.add lat.rates (float_of_int !count /. wlen);
          Quiet.close q;
          count := 0;
          boundary := !boundary +. wlen
        done;
        let dt = t -. c.sent in
        Samples.add lat.all dt;
        Samples.add (if req.wide then lat.wide else lat.narrow) dt;
        incr count);
    check (String.equal got req.expected) (fun () -> describe_mismatch req got)
  in
  let rec scan c =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
        on_line c (String.sub s 0 i);
        scan c
  in
  let active = ref 2 in
  while !active > 0 do
    let ready, _, _ = Unix.select fds [] [] 5. in
    if ready = [] then failwith "serve: no response for 5 s";
    List.iter
      (fun fd ->
        let c = if fd = d.conns.(0).fd then d.conns.(0) else d.conns.(1) in
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k = 0 then failwith "serve: daemon closed a connection";
        Buffer.add_subbytes c.buf chunk 0 k;
        scan c;
        if c.inflight < 0 then
          if now () < stop then send c else decr active)
      ready
  done

(* {2 Daemon telemetry} *)

let daemon_metrics d =
  let line = call d.conns.(0) (P.encode_request P.Metrics) in
  match P.decode_response line with
  | Ok (P.Metrics_report s) -> (
      match P.json_of_string s with Ok j -> j | Error e -> failwith e)
  | _ -> failwith ("metrics op: " ^ line)

let field k = function P.Obj l -> List.assoc_opt k l | _ -> None

let report_counter j name =
  match Option.bind (field "counters" j) (field name) with
  | Some (P.Num x) -> x
  | _ -> 0.

(* Median of a registry histogram: the upper bound of the bucket that
   holds the middle observation. *)
let report_hist_p50 j name =
  match Option.bind (field "histograms" j) (field name) with
  | Some h -> (
      match (field "count" h, field "buckets" h) with
      | Some (P.Num count), Some (P.Arr buckets) ->
          let half = count /. 2. in
          let rec go acc = function
            | [] -> nan
            | b :: rest -> (
                let c = match field "count" b with Some (P.Num c) -> c | _ -> 0. in
                if acc +. c >= half then
                  match field "le" b with Some (P.Num le) -> le | _ -> infinity
                else go (acc +. c) rest)
          in
          go 0. buckets
      | _ -> nan)
  | None -> 0.

(* {2 In-process replay through Server.push/step (traced runs)} *)

let replay ~data ~store_dir pool ~seconds ~traced =
  let srv =
    match
      Rs_serve.Server.create
        { (Rs_serve.Server.default_config ~store_dir) with Rs_serve.Server.dataset = Some data }
    with
    | Ok s -> s
    | Error e -> failwith (Rs_util.Error.to_string e)
  in
  let cache = Rs_serve.Cache.create ~policy:Rs_serve.Cache.Lru ~capacity:256 in
  let req_us = (Samples.create (), Samples.create ()) in
  let words = (Samples.create (), Samples.create ()) in
  let polls0 = counter "governor.polls" in
  let count = ref 0 in
  let t_end = now () +. seconds in
  let i = ref 0 in
  Span.on := traced;
  while now () < t_end do
    let req = pool.(!i mod Array.length pool) in
    incr i;
    let line = String.sub req.line 0 (String.length req.line - 1) in
    let kind = if req.wide then "wide" else "narrow" in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let resp =
      Span.time ("server.request." ^ kind) (fun () ->
          match Rs_serve.Server.push srv ~cookie:0 line with
          | `Reply r -> r
          | `Queued -> (
              match Rs_serve.Server.step srv with Some (_, r) -> r | None -> ""))
    in
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let us, ws = if req.wide then (snd req_us, snd words) else (fst req_us, fst words) in
    Samples.add us (1e6 *. dt);
    Samples.add ws dw;
    incr count;
    check (String.equal resp req.expected) (fun () -> "in-process " ^ describe_mismatch req resp);
    Layers.replay ~gen:(Rs_serve.Server.generation srv) ~cache ~kind line resp
  done;
  Span.on := false;
  let polls = counter "governor.polls" - polls0 in
  Rs_serve.Server.close srv;
  (req_us, words, float_of_int polls /. float_of_int (max 1 !count))

(* {2 The workload} *)

let setup_reps = 3

let run ~dir ~seed ~seconds ~trace =
  let live = ref None in
  let finish () = Option.iter stop !live in
  Fun.protect ~finally:finish @@ fun () ->
  let setups =
    List.init setup_reps (fun i ->
        let sdir = Filename.concat dir (Printf.sprintf "s%d" i) in
        Unix.mkdir sdir 0o755;
        Gc.compact ();
        let s = setup ~seed ~dir:sdir ~metrics:trace in
        if i < setup_reps - 1 then stop s.d else live := Some s.d;
        s)
  in
  let s = List.nth setups (setup_reps - 1) in
  let setup_s = median (Array.of_list (List.map (fun s -> s.setup_s) setups)) in
  let build_s = median (Array.of_list (List.map (fun s -> s.build_s) setups)) in
  let pool = make_pool ~seed ~data:s.data ~store_dir:s.store_dir in
  let cursor = ref (Rs_dist.Rng.int (Rs_dist.Rng.create (seed * 31 + 5)) pool_size) in
  let lat = new_lat () in
  (* Warm-up, then the timed window.  An untraced run drives it in ten
     segments with a slice of the lifecycle probe after each, so the
     probe samples the same stretch of time. *)
  drive s.d pool ~cursor ~seconds:0.5 lat;
  Gc.compact ();
  let quiet = Quiet.create [| lat.all; lat.rates; lat.narrow |] in
  let probe = if trace then None else Some (Lifecycle.Probe.start ~seed ~dir) in
  (match probe with
  | None -> drive ~quiet s.d pool ~cursor ~seconds:(seconds /. 2.) lat
  | Some p ->
      (* After each probe slice, a short untimed drive pages the idle
         daemon back in. *)
      let share = Lifecycle.Probe.share in
      for _ = 1 to 10 do
        drive ~quiet s.d pool ~cursor ~seconds:((1. -. share) *. seconds /. 10.) lat;
        Lifecycle.Probe.slice p (share *. seconds /. 10.);
        drive s.d pool ~cursor ~seconds:0.05 lat
      done);
  let q = Quiet.samples quiet in
  let rss = peak_rss_mb (string_of_int s.d.pid) in
  let detail =
    [
      ("queries", float_of_int (Samples.length lat.all));
      ("queries_narrow", float_of_int (Samples.length lat.narrow));
      ("queries_wide", float_of_int (Samples.length lat.wide));
    ]
    @ Quiet.report quiet
  in
  if not trace then begin
    finish ();
    live := None;
    let probe = Lifecycle.Probe.finish (Option.get probe) in
    ( [
        m "setup_s" "s" setup_s;
        m "build_s" "s" build_s;
        m "ops_per_s" "1/s" (median (q 1));
        m "query_p50_us" "us" (1e6 *. median (q 0));
        m "query_p99_us" "us" (1e6 *. p99_windowed (q 0));
        m "ingest_p50_us" "us" probe.Lifecycle.Probe.ingest_p50_us;
        m "fresh_lag_ms" "ms" probe.fresh_lag_ms;
        m "peak_rss_mb" "MB" rss;
      ],
      detail @ probe.counts )
  end
  else begin
    let report = daemon_metrics s.d in
    finish ();
    live := None;
    Rs_util.Metrics.enable ();
    let half = Float.min 3. (seconds /. 4.) in
    let (plain_n, plain_w), (words_n, words_w), polls =
      replay ~data:s.data ~store_dir:s.store_dir pool ~seconds:half ~traced:false
    in
    let _ = replay ~data:s.data ~store_dir:s.store_dir pool ~seconds:half ~traced:true in
    Rs_util.Metrics.disable ();
    let req_n = p50 plain_n in
    let client_n = 1e6 *. median (q 2) in
    let traced_n = 1e6 *. Span.median_dur "server.request.narrow" in
    let us name = 1e6 *. Span.median_self name in
    let layer_sum =
      us "protocol.decode.narrow" +. us "batch.eval.narrow" +. us "cache.put"
      +. us "protocol.encode.narrow"
    in
    ( [
        m "protocol.decode_us.narrow" "us" (us "protocol.decode.narrow");
        m "protocol.decode_us.wide" "us" (us "protocol.decode.wide");
        m "protocol.encode_us.narrow" "us" (us "protocol.encode.narrow");
        m "protocol.encode_us.wide" "us" (us "protocol.encode.wide");
        m "batch.eval_ns_per_range" "ns" (Span.median_self "batch.eval_ns_per_range");
        m "cache.put_ns" "ns" (1e9 *. Span.median_self "cache.put");
        m "server.request_us.narrow" "us" req_n;
        m "server.request_us.wide" "us" (p50 plain_w);
        m "server.minor_words.narrow" "words" (p50 words_n);
        m "server.minor_words.wide" "words" (p50 words_w);
        m "governor.polls" "count" polls;
        m "serve.rung.exact" "count" (report_counter report "serve.answers.exact");
        m "serve.rung.bound" "count" (report_counter report "serve.answers.bound");
        m "serve.queue.shed" "count" (report_counter report "serve.queue.shed");
        m "serve.eval_ns.exact.p50" "ns" (report_hist_p50 report "serve.eval_ns.exact");
        m "daemon.overhead_us" "us" (client_n -. req_n);
        m "trace.overhead_frac" "ratio" ((traced_n -. req_n) /. req_n);
        m "unattributed_frac" "ratio" ((req_n -. layer_sum) /. client_n);
      ]
      @ Layers.store ~dataset:s.data s.store_dir,
      detail )
  end
