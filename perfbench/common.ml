(* Shared machinery of the benchmark: clock, sample buffers and
   percentiles, the span tracer, failure accounting, scratch space, the
   hardware/environment block, and the quiet windows that keep
   hypervisor steal out of the statistics. *)

let now = Rs_util.Mclock.now

(* {2 Samples} *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* Nearest-rank percentile ([p] in [0, 100]) of an unsorted array;
   [nan] when empty. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50. xs
let p50 s = median (Samples.to_array s)

(* The p99 of a latency stream, robust to bursts of machine noise: the
   median of the p99s of consecutive windows of 1000 samples (each has
   10 samples beyond its p99).  A shorter stream is one window. *)
let p99_windowed a =
  let w = 1000 in
  let k = max 1 (Array.length a / w) in
  median
    (Array.init k (fun i ->
         let len = if i = k - 1 then Array.length a - (i * w) else w in
         percentile 99. (Array.sub a (i * w) len)))

(* {2 The span tracer}

   Spans are recorded from the benchmark's own files, around calls into
   the layers' public functions.  A span's self time is its duration
   minus the time covered by spans opened inside it.  Tracing off is
   one branch per call. *)

module Span = struct
  let on = ref false

  type stat = { durs : Samples.t; selfs : Samples.t; timed : bool }

  let table : (string, stat) Hashtbl.t = Hashtbl.create 32

  (* Child time accumulated by each open span, innermost first. *)
  let stack : float ref list ref = ref []

  let stat ~timed name =
    match Hashtbl.find_opt table name with
    | Some s -> s
    | None ->
        let s = { durs = Samples.create (); selfs = Samples.create (); timed } in
        Hashtbl.replace table name s;
        s

  let time name f =
    if not !on then f ()
    else begin
      let child = ref 0. in
      stack := child :: !stack;
      let t0 = now () in
      let finish () =
        let d = now () -. t0 in
        (match !stack with _ :: rest -> stack := rest | [] -> ());
        (match !stack with parent :: _ -> parent := !parent +. d | [] -> ());
        let s = stat ~timed:true name in
        Samples.add s.durs d;
        Samples.add s.selfs (d -. !child)
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* A raw sample under [name] (a per-unit cost the caller derived),
     recorded only while tracing. *)
  let record name x =
    if !on then begin
      let s = stat ~timed:false name in
      Samples.add s.durs x;
      Samples.add s.selfs x
    end

  let durations name =
    match Hashtbl.find_opt table name with
    | Some s -> Samples.to_array s.durs
    | None -> [||]

  let self_times name =
    match Hashtbl.find_opt table name with
    | Some s -> Samples.to_array s.selfs
    | None -> [||]

  (* Every timed span: name, count, median duration and median self
     time in seconds, sorted by name. *)
  let summary () =
    Hashtbl.fold
      (fun name s acc ->
        if s.timed then
          (name, Samples.length s.durs, p50 s.durs, p50 s.selfs) :: acc
        else acc)
      table []
    |> List.sort compare

  let median_self name = median (self_times name)
  let median_dur name = median (durations name)
end

(* {2 Failures} *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 20 then prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

(* Count one checked operation; [ok = false] is a failure, described
   by [why] (only evaluated on failure). *)
let check ok why =
  incr attempted;
  if not ok then fail "%s" (why ())

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* {2 Metric lists} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* {2 Registry counters (traced runs enable Rs_util.Metrics)} *)

let counter name =
  let r = Rs_util.Metrics.report () in
  match List.assoc_opt name r.Rs_util.Metrics.r_counters with
  | Some v -> v
  | None -> 0

(* {2 Scratch space, inside the checkout} *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_root = ".perfbench"

let make_scratch workload =
  (try Unix.mkdir scratch_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat scratch_root
      (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let file_size path = (Unix.stat path).Unix.st_size

(* {2 Process memory} *)

(* VmHWM of [pid] ("self" for this process), in MB. *)
let peak_rss_mb pid =
  let prefix = "VmHWM:" in
  let lines = read_lines (Printf.sprintf "/proc/%s/status" pid) in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | None -> nan
  | Some l ->
      Scanf.sscanf
        (String.sub l (String.length prefix)
           (String.length l - String.length prefix))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)

(* {2 CPU affinity} *)

module Affinity = struct
  external get : unit -> int = "perfbench_affinity_get"
  external set : int -> bool = "perfbench_affinity_set"

  (* Run [f] with the calling thread on the lowest CPU of its mask, then
     restore the mask.  Left free, a single-threaded phase runs on
     whichever vCPU the scheduler last put it on, for the whole phase;
     the lifecycle probe inside [build] (after passes that used both)
     read 20 % faster in some runs than in others, while inside [serve],
     whose process [run.sh] pins, it held within 10 %. *)
  let pinned f =
    let mask = get () in
    if mask = 0 || not (set (mask land -mask)) then f ()
    else Fun.protect ~finally:(fun () -> ignore (set mask)) f
end

(* {2 Hardware and environment} *)

(* Online CPUs of the machine, from /sys (the affinity mask may be
   narrower: see [cpus_allowed]). *)
let nproc () =
  match read_lines "/sys/devices/system/cpu/online" with
  | [ spec ] ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' part with
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | [ _ ] -> acc + 1
          | _ -> acc)
        0
        (String.split_on_char ',' (String.trim spec))
  | _ -> Domain.recommended_domain_count ()

(* The CPUs this process may run on, as /proc lists them. *)
let cpus_allowed () =
  let key = "Cpus_allowed_list:" in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length key
        && String.sub l 0 (String.length key) = key)
      (read_lines "/proc/self/status")
  with
  | Some l -> String.trim (String.sub l (String.length key) (String.length l - String.length key))
  | None -> "unknown"

(* (steal, total) jiffies so far from /proc/stat (user, nice, system,
   idle, iowait, irq, softirq, steal): of the one CPU the calling thread
   is pinned to, else of all CPUs.  A pinned phase is slowed by the
   steal of its own CPU only, which the sum over all CPUs halves. *)
let cpu_jiffies () =
  let mask = Affinity.get () in
  let key =
    if mask > 0 && mask land (mask - 1) = 0 then begin
      let cpu = ref 0 in
      while mask lsr !cpu > 1 do incr cpu done;
      Printf.sprintf "cpu%d " !cpu
    end
    else "cpu "
  in
  let k = String.length key in
  let rec find ic =
    match In_channel.input_line ic with
    | Some l when String.length l > k && String.sub l 0 k = key -> Some l
    | Some _ -> find ic
    | None -> None
  in
  match In_channel.with_open_text "/proc/stat" find with
  | Some l -> (
      match
        List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' l))
      with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          (steal, user + nice + system + idle + iowait + irq + softirq + steal)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* {2 Quiet windows}

   This runs on a virtual machine whose hypervisor steals CPU time in
   bursts (0.3 % to 17 % of a 20-second run on the reference box), and
   a burst slows every layer at once.  A workload cuts its timed loop
   into windows (a refresh cycle, up to a second of serving, one
   member's build)
   and closes each one here, which records the steal share during the
   window and how far each sample buffer had grown.  Statistics are
   then taken over the windows whose steal share stayed at or below
   [max_steal]; when fewer than half qualify, over the quieter half.
   The run report gives how many windows were kept. *)
module Quiet = struct
  let max_steal = 0.02

  type t = {
    buffers : Samples.t array;
    mutable mark : (int * int) * int array;  (** jiffies, buffer lengths *)
    mutable windows : (float * int array * int array) list;
        (** steal share, buffer starts, buffer ends; newest first *)
  }

  let lengths buffers = Array.map Samples.length buffers
  let create buffers = { buffers; mark = (cpu_jiffies (), lengths buffers); windows = [] }

  let close t =
    let j0, starts = t.mark in
    let j1 = cpu_jiffies () and ends = lengths t.buffers in
    t.windows <- (steal_share j0 j1, starts, ends) :: t.windows;
    t.mark <- (j1, ends)

  (* Start a new window without recording the current one. *)
  let skip t = t.mark <- (cpu_jiffies (), lengths t.buffers)

  let kept t =
    let all = List.rev t.windows in
    let quiet = List.filter (fun (st, _, _) -> st <= max_steal) all in
    let n = List.length all in
    if 2 * List.length quiet >= n then quiet
    else
      List.filteri
        (fun i _ -> i < (n + 1) / 2)
        (List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) all)

  (* The samples of buffer [i] that fall in kept windows. *)
  let samples t i =
    let a = Samples.to_array t.buffers.(i) in
    Array.concat
      (List.map (fun (_, starts, ends) -> Array.sub a starts.(i) (ends.(i) - starts.(i))) (kept t))

  let report t =
    [ ("windows", float_of_int (List.length t.windows));
      ("windows_kept", float_of_int (List.length (kept t))) ]
end

(* A fixed CPU kernel (16 folds over 2^20 floats), median of 5 timings
   in ms: the run report's measure of the machine's speed, so that a
   slow machine can be told from a slow program. *)
let calibration_ms () =
  let a = Array.init (1 lsl 20) float_of_int in
  median
    (Array.init 5 (fun _ ->
         let t0 = now () in
         let acc = ref 0. in
         for _ = 1 to 16 do
           for i = 0 to Array.length a - 1 do
             acc := !acc +. Array.unsafe_get a i
           done
         done;
         ignore (Sys.opaque_identity !acc);
         1e3 *. (now () -. t0)))

(* The filesystem type under [path], from the longest matching mount
   point in /proc/self/mountinfo. *)
let filesystem path =
  let target = try Unix.realpath path with Unix.Unix_error _ -> path in
  let best = ref ("", "unknown") in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: _ :: _ :: _ :: mount :: rest -> (
          let rec after_dash = function
            | "-" :: fstype :: _ -> Some fstype
            | _ :: tl -> after_dash tl
            | [] -> None
          in
          let is_prefix =
            mount = "/"
            || String.length target >= String.length mount
               && String.sub target 0 (String.length mount) = mount
               && (String.length target = String.length mount
                  || target.[String.length mount] = '/')
          in
          match after_dash rest with
          | Some fstype
            when is_prefix && String.length mount >= String.length (fst !best)
            ->
              best := (mount, fstype)
          | _ -> ())
      | _ -> ())
    (read_lines "/proc/self/mountinfo");
  snd !best

(* The checked-out commit when the checkout is a git work tree. *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [ l ] when String.length l > 5 && String.sub l 0 5 = "ref: " -> (
      let r = String.sub l 5 (String.length l - 5) in
      match read_lines (Filename.concat ".git" r) with
      | [ h ] -> h
      | _ -> (
          let packed =
            List.find_opt
              (fun p ->
                match String.split_on_char ' ' p with
                | [ _; name ] -> name = r
                | _ -> false)
              (read_lines ".git/packed-refs")
          in
          match packed with
          | Some p -> List.hd (String.split_on_char ' ' p)
          | None -> "unknown"))
  | [ h ] -> h
  | _ -> "unknown"

(* Digest of the program's sources (lib/ and bin/), which identifies the
   code under test even in a checkout without git metadata. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.iter
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
            then files := p :: !files)
          entries
  in
  walk "lib";
  walk "bin";
  let files = List.sort compare !files in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_string buf (Digest.to_hex (Digest.file p)))
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"
