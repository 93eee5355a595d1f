(** Generic interval dynamic program for histogram construction.

    Minimizes [Σ_k cost(l_k, r_k)] over partitions of [1..n] into at most
    [buckets] contiguous buckets — the classical O(n²·B) scheme shared by
    V-Optimal, SAP0, SAP1 and A0 (each of which supplies its own O(1)
    bucket-cost function from {!Cost}).

    [cost] must be non-negative; additivity across buckets is the
    caller's responsibility (it holds exactly for SAP0/SAP1 thanks to the
    Decomposition Lemma, and by construction for point-query costs).

    {2 Checkpoint/resume}

    When [checkpoint_path] is given, the once-per-row governor poll also
    drives row-granularity snapshots ({!Rs_util.Checkpoint} container,
    CRC-protected, written atomically): [Checkpoint_due] saves and
    continues; an expired {e Snapshot}-mode governor saves and raises
    {!Rs_util.Governor.Interrupted} instead of degrading.  [resume_from]
    restores the saved matrices and replays from the first incomplete
    cell, producing bit-identical results to an uninterrupted run (floats
    round-trip via [%h]).  The snapshot records [stage], [fingerprint]
    (caller-supplied hash of the input data), [n] and the clamped bucket
    count; any mismatch — or any corruption — raises
    [Rs_error (Corrupt_checkpoint _)].

    {2 Parallelism}

    [jobs > 1] runs each level's cells across a {!Rs_util.Pool} of that
    many workers.  Cell [(k, i)] reads only the completed level [k−1]
    and writes only its own slots, so the result (and any snapshot) is
    bit-identical to the sequential run for every job count.  The
    governor poll — and with it the snapshot hook — moves from per-cell
    to per-chunk on the coordinator (chunks are a fixed 64 cells, so
    chunk barriers line up across job counts); workers never poll,
    trip faults, or save checkpoints. *)

type result = {
  cost : float;  (** optimal objective value *)
  bucketing : Bucket.t;
}

val log_src : Logs.src
(** The [rs.dp] log source, shared by every DP engine in this library
    (the level engine, the monotone engine, and the OPT-A state-space
    DP). *)

type engine =
  | Auto
      (** monotone when the cost is QI-certified, [jobs ≤ 1] and no
          checkpoint/resume is requested; level otherwise *)
  | Monotone  (** force {!solve_monotone}; fails loudly if inapplicable *)
  | Level  (** force the classical level engine *)

val engine_name : engine -> string

val engine_of_string : string -> engine option
(** Parses ["auto"], ["monotone"], ["level"] (the [--engine]/[RS_ENGINE]
    spellings). *)

val solve :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?fingerprint:string ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** [solve ~n ~buckets ~cost ()] runs the DP.  [buckets] is clamped to
    [\[1, n\]].  The returned bucketing may use fewer than [buckets]
    buckets when that is no worse.  [governor] is polled once per DP
    row (never per state); on expiry it raises
    {!Rs_util.Governor.Deadline_exceeded} tagged with [stage] — or, with
    a Snapshot-mode governor and a [checkpoint_path], writes a resumable
    snapshot and raises {!Rs_util.Governor.Interrupted}.  [jobs]
    (default 1) parallelizes each level across a worker pool with
    bit-identical results; [cost] must then be safe to call from
    several domains at once (the {!Cost} context closures are: they
    only read prefix arrays). *)

val solve_exact_buckets :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?fingerprint:string ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Same, but the partition uses exactly [min buckets n] buckets — used
    by comparisons that must hold the bucket count fixed. *)

(** {2 Monotone divide-and-conquer engine}

    For costs satisfying the quadrangle inequality
    [w(a,c) + w(b,d) ≤ w(b,c) + w(a,d)] ([a ≤ b ≤ c ≤ d]), the leftmost
    argmin of each level is nondecreasing, so a divide-and-conquer over
    the level (solve the middle cell, split the candidate range at its
    argmin) costs O(n log n) transitions per level instead of O(n²) —
    see THEORY.md §11 for the derivation and the per-cost certificates.

    The monotone engine is {e sequential-only and never checkpointed}:
    it fills each level in divide-and-conquer order, so there is no
    completed row prefix for a snapshot to record, and no worker pool is
    ever involved.  Checkpoint/resume and [jobs > 1] stay on
    {!solve}.  Both engines break ties identically (leftmost argmin), so
    under a valid certificate they return the same bucketing, not just
    the same cost. *)

val solve_monotone :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Divide-and-conquer counterpart of {!solve}.  Only valid for
    QI-certified costs — on a cost violating the quadrangle inequality
    the result may be suboptimal (callers go through {!solve_with},
    which enforces the certificate).  The governor is checked once per
    cell via the non-resumable {!Rs_util.Governor.check}: expiry always
    raises {!Rs_util.Governor.Deadline_exceeded} (never
    [Interrupted] — there is no snapshot path). *)

val solve_monotone_exact_buckets :
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** Divide-and-conquer counterpart of {!solve_exact_buckets}. *)

val use_monotone :
  engine:engine -> certified:bool -> jobs:int -> stage:string -> bool
(** The engine-selection predicate behind {!solve_with}: [Level] is
    always [false]; [Auto] is [true] iff [certified && jobs ≤ 1];
    [Monotone] is [true] but raises a typed
    [Rs_error (Invalid_input _)] when the cost is uncertified or
    [jobs > 1] — an explicit request never silently downgrades. *)

val solve_with :
  ?engine:engine ->
  certified:bool ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  n:int ->
  buckets:int ->
  cost:(l:int -> r:int -> float) ->
  unit ->
  result
(** [solve] or [solve_monotone] according to {!use_monotone}
    ([engine] defaults to [Auto], [jobs] to 1).  Every {!Decomposable}
    method dispatches through here; [certified] is the method's own
    statement that its cost carries a THEORY.md §11 quadrangle
    certificate. *)
