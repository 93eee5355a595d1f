(** Name-keyed construction of synopses under a storage budget.

    The experiments and the CLI specify a method by name and a budget in
    machine words; the builder converts the budget to a bucket or
    coefficient count using each representation's per-unit cost (2 for
    average histograms and wavelet coefficients, 3 for SAP0, 5 for SAP1
    — the paper's accounting) and runs the corresponding construction.

    Available methods:
    - ["naive"] — global average (budget ignored);
    - ["equi-width"], ["equi-depth"], ["max-diff"] — classical heuristics;
    - ["point-opt"] — V-Optimal with range-membership weights (paper §4);
    - ["v-optimal"] — plain V-Optimal (uniform point weights);
    - ["a0"] — cross-term-blind range DP (paper §4);
    - ["prefix-opt"] — optimal for prefix queries [(1,b)] only (the
      pre-paper state of the art for restricted range classes);
    - ["sap0"], ["sap1"] — optimal suffix/prefix histograms (paper §2.2);
    - ["opt-a"] — exact range-optimal histogram via the staged
      pseudopolynomial DP (paper §2.1);
    - ["opt-a-rounded"] — OPT-A-ROUNDED with grid [x = 8];
    - ["a0-reopt"], ["opt-a-reopt"], ["equi-width-reopt"],
      ["point-opt-reopt"] — Section-5 value re-optimization on top of the
      base method's boundaries;
    - ["topbb"] — data-domain top-B wavelet synopsis (paper's TOPBB);
    - ["topbb-rw"] — range-weighted data-domain selection;
    - ["wave-range-opt"] — the provably range-optimal wavelet synopsis
      (paper §3);
    - ["wave-aa"] — the literal 2-D virtual-array selection of Theorem 9
      (budget split across the two query endpoints), kept as an
      ablation. *)

type options = {
  opt_a_max_states : int;  (** state budget for the exact DP (default 6·10⁷) *)
  governor : Rs_util.Governor.t;
      (** wall-clock governor threaded through every DP construction
          (default {!Rs_util.Governor.unlimited});
          {!build_result}'s [deadline] overrides it *)
  jobs : int;
      (** worker-domain count for the level-parallel DP engines
          (default 1 = sequential).  Reaches every DP method:
          ["opt-a"], ["opt-a-rounded"], ["opt-a-reopt"] and the
          {!Rs_histogram.Decomposable} methods ["point-opt"],
          ["v-optimal"], ["a0"], ["prefix-opt"], ["sap0"], ["sap1"],
          ["a0-reopt"], ["point-opt-reopt"].  Results are bit-identical
          for every job count ({!Rs_util.Pool}); the OPT-A ladder's A0
          floor stays sequential. *)
  engine : Rs_histogram.Dp.engine;
      (** interval-DP engine selection (default [Auto]) for the
          {!Rs_histogram.Decomposable} methods listed under [jobs].
          [Auto] takes the monotone divide-and-conquer engine exactly
          when the method's cost is QI-certified for the input (sorted
          data for
          ["point-opt"]/["v-optimal"]/["prefix-opt"];
          never for ["sap0"]/["sap1"]/["a0"]), [jobs ≤ 1] and no
          checkpoint/resume is requested — otherwise the level engine.
          An explicit [Monotone] that cannot be honored is a typed
          error in {!build_result}, never a silent downgrade. *)
}

val default_options : options

val methods : string list
(** All accepted method names, in presentation order. *)

val fallback_ladder : string -> string list
(** The cross-method degradation ladder {!Rs_core.Supervisor} walks
    when a per-segment build keeps failing: cheaper methods to try in
    order.  ["opt-a"] → [["opt-a-rounded"; "a0"]]; every other
    histogram method floors at [["a0"]]; wavelet methods floor at
    [["topbb"]]; the floors (["a0"], ["naive"], ["topbb"]) and unknown
    names return [[]]. *)

val pricing_proxy : string -> string
(** The method the supervisor's greedy planner prices a segment with:
    ["a0"] for the OPT-A family (["opt-a"], ["opt-a-rounded"],
    ["opt-a-reopt"]), the method itself otherwise. *)

val checkpointable : string -> bool
(** Whether {!build_result} accepts a checkpoint path for the method
    (only ["opt-a"], the governed ladder). *)

val words_per_unit : string -> int
(** Storage words per bucket/coefficient for the named method.
    Raises [Rs_util.Error.Rs_error (Unknown_method _)] on unknown
    names. *)

val units_for_budget : method_name:string -> budget_words:int -> int
(** [max 1 (budget / words_per_unit)]. *)

val build :
  ?options:options -> Dataset.t -> method_name:string -> budget_words:int ->
  Synopsis.t
(** Build the named synopsis within the budget.  Raises
    [Rs_util.Error.Rs_error (Unknown_method _)] for unknown methods, and
    [Invalid_argument] for ["opt-a"] variants on non-integral data. *)

(** {2 Result-returning boundary with degradation reporting} *)

type degradation_report = {
  requested : string;  (** the method the caller asked for *)
  delivered : string;  (** the ladder rung that actually produced it *)
  attempts : Rs_histogram.Opt_a.attempt list;
      (** every rung tried, in order, with the reason it fell through *)
  elapsed : float;  (** wall-clock seconds for the whole build *)
}

type built = {
  synopsis : Synopsis.t;
  report : degradation_report option;
      (** [Some] for ["opt-a"] (the governed ladder); [None] for
          single-rung methods *)
}

val report_lines : degradation_report -> string list
(** Human-readable rendering, one line per rung (CLI output). *)

val build_result :
  ?options:options ->
  ?deadline:float ->
  ?checkpoint_path:string ->
  ?resume_from:string ->
  ?checkpoint_every:float ->
  Dataset.t ->
  method_name:string ->
  budget_words:int ->
  (built, Rs_util.Error.t) result
(** Like {!build} but never raises.  [deadline] (seconds of wall clock)
    creates a {!Rs_util.Governor} for this build; ["opt-a"] degrades
    down its ladder (OPT-A → OPT-A-ROUNDED(x ∈ [8; 32; 128]) → A0) under
    state-budget or deadline pressure and reports each rung, so a
    deadline normally yields [Ok] from a lower rung rather than
    [Error (Timeout _)].  Errors: [Unknown_method], [Invalid_input]
    (e.g. non-integral data for ["opt-a"]), [Budget_exhausted] /
    [Timeout] when a non-laddered method (or every rung) runs out of
    resources.

    Checkpointing (["opt-a"] only — any other method returns
    [Invalid_input]): [checkpoint_path] arms the exact DP's
    once-per-row snapshot hook and switches the governor to
    {!Rs_util.Governor.Snapshot} mode, so a deadline expiry writes a
    resumable snapshot and returns [Error (Interrupted _)] (CLI exit
    code 5) instead of degrading; [checkpoint_every] (seconds) also
    snapshots periodically mid-run.  [resume_from] restarts a build
    from such a snapshot, bit-identically; a snapshot that fails its
    checksum or was taken for different data/parameters yields
    [Error (Corrupt_checkpoint _)]. *)
