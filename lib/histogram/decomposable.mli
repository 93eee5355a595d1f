(** The decomposable histogram constructions: one interval DP, many
    bucket costs.

    By the Decomposition Lemma (Lemma 5) the objective of each method
    below is a sum of independent per-bucket costs, so the O(n²B)
    interval dynamic program ({!Dp.solve_with}) returns the optimal
    bucketing for that objective; a summariser then fills in the stored
    values.  A method is therefore just data: its histogram name, its
    {!Cost} function, its quadrangle-inequality certificate (THEORY.md
    §11) and its summariser.

    - {!a0} — the Section-4 heuristic: SAP0's DP set-up driven by the
      average-based answering procedure (1) with the cross term of
      equation (2) ignored.  Stores bucket averages (2B words) and is
      generally good but {e not} optimal; the DP objective
      under-approximates the true SSE.
    - {!sap0} — the suffix/average/prefix histogram of Section 2.2.1,
      exactly range-optimal among SAP0 histograms (Theorem 6); 3B
      words.
    - {!sap1} — the suffix/prefix linear-fit histogram of Section
      2.2.2, exactly range-optimal among SAP1 histograms (Theorem 8);
      5B words.
    - {!prefix_opt} — optimal for prefix queries [(1, b)] only, the
      restricted class for which optimal constructions were known
      before the paper.  Its objective is the SSE over the [n] prefix
      queries, not all ranges.
    - {!point_opt} — POINT-OPT, the V-Optimal histogram with point
      weights [w_i ∝ i(n−i+1)] (the probability that [A[i]] lies in a
      random range) storing the weighted means; the paper's Section-4
      baseline.
    - {!v_optimal} — the textbook V-Optimal histogram (uniform point
      weights, plain means).

    The point costs and the prefix cost carry the sorted-data QI
    certificate ({!Cost.data_sorted}); sap0, sap1 and a0 violate the
    QI even on sorted data, so they are never certified. *)

type t
(** One decomposable method. *)

val a0 : t
val sap0 : t
val sap1 : t
val prefix_opt : t
val point_opt : t
val v_optimal : t

val build_with_cost :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  t ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t * float
(** [Cost.make], then {!Dp.solve_with} over the method's bucket cost
    and certificate, then the method's summariser.  Also returns the DP
    objective: the true range-SSE for sap0/sap1, the cross-term-free
    part for a0, the prefix-query SSE for prefix-opt and the (weighted)
    point SSE for point-opt/v-optimal.  [governor]/[stage]/[jobs] reach
    the DP (polled per row; level-parallel and bit-identical when
    [jobs > 1]).  [engine] (default [Auto]) takes
    {!Dp.solve_monotone} only for a certified cost on a certified input
    with [jobs ≤ 1]; an explicit [Monotone] that cannot be honored is
    a typed error. *)

val build :
  ?engine:Dp.engine ->
  ?governor:Rs_util.Governor.t ->
  ?stage:string ->
  ?jobs:int ->
  t ->
  Rs_util.Prefix.t ->
  buckets:int ->
  Histogram.t
(** [build_with_cost] without the objective. *)
