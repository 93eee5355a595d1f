(** Optimal per-bucket summary values for a fixed bucketing.

    Separating "choose boundaries" from "fill in summaries" lets each
    construction algorithm share the summary computation, and lets tests
    combine arbitrary bucketings with canonical summaries. *)

val avg_histogram :
  ?rounded:bool -> ?name:string -> Rs_util.Prefix.t -> Bucket.t -> Histogram.t
(** Avg histogram with true bucket averages over the given bucketing —
    the representation of OPT-A/A0. *)

val sap0_histogram : ?name:string -> Cost.t -> Bucket.t -> Histogram.t
(** SAP0 histogram storing the per-bucket averages of suffix sums and
    of prefix sums — optimal by Lemma 5(2). *)

val sap1_histogram : ?name:string -> Cost.t -> Bucket.t -> Histogram.t
(** SAP1 histogram storing per-bucket least-squares fits of the suffix
    and prefix sums against the global position. *)
