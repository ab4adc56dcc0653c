(** Log-bucketed histograms for latency distributions.

    The contended ff_write distribution (Fig. 6) spans ns to tens of µs;
    a geometric bucket ladder renders it readably where a linear one
    cannot. Buckets are [\[lo·r^i, lo·r^i+1)]. Every {!Metrics}
    histogram holds one of these ladders. *)

type t

val create : ?lo:float -> ?ratio:float -> ?buckets:int -> unit -> t
(** Defaults: lo = 1.0, ratio = 2.0 (doubling), 40 buckets — covers
    1 ns to ~10^12 ns. Values below [lo] land in the first bucket,
    beyond the ladder in the last. *)

val add : t -> float -> unit
val add_stats : t -> Stats.t -> t
(** Fold a sample buffer in; returns the histogram for chaining. *)

val clear : t -> unit
(** Empty every bucket, keeping the ladder. *)

val count : t -> int
val bucket_count : t -> int

val bucket_range : t -> int -> float * float
(** [lo, hi) of bucket [i]. *)

val bucket_value : t -> int -> int

val percentile : t -> float -> float
(** [percentile t p] estimates the [p]-th percentile ([0..100], e.g.
    [99.9]) by geometric interpolation inside the covering bucket;
    [0.] on an empty histogram. *)

val nonempty_buckets : t -> (int * float * float * int) list
(** [(index, lo, hi, count)] for buckets holding samples, ascending. *)

val render : ?width:int -> t -> string
(** ASCII bar chart of the non-empty buckets, one line per bucket. *)
