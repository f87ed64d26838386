(** Per-category compilation-time accounting (Figure 2).

    The optimizer driver buckets wall-clock time into the categories of the
    paper's Figure 2: plan generation per join method, plan saving (MEMO
    insertion and pruning), and everything else (join enumeration,
    cardinality, scan planning). *)

type t

val create : unit -> t

val nljn : t -> (unit -> 'a) -> 'a

val mgjn : t -> (unit -> 'a) -> 'a

val hsjn : t -> (unit -> 'a) -> 'a

val save : t -> (unit -> 'a) -> 'a

val card : t -> (unit -> 'a) -> 'a
(** Logical properties: entry cardinalities (the enumerator's card-1
    checks and the generator's own reads), and per join direction the
    column equivalences and the predicate-dependent cost inputs.  Buckets
    do not nest: callers compute these before entering another bucket. *)

val scan : t -> (unit -> 'a) -> 'a

val mv : t -> (unit -> 'a) -> 'a
(** Materialized-view matching time (Section 6.2 extension). *)

val set_total : t -> float -> unit
(** Record the query's total wall-clock compile time; "other" is derived. *)

type snapshot = {
  s_nljn : float;
  s_mgjn : float;
  s_hsjn : float;
  s_save : float;
  s_card : float;
  s_scan : float;
  s_mv : float;  (** materialized-view matching *)
  s_other : float;  (** total minus all buckets: enumeration & bookkeeping *)
  s_total : float;
}

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot

val zero : snapshot

val pp_breakdown : Format.formatter -> snapshot -> unit
(** Percent breakdown in the style of Figure 2. *)
