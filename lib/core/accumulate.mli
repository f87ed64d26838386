(** Plan-estimate mode: the paper's [initialize()] / [accumulate_plans()]
    (Table 3), as an enumerator consumer.

    Instead of generating plans, the consumer maintains per-MEMO-entry
    interesting property value lists and, for every enumerated join and
    feasible outer direction, adds to per-join-method plan counters:

    - full order propagation (NLJN): the outer's interesting-order count
      plus one for the DC plan;
    - partial propagation (MGJN): the size of the propagatable list united
      with its coverage list (property subsumption — prefix subsumption for
      ORDER BY coverage, set subsumption for GROUP BY, Section 4 point 2);
    - no propagation (HSJN): one;
    - parallel mode: each contribution is multiplied by the entry's
      interesting-partition count (independent lists, Section 3.4), and the
      repartitioning heuristic contributes one extra plan per method when no
      input partition is keyed on a join column (Section 4).

    Orders are only counted from inputs marked outer-enabled (Section 4
    point 3), and property propagation runs only for the first join that
    populates an entry (Section 4 point 4) unless disabled. *)

type options = {
  first_join_only : bool;
      (** propagate property lists only on the first join per entry *)
  separate_lists : bool;
      (** independent order/partition lists (Section 3.4); [false] keeps
          compound (order, partition) vectors — the ablation baseline *)
}

val default_options : options

type t

val create : ?options:options -> Qopt_optimizer.Env.t -> Qopt_optimizer.Memo.t -> t

val consumer : t -> Qopt_optimizer.Enumerator.consumer

val card_of : t -> Qopt_optimizer.Memo.entry -> float
(** Simple-model cardinality (Section 4 point 5: cardinality is cached in
    the MEMO so the enumerator's card-1 Cartesian heuristic stays
    consistent; the model is cheaper than the real optimizer's, which is an
    accepted error source). *)

val counts : t -> Qopt_optimizer.Memo.counts
(** Estimated generated join plans per method. *)

val scan_plans : t -> int
(** Estimated non-join (scan) plans: 1 + interesting orders per base
    table. *)

val count_into :
  t ->
  Qopt_optimizer.Enumerator.join_event ->
  left_ok:bool ->
  right_ok:bool ->
  Qopt_optimizer.Memo.counts ->
  unit
(** Count one enumerated join's plans into an external counter using the
    current property lists, with the given per-direction feasibility — the
    hook for {!Multi_level} piggyback estimation, where a lower level's
    counts are accumulated from the subset of joins it would enumerate. *)

val entry_plans : t -> Qopt_optimizer.Memo.entry -> int
(** One entry's estimated kept plans, from its current lists:
    [(|orders| + 1) * max(1, |partitions|)] with separate lists, the
    number of (order, partition) pairs with compound ones. *)

val kept_plans : t -> int
(** Estimated number of plans *kept* in the MEMO: {!entry_plans} summed
    over every entry — the Section 6.2 memory model's plan count (a lower
    bound on the real optimizer's kept plans).  A running count, kept up
    to date wherever a list changes, so reading it costs O(1). *)
