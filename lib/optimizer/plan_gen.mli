(** Real plan generation: the optimizer-side consumer of the enumerator.

    For every enumerated join and feasible direction it generates join plans
    exactly in the shape the COTE's counting model predicts:

    - NLJN (full order propagation): one plan per kept outer plan, each
      propagating its outer's physical order;
    - MGJN (partial propagation): one plan per achievable merge order — the
      canonical join-column order (enforced by SORTs when not natural, the
      eager policy) plus every kept outer order that *covers* it (property
      subsumption, Section 3.3);
    - HSJN (no order propagation): one unordered plan;
    - parallel mode: result plans carry their outer's partition, inner
      transfers are costed, and the Section 4 repartitioning heuristic
      generates an extra plan per method partitioned on the join columns
      when no input is already keyed on them.

    Deviations between these generated counts and the COTE's estimates come
    only from pruning ("plan sharing"), cardinality-model divergence, and
    the separate order/partition lists — the error sources of Section 5.4. *)

type t

val default_partition :
  Env.t -> Query_block.t -> int -> Partition_prop.t option
(** The partition a scan of the quantifier naturally delivers (lazy partition
    generation): the table's physical partition, a first-column hash fallback
    for unpartitioned tables in parallel mode, [None] in serial mode.  The
    COTE's [initialize()] uses the same function so both modes seed the same
    values.  A zero-column table yields [None] even in parallel mode. *)

val partition_groups :
  Equiv.t -> Plan.t list -> (Partition_prop.t option * Plan.t) list
(** Distinct partition values among the plans (first-seen order), each paired
    with the cheapest plan carrying it; serial-mode plans collapse to the
    single [None] group.  Linear in groups per plan. *)

val create :
  ?cost_bound:float -> ?views:Mat_view.t list -> Env.t -> Memo.t -> Instrument.t -> t
(** [cost_bound] enables the pilot-pass analysis (Section 6.1): generated
    join plans costlier than the bound are counted as prunable (but kept, so
    counts stay comparable). *)

val consumer : t -> Enumerator.consumer

val card_of : t -> Memo.entry -> float
(** Full-model cardinality, cached in the entry, timed in the cardinality
    bucket — pass to {!Enumerator.run}. *)

val bound_prunable : t -> int
(** Number of generated join plans whose cost exceeded [cost_bound]. *)

val mv_tests : t -> int
(** Materialized-view matching tests performed (entries x views). *)

val mv_matches : t -> int
(** How many tests produced a substitute plan. *)

type runner = int -> (int -> unit) -> unit
(** A task runner: [run n f] calls [f i] for every [i] in [0..n-1], on any
    domains, and returns once all have returned, with their writes
    visible to the caller; when tasks raise, it re-raises the exception of
    the lowest-indexed one.  [Qopt_par.Pool.run] is one. *)

val flush : t -> run:runner -> Enumerator.join_event array -> unit
(** The plan-generation flush of one DP size level ({!Enumerator.run}'s
    [flush]).  Each result entry's events form one task, run in their
    serial order by whichever domain claims the task: every plan list
    comes out exactly as serial generation leaves it.  A task counts into
    its own {!Memo.fork} view; the views' counters (generated and kept
    plans, pruned, prunable) are added into the MEMO's after the
    barrier.  A level with fewer than 8 events or a single result entry
    is generated serially, in event order.  Each level that is split bumps
    the [optimizer.parallel_levels] counter. *)
