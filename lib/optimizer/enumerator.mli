(** The bottom-up dynamic-programming join enumerator.

    The enumerator is deliberately decoupled from plan generation through a
    thin consumer interface (the design of extensible optimizers the paper's
    Section 3.1 relies on): the same enumeration drives both the real plan
    generator and the COTE's plan-estimate mode, guaranteeing that the
    estimator sees exactly the joins the optimizer would consider — up to
    cardinality-model differences in the card-1 Cartesian heuristic, which
    is precisely the error source the paper reports.

    Joins are enumerated per unordered set pair \{S, L\}; the event reports
    which directions (S outer / L outer) are feasible given outer-join
    sides, correlation dependencies, composite-inner limits and left-deep
    restrictions. *)

module Bitset = Qopt_util.Bitset

type join_event = {
  left : Memo.entry;  (** S *)
  right : Memo.entry;  (** L *)
  result : Memo.entry;  (** entry for S ∪ L *)
  preds : Pred.t list;  (** equality join predicates crossing S and L *)
  pred_ids : int list;
      (** their indices in the block's predicate list, same order — the
          keys of the MEMO's selectivity context *)
  cartesian : bool;  (** no crossing predicate: a Cartesian product *)
  left_outer_ok : bool;  (** direction "S outer, L inner" is feasible *)
  right_outer_ok : bool;  (** direction "L outer, S inner" is feasible *)
}

type consumer = {
  on_entry : Memo.entry -> unit;
      (** called once per MEMO entry creation — the paper's [initialize()] *)
  on_join : join_event -> unit;
      (** called once per enumerated join — the paper's
          [accumulate_plans()], or real plan generation *)
}

val run :
  knobs:Knobs.t ->
  card_of:(Memo.entry -> float) ->
  Memo.t ->
  consumer ->
  unit
(** Enumerates bottom-up: singleton entries first (sizes 1), then joins of
    increasing result size.  [card_of] supplies the cardinality estimates
    consulted by the card-1 Cartesian heuristic; real optimization passes the
    full model, plan-estimate mode the simple one.

    Candidate pairs are pre-filtered through the block's join-graph
    adjacency index ({!Query_block.neighbors}, {!Memo.neighborhood}): a
    pair that is structurally unable to join — symmetric duplicate,
    overlapping sides, or no crossing predicate and no Cartesian knob that
    could admit it — is skipped before any per-pair work or metrics.  The
    gate is exact, so the enumerated join set (and every consumer
    callback) is identical to the naive all-pairs loop's; see
    [test/ref_enumerator.ml] for the oracle and the differential suite. *)

val direction_feasible :
  knobs:Knobs.t ->
  block:Query_block.t ->
  outer:Bitset.t ->
  inner:Bitset.t ->
  bool
(** Whether [outer] may serve as the outer of a join against [inner]:
    every quantifier of [outer] allows the outer role, no quantifier of
    [outer] depends on correlation values from [inner], no outer-join
    null-producing side in [outer] faces its preserved side in [inner], and
    [inner] respects the composite-inner / left-deep knobs.  Exposed for
    tests. *)
