(** The COTE front end: runs the shared join enumerator in plan-estimate
    mode over a query (all blocks) and returns the estimated plan counts.

    This is the paper's headline mechanism: the enumerator is *reused* —
    every knob, heuristic and constraint applies — while plan generation is
    bypassed, so estimation costs a few percent of real optimization. *)

module O = Qopt_optimizer

type estimate = {
  joins : int;  (** joins enumerated in plan-estimate mode *)
  nljn : int;  (** estimated generated NLJN plans *)
  mgjn : int;
  hsjn : int;
  scan_plans : int;  (** estimated non-join plans *)
  entries : int;  (** MEMO entries touched *)
  elapsed : float;  (** wall-clock seconds of the estimation itself *)
  est_memo_plans : float;  (** estimated plans kept in the MEMO (Sec. 6.2) *)
  mv_tests : int;
      (** predicted materialized-view matching tests: MEMO entries x
          registered views (Sec. 6.2 — view-matching time must be accounted
          for, and the reused enumerator knows the entry count) *)
}

val total : estimate -> int
(** [nljn + mgjn + hsjn]. *)

val get : estimate -> O.Join_method.t -> int

val estimate :
  ?options:Accumulate.options ->
  ?budget:O.Budget.t ->
  ?knobs:O.Knobs.t ->
  ?views:O.Mat_view.t list ->
  O.Env.t ->
  O.Query_block.t ->
  estimate
(** Estimates the query (the block and all its children, like
    {!O.Optimizer.optimize}).  [knobs] defaults to {!O.Knobs.default}.
    [budget] (default unlimited) caps the estimate pass the same way it
    caps a real compile: the estimate-mode enumerator builds the same MEMO
    entries the optimizer would, so a giant clique explodes here too.
    Crossing a cap raises {!O.Budget.Exceeded} — which doubles as the
    cheapest possible "DP is infeasible" signal for regime selection.

    Under a MEMO-entry cap each block whose [2^n - 1] subsets exceed the
    cap first gets a structural dry run: the same {!O.Enumerator.run}
    with caller's knobs, a no-op consumer and [card_of] at infinity,
    stopped as soon as the MEMO passes the cap.  Every enumerator gate but
    the card-1 Cartesian escape is structural; that escape only adds joins
    and infinite cardinalities switch it off, so the dry run builds a
    subset of the real pass's entries.  A dry-run blowup therefore proves
    a real one, and raises what the real pass would raise for an
    entry-only cap ([memo_entries], reached [cap + 1]) at a fraction of
    its cost; it counts in [estimator.budget_precheck_aborts].  With a
    kept-plan cap too, such a blowup is reported as [memo_entries] even
    where the full pass would have crossed the kept-plan cap first.  When
    the dry run stays under the cap the real pass runs unchanged. *)
