(** COTE for the greedy regime: a fitted time model for the spanning-tree
    fallback ({!Qopt_optimizer.Optimizer.optimize_fallback}).

    The DP time model ({!Time_model}) predicts from estimated generated
    plan counts — features that only exist for the DP enumerator.  The
    fallback never builds a MEMO, but its work is a simple deterministic
    function of the join graph: one sweep sorts the edges and costs six
    joins per accepted edge, the scan pass is linear in quantifiers, and
    every randomized restart repeats the sweep.  So its model is linear in
    (quantifier count, edge count, restart count) — all three known {e
    before} compiling, from the query block alone, making the greedy
    prediction effectively free.  Regime selection ({!Regime}) compares
    this prediction with the DP prediction against the deadline. *)

module O = Qopt_optimizer

type t = {
  g_quant : float;  (** seconds per quantifier (scan planning) *)
  g_edge : float;  (** seconds per join-graph edge (sweep + costing) *)
  g_restart : float;  (** seconds per randomized restart *)
}

val default : t
(** Coefficients fitted on the giant workload in the reference environment.
    There is no fitter: the greedy regime's actuals refine admission
    through the statement cache's ["greedy"] tag instead. *)

val predict : t -> quantifiers:int -> edges:int -> restarts:int -> float
(** Predicted fallback compile seconds. *)

val predict_fallback : t -> O.Optimizer.fallback -> float
(** {!predict} over a completed fallback's recorded features — used to
    score the model's own accuracy after the fact. *)

val pp : Format.formatter -> t -> unit
