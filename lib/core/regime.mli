(** Compile-regime selection: DP enumeration vs the spanning-tree fallback.

    On giant join graphs the DP MEMO explodes; a compile service has to
    decide — {e before} compiling — whether to run full DP or the
    polynomial fallback.  COTE makes that decision cheap: the DP prediction
    comes from the estimate pass ({!Predict.compile_time}, run under the
    resource budget so it cannot itself explode), the greedy prediction
    from the join graph alone ({!Greedy_model}), and {!decide} compares
    both against the deadline. *)

type t =
  | Dp  (** full dynamic-programming enumeration *)
  | Greedy  (** spanning-tree fallback, chosen up front *)
  | Dp_budget_fallback
      (** DP was chosen but blew its resource budget mid-compile and was
          rescued by the fallback *)

val to_string : t -> string
(** ["dp"] / ["greedy"] / ["dp_budget_fallback"] — the wire encoding used
    in compile replies and stats. *)

val of_string : string -> t option

type decision = {
  d_regime : t;
  d_dp_s : float option;
      (** DP's predicted seconds; [None] when the budgeted estimate pass
          itself raised {!Qopt_optimizer.Budget.Exceeded} (DP infeasible) *)
  d_greedy_s : float;  (** fallback's predicted seconds *)
  d_margin_s : float;
      (** the headroom that drove the choice: chosen-regime slack against
          the deadline when one is set, else DP's slowdown over greedy *)
}

val decide :
  ?deadline_s:float -> dp_s:float option -> greedy_s:float -> unit -> decision
(** Quality first: [Dp] whenever its prediction fits the deadline (or no
    deadline is set and DP is feasible at all); [Greedy] when DP's estimate
    blew the budget ([dp_s = None]) or its prediction misses the
    deadline. *)

val predicted_s : decision -> float
(** The chosen regime's predicted seconds — what admission control compares
    against the deadline. *)

val record : decision -> unit
(** Set the [regime.decision_margin_s] gauge (a no-op unless {!Qopt_obs}
    is on).  How many decisions chose each regime is counted by the
    caller: the compile server's [stats] reports [regime_dp],
    [regime_greedy] and [regime_fallbacks]. *)

val pp : Format.formatter -> t -> unit
