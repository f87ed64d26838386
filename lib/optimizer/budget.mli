(** Hard resource budgets for the DP enumeration path.

    A 30+-table clique can blow the MEMO past any admission estimate: the
    number of connected subgraphs — and with it entries, kept plans and
    wall-clock — grows exponentially, and a deadline polled only at pass
    boundaries never fires inside the single exploding pass.  A budget
    caps the structures themselves: the optimizer (and the estimator's
    plan-estimate pass) checks the running MEMO-entry and kept-plan counts
    against the caps as enumeration proceeds and aborts with the
    structured {!Exceeded} instead of OOMing, so the caller can fall back
    to the polynomial spanning-tree regime mid-compile.

    The estimator decides an entry-cap blowup before its estimate pass:
    a dry run of the enumerator with no consumer work and the card-1
    Cartesian escape switched off builds a subset of the real pass's
    entries, so crossing the cap there proves the real pass would cross
    it too (see [Cote.Estimator.estimate]).

    [max_predicted_s] is the third cap of the family: it is not enforced
    during enumeration (a prediction exists before the pass starts) but by
    the regime-selection policy, which treats a DP prediction above it as
    infeasible up front. *)

type t = {
  max_memo_entries : int option;  (** cap on distinct MEMO entries *)
  max_kept_plans : int option;
      (** cap on plans held in the MEMO after pruning (estimate mode:
          the Section 6.2 memory-model plan count) *)
  max_predicted_s : float option;
      (** predicted DP seconds above this are infeasible at admission *)
}

type blown = {
  b_what : string;  (** ["memo_entries"] or ["kept_plans"] *)
  b_limit : int;
  b_reached : int;
}

exception Exceeded of blown

val unlimited : t

val make :
  ?max_memo_entries:int ->
  ?max_kept_plans:int ->
  ?max_predicted_s:float ->
  unit ->
  t

val is_unlimited : t -> bool
(** No enumeration-time cap set ([max_predicted_s] alone does not bound a
    pass) — the optimizer skips consumer wrapping entirely, keeping the
    unbudgeted hot path bit-for-bit identical to the pre-budget code. *)

val check : t -> entries:int -> kept:int -> unit
(** Raises {!Exceeded} when a cap is crossed. *)

val pp_blown : Format.formatter -> blown -> unit
