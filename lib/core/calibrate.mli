(** Fitting the time model's coefficients (Section 3.5 / Section 4).

    "We can collect the real counts of generated join plans together with
    the actual compilation time for a set of training queries, and then
    calculate C_t by running regression on our model."  One coefficient set
    per environment (the paper fits serial and parallel separately, since
    generating a plan is more expensive in the parallel version). *)

module O = Qopt_optimizer

type observation = {
  obs_nljn : float;  (** real generated NLJN plans *)
  obs_mgjn : float;
  obs_hsjn : float;
  obs_joins : float;  (** joins enumerated *)
  obs_seconds : float;  (** measured compilation wall-clock time *)
  obs_t_nljn : float;  (** instrumented per-method generation seconds *)
  obs_t_mgjn : float;
  obs_t_hsjn : float;
}

val measure :
  ?knobs:O.Knobs.t ->
  ?repeats:int ->
  ?runner:(int -> (int -> unit) -> unit) ->
  O.Env.t ->
  O.Query_block.t ->
  observation
(** Compile the query for real ([repeats] times, default 3, median timing)
    and package the observation.  [runner] is {!O.Optimizer.optimize}'s:
    with it the timing is the parallel compile's wall clock and the
    per-method times are busy time summed over domains, so
    {!fit_instrumented} scales them to wall-clock seconds. *)

val fit : ?with_join_term:bool -> observation list -> Time_model.t
(** Non-negative least squares on the observations.  With
    [~with_join_term:true] a per-join coefficient absorbs enumeration
    overhead (an extension the paper leaves to the fixed three-term model).
    Raises [Invalid_argument] on an empty list. *)

val refit :
  ?ridge:float ->
  ?with_join_term:bool ->
  previous:Time_model.t ->
  observation list ->
  Time_model.t
(** {!fit} that degrades gracefully: an empty or rank-deficient training
    set (singular normal equations — e.g. all observations have
    proportional plan counts) returns [previous] unchanged instead of
    raising, so online recalibration can never lose a serving system its
    time model.  [?ridge] adds Tikhonov damping to the solvability health
    check (the fitted coefficients still come from the non-negative
    least-squares pass), letting a caller trade the strict rank test for
    robustness on nearly collinear windows. *)

val fit_joins_only : observation list -> Time_model.t
(** The baseline: regress time on the join count alone. *)

val fit_instrumented : observation list -> Time_model.t
(** Calibration from the per-method instrumented generation times: each
    C_t is (total seconds spent generating plans of type t) / (plans of
    type t), inflated proportionally so the model reproduces total
    compilation time.  Plan counts across queries are highly collinear —
    they all grow with the search space — so the least-squares fit can
    lump all time onto one method; the instrumented calibration breaks the
    tie with directly measured per-method times while fitting the same
    model family.  Raises [Invalid_argument] on an empty list. *)

val calibrate :
  ?knobs:O.Knobs.t ->
  ?repeats:int ->
  ?with_join_term:bool ->
  O.Env.t ->
  O.Query_block.t list ->
  Time_model.t
(** [measure] every training query, then [fit]. *)
