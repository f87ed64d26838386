(** Shared infrastructure for the experiment harness: environments,
    memoized per-workload measurements, and memoized time-model
    calibration. *)

module O = Qopt_optimizer
module W = Qopt_workloads

val serial : O.Env.t

val parallel : O.Env.t
(** Four logical nodes, as in the paper's experiments. *)

type measured = {
  m_query : W.Workload.query;
  m_real : O.Optimizer.result;  (** full optimization, timed *)
  m_est : Cote.Estimator.estimate;  (** plan-estimate mode, timed *)
}

val measure_workload : O.Env.t -> W.Workload.t -> measured list
(** Compiles and estimates every query of the workload.  Compile times are
    medians of up to 3 runs for sub-half-second queries and single runs for
    long ones.  Queries run through the {!Qopt_par} pool when
    [QOPT_DOMAINS] asks for more than one domain (results stay in workload
    order either way).  Results are memoized per (environment, workload
    name) for the lifetime of the process, since several figures share
    workloads. *)

val workload : O.Env.t -> string -> W.Workload.t
(** Workloads by the paper's names: ["linear"], ["star"], ["cycle"],
    ["real1"], ["real2"], ["random"], ["tpch"], ["tpch7"], ["calibration"].
    Parallel environments get the partitioned variants.  Memoized.
    Raises [Invalid_argument] on unknown names. *)

val model_for : O.Env.t -> Cote.Time_model.t
(** The plan-level time model fitted on the calibration workload for this
    environment (memoized). *)

val startup_model : O.Env.t -> Cote.Time_model.t
(** The model a server fits when it starts ([qopt serve/fleet --model
    calibrated], [qopt calibrate]): {!Cote.Calibrate.fit_instrumented},
    the same fitter as {!model_for}, over one serial compile of each
    calibration query ({!Cote.Calibrate.measure} [~repeats:1]).  It runs
    no COTE estimate and no repeats, because the fitter reads neither; on
    a 2-vCPU host that is about a third of [model_for]'s first-call cost.
    Not memoized: each call measures afresh. *)

val joins_model_for : O.Env.t -> Cote.Time_model.t
(** The joins-only baseline model fitted on the same training data. *)

val predicted_seconds : O.Env.t -> measured -> float
(** [model_for env] applied to the measurement's estimate. *)

val suffixed : O.Env.t -> string -> string
(** ["star" -> "star_s"/"star_p"], the paper's naming convention. *)

val err_summary : (float * float) list -> string
(** "mean |err| x.x%, max y.y%" over (actual, estimate) pairs. *)
