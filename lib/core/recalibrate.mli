(** Online recalibration of the time model (ROADMAP item 3).

    The paper fits the per-join-method coefficients C_t once, offline,
    per release (Section 3.5) — but a serving system measures the actual
    compilation time of every request it executes, so the loop can be
    closed: each completed compile contributes an observation (generated
    plan counts per join method as features, measured elapsed seconds as
    the target) into a bounded sliding window, and a drift detector — the
    windowed mean of the recent relative prediction errors — triggers a
    refit through {!Calibrate.refit} and atomically swaps the
    coefficients.  Every consumer of {!model} (admission, SJF priorities,
    level selection) sees the corrected model on its next prediction,
    lock-free.

    Refits inherit {!Calibrate.refit}'s safety: a rank-deficient window
    (e.g. every recent query produced proportional plan counts) keeps
    the previous model and counts as a kept attempt; the drift window is
    preserved so a later, healthier window retries. *)

type config = {
  window : int;  (** max observations retained for refitting (default 256) *)
  drift_window : int;
      (** how many recent prediction errors the drift statistic averages
          over (default 32) *)
  drift_threshold_pct : float;
      (** refit when the windowed mean relative error reaches this many
          percent (default 50) *)
  min_observations : int;
      (** no refit before this many errors have been observed against the
          current model (default 8) *)
  min_refit_interval : int;
      (** observations that must separate consecutive refit attempts
          (default 8) *)
  ridge : float;
      (** Tikhonov damping for the refit health check; 0.0 (default)
          keeps {!Calibrate.refit}'s strict rank test *)
}

val default_config : config

type t

val create : ?config:config -> model:Time_model.t -> unit -> t
(** A recalibrator initially serving [model].  Raises [Invalid_argument]
    on a non-positive window, drift window or threshold. *)

val model : t -> Time_model.t
(** The currently serving coefficients — a lock-free atomic load, safe to
    call from any domain on every prediction. *)

val config : t -> config

val observe :
  t ->
  nljn:float ->
  mgjn:float ->
  hsjn:float ->
  predicted_s:float ->
  elapsed_s:float ->
  bool
(** Feed one completed compile: the {e generated} plan counts per join
    method, the model's predicted seconds at decision time, and the
    measured elapsed seconds.  Returns [true] when the observation
    tripped the drift detector {e and} the resulting refit swapped the
    model.  Observations with no join plans at all or a non-positive
    elapsed carry no coefficient signal and are skipped.  Thread-safe. *)

type snapshot = {
  sn_model : Time_model.t;
  sn_observations : int;  (** accepted observations ever *)
  sn_window_fill : int;  (** observations currently retained *)
  sn_refits : int;  (** refit attempts that swapped the model *)
  sn_kept : int;  (** attempts that kept the previous model *)
  sn_model_error_pct : float;
      (** windowed mean relative error of the serving model *)
  sn_drift_score : float;  (** mean error / threshold; >= 1.0 trips *)
  sn_error_before_pct : float;
      (** the drift statistic at the moment of the last swap *)
}

val snapshot : t -> snapshot

(** Exposed metrics (process-wide, via {!Qopt_obs.Registry.default}):
    [recalib.observations], [recalib.refits], [recalib.refits_kept]
    counters; [recalib.model_error_pct], [recalib.drift_score],
    [recalib.window_size], [recalib.error_before_pct] gauges. *)
