module Obs = Qopt_obs

(* ------------------------------------------------------------------ *)
(* Process-wide recalibration metrics (no-ops unless Qopt_obs is on)    *)
(* ------------------------------------------------------------------ *)

let m_observations =
  Obs.Registry.counter Obs.Registry.default "recalib.observations"

let m_refits = Obs.Registry.counter Obs.Registry.default "recalib.refits"

let m_refits_kept =
  Obs.Registry.counter Obs.Registry.default "recalib.refits_kept"

let m_model_error =
  Obs.Registry.gauge Obs.Registry.default "recalib.model_error_pct"

let m_drift_score = Obs.Registry.gauge Obs.Registry.default "recalib.drift_score"

let m_window_size = Obs.Registry.gauge Obs.Registry.default "recalib.window_size"

let m_error_before =
  Obs.Registry.gauge Obs.Registry.default "recalib.error_before_pct"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  window : int;
  drift_window : int;
  drift_threshold_pct : float;
  min_observations : int;
  min_refit_interval : int;
  ridge : float;
}

let default_config =
  {
    window = 256;
    drift_window = 32;
    drift_threshold_pct = 50.0;
    min_observations = 8;
    min_refit_interval = 8;
    ridge = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type sample = {
  s_nljn : float;
  s_mgjn : float;
  s_hsjn : float;
  s_elapsed_s : float;
}

let dummy_sample = { s_nljn = 0.0; s_mgjn = 0.0; s_hsjn = 0.0; s_elapsed_s = 0.0 }

type t = {
  cfg : config;
  (* The serving model.  Readers (admission, level selection, SJF
     priorities) load it lock-free; a successful refit swaps it whole. *)
  model : Time_model.t Atomic.t;
  lock : Mutex.t;
  samples : sample array;  (* ring of capacity cfg.window *)
  mutable n_samples : int;  (* accepted samples ever; ring head derives *)
  errs : float array;  (* recent relative errors, ring of cfg.drift_window *)
  mutable n_errs : int;  (* errors recorded since the last model swap *)
  mutable since_attempt : int;  (* samples since the last refit attempt *)
  mutable refits : int;  (* attempts that swapped the model *)
  mutable kept : int;  (* attempts that kept the previous model *)
  mutable error_before_pct : float;  (* drift-window mean at the last swap *)
}

type snapshot = {
  sn_model : Time_model.t;
  sn_observations : int;
  sn_window_fill : int;
  sn_refits : int;
  sn_kept : int;
  sn_model_error_pct : float;
  sn_drift_score : float;
  sn_error_before_pct : float;
}

let create ?(config = default_config) ~model () =
  if config.window < 1 then invalid_arg "Recalibrate.create: window < 1";
  if config.drift_window < 1 then
    invalid_arg "Recalibrate.create: drift_window < 1";
  if config.drift_threshold_pct <= 0.0 then
    invalid_arg "Recalibrate.create: drift_threshold_pct <= 0";
  {
    cfg = config;
    model = Atomic.make model;
    lock = Mutex.create ();
    samples = Array.make config.window dummy_sample;
    n_samples = 0;
    errs = Array.make config.drift_window 0.0;
    n_errs = 0;
    (* Allow the very first refit as soon as min_observations is met. *)
    since_attempt = max_int / 2;
    refits = 0;
    kept = 0;
    error_before_pct = 0.0;
  }

let model t = Atomic.get t.model

let config t = t.cfg

(* Drift-window mean of the recent relative errors (percent). *)
let mean_error_locked t =
  let n = min t.n_errs (Array.length t.errs) in
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. t.errs.(i)
    done;
    !sum /. float_of_int n
  end

(* The filled part of the sample ring, oldest first. *)
let training_set_locked t =
  let cap = Array.length t.samples in
  let fill = min t.n_samples cap in
  let first = t.n_samples - fill in
  List.init fill (fun k ->
      let s = t.samples.((first + k) mod cap) in
      {
        Calibrate.obs_nljn = s.s_nljn;
        obs_mgjn = s.s_mgjn;
        obs_hsjn = s.s_hsjn;
        obs_joins = 0.0;
        obs_seconds = s.s_elapsed_s;
        obs_t_nljn = 0.0;
        obs_t_mgjn = 0.0;
        obs_t_hsjn = 0.0;
      })

let refit_locked t =
  t.since_attempt <- 0;
  let previous = Atomic.get t.model in
  let next =
    Calibrate.refit
      ?ridge:(if t.cfg.ridge > 0.0 then Some t.cfg.ridge else None)
      ~previous (training_set_locked t)
  in
  if next == previous then begin
    (* Degenerate batch (rank-deficient or empty): the previous model
       keeps serving; the drift window keeps accumulating so a later,
       healthier window can retry. *)
    t.kept <- t.kept + 1;
    Obs.Counter.incr m_refits_kept;
    false
  end
  else begin
    t.error_before_pct <- mean_error_locked t;
    Obs.Gauge.set m_error_before t.error_before_pct;
    Atomic.set t.model next;
    (* The error window measured the old coefficients; clear it so the
       drift statistic restarts against the refitted model. *)
    t.n_errs <- 0;
    t.refits <- t.refits + 1;
    Obs.Counter.incr m_refits;
    Obs.Gauge.set m_model_error 0.0;
    Obs.Gauge.set m_drift_score 0.0;
    true
  end

let observe t ~nljn ~mgjn ~hsjn ~predicted_s ~elapsed_s =
  (* Queries with no join plans at all predict exactly 0 regardless of the
     coefficients — they carry no signal about C_t and would pin the
     relative error at 100%.  Non-positive elapsed has no usable target. *)
  if elapsed_s <= 0.0 || nljn +. mgjn +. hsjn <= 0.0 then false
  else
    Mutex.protect t.lock (fun () ->
        let cap = Array.length t.samples in
        t.samples.(t.n_samples mod cap) <-
          { s_nljn = nljn; s_mgjn = mgjn; s_hsjn = hsjn; s_elapsed_s = elapsed_s };
        t.n_samples <- t.n_samples + 1;
        t.since_attempt <- t.since_attempt + 1;
        Obs.Counter.incr m_observations;
        Obs.Gauge.set m_window_size (float_of_int (min t.n_samples cap));
        let err = Float.abs (predicted_s -. elapsed_s) /. elapsed_s *. 100.0 in
        t.errs.(t.n_errs mod Array.length t.errs) <- err;
        t.n_errs <- t.n_errs + 1;
        let mean = mean_error_locked t in
        let score = mean /. t.cfg.drift_threshold_pct in
        Obs.Gauge.set m_model_error mean;
        Obs.Gauge.set m_drift_score score;
        if
          t.n_errs >= t.cfg.min_observations
          && score >= 1.0
          && t.since_attempt >= t.cfg.min_refit_interval
        then refit_locked t
        else false)

let snapshot t =
  Mutex.protect t.lock (fun () ->
      {
        sn_model = Atomic.get t.model;
        sn_observations = t.n_samples;
        sn_window_fill = min t.n_samples (Array.length t.samples);
        sn_refits = t.refits;
        sn_kept = t.kept;
        sn_model_error_pct = mean_error_locked t;
        sn_drift_score = mean_error_locked t /. t.cfg.drift_threshold_pct;
        sn_error_before_pct = t.error_before_pct;
      })
