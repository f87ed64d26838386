(* Online recalibration (ROADMAP item 3): the drift detector only fires
   on real drift, a fired detector actually repairs the model, degenerate
   windows can never lose the serving coefficients, and the knobs
   (interval, window bound) do what they say. *)

module R = Cote.Recalibrate
module TM = Cote.Time_model

let t name f = Alcotest.test_case name `Quick f

let model0 = TM.make ~c_nljn:1e-6 ~c_mgjn:2.5e-6 ~c_hsjn:1.5e-6 ()

let scale k (m : TM.t) =
  TM.make ~c_nljn:(k *. m.TM.c_nljn) ~c_mgjn:(k *. m.TM.c_mgjn)
    ~c_hsjn:(k *. m.TM.c_hsjn) ()

(* Structurally diverse plan-count mixes (a full-rank pool); real compiles
   never produce proportional counts across different join shapes. *)
let feature_pool =
  [|
    (120.0, 40.0, 60.0);
    (30.0, 90.0, 15.0);
    (10.0, 20.0, 140.0);
    (75.0, 75.0, 75.0);
    (200.0, 10.0, 35.0);
    (55.0, 130.0, 90.0);
  |]

let feed ?(pool = feature_pool) ?(n = 1) ~truth recal i0 =
  (* Observations where the *serving* model makes the prediction and
     [truth] generates the measurement — drift is exactly their gap. *)
  let fired = ref 0 in
  for i = i0 to i0 + n - 1 do
    let nljn, mgjn, hsjn = pool.(i mod Array.length pool) in
    let joins = (nljn +. mgjn +. hsjn) /. 10.0 in
    let predict m = TM.predict_counts m ~nljn ~mgjn ~hsjn ~joins in
    if
      R.observe recal ~nljn ~mgjn ~hsjn
        ~predicted_s:(predict (R.model recal))
        ~elapsed_s:(predict truth)
    then incr fired
  done;
  !fired

let mean_error_against ~truth m =
  let errs =
    Array.map
      (fun (nljn, mgjn, hsjn) ->
        let joins = (nljn +. mgjn +. hsjn) /. 10.0 in
        let p = TM.predict_counts m ~nljn ~mgjn ~hsjn ~joins in
        let a = TM.predict_counts truth ~nljn ~mgjn ~hsjn ~joins in
        Float.abs (p -. a) /. a *. 100.0)
      feature_pool
  in
  Array.fold_left ( +. ) 0.0 errs /. float_of_int (Array.length errs)

let config =
  {
    R.default_config with
    R.window = 64;
    drift_window = 16;
    drift_threshold_pct = 50.0;
    min_observations = 8;
    min_refit_interval = 8;
  }

let suite =
  [
    t "no drift: an accurate model is never refitted" (fun () ->
        let recal = R.create ~config ~model:model0 () in
        (* The serving model *is* the truth: every error is 0%. *)
        let fired = feed ~truth:model0 recal 0 ~n:50 in
        Alcotest.(check int) "no detector firings" 0 fired;
        let s = R.snapshot recal in
        Alcotest.(check int) "no refits" 0 s.R.sn_refits;
        Alcotest.(check int) "no kept attempts" 0 s.R.sn_kept;
        Alcotest.(check bool) "model untouched" true (R.model recal == model0);
        Alcotest.(check (float 1e-9)) "error gauge at zero" 0.0
          s.R.sn_model_error_pct);
    t "induced perturbation: the detector fires and the refit repairs"
      (fun () ->
        let truth = scale 5.0 model0 in
        let recal = R.create ~config ~model:model0 () in
        let fired = feed ~truth recal 0 ~n:config.R.min_observations in
        Alcotest.(check int) "fired exactly once" 1 fired;
        let s = R.snapshot recal in
        Alcotest.(check int) "one refit" 1 s.R.sn_refits;
        Alcotest.(check bool) "model swapped" true (R.model recal != model0);
        (* A 5x-under model is 80% wrong everywhere (|p - 5p| / 5p); the
           refit saw exact (counts, elapsed) pairs so it should recover
           truth almost exactly. *)
        Alcotest.(check bool) "error-before at least the trip threshold" true
          (s.R.sn_error_before_pct >= config.R.drift_threshold_pct);
        Alcotest.(check bool) "repaired model tracks the truth" true
          (mean_error_against ~truth (R.model recal) < 5.0));
    t "rank-deficient window: previous model kept, attempt counted"
      (fun () ->
        let truth = scale 3.0 model0 in
        let recal = R.create ~config ~model:model0 () in
        (* Every observation carries the same plan-count mix: rank 1, and
           Calibrate.refit's health check must refuse it. *)
        let pool = [| (50.0, 20.0, 30.0) |] in
        let fired = feed ~pool ~truth recal 0 ~n:config.R.min_observations in
        Alcotest.(check int) "no swap" 0 fired;
        let s = R.snapshot recal in
        Alcotest.(check int) "no refits" 0 s.R.sn_refits;
        Alcotest.(check bool) "kept attempts counted" true (s.R.sn_kept >= 1);
        Alcotest.(check bool) "previous model survives" true
          (R.model recal == model0));
    t "min_refit_interval throttles repeated attempts" (fun () ->
        let truth = scale 3.0 model0 in
        let cfg =
          { config with R.min_observations = 2; min_refit_interval = 10 }
        in
        let recal = R.create ~config:cfg ~model:model0 () in
        let pool = [| (50.0, 20.0, 30.0) |] in
        (* Rank-deficient, so every attempt is kept and the error window
           never resets: attempts land at observations 2, 12 and 22. *)
        ignore (feed ~pool ~truth recal 0 ~n:22);
        let s = R.snapshot recal in
        Alcotest.(check int) "three spaced attempts" 3 s.R.sn_kept);
    t "window is bounded; observation count is not" (fun () ->
        let cfg = { config with R.window = 16 } in
        let recal = R.create ~config:cfg ~model:model0 () in
        ignore (feed ~truth:model0 recal 0 ~n:100);
        let s = R.snapshot recal in
        Alcotest.(check int) "fill capped at the window" 16 s.R.sn_window_fill;
        Alcotest.(check int) "all observations counted" 100 s.R.sn_observations);
    t "join-free and zero-elapsed observations carry no signal" (fun () ->
        let recal = R.create ~config ~model:model0 () in
        let fired =
          R.observe recal ~nljn:0.0 ~mgjn:0.0 ~hsjn:0.0 ~predicted_s:0.0
            ~elapsed_s:0.01
        in
        Alcotest.(check bool) "zero-feature skipped" false fired;
        let fired =
          R.observe recal ~nljn:10.0 ~mgjn:5.0 ~hsjn:5.0 ~predicted_s:1e-4
            ~elapsed_s:0.0
        in
        Alcotest.(check bool) "zero-elapsed skipped" false fired;
        Alcotest.(check int) "nothing recorded" 0
          (R.snapshot recal).R.sn_observations);
    t "refit clears the drift statistic for the new model" (fun () ->
        let truth = scale 5.0 model0 in
        let recal = R.create ~config ~model:model0 () in
        ignore (feed ~truth recal 0 ~n:config.R.min_observations);
        Alcotest.(check int) "swapped" 1 (R.snapshot recal).R.sn_refits;
        (* Post-swap observations are judged against the repaired model:
           the drift statistic restarts near zero instead of averaging in
           the pre-swap 400% errors. *)
        ignore (feed ~truth recal 0 ~n:4);
        let s = R.snapshot recal in
        Alcotest.(check bool) "post-swap error small" true
          (s.R.sn_model_error_pct < 5.0);
        Alcotest.(check bool) "error-before preserved" true
          (s.R.sn_error_before_pct >= config.R.drift_threshold_pct));
    t "invalid configurations are rejected" (fun () ->
        let bad f = Alcotest.check_raises "rejected" (Invalid_argument f) in
        bad "Recalibrate.create: window < 1" (fun () ->
            ignore (R.create ~config:{ config with R.window = 0 } ~model:model0 ()));
        bad "Recalibrate.create: drift_threshold_pct <= 0" (fun () ->
            ignore
              (R.create
                 ~config:{ config with R.drift_threshold_pct = 0.0 }
                 ~model:model0 ())));
  ]
