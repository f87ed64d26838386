(* The COTE: accumulate/estimator counting, the time model, calibration,
   memory model, multi-level piggyback, predict. *)

module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let cr = Helpers.cr

let knobs = Helpers.stable_knobs

let optimize ?(env = O.Env.serial) block = O.Optimizer.optimize env ~knobs block

let estimate ?(env = O.Env.serial) ?options block =
  Cote.Estimator.estimate ?options ~knobs env block

let estimator_tests =
  [
    t "estimator enumerates exactly the optimizer's joins (stable knobs)" (fun () ->
        List.iter
          (fun block ->
            let r = optimize block in
            let e = estimate block in
            Alcotest.(check int) "joins equal" r.O.Optimizer.joins e.Cote.Estimator.joins)
          [ Helpers.chain 5; Helpers.chain ~extra:2 4; Helpers.star_block 5 ]);
    t "serial HSJN estimate is exact" (fun () ->
        List.iter
          (fun block ->
            let r = optimize block in
            let e = estimate block in
            Alcotest.(check int) "hsjn exact" r.O.Optimizer.generated.O.Memo.hsjn
              e.Cote.Estimator.hsjn)
          [ Helpers.chain 5; Helpers.star_block 6; Helpers.chain ~extra:1 ~order_by:true 4 ]);
    t "estimates within 30% on synthetic shapes" (fun () ->
        List.iter
          (fun block ->
            let r = optimize block in
            let e = estimate block in
            let actual = float_of_int (O.Memo.counts_total r.O.Optimizer.generated) in
            let est = float_of_int (Cote.Estimator.total e) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %g vs %g" block.O.Query_block.name actual est)
              true
              (Float.abs (est -. actual) /. actual <= 0.30))
          [
            Helpers.chain 5;
            Helpers.chain ~extra:2 ~order_by:true 5;
            Helpers.star_block 6;
            Helpers.chain ~extra:1 ~group_by:true 6;
          ]);
    t "scan plan estimate matches real scan plans" (fun () ->
        let block = Helpers.chain ~order_by:true 3 in
        let r = optimize block in
        let e = estimate block in
        Alcotest.(check int) "scan plans" r.O.Optimizer.scan_plans e.Cote.Estimator.scan_plans);
    t "ORDER BY raises the estimate (Figure 3)" (fun () ->
        let without = estimate (Helpers.chain 3) in
        let with_ob = estimate (Helpers.chain ~order_by:true 3) in
        Alcotest.(check int) "same joins" without.Cote.Estimator.joins with_ob.Cote.Estimator.joins;
        Alcotest.(check bool) "more plans" true
          (Cote.Estimator.total with_ob > Cote.Estimator.total without));
    t "children blocks included" (fun () ->
        let child = Helpers.chain 3 in
        let parent =
          O.Query_block.make ~name:"p" ~children:[ child ]
            ~quantifiers:[ O.Quantifier.make 0 (Helpers.table ~rows:10.0 "pp") ]
            ~preds:[] ()
        in
        let alone = estimate child in
        let whole = estimate parent in
        Alcotest.(check int) "joins from child" alone.Cote.Estimator.joins
          whole.Cote.Estimator.joins);
    t "estimator mirrors the permissive fallback" (fun () ->
        let quantifiers =
          [
            O.Quantifier.make 0 (Helpers.table ~rows:10.0 "fa");
            O.Quantifier.make 1 (Helpers.table ~rows:10.0 "fb");
          ]
        in
        let block = O.Query_block.make ~name:"fall" ~quantifiers ~preds:[] () in
        let r = optimize block in
        let e = estimate block in
        Alcotest.(check int) "joins match" r.O.Optimizer.joins e.Cote.Estimator.joins);
    t "compound vectors at least as accurate as separate lists (parallel)" (fun () ->
        let tables =
          List.init 5 (fun i ->
              Helpers.table ~rows:(1000.0 *. float_of_int (i + 1))
                ~partition:
                  (Qopt_catalog.Partition_spec.hash [ (if i mod 2 = 0 then "j1" else "v") ])
                (Printf.sprintf "cmp%d" i))
        in
        let block =
          O.Query_block.make ~name:"cmp"
            ~quantifiers:(List.mapi (fun i tb -> O.Quantifier.make i tb) tables)
            ~preds:
              (List.init 4 (fun i -> O.Pred.Eq_join (cr i "j1", cr (i + 1) "j1")))
            ~order_by:[ cr 0 "v" ] ()
        in
        let env = O.Env.parallel ~nodes:4 in
        let actual =
          float_of_int
            (O.Memo.counts_total (O.Optimizer.optimize env ~knobs block).O.Optimizer.generated)
        in
        let err options =
          let e = Cote.Estimator.estimate ~options ~knobs env block in
          Float.abs (float_of_int (Cote.Estimator.total e) -. actual)
        in
        let sep = err { Cote.Accumulate.first_join_only = true; separate_lists = true } in
        let cmp = err { Cote.Accumulate.first_join_only = true; separate_lists = false } in
        Alcotest.(check bool)
          (Printf.sprintf "compound (%.0f) <= separate (%.0f) * 1.2" cmp sep)
          true (cmp <= (sep *. 1.2) +. 2.0));
    t "estimation is much faster than optimization" (fun () ->
        let block = Helpers.chain ~extra:2 ~order_by:true 8 in
        let r = optimize block in
        let e = estimate block in
        Alcotest.(check bool)
          (Printf.sprintf "est %.4fs vs opt %.4fs" e.Cote.Estimator.elapsed
             r.O.Optimizer.elapsed)
          true
          (e.Cote.Estimator.elapsed < r.O.Optimizer.elapsed /. 4.0));
  ]

let model =
  Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 ()

let time_model_tests =
  [
    t "predict_counts arithmetic" (fun () ->
        Alcotest.(check (float 1e-12)) "dot product"
          ((2e-6 *. 10.0) +. (5e-6 *. 20.0) +. (4e-6 *. 30.0))
          (Cote.Time_model.predict_counts model ~nljn:10.0 ~mgjn:20.0 ~hsjn:30.0 ~joins:5.0));
    t "ratios normalized to smallest" (fun () ->
        let m, n, h = Cote.Time_model.ratios model in
        Alcotest.(check (float 1e-9)) "m" 2.5 m;
        Alcotest.(check (float 1e-9)) "n" 1.0 n;
        Alcotest.(check (float 1e-9)) "h" 2.0 h);
    t "joins_only model ignores plan counts" (fun () ->
        let jm = Cote.Time_model.joins_only 1e-3 in
        Alcotest.(check (float 1e-12)) "joins only" 5e-3
          (Cote.Time_model.predict_counts jm ~nljn:100.0 ~mgjn:100.0 ~hsjn:100.0 ~joins:5.0));
    (* Every non-NaN bit pattern: subnormals, -0, infinities included. *)
    (let coeff =
       QCheck2.Gen.(
         map Int64.float_of_bits int64 >>= fun f ->
         if Float.is_nan f then return 0.0 else return f)
     in
     QCheck_alcotest.to_alcotest
       (QCheck2.Test.make ~name:"text form round-trips bit for bit" ~count:500
          QCheck2.Gen.(quad coeff coeff coeff coeff)
          (fun (c_nljn, c_mgjn, c_hsjn, c_join) ->
            let m = Cote.Time_model.make ~c_nljn ~c_mgjn ~c_hsjn ~c_join () in
            match Cote.Time_model.of_string (Cote.Time_model.to_string m) with
            | None -> false
            | Some r ->
              let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
              same r.Cote.Time_model.c_nljn c_nljn
              && same r.Cote.Time_model.c_mgjn c_mgjn
              && same r.Cote.Time_model.c_hsjn c_hsjn
              && same r.Cote.Time_model.c_join c_join)));
    t "text form rejects anything else" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s true (Cote.Time_model.of_string s = None))
          [
            ""; "default"; "calibrated"; "c_nljn=1,c_mgjn=2,c_hsjn=3";
            "c_mgjn=1,c_nljn=2,c_hsjn=3,c_join=4";
            "c_nljn=1,c_mgjn=2,c_hsjn=3,c_join=x";
            "c_nljn=1,c_mgjn=2,c_hsjn=3,c_join=4,";
          ]);
  ]

let obs ~n ~m ~h ~j ~s =
  {
    Cote.Calibrate.obs_nljn = n;
    obs_mgjn = m;
    obs_hsjn = h;
    obs_joins = j;
    obs_seconds = s;
    obs_t_nljn = s *. 0.4;
    obs_t_mgjn = s *. 0.3;
    obs_t_hsjn = s *. 0.2;
  }

let calibrate_tests =
  [
    t "fit recovers a planted 3-term model" (fun () ->
        let cn = 3e-6 and cm = 7e-6 and ch = 1e-6 in
        let observations =
          List.init 12 (fun i ->
              let n = float_of_int (100 + (i * 37 mod 113)) in
              let m = float_of_int (50 + (i * 17 mod 59)) in
              let h = float_of_int (20 + (i * 11 mod 31)) in
              obs ~n ~m ~h ~j:10.0 ~s:((cn *. n) +. (cm *. m) +. (ch *. h)))
        in
        let fitted = Cote.Calibrate.fit observations in
        Alcotest.(check (float 1e-9)) "cn" cn fitted.Cote.Time_model.c_nljn;
        Alcotest.(check (float 1e-9)) "cm" cm fitted.Cote.Time_model.c_mgjn;
        Alcotest.(check (float 1e-9)) "ch" ch fitted.Cote.Time_model.c_hsjn);
    t "fit_instrumented reproduces total time in aggregate" (fun () ->
        let observations =
          [ obs ~n:100.0 ~m:40.0 ~h:40.0 ~j:20.0 ~s:0.01;
            obs ~n:300.0 ~m:120.0 ~h:120.0 ~j:60.0 ~s:0.03 ]
        in
        let fitted = Cote.Calibrate.fit_instrumented observations in
        let total_pred =
          List.fold_left
            (fun acc o ->
              acc
              +. Cote.Time_model.predict_counts fitted ~nljn:o.Cote.Calibrate.obs_nljn
                   ~mgjn:o.Cote.Calibrate.obs_mgjn ~hsjn:o.Cote.Calibrate.obs_hsjn
                   ~joins:o.Cote.Calibrate.obs_joins)
            0.0 observations
        in
        Alcotest.(check (float 1e-6)) "aggregate" 0.04 total_pred);
    t "fit_instrumented coefficients follow bucket ratios" (fun () ->
        let observations = [ obs ~n:100.0 ~m:10.0 ~h:10.0 ~j:5.0 ~s:0.01 ] in
        let fitted = Cote.Calibrate.fit_instrumented observations in
        (* per-plan: n -> 0.004/100, m -> 0.003/10, h -> 0.002/10: MGJN must
           be the most expensive per plan. *)
        Alcotest.(check bool) "cm largest" true
          (fitted.Cote.Time_model.c_mgjn > fitted.Cote.Time_model.c_nljn
          && fitted.Cote.Time_model.c_mgjn > fitted.Cote.Time_model.c_hsjn));
    t "empty observations rejected" (fun () ->
        Alcotest.check_raises "raises" (Invalid_argument "Calibrate.fit: no observations")
          (fun () -> ignore (Cote.Calibrate.fit [])));
    t "refit keeps the previous model on a rank-deficient set" (fun () ->
        let previous = Cote.Time_model.make ~c_nljn:1e-6 ~c_mgjn:2e-6 ~c_hsjn:3e-6 () in
        (* every observation has proportional plan counts: the normal
           equations are singular, so online recalibration must fall back *)
        let degenerate =
          List.init 8 (fun i ->
              let k = float_of_int (i + 1) in
              obs ~n:(100.0 *. k) ~m:(50.0 *. k) ~h:(20.0 *. k) ~j:(10.0 *. k)
                ~s:(0.001 *. k))
        in
        let m = Cote.Calibrate.refit ~previous degenerate in
        Alcotest.(check bool) "previous returned" true (m = previous));
    t "refit keeps the previous model on an empty set" (fun () ->
        let previous = Cote.Time_model.make ~c_nljn:1e-6 ~c_mgjn:2e-6 ~c_hsjn:3e-6 () in
        Alcotest.(check bool) "previous returned" true
          (Cote.Calibrate.refit ~previous [] = previous));
    t "refit adopts a well-conditioned set" (fun () ->
        let previous = Cote.Time_model.make ~c_nljn:1.0 ~c_mgjn:1.0 ~c_hsjn:1.0 () in
        let cn = 3e-6 and cm = 7e-6 and ch = 1e-6 in
        let observations =
          List.init 12 (fun i ->
              let n = float_of_int (100 + (i * 37 mod 113)) in
              let m = float_of_int (50 + (i * 17 mod 59)) in
              let h = float_of_int (20 + (i * 11 mod 31)) in
              obs ~n ~m ~h ~j:10.0 ~s:((cn *. n) +. (cm *. m) +. (ch *. h)))
        in
        let m = Cote.Calibrate.refit ~previous observations in
        Alcotest.(check bool) "replaced" true (m <> previous);
        Alcotest.(check (float 1e-9)) "cn" cn m.Cote.Time_model.c_nljn);
    t "measure returns consistent observation" (fun () ->
        let o = Cote.Calibrate.measure ~repeats:1 O.Env.serial (Helpers.chain 4) in
        Alcotest.(check bool) "positive time" true (o.Cote.Calibrate.obs_seconds > 0.0);
        Alcotest.(check bool) "counts positive" true
          (o.Cote.Calibrate.obs_nljn > 0.0 && o.Cote.Calibrate.obs_joins > 0.0));
    t "end-to-end: calibrate then predict within 50% on a held-out query" (fun () ->
        let training = [ Helpers.chain 4; Helpers.chain ~extra:1 5; Helpers.star_block 5 ] in
        let observations =
          List.map (fun b -> Cote.Calibrate.measure ~knobs ~repeats:3 O.Env.serial b) training
        in
        let fitted = Cote.Calibrate.fit_instrumented observations in
        let held_out = Helpers.chain ~extra:1 ~order_by:true 6 in
        let p = Cote.Predict.compile_time ~knobs ~model:fitted O.Env.serial held_out in
        let actual = (optimize held_out).O.Optimizer.elapsed in
        Alcotest.(check bool)
          (Printf.sprintf "pred %.4f vs actual %.4f" p.Cote.Predict.seconds actual)
          true
          (Float.abs (p.Cote.Predict.seconds -. actual) /. actual <= 0.5));
  ]

let memory_tests =
  [
    t "memory estimate tracks the real MEMO population" (fun () ->
        let report = Cote.Memory_model.analyze ~knobs O.Env.serial (Helpers.chain ~extra:1 5) in
        Alcotest.(check bool) "positive" true (report.Cote.Memory_model.est_plans > 0.0);
        (* The estimate approximates kept plans; allow the designed slack. *)
        let ratio =
          report.Cote.Memory_model.est_plans /. float_of_int report.Cote.Memory_model.actual_plans
        in
        Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [0.5, 1.6]" ratio) true
          (ratio >= 0.5 && ratio <= 1.6));
    t "would_exceed gate" (fun () ->
        let report = Cote.Memory_model.analyze ~knobs O.Env.serial (Helpers.chain 4) in
        Alcotest.(check bool) "tiny budget exceeded" true
          (Cote.Memory_model.would_exceed report ~budget_bytes:1.0);
        Alcotest.(check bool) "huge budget fine" false
          (Cote.Memory_model.would_exceed report ~budget_bytes:1e12));
  ]

let multilevel_tests =
  [
    t "piggyback base equals a dedicated base estimate" (fun () ->
        let block = Helpers.chain ~extra:1 5 in
        let results, _ =
          Cote.Multi_level.piggyback ~base:Helpers.full_bushy_stable
            ~levels:
              [ { Cote.Multi_level.level_name = "ld"; level_knobs = O.Knobs.left_deep } ]
            O.Env.serial block
        in
        let dedicated = Cote.Estimator.estimate ~knobs:Helpers.full_bushy_stable O.Env.serial block in
        let base = List.find (fun lc -> lc.Cote.Multi_level.lc_name = "base") results in
        Alcotest.(check int) "joins" dedicated.Cote.Estimator.joins base.Cote.Multi_level.lc_joins;
        Alcotest.(check int) "plans" (Cote.Estimator.total dedicated)
          (Cote.Multi_level.lc_total base));
    t "lower levels are subsets of the base" (fun () ->
        let block = Helpers.chain ~extra:1 6 in
        let results, _ =
          Cote.Multi_level.piggyback ~base:Helpers.full_bushy_stable
            ~levels:
              [
                { Cote.Multi_level.level_name = "l2"; level_knobs = Helpers.stable_knobs };
                { Cote.Multi_level.level_name = "ld"; level_knobs = O.Knobs.left_deep };
              ]
            O.Env.serial block
        in
        let find name = List.find (fun lc -> lc.Cote.Multi_level.lc_name = name) results in
        let base = find "base" and l2 = find "l2" and ld = find "ld" in
        Alcotest.(check bool) "l2 <= base" true
          (l2.Cote.Multi_level.lc_joins <= base.Cote.Multi_level.lc_joins);
        Alcotest.(check bool) "ld <= l2" true
          (ld.Cote.Multi_level.lc_joins <= l2.Cote.Multi_level.lc_joins);
        Alcotest.(check bool) "ld counts <= base counts" true
          (Cote.Multi_level.lc_total ld <= Cote.Multi_level.lc_total base));
  ]

let suite =
  estimator_tests @ time_model_tests @ calibrate_tests @ memory_tests
  @ multilevel_tests
