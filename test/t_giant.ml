(* The giant-join-graph regime: shape generators, the spanning-tree
   fallback, hard DP resource budgets, the greedy time model and regime
   selection.  Everything here is deterministic — seeds are fixed and the
   budget/regime checks are structural, not timing-based. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module C = Qopt_catalog
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let env = O.Env.serial

let prop name ?(count = 60) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Structural identity of a generated block: which catalog tables were
   drawn, in what order, and the exact predicate list (join columns and
   the seeded filter constant). *)
let fingerprint (b : O.Query_block.t) =
  ( b.O.Query_block.name,
    Array.to_list b.O.Query_block.quantifiers
    |> List.map (fun q -> q.O.Quantifier.table.C.Table.name),
    b.O.Query_block.preds )

let shapes =
  [
    (W.Giant.Chain, 20);
    (W.Giant.Chain, 50);
    (W.Giant.Cycle, 20);
    (W.Giant.Star, 30);
    (W.Giant.Snowflake 4, 24);
    (W.Giant.Clique, 20);
    (W.Giant.Clique, 50);
  ]

let raises_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let generator_tests =
  [
    t "same seed, same block — different seed, different block" (fun () ->
        List.iter
          (fun (shape, n) ->
            let a = W.Giant.block ~seed:7 shape n in
            let b = W.Giant.block ~seed:7 shape n in
            Alcotest.(check bool)
              (W.Giant.shape_name shape ^ " deterministic")
              true
              (fingerprint a = fingerprint b))
          shapes;
        let a = W.Giant.block ~seed:0 W.Giant.Clique 20 in
        let b = W.Giant.block ~seed:1 W.Giant.Clique 20 in
        Alcotest.(check bool) "seed reaches the output" false
          (fingerprint a = fingerprint b));
    t "every shape is connected at every size" (fun () ->
        List.iter
          (fun (shape, n) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%d" (W.Giant.shape_name shape) n)
              true
              (O.Query_block.is_connected (W.Giant.block shape n)))
          shapes);
    t "edge counts match the closed forms" (fun () ->
        List.iter
          (fun (shape, n, expect) ->
            let b = W.Giant.block shape n in
            Alcotest.(check int)
              (Printf.sprintf "%s/%d closed form" (W.Giant.shape_name shape) n)
              expect
              (W.Giant.edge_count shape n);
            Alcotest.(check int)
              (Printf.sprintf "%s/%d graph" (W.Giant.shape_name shape) n)
              expect
              (O.Spanning_tree.edge_count b))
          [
            (W.Giant.Chain, 40, 39);
            (W.Giant.Clique, 30, 435);
            (W.Giant.Clique, 50, 1225);
            (W.Giant.Cycle, 25, 25);
            (W.Giant.Star, 30, 29);
            (W.Giant.Snowflake 4, 36, 35);
          ]);
    t "snowflake center degree is min(branches, n-1)" (fun () ->
        let degree b n =
          Bitset.cardinal
            (O.Query_block.neighbors (W.Giant.block (W.Giant.Snowflake b) n) 0)
        in
        Alcotest.(check int) "4 branches, 24 tables" 4 (degree 4 24);
        Alcotest.(check int) "6 branches, 5 tables" 4 (degree 6 5);
        Alcotest.(check int) "1 branch is a chain" 1 (degree 1 20));
    t "invalid sizes raise" (fun () ->
        raises_invalid "n < 2" (fun () -> W.Giant.block W.Giant.Chain 1);
        raises_invalid "cycle needs 3" (fun () -> W.Giant.block W.Giant.Cycle 2);
        raises_invalid "snowflake arity 0" (fun () ->
            W.Giant.block (W.Giant.Snowflake 0) 10);
        raises_invalid "past the bitset width" (fun () ->
            W.Giant.block W.Giant.Chain (W.Giant.max_tables + 1)));
    t "the giant workload: 14 uniquely named connected queries" (fun () ->
        let wl = W.Giant.workload () in
        let names =
          List.map (fun (q : W.Workload.query) -> q.W.Workload.q_name)
            wl.W.Workload.queries
        in
        Alcotest.(check int) "size" 14 (List.length names);
        Alcotest.(check int) "unique names" 14
          (List.length (List.sort_uniq compare names));
        Alcotest.(check bool) "giant_chain_20 present" true
          (List.mem "giant_chain_20" names);
        Alcotest.(check bool) "giant_clique_50 present" true
          (List.mem "giant_clique_50" names);
        List.iter
          (fun (q : W.Workload.query) ->
            Alcotest.(check bool) q.W.Workload.q_name true
              (O.Query_block.is_connected q.W.Workload.block))
          wl.W.Workload.queries);
    (let gen =
       QCheck2.Gen.(
         triple
           (oneof
              [
                return W.Giant.Chain;
                return W.Giant.Clique;
                return W.Giant.Cycle;
                return W.Giant.Star;
                map (fun b -> W.Giant.Snowflake b) (int_range 1 6);
              ])
           (int_range 3 40) (int_range 0 1000))
     in
     prop "any (shape, n, seed): n tables, connected, closed-form edges" gen
       (fun (shape, n, seed) ->
         let b = W.Giant.block ~seed shape n in
         O.Query_block.n_quantifiers b = n
         && O.Query_block.is_connected b
         && O.Spanning_tree.edge_count b = W.Giant.edge_count shape n
         && fingerprint b = fingerprint (W.Giant.block ~seed shape n)));
  ]

(* ------------------------------------------------------------------ *)
(* Spanning-tree fallback                                              *)
(* ------------------------------------------------------------------ *)

let plan_of (fb : O.Optimizer.fallback) =
  match fb.O.Optimizer.fb_best with
  | Some p -> p
  | None -> Alcotest.fail "fallback produced no plan"

let fallback_tests =
  [
    t "fallback plans cover every quantifier with n-1 joins" (fun () ->
        List.iter
          (fun (shape, n) ->
            let b = W.Giant.block shape n in
            let p = plan_of (O.Optimizer.optimize_fallback env b) in
            Alcotest.(check bool)
              (W.Giant.shape_name shape ^ " covers all tables")
              true
              (Bitset.equal p.O.Plan.tables (O.Query_block.all_tables b));
            Alcotest.(check int)
              (W.Giant.shape_name shape ^ " spanning joins")
              (n - 1) (O.Plan.join_count p);
            Alcotest.(check bool) "positive cost" true (p.O.Plan.cost > 0.0);
            Alcotest.(check bool) "positive card" true (p.O.Plan.card > 0.0))
          shapes);
    t "fallback is seed-deterministic, restarts included" (fun () ->
        let b = W.Giant.block W.Giant.Clique 30 in
        let one () =
          plan_of (O.Optimizer.optimize_fallback env ~seed:3 ~restarts:4 b)
        in
        let p1 = one () and p2 = one () in
        Alcotest.(check string) "same plan"
          (Format.asprintf "%a" O.Plan.pp_compact p1)
          (Format.asprintf "%a" O.Plan.pp_compact p2);
        Alcotest.(check (float 0.0)) "same cost" p1.O.Plan.cost p2.O.Plan.cost);
    t "restarts never worsen the plan" (fun () ->
        List.iter
          (fun (shape, n) ->
            let b = W.Giant.block shape n in
            let base = plan_of (O.Optimizer.optimize_fallback env b) in
            let jittered =
              plan_of (O.Optimizer.optimize_fallback env ~restarts:8 b)
            in
            Alcotest.(check bool)
              (W.Giant.shape_name shape ^ " restarts only improve")
              true
              (jittered.O.Plan.cost <= base.O.Plan.cost))
          [ (W.Giant.Clique, 20); (W.Giant.Cycle, 20); (W.Giant.Snowflake 4, 24) ]);
    t "fallback never beats DP where DP is feasible" (fun () ->
        let b = W.Giant.block W.Giant.Chain 20 in
        let dp = O.Optimizer.optimize env b in
        let fb = plan_of (O.Optimizer.optimize_fallback env b) in
        match dp.O.Optimizer.best with
        | None -> Alcotest.fail "DP produced no plan"
        | Some best ->
          Alcotest.(check bool) "DP optimal" true
            (fb.O.Plan.cost >= best.O.Plan.cost *. (1.0 -. 1e-9)));
    t "fallback features are what the greedy model predicts from" (fun () ->
        let b = W.Giant.block W.Giant.Clique 30 in
        let fb = O.Optimizer.optimize_fallback env ~restarts:2 b in
        Alcotest.(check int) "quantifiers" 30 fb.O.Optimizer.fb_quantifiers;
        Alcotest.(check int) "edges" 435 fb.O.Optimizer.fb_edges;
        Alcotest.(check int) "restarts" 2 fb.O.Optimizer.fb_restarts;
        Alcotest.(check bool) "joins counted" true (fb.O.Optimizer.fb_joins > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [
    t "a tight MEMO-entry cap aborts a clique compile, structurally" (fun () ->
        let b = W.Giant.block W.Giant.Clique 20 in
        let budget = O.Budget.make ~max_memo_entries:200 () in
        match O.Optimizer.optimize env ~budget b with
        | exception O.Budget.Exceeded blown ->
          Alcotest.(check string) "what" "memo_entries" blown.O.Budget.b_what;
          Alcotest.(check int) "limit" 200 blown.O.Budget.b_limit;
          Alcotest.(check bool) "reached past the limit" true
            (blown.O.Budget.b_reached > 200)
        | _ -> Alcotest.fail "expected Budget.Exceeded");
    t "a tight kept-plan cap aborts too" (fun () ->
        let b = W.Giant.block W.Giant.Clique 20 in
        let budget = O.Budget.make ~max_kept_plans:300 () in
        match O.Optimizer.optimize env ~budget b with
        | exception O.Budget.Exceeded blown ->
          Alcotest.(check string) "what" "kept_plans" blown.O.Budget.b_what
        | _ -> Alcotest.fail "expected Budget.Exceeded");
    t "a roomy budget changes nothing" (fun () ->
        let b = W.Giant.block W.Giant.Chain 20 in
        let budget =
          O.Budget.make ~max_memo_entries:10_000_000
            ~max_kept_plans:10_000_000 ()
        in
        let plain = O.Optimizer.optimize env b in
        let budgeted = O.Optimizer.optimize env ~budget b in
        Alcotest.(check int) "entries" plain.O.Optimizer.entries
          budgeted.O.Optimizer.entries;
        Alcotest.(check int) "kept" plain.O.Optimizer.kept
          budgeted.O.Optimizer.kept;
        Alcotest.(check int) "joins" plain.O.Optimizer.joins
          budgeted.O.Optimizer.joins;
        match (plain.O.Optimizer.best, budgeted.O.Optimizer.best) with
        | Some a, Some b ->
          Alcotest.(check (float 0.0)) "cost bit-for-bit" a.O.Plan.cost
            b.O.Plan.cost
        | _ -> Alcotest.fail "both should produce plans");
    t "the estimate pass honors the same budget" (fun () ->
        let big = W.Giant.block W.Giant.Clique 30 in
        let tight = O.Budget.make ~max_memo_entries:1_000 () in
        (match Cote.Estimator.estimate env ~budget:tight big with
        | exception O.Budget.Exceeded _ -> ()
        | _ -> Alcotest.fail "expected Budget.Exceeded from the estimator");
        let small = W.Giant.block W.Giant.Chain 20 in
        let roomy = O.Budget.make ~max_memo_entries:10_000_000 () in
        let plain = Cote.Estimator.estimate env small in
        let budgeted = Cote.Estimator.estimate env ~budget:roomy small in
        Alcotest.(check int) "entries" plain.Cote.Estimator.entries
          budgeted.Cote.Estimator.entries;
        Alcotest.(check int) "joins" plain.Cote.Estimator.joins
          budgeted.Cote.Estimator.joins);
    t "unlimited budgets are recognized and free" (fun () ->
        Alcotest.(check bool) "unlimited" true
          (O.Budget.is_unlimited O.Budget.unlimited);
        Alcotest.(check bool) "make () is unlimited" true
          (O.Budget.is_unlimited (O.Budget.make ()));
        Alcotest.(check bool) "predicted-s alone doesn't bound a pass" true
          (O.Budget.is_unlimited (O.Budget.make ~max_predicted_s:0.5 ()));
        Alcotest.(check bool) "an entry cap does" false
          (O.Budget.is_unlimited (O.Budget.make ~max_memo_entries:1 ()));
        (* far under any cap: check is a no-op *)
        O.Budget.check
          (O.Budget.make ~max_memo_entries:10 ~max_kept_plans:10 ())
          ~entries:5 ~kept:5);
  ]

(* ------------------------------------------------------------------ *)
(* Greedy time model and regime selection                              *)
(* ------------------------------------------------------------------ *)

let regime_tests =
  [
    t "fit recovers exact coefficients from noiseless observations" (fun () ->
        let truth =
          Cote.Greedy_model.make ~g_quant:1e-4 ~g_edge:2e-5 ~g_restart:5e-3 ()
        in
        let obs =
          List.concat_map
            (fun (q, e) ->
              List.map
                (fun r ->
                  {
                    Cote.Greedy_model.gob_quant = float_of_int q;
                    gob_edges = float_of_int e;
                    gob_restarts = float_of_int r;
                    gob_seconds =
                      Cote.Greedy_model.predict truth ~quantifiers:q ~edges:e
                        ~restarts:r;
                  })
                [ 0; 2; 4 ])
            [ (20, 19); (30, 435); (50, 1225); (24, 23) ]
        in
        let fitted = Cote.Greedy_model.fit obs in
        let close name a b =
          Alcotest.(check bool) name true (Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a))
        in
        close "g_quant" truth.Cote.Greedy_model.g_quant
          fitted.Cote.Greedy_model.g_quant;
        close "g_edge" truth.Cote.Greedy_model.g_edge
          fitted.Cote.Greedy_model.g_edge;
        close "g_restart" truth.Cote.Greedy_model.g_restart
          fitted.Cote.Greedy_model.g_restart);
    t "predict_fallback reads the recorded features" (fun () ->
        let b = W.Giant.block W.Giant.Star 20 in
        let fb = O.Optimizer.optimize_fallback env ~restarts:3 b in
        let m = Cote.Greedy_model.default in
        Alcotest.(check (float 0.0)) "same prediction"
          (Cote.Greedy_model.predict m ~quantifiers:20 ~edges:19 ~restarts:3)
          (Cote.Greedy_model.predict_fallback m fb));
    t "decide: DP whenever its prediction fits the deadline" (fun () ->
        let d =
          Cote.Regime.decide ~deadline_s:1.0 ~dp_s:(Some 0.5) ~greedy_s:0.01 ()
        in
        Alcotest.(check string) "regime" "dp"
          (Cote.Regime.to_string d.Cote.Regime.d_regime);
        Alcotest.(check (float 1e-12)) "margin = deadline slack" 0.5
          d.Cote.Regime.d_margin_s;
        Alcotest.(check (float 0.0)) "predicted_s is DP's" 0.5
          (Cote.Regime.predicted_s d));
    t "decide: greedy when DP misses the deadline" (fun () ->
        let d =
          Cote.Regime.decide ~deadline_s:1.0 ~dp_s:(Some 2.0) ~greedy_s:0.01 ()
        in
        Alcotest.(check string) "regime" "greedy"
          (Cote.Regime.to_string d.Cote.Regime.d_regime);
        Alcotest.(check (float 1e-12)) "margin = greedy slack" 0.99
          d.Cote.Regime.d_margin_s;
        Alcotest.(check (float 0.0)) "predicted_s is greedy's" 0.01
          (Cote.Regime.predicted_s d));
    t "decide: greedy when the budgeted estimate itself blew up" (fun () ->
        let d = Cote.Regime.decide ~deadline_s:1.0 ~dp_s:None ~greedy_s:0.02 () in
        Alcotest.(check string) "regime" "greedy"
          (Cote.Regime.to_string d.Cote.Regime.d_regime);
        let d' = Cote.Regime.decide ~dp_s:None ~greedy_s:0.02 () in
        Alcotest.(check string) "no deadline: still greedy" "greedy"
          (Cote.Regime.to_string d'.Cote.Regime.d_regime));
    t "decide: no deadline prefers DP quality when feasible" (fun () ->
        let d = Cote.Regime.decide ~dp_s:(Some 0.5) ~greedy_s:0.01 () in
        Alcotest.(check string) "regime" "dp"
          (Cote.Regime.to_string d.Cote.Regime.d_regime);
        Alcotest.(check (float 1e-12)) "margin = DP's slowdown over greedy" 0.49
          d.Cote.Regime.d_margin_s);
    t "regime strings round trip" (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool) (Cote.Regime.to_string r) true
              (Cote.Regime.of_string (Cote.Regime.to_string r) = Some r))
          [ Cote.Regime.Dp; Cote.Regime.Greedy; Cote.Regime.Dp_budget_fallback ];
        Alcotest.(check bool) "unknown regime rejected" true
          (Cote.Regime.of_string "bogus" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Budget pre-check: the estimator's structural dry run                *)
(* ------------------------------------------------------------------ *)

let precheck_aborts () =
  Qopt_obs.Counter.value
    (Qopt_obs.Registry.counter Qopt_obs.Registry.default
       "estimator.budget_precheck_aborts")

(* The oracle for an entry-only cap: the budgeted estimate raises exactly
   when the unbudgeted estimate pass builds more entries than the cap, and
   it raises what the full pass would have raised.  The cap applies per
   block while [entries] sums over children, so blocks are checked one at
   a time. *)
let entry_cap_agrees ?(knobs = O.Knobs.default) block cap =
  let block = { block with O.Query_block.children = [] } in
  let unbudgeted = (Cote.Estimator.estimate ~knobs env block).Cote.Estimator.entries in
  let budget = O.Budget.make ~max_memo_entries:cap () in
  match Cote.Estimator.estimate ~knobs ~budget env block with
  | exception O.Budget.Exceeded b ->
    unbudgeted > cap
    && b = { O.Budget.b_what = "memo_entries"; b_limit = cap; b_reached = cap + 1 }
  | _ -> unbudgeted <= cap

let precheck_shapes =
  [
    (W.Giant.Star, 12);
    (W.Giant.Clique, 10);
    (W.Giant.Snowflake 6, 14);
    (W.Giant.Chain, 20);
    (W.Giant.Cycle, 20);
  ]

let entry_caps = [ 30; 100; 600 ]

let warehouse_blocks () =
  List.concat_map
    (fun (wl : W.Workload.t) ->
      List.concat_map
        (fun (q : W.Workload.query) ->
          let blocks = ref [] in
          O.Query_block.iter_blocks
            (fun b -> blocks := b :: !blocks)
            q.W.Workload.block;
          !blocks)
        wl.W.Workload.queries)
    [
      W.Warehouse.real1_w ~partitioned:false;
      W.Warehouse.real2_w ~partitioned:true;
    ]

(* A connected random join graph: a random spanning tree on j1 plus extra
   j2 edges, with the odd one-row table so the card-1 Cartesian escape —
   the one gate the dry run turns off — gets exercised. *)
let gen_connected =
  QCheck2.Gen.(
    let* n = int_range 3 12 in
    let* parents = flatten_l (List.init (n - 1) (fun i -> int_range 0 i)) in
    let* extra = small_list (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let* one_row = list_repeat n (int_range 0 7) in
    let* knobs =
      oneofl
        [
          O.Knobs.default;
          O.Knobs.full_bushy;
          O.Knobs.left_deep;
          { O.Knobs.default with O.Knobs.max_inner = Some 2 };
        ]
    in
    let* cap = oneofl entry_caps in
    return (n, parents, extra, one_row, knobs, cap))

let block_of_connected (_, parents, extra, one_row, _, _) =
  let quantifiers =
    List.mapi
      (fun i r ->
        let rows = if r = 0 then 1.0 else 100.0 *. float_of_int (i + 1) in
        O.Quantifier.make i (Helpers.table ~rows (Printf.sprintf "r%d" i)))
      one_row
  in
  let cr = O.Colref.make in
  let tree =
    List.mapi (fun i p -> O.Pred.Eq_join (cr p "j1", cr (i + 1) "j1")) parents
  in
  let extra =
    List.filter_map
      (fun (a, b) ->
        if a <> b then
          Some (O.Pred.Eq_join (cr (min a b) "j2", cr (max a b) "j2"))
        else None)
      extra
  in
  O.Query_block.make ~name:"connected" ~quantifiers ~preds:(tree @ extra) ()

(* Connected sets by brute force: every non-empty subset, grown from its
   lowest quantifier over the join graph. *)
let brute_connected_sets block =
  let n = O.Query_block.n_quantifiers block in
  let count = ref 0 in
  for mask = 1 to (1 lsl n) - 1 do
    let s = Bitset.of_int mask in
    let rec reach r =
      let r' =
        Bitset.fold
          (fun q acc ->
            Bitset.union acc (Bitset.inter s (O.Query_block.neighbors block q)))
          r r
      in
      if Bitset.equal r r' then r else reach r'
    in
    if Bitset.equal (reach (Bitset.singleton (Bitset.min_elt s))) s then incr count
  done;
  !count

let connected_sets_are block count =
  (not (O.Query_block.connected_sets_exceed block count))
  && O.Query_block.connected_sets_exceed block (count - 1)

let precheck_tests =
  [
    t "connected-set counts match the closed forms" (fun () ->
        List.iter
          (fun (shape, n, count) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%d: %d sets" (W.Giant.shape_name shape) n count)
              true
              (connected_sets_are (W.Giant.block shape n) count))
          [
            (W.Giant.Chain, 20, 210); (W.Giant.Chain, 50, 1275);
            (W.Giant.Cycle, 22, (22 * 21) + 1); (W.Giant.Star, 12, 2048 + 11);
            (W.Giant.Clique, 10, 1023);
          ];
        (* The count stops past the limit: a 50-clique has 2^50 - 1. *)
        Alcotest.(check bool) "clique/50 over 600" true
          (O.Query_block.connected_sets_exceed (W.Giant.block W.Giant.Clique 50) 600));
    prop "random connected graphs: connected-set count is the brute-force one"
      ~count:40 gen_connected (fun g ->
        let b = block_of_connected g in
        connected_sets_are b (brute_connected_sets b));
    t "entry caps: the budgeted estimate raises iff the MEMO outgrows the cap"
      (fun () ->
        List.iter
          (fun (shape, n) ->
            List.iter
              (fun cap ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%d cap %d" (W.Giant.shape_name shape) n cap)
                  true
                  (entry_cap_agrees (W.Giant.block shape n) cap))
              entry_caps)
          precheck_shapes;
        List.iter
          (fun b ->
            List.iter
              (fun cap ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s cap %d" b.O.Query_block.name cap)
                  true (entry_cap_agrees b cap))
              entry_caps)
          (warehouse_blocks ()));
    t "the dry run decides the blown giant shapes, with the full pass's error"
      (fun () ->
        Qopt_obs.Control.with_enabled true (fun () ->
            let b = W.Giant.block W.Giant.Star 12 in
            let before = precheck_aborts () in
            (match
               Cote.Estimator.estimate
                 ~budget:(O.Budget.make ~max_memo_entries:600 ())
                 env b
             with
            | exception O.Budget.Exceeded blown ->
              Alcotest.(check string) "error" "budget exceeded: memo_entries 601 > 600"
                (Format.asprintf "%a" O.Budget.pp_blown blown)
            | _ -> Alcotest.fail "expected Budget.Exceeded");
            Alcotest.(check int) "decided by the dry run" (before + 1)
              (precheck_aborts ());
            (* Under the cap the dry run stays silent and the estimate is
               the unbudgeted one. *)
            let chain = W.Giant.block W.Giant.Chain 20 in
            let before = precheck_aborts () in
            let budgeted =
              Cote.Estimator.estimate
                ~budget:(O.Budget.make ~max_memo_entries:600 ())
                env chain
            in
            let plain = Cote.Estimator.estimate env chain in
            Alcotest.(check int) "no dry-run abort" before (precheck_aborts ());
            Alcotest.(check int) "entries" plain.Cote.Estimator.entries
              budgeted.Cote.Estimator.entries;
            Alcotest.(check int) "nljn" plain.Cote.Estimator.nljn
              budgeted.Cote.Estimator.nljn;
            Alcotest.(check (float 0.0)) "memo plans"
              plain.Cote.Estimator.est_memo_plans
              budgeted.Cote.Estimator.est_memo_plans));
    t "entry+kept caps: whenever the dry run crosses, the estimate raises"
      (fun () ->
        Qopt_obs.Control.with_enabled true (fun () ->
            let decided = ref 0 in
            List.iter
              (fun (shape, n) ->
                let b = W.Giant.block shape n in
                let unbudgeted = (Cote.Estimator.estimate env b).Cote.Estimator.entries in
                List.iter
                  (fun (cap, kept) ->
                    let name =
                      Printf.sprintf "%s/%d cap %d kept %d"
                        (W.Giant.shape_name shape) n cap kept
                    in
                    let budget =
                      O.Budget.make ~max_memo_entries:cap ~max_kept_plans:kept ()
                    in
                    let before = precheck_aborts () in
                    match Cote.Estimator.estimate ~budget env b with
                    | exception O.Budget.Exceeded blown ->
                      if precheck_aborts () > before then begin
                        incr decided;
                        Alcotest.(check string) (name ^ " what") "memo_entries"
                          blown.O.Budget.b_what;
                        Alcotest.(check int) (name ^ " reached") (cap + 1)
                          blown.O.Budget.b_reached
                      end
                    | _ ->
                      Alcotest.(check bool) (name ^ " dry run silent") true
                        (precheck_aborts () = before);
                      Alcotest.(check bool) (name ^ " within the entry cap")
                        true (unbudgeted <= cap))
                  [ (30, 1); (100, 50); (600, 1_000_000); (600, 20) ])
              precheck_shapes;
            Alcotest.(check bool) "the dry run decided some" true (!decided > 0)));
    prop "random connected graphs: raises iff the MEMO outgrows the cap"
      ~count:40 gen_connected (fun ((_, _, _, _, knobs, cap) as g) ->
        entry_cap_agrees ~knobs (block_of_connected g) cap);
  ]

(* ------------------------------------------------------------------ *)
(* The estimate pass's running kept-plan count                         *)
(* ------------------------------------------------------------------ *)

let list_modes =
  [
    ("separate", Cote.Accumulate.default_options);
    ( "compound",
      { Cote.Accumulate.default_options with Cote.Accumulate.separate_lists = false } );
  ]

(* The reference the running count replaces: the memory model's kept
   plans walked over every MEMO entry, summed in floats as the walk did.
   Separate lists are read straight off the entry; compound pairs live
   inside the accumulator. *)
let walked_kept (options : Cote.Accumulate.options) acc memo =
  let total = ref 0.0 in
  O.Memo.iter_entries
    (fun e ->
      let plans =
        if options.Cote.Accumulate.separate_lists then
          (List.length e.O.Memo.i_orders + 1)
          * max 1 (List.length e.O.Memo.i_parts)
        else Cote.Accumulate.entry_plans acc e
      in
      total := !total +. float_of_int plans)
    memo;
  !total

(* One estimate pass, with [check acc memo] after every enumerator event —
   where [Estimator.run_block] runs its budget check. *)
let checked_pass ?(knobs = O.Knobs.default) ~options env block check =
  let memo = O.Memo.create block in
  let acc = Cote.Accumulate.create ~options env memo in
  let c = Cote.Accumulate.consumer acc in
  let after f x =
    f x;
    check acc memo
  in
  O.Enumerator.run ~knobs ~card_of:(Cote.Accumulate.card_of acc) memo
    {
      O.Enumerator.on_entry = after c.O.Enumerator.on_entry;
      on_join = after c.O.Enumerator.on_join;
    };
  memo

(* A reference estimate of [block]: the pass, and the estimator's
   permissive retry when the top entry is unreachable, with the MEMO walk
   after every event.  Returns the walked figures in event order and the
   number of events where the running count disagreed with the walk, and
   whether the pass ran to the end: it stops once the MEMO outgrows
   [stop_at] entries. *)
let walked_pass ?(knobs = O.Knobs.default) ?(stop_at = max_int) ~options env
    block =
  let walked = ref [] and bad = ref 0 in
  let check acc memo =
    let w = walked_kept options acc memo in
    walked := w :: !walked;
    if not (Float.equal w (float_of_int (Cote.Accumulate.kept_plans acc))) then
      incr bad;
    if O.Memo.n_entries memo > stop_at then raise Exit
  in
  let complete =
    match checked_pass ~knobs ~options env block check with
    | memo ->
      if
        O.Memo.find_opt memo (O.Query_block.all_tables block) = None
        && O.Query_block.n_quantifiers block > 1
      then
        ignore
          (checked_pass ~knobs:(O.Knobs.permissive knobs) ~options env block
             check);
      true
    | exception Exit -> false
  in
  (List.rev !walked, !bad, complete)

(* What a budget check on the walked figure raises under a kept-plan cap:
   the first figure over the cap. *)
let walked_outcome walked cap =
  List.find_opt (fun w -> int_of_float w > cap) walked
  |> Option.map (fun w ->
         { O.Budget.b_what = "kept_plans"; b_limit = cap; b_reached = int_of_float w })

let counted_outcome ?(knobs = O.Knobs.default) ~options env block cap =
  let budget = O.Budget.make ~max_kept_plans:cap () in
  match Cote.Estimator.estimate ~options ~budget ~knobs env block with
  | _ -> None
  | exception O.Budget.Exceeded b -> Some b

(* The running count equals the walk after every event, and kept-plan
   caps swept across the walked range raise the reference's record (or
   none).  A pass cut at [stop_at] decides only the caps below its
   largest figure. *)
let count_agrees ?knobs ?stop_at ~options env block =
  let block = { block with O.Query_block.children = [] } in
  let walked, bad, complete = walked_pass ?knobs ?stop_at ~options env block in
  let top = int_of_float (List.fold_left Float.max 0.0 walked) in
  let caps =
    List.sort_uniq compare
      [ 0; 1; top / 16; top / 4; top / 2; 3 * top / 4; top - 1; top ]
    |> List.filter (fun cap -> complete || cap < top)
  in
  walked <> [] && bad = 0
  && List.for_all
       (fun cap ->
         walked_outcome walked cap = counted_outcome ?knobs ~options env block cap)
       caps

let parallel = O.Env.parallel ~nodes:4

(* Chains and cycles in full, stars up to their first 1,000 entries. *)
let counted_shapes =
  List.concat_map
    (fun n ->
      [ (W.Giant.Chain, n, max_int); (W.Giant.Cycle, n, max_int); (W.Giant.Star, n, 1_000) ])
    [ 12; 16; 20; 24 ]

let corpus_blocks () =
  let blocks env (wl : W.Workload.t) =
    List.concat_map
      (fun (q : W.Workload.query) ->
        let acc = ref [] in
        O.Query_block.iter_blocks
          (fun b -> acc := (env, { b with O.Query_block.children = [] }) :: !acc)
          q.W.Workload.block;
        !acc)
      wl.W.Workload.queries
  in
  List.concat_map
    (fun (env, partitioned) ->
      blocks env (W.Warehouse.real1_w ~partitioned)
      @ blocks env (W.Warehouse.real2_w ~partitioned)
      @ blocks env (W.Tpch.all ~partitioned))
    [ (env, false); (parallel, true) ]

let gen_warehouse_random =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* complexity = int_range 3 9 in
    let* mode = oneofl list_modes in
    return (seed, complexity, mode))

let kept_count_tests =
  [
    t "giant shapes: the running kept count is the MEMO walk; caps agree"
      (fun () ->
        List.iter
          (fun (name, options) ->
            List.iter
              (fun (shape, n, stop_at) ->
                List.iter
                  (fun (env, partitioned) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %s/%d%s" name (W.Giant.shape_name shape)
                         n
                         (if partitioned then " partitioned" else ""))
                      true
                      (count_agrees ~stop_at ~options env
                         (W.Giant.block ~partitioned shape n)))
                  [ (env, false); (parallel, true) ])
              counted_shapes)
          list_modes);
    (* Every block but r1_q8 (3,067 entries) runs to the end. *)
    t "real1/real2/tpch: the running kept count is the MEMO walk; caps agree"
      (fun () ->
        List.iter
          (fun (name, options) ->
            List.iter
              (fun (env, b) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s" name b.O.Query_block.name)
                  true (count_agrees ~stop_at:1_000 ~options env b))
              (corpus_blocks ()))
          list_modes);
    prop "random connected graphs: the count is the walk; caps agree" ~count:30
      QCheck2.Gen.(pair gen_connected (oneofl list_modes))
      (fun (((_, _, _, _, knobs, _) as g), (_, options)) ->
        count_agrees ~knobs ~stop_at:1_000 ~options env (block_of_connected g));
    prop "random warehouse queries: the count is the walk; caps agree" ~count:15
      gen_warehouse_random (fun (seed, complexity, (_, options)) ->
        let schema = W.Warehouse.schema ~partitioned:false in
        let w = W.Random_gen.generate ~seed ~count:1 ~complexity ~schema () in
        List.for_all
          (fun (q : W.Workload.query) ->
            let ok = ref true in
            O.Query_block.iter_blocks
              (fun b -> ok := !ok && count_agrees ~stop_at:1_000 ~options env b)
              q.W.Workload.block;
            !ok)
          w.W.Workload.queries);
  ]

let suite =
  generator_tests @ fallback_tests @ budget_tests @ precheck_tests
  @ kept_count_tests @ regime_tests
