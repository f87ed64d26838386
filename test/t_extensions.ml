(* Section 6.2 / 1.2 extensions: materialized views and the statement
   cache. *)

module O = Qopt_optimizer
module C = Qopt_catalog
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let cr = Helpers.cr

(* A 3-table chain and a view over its first two tables. *)
let block = Helpers.chain 3

let view_block_01 =
  O.Query_block.make ~name:"v01"
    ~quantifiers:
      [
        O.Quantifier.make 0 (Helpers.table ~rows:1000.0 "t0");
        O.Quantifier.make 1 (Helpers.table ~rows:2000.0 "t1");
      ]
    ~preds:[ O.Pred.Eq_join (cr 0 "j1", cr 1 "j1") ]
    ()

let view01 = O.Mat_view.define ~name:"v01" view_block_01

let mat_view_tests =
  [
    t "define rejects views with local predicates" (fun () ->
        let bad =
          O.Query_block.make ~name:"bad"
            ~quantifiers:[ O.Quantifier.make 0 (Helpers.table ~rows:10.0 "t0") ]
            ~preds:[ O.Pred.Local_cmp (cr 0 "v", O.Pred.Eq, 1.0) ]
            ()
        in
        try
          ignore (O.Mat_view.define ~name:"bad" bad);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "define rejects grouped views" (fun () ->
        let bad =
          O.Query_block.make ~name:"bad" ~group_by:[ cr 0 "v" ]
            ~quantifiers:[ O.Quantifier.make 0 (Helpers.table ~rows:10.0 "t0") ]
            ~preds:[] ()
        in
        try
          ignore (O.Mat_view.define ~name:"bad" bad);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "matches the exact entry" (fun () ->
        Alcotest.(check bool) "match {0,1}" true
          (O.Mat_view.matches view01 block (Helpers.set [ 0; 1 ])));
    t "does not match other entries" (fun () ->
        Alcotest.(check bool) "not {1,2}" false
          (O.Mat_view.matches view01 block (Helpers.set [ 1; 2 ]));
        Alcotest.(check bool) "not {0}" false
          (O.Mat_view.matches view01 block (Helpers.set [ 0 ]));
        Alcotest.(check bool) "not all" false
          (O.Mat_view.matches view01 block (Helpers.set [ 0; 1; 2 ])));
    t "predicate mismatch rejects the match" (fun () ->
        (* Same tables, but the view joins on j2 while the query joins j1. *)
        let view_j2 =
          O.Mat_view.define ~name:"vj2"
            (O.Query_block.make ~name:"vj2"
               ~quantifiers:
                 [
                   O.Quantifier.make 0 (Helpers.table ~rows:1000.0 "t0");
                   O.Quantifier.make 1 (Helpers.table ~rows:2000.0 "t1");
                 ]
               ~preds:[ O.Pred.Eq_join (cr 0 "j2", cr 1 "j2") ]
               ())
        in
        Alcotest.(check bool) "no match" false
          (O.Mat_view.matches view_j2 block (Helpers.set [ 0; 1 ])));
    t "optimizer counts tests and matches, inserts a substitute" (fun () ->
        let r =
          O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs
            ~views:[ view01 ] block
        in
        Alcotest.(check int) "tests = entries" r.O.Optimizer.entries r.O.Optimizer.mv_tests;
        Alcotest.(check int) "one match" 1 r.O.Optimizer.mv_matches;
        Alcotest.(check bool) "mv bucket timed" true
          (r.O.Optimizer.breakdown.O.Instrument.s_mv >= 0.0));
    t "a cheap view wins the plan" (fun () ->
        (* Make the materialized result tiny so its scan beats any join. *)
        let cheap = { view01 with O.Mat_view.mv_rows = 1.0; mv_width = 8.0 } in
        let r =
          O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs
            ~views:[ cheap ] block
        in
        match r.O.Optimizer.best with
        | Some p ->
          let uses_mv =
            Helpers.contains (Format.asprintf "%a" O.Plan.pp_compact p) "MV[v01]"
          in
          Alcotest.(check bool) "plan uses the view" true uses_mv
        | None -> Alcotest.fail "expected plan");
    t "estimator predicts the test count" (fun () ->
        let r =
          O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs
            ~views:[ view01 ] block
        in
        let e =
          Cote.Estimator.estimate ~knobs:Helpers.stable_knobs ~views:[ view01 ]
            O.Env.serial block
        in
        Alcotest.(check int) "tests" r.O.Optimizer.mv_tests e.Cote.Estimator.mv_tests);
    t "substitute cost scales with materialized size" (fun () ->
        let params = O.Cost_model.params O.Env.serial in
        let big = { view01 with O.Mat_view.mv_rows = 1e6 } in
        Alcotest.(check bool) "bigger costs more" true
          (O.Mat_view.substitute_cost params big
          > O.Mat_view.substitute_cost params view01));
  ]

let cache_tests =
  [
    t "miss then hit" (fun () ->
        Qopt_obs.Control.with_enabled true (fun () ->
            let v = Qopt_obs.Registry.counter_value Qopt_obs.Registry.default in
            let h0 = v "stmt_cache.hits" and m0 = v "stmt_cache.misses" in
            let cache = Cote.Stmt_cache.create () in
            Alcotest.(check bool) "miss" true (Cote.Stmt_cache.lookup cache block = None);
            Cote.Stmt_cache.record cache block 0.42;
            Alcotest.(check bool) "hit" true
              (Cote.Stmt_cache.lookup cache block = Some 0.42);
            Alcotest.(check int) "hits" 1 (v "stmt_cache.hits" - h0);
            Alcotest.(check int) "misses" 1 (v "stmt_cache.misses" - m0)));
    t "signatures abstract literal values" (fun () ->
        let q v =
          O.Query_block.make ~name:"s"
            ~quantifiers:[ O.Quantifier.make 0 (Helpers.table ~rows:10.0 "t0") ]
            ~preds:[ O.Pred.Local_cmp (cr 0 "v", O.Pred.Eq, v) ]
            ()
        in
        Alcotest.(check string) "same signature"
          (Cote.Stmt_cache.signature (q 1.0))
          (Cote.Stmt_cache.signature (q 99.0)));
    t "signatures distinguish structure" (fun () ->
        Alcotest.(check bool) "chain3 <> chain4" true
          (Cote.Stmt_cache.signature (Helpers.chain 3)
          <> Cote.Stmt_cache.signature (Helpers.chain 4));
        Alcotest.(check bool) "extra pred differs" true
          (Cote.Stmt_cache.signature (Helpers.chain 3)
          <> Cote.Stmt_cache.signature (Helpers.chain ~extra:1 3));
        Alcotest.(check bool) "LIMIT differs" true
          (Cote.Stmt_cache.signature (Helpers.chain 3)
          <> Cote.Stmt_cache.signature
               { (Helpers.chain 3) with O.Query_block.first_n = Some 5 }));
    t "signatures include children" (fun () ->
        let child = Helpers.chain 2 in
        let parent c =
          O.Query_block.make ~name:"p" ~children:c
            ~quantifiers:[ O.Quantifier.make 0 (Helpers.table ~rows:10.0 "t0") ]
            ~preds:[] ()
        in
        Alcotest.(check bool) "child changes signature" true
          (Cote.Stmt_cache.signature (parent [])
          <> Cote.Stmt_cache.signature (parent [ child ])));
    t "size counts distinct statements" (fun () ->
        let cache = Cote.Stmt_cache.create () in
        Cote.Stmt_cache.record cache (Helpers.chain 3) 0.1;
        Cote.Stmt_cache.record cache (Helpers.chain 3) 0.2;
        Cote.Stmt_cache.record cache (Helpers.chain 4) 0.3;
        Alcotest.(check int) "two" 2 (Cote.Stmt_cache.size cache));
  ]

let suite = mat_view_tests @ cache_tests
