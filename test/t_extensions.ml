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
    t "the cache is bounded and evicts the least recently used pair first" (fun () ->
        let key i = Printf.sprintf "k%d" i in
        let cap = Cote.Stmt_cache.capacity in
        let cache = Cote.Stmt_cache.create () in
        for i = 0 to cap - 1 do
          Cote.Stmt_cache.record cache ~key:(key i) block (float_of_int i)
        done;
        Alcotest.(check int) "full" cap (Cote.Stmt_cache.size cache);
        (* A hit makes k0 the most recently used; k1 is now the oldest. *)
        Alcotest.(check (option (float 0.0))) "k0 hit" (Some 0.0)
          (Cote.Stmt_cache.lookup cache ~key:(key 0) block);
        Cote.Stmt_cache.record cache ~key:"new" block 1.0;
        Alcotest.(check int) "still full" cap (Cote.Stmt_cache.size cache);
        Alcotest.(check bool) "k1 went first" false
          (Cote.Stmt_cache.mem cache ~key:(key 1) block);
        Alcotest.(check bool) "k0 stayed" true (Cote.Stmt_cache.mem cache ~key:(key 0) block);
        Alcotest.(check bool) "the new pair is in" true
          (Cote.Stmt_cache.mem cache ~key:"new" block);
        (* Re-recording a present pair evicts nothing. *)
        Cote.Stmt_cache.record cache ~key:"new" block 2.0;
        Alcotest.(check bool) "k2 kept" true (Cote.Stmt_cache.mem cache ~key:(key 2) block);
        (* A shared cache bounds each stripe by its share. *)
        let shared = Cote.Stmt_cache.create ~shared:true () in
        for i = 0 to (2 * cap) - 1 do
          Cote.Stmt_cache.record shared ~tag:"full" ~key:(key i) block 0.0
        done;
        Alcotest.(check bool) "shared: at most the capacity" true
          (Cote.Stmt_cache.size shared <= cap);
        Alcotest.(check bool) "shared: the last pair is in" true
          (Cote.Stmt_cache.mem shared ~tag:"full" ~key:(key ((2 * cap) - 1)) block));
    t "mem counts nothing and keeps the LRU order" (fun () ->
        Qopt_obs.Control.with_enabled true (fun () ->
            let v = Qopt_obs.Registry.counter_value Qopt_obs.Registry.default in
            let h0 = v "stmt_cache.hits" and m0 = v "stmt_cache.misses" in
            let cache = Cote.Stmt_cache.create () in
            Alcotest.(check bool) "absent" false (Cote.Stmt_cache.mem cache ~tag:"a" block);
            Cote.Stmt_cache.record cache ~tag:"a" block 0.5;
            Alcotest.(check bool) "present" true (Cote.Stmt_cache.mem cache ~tag:"a" block);
            Alcotest.(check bool) "the tag partitions" false
              (Cote.Stmt_cache.mem cache ~tag:"b" block);
            Alcotest.(check int) "no hits" 0 (v "stmt_cache.hits" - h0);
            Alcotest.(check int) "no misses" 0 (v "stmt_cache.misses" - m0);
            (* Fill behind "a" without touching it again: a [mem] of "a"
               must not save it from being the first victim. *)
            for i = 1 to Cote.Stmt_cache.capacity - 1 do
              Cote.Stmt_cache.record cache ~key:(string_of_int i) block 0.0
            done;
            ignore (Cote.Stmt_cache.mem cache ~tag:"a" block);
            Cote.Stmt_cache.record cache ~key:"last" block 0.0;
            Alcotest.(check bool) "a went first" false
              (Cote.Stmt_cache.mem cache ~tag:"a" block)));
  ]

let suite = mat_view_tests @ cache_tests
