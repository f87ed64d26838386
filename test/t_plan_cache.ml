(* The parameterized plan cache (PR 6).

   The correctness story is carried by three batteries, like PR 2/PR 5's
   differential suites:

   - a differential suite over the seeded 126-query corpus: a cache hit's
     served plan must be bit-for-bit identical (operator tree, orders,
     partitions, cost/card bits — T_hotpath's fingerprints) to a fresh
     optimization of the same query, serially, under the parallel
     environment, and across a 4-domain batch sharing one cache; and a
     post-invalidation recompile must match an uncached compile exactly;
   - QCheck properties over the template normalizer: literal values never
     split a template, structure always does, normalization is idempotent
     and agrees with Stmt_cache.signature;
   - envelope unit tests: selectivity drift outside the slack invalidates,
     drift inside serves the cached plan, statistics-generation bumps
     flush exactly the dependent entries. *)

module O = Qopt_optimizer
module C = Qopt_catalog
module W = Qopt_workloads
module A = Qopt_sql.Ast
module Template = Qopt_sql.Template
module SC = Cote.Stmt_cache
module PC = Cote.Plan_cache
module Obs = Qopt_obs

let t name f = Alcotest.test_case name `Quick f

let prop name ?(count = 40) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let fp_opt = T_hotpath.fp_opt

let fp = T_hotpath.fp

(* ------------------------------------------------------------------ *)
(* Differential: cache hits vs fresh optimization over the corpus      *)
(* ------------------------------------------------------------------ *)

(* joins/kept/entries ride along as the payload the server would echo —
   a hit must reproduce them exactly too. *)
let counters (r : O.Optimizer.result) =
  (r.O.Optimizer.joins, r.O.Optimizer.kept, r.O.Optimizer.entries)

let dep_table (b : O.Query_block.t) =
  (O.Query_block.quantifier b 0).O.Quantifier.table.C.Table.name

let differential_test ~partitioned env env_name =
  t
    (Printf.sprintf
       "cache hits are bit-for-bit fresh optimizations (126 queries, %s)"
       env_name)
    (fun () ->
      let queries = T_hotpath.pool ~partitioned in
      Alcotest.(check bool) "pool has > 100 queries" true
        (List.length queries > 100);
      let pc = PC.create () in
      let stored = ref 0 in
      List.iteri
        (fun i (q : W.Workload.query) ->
          let name = Printf.sprintf "%s#%d" q.W.Workload.q_name i in
          let optimize () =
            O.Optimizer.optimize env ~knobs:Helpers.stable_knobs
              q.W.Workload.block
          in
          let r1 = optimize () in
          match r1.O.Optimizer.best with
          | None -> ()
          | Some plan ->
            incr stored;
            PC.store pc q.W.Workload.block ~plan (counters r1);
            (* The reference point is a second, fully independent compile:
               the hit must equal what the optimizer would choose NOW, not
               merely echo what was stored. *)
            let r2 = optimize () in
            (match PC.lookup pc q.W.Workload.block with
            | PC.Hit { plan; payload } ->
              Alcotest.(check string)
                (name ^ ": hit plan is the fresh plan")
                (fp_opt r2.O.Optimizer.best) (fp plan);
              if payload <> counters r2 then
                Alcotest.failf "%s: hit counters differ from fresh compile"
                  name
            | PC.Miss -> Alcotest.failf "%s: expected a hit, got a miss" name
            | PC.Invalidated _ ->
              Alcotest.failf "%s: expected a hit, got an invalidation" name);
            (* Every 10th query: a statistics bump must stop the cache from
               serving, and the recompile must match an uncached compile
               exactly. *)
            if i mod 10 = 0 then begin
              let flushed = PC.bump_stats pc (dep_table q.W.Workload.block) in
              Alcotest.(check bool)
                (name ^ ": bump flushed the entry")
                true (flushed >= 1);
              (match PC.lookup pc q.W.Workload.block with
              | PC.Hit _ ->
                Alcotest.failf "%s: served from cache after a stats bump" name
              | PC.Miss | PC.Invalidated _ -> ());
              let r3 = optimize () in
              Alcotest.(check string)
                (name ^ ": post-invalidation recompile = uncached compile")
                (fp_opt r2.O.Optimizer.best)
                (fp_opt r3.O.Optimizer.best);
              match r3.O.Optimizer.best with
              | Some plan -> PC.store pc q.W.Workload.block ~plan (counters r3)
              | None -> ()
            end)
        queries;
      Alcotest.(check bool) "stored > 100 plans" true (!stored > 100))

let batch_differential_test =
  t "a shared cache filled by a 4-domain batch serves 1-domain plans" (fun () ->
      let queries = T_hotpath.pool ~partitioned:false in
      let tasks =
        List.map
          (fun (q : W.Workload.query) ->
            Qopt_par.Batch.Compile q.W.Workload.block)
          queries
      in
      let d1 =
        Qopt_par.Batch.run_batch ~domains:1 ~knobs:Helpers.stable_knobs
          O.Env.serial tasks
      in
      let d4 =
        Qopt_par.Batch.run_batch ~domains:4 ~knobs:Helpers.stable_knobs
          O.Env.serial tasks
      in
      (* Distinct random queries can share a structural signature (literals
         are abstracted), so key per corpus position — the point here is
         domain-count independence, not key design. *)
      let key i = Printf.sprintf "corpus#%d" i in
      let pc = PC.create ~shared:true () in
      List.iteri
        (fun i (q : W.Workload.query) ->
          match List.nth d4 i with
          | Qopt_par.Batch.Compiled r -> (
            match r.O.Optimizer.best with
            | Some plan ->
              PC.store pc ~key:(key i) q.W.Workload.block ~plan (counters r)
            | None -> ())
          | Qopt_par.Batch.Estimated _ -> ())
        queries;
      List.iteri
        (fun i (q : W.Workload.query) ->
          match List.nth d1 i with
          | Qopt_par.Batch.Compiled r when r.O.Optimizer.best <> None -> (
            match PC.lookup pc ~key:(key i) q.W.Workload.block with
            | PC.Hit { plan; _ } ->
              Alcotest.(check string)
                (Printf.sprintf "%s#%d: d4-cached plan = d1 plan"
                   q.W.Workload.q_name i)
                (fp_opt r.O.Optimizer.best) (fp plan)
            | PC.Miss | PC.Invalidated _ ->
              Alcotest.failf "%s#%d: expected a hit" q.W.Workload.q_name i)
          | _ -> ())
        queries)

(* ------------------------------------------------------------------ *)
(* QCheck: template normalization                                      *)
(* ------------------------------------------------------------------ *)

let schema = W.Warehouse.schema ~partitioned:false

(* (table, alias, a filterable column) — all with real warehouse stats so
   the generated queries also bind. *)
let tbl_pool =
  [|
    ("store", "s", "s_market_id");
    ("item", "i", "i_category_id");
    ("customer", "c", "c_birth_year");
    ("date_dim", "d", "d_year");
  |]

let ops = [| A.Eq; A.Lt; A.Le; A.Gt; A.Ge |]

type cond_spec = {
  cs_table : int;  (* position in the chosen table list *)
  cs_op : int;
  cs_in_arity : int;  (* 0 = comparison, n > 0 = IN with n items *)
  cs_str : bool;  (* string literal instead of numeric *)
}

type spec = {
  sp_first : int;  (* rotation start into tbl_pool *)
  sp_n : int;  (* number of tables, 1-3 *)
  sp_conds : cond_spec list;
  sp_group : bool;
  sp_order : bool;
  sp_limit : int option;
}

let gen_spec =
  let open QCheck2.Gen in
  let* sp_first = int_range 0 (Array.length tbl_pool - 1) in
  let* sp_n = int_range 1 3 in
  let* n_conds = int_range 0 4 in
  let* sp_conds =
    list_repeat n_conds
      (let* cs_table = int_range 0 (sp_n - 1) in
       let* cs_op = int_range 0 (Array.length ops - 1) in
       let* cs_in_arity = int_range 0 3 in
       let* cs_str = bool in
       return { cs_table; cs_op; cs_in_arity; cs_str })
  in
  let* sp_group = bool in
  let* sp_order = bool in
  let* sp_limit = option (int_range 1 20) in
  return { sp_first; sp_n; sp_conds; sp_group; sp_order; sp_limit }

let tables_of spec =
  List.init spec.sp_n (fun i ->
      tbl_pool.((spec.sp_first + i) mod Array.length tbl_pool))

(* Instantiate a spec with a literal assignment: [lit k] supplies the k-th
   literal of the statement.  Two calls with different [lit] produce
   same-template, different-parameter statements. *)
let instantiate spec lit =
  let tables = tables_of spec in
  let counter = ref 0 in
  let next_lit str =
    let k = !counter in
    incr counter;
    if str then A.Str (Printf.sprintf "v%d" (lit k)) else A.Num (float_of_int (lit k))
  in
  let cond cs =
    (* mutations may shrink the table list under a pred spec — clamp *)
    let _, alias, col_name =
      List.nth tables (cs.cs_table mod List.length tables)
    in
    let col = A.col ~table:alias col_name in
    if cs.cs_in_arity > 0 then
      A.In_list
        (col, List.init cs.cs_in_arity (fun _ -> next_lit cs.cs_str))
    else A.Cmp_lit (col, ops.(cs.cs_op), next_lit cs.cs_str)
  in
  let first_col =
    let _, alias, col_name = List.hd tables in
    A.col ~table:alias col_name
  in
  {
    A.sel_items = [ A.Col_item first_col ];
    sel_from =
      List.map
        (fun (name, alias, _) -> { A.t_name = name; t_alias = Some alias })
        tables;
    sel_joins = [];
    sel_where = List.map cond spec.sp_conds;
    sel_group_by = (if spec.sp_group then [ first_col ] else []);
    sel_order_by = (if spec.sp_order then [ first_col ] else []);
    sel_limit = spec.sp_limit;
  }

let key spec lit = Template.key_of (instantiate spec lit)

let template_props =
  [
    prop "same structure, different literals: same template key" gen_spec
      (fun spec -> key spec (fun k -> 1 + (k mod 9)) = key spec (fun k -> 90 + k));
    prop "normalization is idempotent" gen_spec (fun spec ->
        let t1 = Template.normalize (instantiate spec (fun k -> k + 3)) in
        let t2 = Template.normalize t1.Template.shape in
        t1.Template.key = t2.Template.key
        && t1.Template.shape = t2.Template.shape
        && List.length t1.Template.params = List.length t2.Template.params);
    prop "params retain the observed literals in order" gen_spec (fun spec ->
        let sel = instantiate spec (fun k -> 10 + k) in
        let tpl = Template.normalize sel in
        List.for_all
          (fun (p : Template.param) ->
            match (p.Template.p_type, p.Template.p_value) with
            | Template.P_num, A.Num v ->
              v = float_of_int (10 + p.Template.p_index)
            | Template.P_str, A.Str s ->
              s = Printf.sprintf "v%d" (10 + p.Template.p_index)
            | _ -> false)
          tpl.Template.params);
    prop "structural differences never collide" ~count:60
      QCheck2.Gen.(pair gen_spec (int_range 0 4))
      (fun (spec, which) ->
        let mutated =
          match which with
          | 0 ->
            (* table-set change: grow if possible, else shrink *)
            if spec.sp_n < 3 then { spec with sp_n = spec.sp_n + 1 }
            else { spec with sp_n = spec.sp_n - 1 }
          | 1 ->
            (* predicate shape: one more comparison *)
            {
              spec with
              sp_conds =
                { cs_table = 0; cs_op = 0; cs_in_arity = 0; cs_str = false }
                :: spec.sp_conds;
            }
          | 2 ->
            { spec with sp_limit = (if spec.sp_limit = None then Some 5 else None) }
          | 3 -> { spec with sp_group = not spec.sp_group }
          | _ -> { spec with sp_order = not spec.sp_order }
        in
        key spec (fun k -> k + 1) <> key mutated (fun k -> k + 1));
    prop "IN-list arity is structural" gen_spec (fun spec ->
        let spec_in =
          {
            spec with
            sp_conds =
              { cs_table = 0; cs_op = 0; cs_in_arity = 2; cs_str = false }
              :: spec.sp_conds;
          }
        in
        let spec_in3 =
          {
            spec_in with
            sp_conds =
              (match spec_in.sp_conds with
              | c :: rest -> { c with cs_in_arity = 3 } :: rest
              | [] -> assert false);
          }
        in
        key spec_in (fun k -> k + 1) <> key spec_in3 (fun k -> k + 1));
    prop "literal type is part of the template" gen_spec (fun spec ->
        let with_first_cmp str =
          {
            spec with
            sp_conds =
              { cs_table = 0; cs_op = 0; cs_in_arity = 0; cs_str = str }
              :: spec.sp_conds;
          }
        in
        key (with_first_cmp false) (fun k -> k + 1)
        <> key (with_first_cmp true) (fun k -> k + 1));
    prop "template signature agrees with Stmt_cache.signature" gen_spec
      (fun spec ->
        let sel = instantiate spec (fun k -> 1 + (k mod 9)) in
        let tpl = Template.normalize sel in
        SC.signature (Qopt_sql.Binder.bind schema sel)
        = SC.signature (Qopt_sql.Binder.bind schema tpl.Template.shape));
  ]

(* ------------------------------------------------------------------ *)
(* Envelope invalidation                                               *)
(* ------------------------------------------------------------------ *)

(* One quantifier over a table whose "v" histogram spans [0, hi]: the
   selectivity of v <= 10 is ~10/hi, so widening hi drifts it down — a
   statistics change the envelope must catch once it is large enough. *)
let drift_block ?(name = "drift") ~hi () =
  let rows = 1000.0 in
  let tbl =
    C.Table.make ~rows ~name ~primary_key:[ "pk" ]
      [
        C.Column.make ~rows ~distinct:rows "pk";
        C.Column.make ~rows ~distinct:50.0 ~lo:0.0 ~hi "v";
      ]
  in
  O.Query_block.make ~name:(name ^ "_q")
    ~quantifiers:[ O.Quantifier.make 0 tbl ]
    ~preds:[ O.Pred.Local_cmp (Helpers.cr 0 "v", O.Pred.Le, 10.0) ]
    ()

let scan_plan () =
  {
    O.Plan.op = O.Plan.Seq_scan 0;
    tables = Helpers.set [ 0 ];
    order = [];
    partition = None;
    card = 100.0;
    cost = 10.0;
  }

(* Registry reading of a plan-cache counter; the tests that assert on one
   run with collection on and compare deltas. *)
let counter name = Obs.Registry.counter_value Obs.Registry.default ("plan_cache." ^ name)

let envelope_tests =
  [
    t "drift outside the envelope invalidates and recompiles" (fun () ->
        Obs.Control.with_enabled true @@ fun () ->
        let i0 = counter "invalidations" in
        let pc = PC.create () in
        let b0 = drift_block ~hi:100.0 () in
        PC.store pc b0 ~plan:(scan_plan ()) 0;
        (* 10x selectivity drift: 0.1 -> 0.01, far outside slack 0.5. *)
        let drifted = drift_block ~hi:1000.0 () in
        (match PC.lookup pc drifted with
        | PC.Invalidated PC.Envelope -> ()
        | PC.Invalidated PC.Stats_generation ->
          Alcotest.fail "wrong invalidation reason"
        | PC.Hit _ -> Alcotest.fail "stale plan served"
        | PC.Miss -> Alcotest.fail "expected an invalidation, not a miss");
        Alcotest.(check int) "invalidations" 1 (counter "invalidations" - i0);
        Alcotest.(check int) "entry removed" 0 (PC.size pc);
        (* The caller recompiles and stores; the drifted stats are now the
           envelope's center, so the same lookup hits. *)
        PC.store pc drifted ~plan:(scan_plan ()) 1;
        match PC.lookup pc drifted with
        | PC.Hit { payload; _ } -> Alcotest.(check int) "new payload" 1 payload
        | _ -> Alcotest.fail "recompiled entry should hit");
    t "drift inside the envelope serves the cached plan" (fun () ->
        Obs.Control.with_enabled true @@ fun () ->
        let i0 = counter "invalidations" in
        let pc = PC.create () in
        let b0 = drift_block ~hi:100.0 () in
        PC.store pc b0 ~plan:(scan_plan ()) 7;
        (* 0.1 -> ~0.091: comfortably within the 0.5 slack. *)
        let nudged = drift_block ~hi:110.0 () in
        (match PC.lookup pc nudged with
        | PC.Hit { payload; _ } -> Alcotest.(check int) "payload" 7 payload
        | _ -> Alcotest.fail "expected a hit");
        Alcotest.(check int) "no invalidations" 0 (counter "invalidations" - i0));
    t "zero slack still hits on the identical query" (fun () ->
        let pc = PC.create ~config:{ PC.slack = 0.0; capacity = 4 } () in
        let b = drift_block ~hi:100.0 () in
        PC.store pc b ~plan:(scan_plan ()) 0;
        match PC.lookup pc b with
        | PC.Hit _ -> ()
        | _ -> Alcotest.fail "identical lookup must hit at slack 0");
    t "statistics bump flushes dependent entries only" (fun () ->
        let pc = PC.create () in
        let a = drift_block ~name:"ta" ~hi:100.0 () in
        let b = drift_block ~name:"tb" ~hi:100.0 () in
        PC.store pc a ~plan:(scan_plan ()) 0;
        PC.store pc b ~plan:(scan_plan ()) 1;
        Alcotest.(check int) "flushed" 1 (PC.bump_stats pc "ta");
        Alcotest.(check int) "size" 1 (PC.size pc);
        Alcotest.(check int) "generation" 1 (PC.generation pc "ta");
        Alcotest.(check int) "untouched generation" 0 (PC.generation pc "tb");
        (match PC.lookup pc a with
        | PC.Miss -> ()
        | _ -> Alcotest.fail "flushed entry must miss");
        (match PC.lookup pc b with
        | PC.Hit _ -> ()
        | _ -> Alcotest.fail "independent entry must survive the bump"));
    t "an entry stored after a bump lives in the new generation" (fun () ->
        let pc = PC.create () in
        let a = drift_block ~name:"ta" ~hi:100.0 () in
        Alcotest.(check int) "nothing to flush" 0 (PC.bump_stats pc "ta");
        PC.store pc a ~plan:(scan_plan ()) 0;
        match PC.lookup pc a with
        | PC.Hit _ -> ()
        | _ -> Alcotest.fail "entry stored under the bumped generation must hit");
    t "capacity evicts the least recently used entry" (fun () ->
        Obs.Control.with_enabled true @@ fun () ->
        let e0 = counter "evictions" in
        let pc = PC.create ~config:{ PC.slack = 0.5; capacity = 2 } () in
        let c2 = Helpers.chain 2 and c3 = Helpers.chain 3 in
        let s3 = Helpers.star_block 3 in
        PC.store pc c2 ~plan:(scan_plan ()) 0;
        PC.store pc c3 ~plan:(scan_plan ()) 1;
        (* Touch c2 so c3 is the LRU victim. *)
        (match PC.lookup pc c2 with
        | PC.Hit _ -> ()
        | _ -> Alcotest.fail "warm entry must hit");
        PC.store pc s3 ~plan:(scan_plan ()) 2;
        Alcotest.(check int) "evictions" 1 (counter "evictions" - e0);
        Alcotest.(check int) "size" 2 (PC.size pc);
        (match PC.lookup pc c3 with
        | PC.Miss -> ()
        | _ -> Alcotest.fail "LRU entry must have been evicted");
        match (PC.lookup pc c2, PC.lookup pc s3) with
        | PC.Hit _, PC.Hit _ -> ()
        | _ -> Alcotest.fail "recently used entries must survive");
    t "envelope rows are exposed for introspection" (fun () ->
        let pc = PC.create () in
        let b = drift_block ~hi:100.0 () in
        let key = SC.signature b in
        PC.store pc b ~plan:(scan_plan ()) 0;
        match PC.envelope pc key with
        | Some [ (sg, lo, hi) ] ->
          Alcotest.(check bool) "labelled by pred signature" true
            (sg = SC.pred_signature b (List.hd b.O.Query_block.preds));
          Alcotest.(check bool) "lo < hi" true (lo < hi);
          Alcotest.(check bool) "centered on the estimate" true
            (lo > 0.0 && hi < 1.0)
        | Some _ -> Alcotest.fail "expected exactly one envelope row"
        | None -> Alcotest.fail "entry must exist");
    t "obs counters track hits, misses, invalidations" (fun () ->
        Obs.Control.with_enabled true (fun () ->
            let reg = Obs.Registry.default in
            let v name = Obs.Registry.counter_value reg name in
            let h0 = v "plan_cache.hits"
            and m0 = v "plan_cache.misses"
            and i0 = v "plan_cache.invalidations" in
            let pc = PC.create () in
            let b = drift_block ~hi:100.0 () in
            ignore (PC.lookup pc b);
            PC.store pc b ~plan:(scan_plan ()) 0;
            ignore (PC.lookup pc b);
            ignore (PC.lookup pc (drift_block ~hi:1000.0 ()));
            Alcotest.(check int) "hits delta" 1 (v "plan_cache.hits" - h0);
            Alcotest.(check int) "misses delta" 1 (v "plan_cache.misses" - m0);
            Alcotest.(check int) "invalidations delta" 1
              (v "plan_cache.invalidations" - i0)));
    t "stats flushes count as invalidations" (fun () ->
        Obs.Control.with_enabled true (fun () ->
            let pc = PC.create () in
            PC.store pc (drift_block ~name:"hra" ~hi:100.0 ()) ~plan:(scan_plan ()) 0;
            PC.store pc (drift_block ~name:"hrb" ~hi:100.0 ()) ~plan:(scan_plan ()) 1;
            let i0 = counter "invalidations" in
            Alcotest.(check int) "flushed" 1 (PC.bump_stats pc "hra");
            Alcotest.(check int) "flushed" 1 (PC.bump_stats pc "hrb");
            Alcotest.(check int) "flushes count as invalidations" 2
              (counter "invalidations" - i0)));
    t "invalidation reasons have stable names" (fun () ->
        Alcotest.(check (list string)) "identifiers"
          [ "envelope"; "stats_generation" ]
          (List.map PC.invalidation_string [ PC.Envelope; PC.Stats_generation ]));
  ]

let suite =
  envelope_tests @ template_props
  @ [
      differential_test ~partitioned:false O.Env.serial "serial";
      differential_test ~partitioned:true (O.Env.parallel ~nodes:4) "parallel x4";
      batch_differential_test;
    ]
