(* The parallel plan-generation flush against the serial path.

   With a task runner, each DP size level is enumerated first and its join
   events are then generated one result entry per task, on whichever
   domain claims the entry.  The contract is a bit-identical MEMO: every
   entry's kept-plan list in the same order, the same best plan with the
   same cost and cardinality bits, and the same counters — at 0, 1 and 3
   helpers, with and without a MEMO budget, against the serial pass and
   against the reference optimizer ([Ref_optimizer]). *)

module O = Qopt_optimizer
module W = Qopt_workloads
module P = Qopt_par

let t name f = Alcotest.test_case name `Quick f

let fp_opt = T_hotpath.fp_opt

let with_pool helpers f =
  let pool = P.Pool.create ~helpers ~first_slot:1 () in
  Fun.protect ~finally:(fun () -> P.Pool.close pool) (fun () -> f pool)

(* Every deterministic field of an optimizer result: the best plan's full
   fingerprint (cost and cardinality bits included), the counters and
   the MEMO size. *)
let result_fp (r : O.Optimizer.result) =
  let g = r.O.Optimizer.generated in
  Printf.sprintf "best=%s joins=%d gen=%d/%d/%d scans=%d kept=%d entries=%d pruned=%d bytes=%Lx"
    (fp_opt r.O.Optimizer.best) r.O.Optimizer.joins g.O.Memo.nljn g.O.Memo.mgjn
    g.O.Memo.hsjn r.O.Optimizer.scan_plans r.O.Optimizer.kept
    r.O.Optimizer.entries r.O.Optimizer.pruned
    (Int64.bits_of_float r.O.Optimizer.memo_bytes)

let outcome env ?budget ?runner block =
  match O.Optimizer.optimize env ?budget ?runner block with
  | r -> result_fp r
  | exception O.Budget.Exceeded b -> Format.asprintf "%a" O.Budget.pp_blown b

(* A plan's own fields (cost and cardinality bits, order, partition)
   and its operator with each input's fields: the inputs are kept plans of
   smaller entries, whose lists are compared in turn, so two MEMOs with
   equal lists of these hold equal plan trees.  [T_hotpath.fp] renders
   the whole tree per plan, which costs more than the compile. *)
let rec node_fp (p : O.Plan.t) =
  Printf.sprintf "%s|o:%s|p:%s|c:%Lx|k:%Lx"
    (Qopt_util.Bitset.to_int p.O.Plan.tables |> string_of_int)
    (T_hotpath.fp_cols p.O.Plan.order)
    (T_hotpath.fp_part p.O.Plan.partition)
    (Int64.bits_of_float p.O.Plan.cost)
    (Int64.bits_of_float p.O.Plan.card)

and shallow_fp (p : O.Plan.t) =
  let op =
    match p.O.Plan.op with
    | O.Plan.Seq_scan q -> Printf.sprintf "S%d" q
    | O.Plan.Index_scan (q, idx) -> Printf.sprintf "I%d:%s" q idx.Qopt_catalog.Index.name
    | O.Plan.Mv_scan name -> "M" ^ name
    | O.Plan.Sort sub -> "T(" ^ shallow_fp sub ^ ")"
    | O.Plan.Repartition sub -> "P(" ^ shallow_fp sub ^ ")"
    | O.Plan.Join (m, outer, inner, preds) ->
      Printf.sprintf "J%s(%s)(%s)#%d" (O.Join_method.to_string m) (node_fp outer)
        (node_fp inner) (List.length preds)
  in
  op ^ "|" ^ node_fp p

(* One DP pass of a block, the way [Optimizer.run_block] drives it, with
   the MEMO kept: per entry (by table set, in creation order), the
   fingerprints of its kept plans in [Memo.plans] order. *)
let memo_plans env ?run block =
  let memo = O.Memo.create block in
  let gen = O.Plan_gen.create env memo (O.Instrument.create ()) in
  let flush = Option.map (fun run -> O.Plan_gen.flush gen ~run) run in
  O.Enumerator.run ?flush ~knobs:O.Knobs.default ~card_of:(O.Plan_gen.card_of gen)
    memo (O.Plan_gen.consumer gen);
  let entries = ref [] in
  for size = 1 to O.Query_block.n_quantifiers block do
    O.Memo.iter_entries_of_size memo size (fun e ->
        entries :=
          ( Qopt_util.Bitset.to_int e.O.Memo.tables,
            List.map shallow_fp (O.Memo.plans e) )
          :: !entries)
  done;
  (List.rev !entries, O.Memo.kept_plans memo, (O.Memo.stats memo).O.Memo.pruned)

let budget = O.Budget.make ~max_memo_entries:600 ()

(* Serial vs every helper count: results unbudgeted and budgeted, and the
   MEMO entry by entry. *)
let check_block pools env name block =
  let serial = outcome env block in
  let serial_b = outcome env ~budget block in
  let serial_memo = lazy (memo_plans env block) in
  List.iter
    (fun (helpers, pool) ->
      let runner = P.Pool.run pool in
      let what = Printf.sprintf "%s, %d helpers" name helpers in
      Alcotest.(check string) what serial (outcome env ~runner block);
      Alcotest.(check string) (what ^ ", budgeted") serial_b
        (outcome env ~budget ~runner block);
      (* The raw pass has no permissive retry: a disconnected block's MEMO
         never reaches the top, identically on both sides. *)
      let entries, kept, pruned = memo_plans env ~run:runner block in
      let s_entries, s_kept, s_pruned = Lazy.force serial_memo in
      Alcotest.(check int) (what ^ ": kept") s_kept kept;
      Alcotest.(check int) (what ^ ": pruned") s_pruned pruned;
      Alcotest.(check (list (pair int (list string))))
        (what ^ ": plan lists") s_entries entries)
    pools

let with_pools f =
  with_pool 0 (fun p0 ->
      with_pool 1 (fun p1 -> with_pool 3 (fun p3 -> f [ (0, p0); (1, p1); (3, p3) ])))

let check_workload ?(env = O.Env.serial) pools (w : W.Workload.t) =
  List.iter
    (fun (q : W.Workload.query) -> check_block pools env q.W.Workload.q_name q.W.Workload.block)
    w.W.Workload.queries

let giant_blocks =
  [
    ("giant chain 20", W.Giant.block ~seed:3 W.Giant.Chain 20);
    ("giant chain 24", W.Giant.block ~seed:4 W.Giant.Chain 24);
    ("giant cycle 20", W.Giant.block ~seed:5 W.Giant.Cycle 20);
  ]

(* Each result field against the reference optimizer, block by block
   (its oracle takes the block's knobs; the Cartesian heuristic is off on
   both sides, as in [T_hotpath]). *)
let check_ref pool env name block =
  let runner = P.Pool.run pool in
  O.Query_block.iter_blocks
    (fun b ->
      let r = Ref_optimizer.optimize_block env Helpers.stable_knobs b in
      let n = O.Optimizer.optimize_block ~runner env Helpers.stable_knobs b in
      let ck what a b =
        if a <> b then Alcotest.failf "%s: %s parallel %d <> ref %d" name what a b
      in
      ck "joins" n.O.Optimizer.joins r.Ref_optimizer.joins;
      ck "scan_plans" n.O.Optimizer.scan_plans r.Ref_optimizer.scan_plans;
      ck "entries" n.O.Optimizer.entries r.Ref_optimizer.entries;
      ck "pruned" n.O.Optimizer.pruned r.Ref_optimizer.pruned;
      ck "nljn" n.O.Optimizer.generated.O.Memo.nljn r.Ref_optimizer.generated.O.Memo.nljn;
      ck "mgjn" n.O.Optimizer.generated.O.Memo.mgjn r.Ref_optimizer.generated.O.Memo.mgjn;
      ck "hsjn" n.O.Optimizer.generated.O.Memo.hsjn r.Ref_optimizer.generated.O.Memo.hsjn;
      Alcotest.(check string) (name ^ ": best vs ref") (fp_opt r.Ref_optimizer.best)
        (fp_opt n.O.Optimizer.best))
    block

(* r1_q8 (in real1, and in real2 as r2_r1_q8) compiles for about 5 s
   serially and 14 s in the parallel env, so the corpus passes leave it
   out and one test runs it under the MEMO budget; the synthetic workloads contribute every third query
   (every fifth star), and only in the serial env. *)
let heavy = [ "r1_q8"; "r2_r1_q8" ]

let corpus ~partitioned =
  let keep pred (w : W.Workload.t) =
    { w with W.Workload.queries = List.filteri pred w.W.Workload.queries }
  in
  let light (w : W.Workload.t) =
    {
      w with
      W.Workload.queries =
        List.filter
          (fun (q : W.Workload.query) -> not (List.mem q.W.Workload.q_name heavy))
          w.W.Workload.queries;
    }
  in
  List.map (fun w -> light (w ~partitioned))
    [ W.Warehouse.real1_w; W.Warehouse.real2_w; W.Tpch.all ]
  @
  if partitioned then []
  else
    [
      keep (fun i _ -> i mod 3 = 0) (W.Synthetic.linear ~partitioned);
      keep (fun i _ -> i mod 5 = 0) (W.Synthetic.star ~partitioned);
      keep (fun i _ -> i mod 3 = 0) (W.Synthetic.cycle ~partitioned);
    ]

let corpus_tests =
  [
    t "real1, real2, tpch and synthetic: serial env, 0/1/3 helpers" (fun () ->
        with_pools (fun pools ->
            List.iter (check_workload pools) (corpus ~partitioned:false)));
    t "real1, real2 and tpch: parallel env, 0/1/3 helpers" (fun () ->
        let env = O.Env.parallel ~nodes:4 in
        with_pools (fun pools ->
            List.iter (check_workload ~env pools) (corpus ~partitioned:true)));
    t "giant chains and cycles: 0/1/3 helpers" (fun () ->
        with_pools (fun pools ->
            List.iter
              (fun (name, block) -> check_block pools O.Env.serial name block)
              giant_blocks));
    t "r1_q8 under the MEMO budget: 1 helper equals serial" (fun () ->
        let w = W.Warehouse.real1_w ~partitioned:false in
        let q =
          List.find
            (fun (q : W.Workload.query) -> q.W.Workload.q_name = "r1_q8")
            w.W.Workload.queries
        in
        with_pool 1 (fun pool ->
            let runner = P.Pool.run pool in
            let b = q.W.Workload.block in
            Alcotest.(check string) "budgeted" (outcome O.Env.serial ~budget b)
              (outcome O.Env.serial ~budget ~runner b)));
    t "every result field equals the reference optimizer's, 3 helpers" (fun () ->
        with_pool 3 (fun pool ->
            List.iter
              (fun (w : W.Workload.t) ->
                List.iter
                  (fun (q : W.Workload.query) ->
                    check_ref pool O.Env.serial q.W.Workload.q_name q.W.Workload.block)
                  w.W.Workload.queries)
              (List.filteri (fun i _ -> i < 3) (corpus ~partitioned:false));
            List.iter (fun (name, b) -> check_ref pool O.Env.serial name b) giant_blocks));
    t "repeated corpus passes with 3 helpers stay identical" (fun () ->
        (* Races show up as rare divergences: run the warehouse corpus
           and the random pool many times over. *)
        let schema = W.Warehouse.schema ~partitioned:false in
        let blocks =
          List.map
            (fun (q : W.Workload.query) -> q.W.Workload.block)
            (List.nth (corpus ~partitioned:false) 1).W.Workload.queries
          @ List.map
              (fun (q : W.Workload.query) -> q.W.Workload.block)
              (W.Random_gen.generate ~seed:99 ~count:12 ~complexity:9 ~schema ())
                .W.Workload.queries
        in
        let serial = List.map (fun b -> outcome O.Env.serial b) blocks in
        with_pool 3 (fun pool ->
            for round = 1 to 8 do
              List.iter2
                (fun b s ->
                  Alcotest.(check string)
                    (Printf.sprintf "round %d" round)
                    s
                    (outcome O.Env.serial ~runner:(P.Pool.run pool) b))
                blocks serial
            done));
  ]

let random_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random warehouse blocks: 1 and 3 helpers equal serial"
       ~count:15
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 3 9))
       (fun (seed, complexity) ->
         let schema = W.Warehouse.schema ~partitioned:false in
         let w = W.Random_gen.generate ~seed ~count:1 ~complexity ~schema () in
         with_pool 1 (fun p1 ->
             with_pool 3 (fun p3 ->
                 check_workload [ (1, p1); (3, p3) ] w;
                 true))))

(* A task runner that fails tasks [from] and up, after running them. *)
let failing_runner pool ~from n f =
  P.Pool.run pool n (fun i ->
      f i;
      if i >= from then failwith (Printf.sprintf "task %d" i))

let behaviour_tests =
  [
    t "a failing task re-raises deterministically and the pool stays usable"
      (fun () ->
        let block = W.Giant.block ~seed:5 W.Giant.Cycle 20 in
        let serial = outcome O.Env.serial block in
        with_pool 3 (fun pool ->
            for _ = 1 to 5 do
              match
                O.Optimizer.optimize O.Env.serial
                  ~runner:(failing_runner pool ~from:2) block
              with
              | _ -> Alcotest.fail "the failing task's exception was lost"
              | exception Failure m ->
                Alcotest.(check string) "lowest failing index" "task 2" m
            done;
            Alcotest.(check string) "next compile on the same pool" serial
              (outcome O.Env.serial ~runner:(P.Pool.run pool) block)));
    t "a kept-plan cap raises the serial pass's Budget.Exceeded" (fun () ->
        let capped = O.Budget.make ~max_kept_plans:60 () in
        with_pool 1 (fun pool ->
            List.iter
              (fun (name, block) ->
                let serial = outcome O.Env.serial ~budget:capped block in
                Alcotest.(check bool) (name ^ ": the cap bites") true
                  (String.length serial >= 6 && String.sub serial 0 6 = "budget");
                Alcotest.(check string) name serial
                  (outcome O.Env.serial ~budget:capped ~runner:(P.Pool.run pool)
                     block))
              giant_blocks));
    t "a MEMO-entry cap raises the serial pass's Budget.Exceeded" (fun () ->
        let capped = O.Budget.make ~max_memo_entries:150 () in
        with_pool 1 (fun pool ->
            List.iter
              (fun (name, block) ->
                let serial = outcome O.Env.serial ~budget:capped block in
                Alcotest.(check bool) (name ^ ": the cap bites") true
                  (String.length serial >= 6 && String.sub serial 0 6 = "budget");
                Alcotest.(check string) name serial
                  (outcome O.Env.serial ~budget:capped ~runner:(P.Pool.run pool)
                     block))
              giant_blocks));
    t "levels go wide only with a runner, and only past the size threshold"
      (fun () ->
        let wide f =
          Qopt_obs.Control.with_enabled true (fun () ->
              let before =
                Qopt_obs.Registry.counter_value Qopt_obs.Registry.default
                  "optimizer.parallel_levels"
              in
              f ();
              Qopt_obs.Registry.counter_value Qopt_obs.Registry.default
                "optimizer.parallel_levels"
              - before)
        in
        let big = W.Giant.block ~seed:5 W.Giant.Cycle 20 in
        let small = Helpers.chain 3 in
        with_pool 1 (fun pool ->
            let runner = P.Pool.run pool in
            Alcotest.(check int) "serial" 0
              (wide (fun () -> ignore (O.Optimizer.optimize O.Env.serial big)));
            Alcotest.(check bool) "20-table cycle with a runner" true
              (wide (fun () -> ignore (O.Optimizer.optimize O.Env.serial ~runner big))
              > 0);
            Alcotest.(check int) "3-table chain with a runner" 0
              (wide (fun () -> ignore (O.Optimizer.optimize O.Env.serial ~runner small)))));
  ]

let pool_tests =
  [
    t "persistent pool: every task once, lowest-index exception, reuse" (fun () ->
        with_pool 3 (fun pool ->
            for n = 0 to 40 do
              let hits = Array.make n 0 in
              P.Pool.run pool n (fun i -> hits.(i) <- hits.(i) + 1);
              Alcotest.(check bool)
                (Printf.sprintf "n=%d each once" n)
                true
                (Array.for_all (( = ) 1) hits)
            done;
            let ran = Array.make 32 false in
            (match
               P.Pool.run pool 32 (fun i ->
                   ran.(i) <- true;
                   if i = 7 || i = 20 then failwith (string_of_int i))
             with
            | () -> Alcotest.fail "no exception"
            | exception Failure m -> Alcotest.(check string) "lowest" "7" m);
            Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id ran)));
    t "persistent pool: concurrent submitters each get every task" (fun () ->
        with_pool 2 (fun pool ->
            let submit () =
              Domain.spawn (fun () ->
                  let sum = Atomic.make 0 in
                  for _ = 1 to 50 do
                    P.Pool.run pool 64 (fun i -> ignore (Atomic.fetch_and_add sum i))
                  done;
                  Atomic.get sum)
            in
            let a = submit () and b = submit () in
            let expect = 50 * (63 * 64 / 2) in
            Alcotest.(check int) "submitter a" expect (Domain.join a);
            Alcotest.(check int) "submitter b" expect (Domain.join b)));
  ]

let suite = pool_tests @ corpus_tests @ [ random_property ] @ behaviour_tests
