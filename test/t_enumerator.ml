(* The DP join enumerator: closed formulas, an independent brute-force
   oracle, dedup, knobs, outer-eligibility and dependency handling. *)

module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let cr = Helpers.cr

(* Run the enumerator with a counting consumer; cardinalities come from the
   full model. *)
let run_enum ?(knobs = Helpers.stable_knobs) block =
  let memo = O.Memo.create block in
  let joins = ref 0 in
  let events = ref [] in
  let consumer =
    {
      O.Enumerator.on_entry = (fun _ -> ());
      O.Enumerator.on_join =
        (fun ev ->
          incr joins;
          events := ev :: !events);
    }
  in
  O.Enumerator.run ~knobs ~card_of:(O.Memo.card_of memo O.Cardinality.Full) memo consumer;
  (!joins, List.rev !events, memo)

(* Independent oracle: constructibility of every subset is computed by naive
   recursion over all splits, then feasible (S, T\S) pairs are counted. *)
let oracle ?(knobs = Helpers.stable_knobs) block =
  let n = O.Query_block.n_quantifiers block in
  let card tbl = O.Cardinality.of_set O.Cardinality.Full block tbl in
  let union_valid u =
    Bitset.for_all
      (fun q -> Bitset.subset (O.Query_block.quantifier block q).O.Quantifier.deps u)
      u
  in
  let feasible_join s l =
    Bitset.disjoint s l
    && union_valid (Bitset.union s l)
    &&
    let preds = List.filter (fun p -> O.Pred.crosses p s l) block.O.Query_block.preds in
    let cartesian_ok =
      preds <> []
      || knobs.O.Knobs.allow_cartesian
      || (knobs.O.Knobs.card1_cartesian
         && ((Bitset.cardinal s <= knobs.O.Knobs.card1_max_size
             && card s <= knobs.O.Knobs.card1_threshold)
            || (Bitset.cardinal l <= knobs.O.Knobs.card1_max_size
               && card l <= knobs.O.Knobs.card1_threshold)))
    in
    cartesian_ok
    && (O.Enumerator.direction_feasible ~knobs ~block ~outer:s ~inner:l
       || O.Enumerator.direction_feasible ~knobs ~block ~outer:l ~inner:s)
  in
  let constructible = Hashtbl.create 64 in
  let rec is_constructible tbl =
    if Bitset.cardinal tbl <= 1 then true
    else
      match Hashtbl.find_opt constructible (Bitset.to_int tbl) with
      | Some b -> b
      | None ->
        Hashtbl.add constructible (Bitset.to_int tbl) false (* cycle guard *);
        let found = ref false in
        Bitset.iter_subsets tbl (fun s ->
            if not !found then begin
              let l = Bitset.diff tbl s in
              if
                Bitset.compare s l < 0 && is_constructible s && is_constructible l
                && feasible_join s l
              then found := true
            end);
        Hashtbl.replace constructible (Bitset.to_int tbl) !found;
        !found
  in
  let joins = ref 0 in
  for mask = 1 to (1 lsl n) - 1 do
    let tbl = Bitset.of_int mask in
    if Bitset.cardinal tbl >= 2 && is_constructible tbl then
      Bitset.iter_subsets tbl (fun s ->
          let l = Bitset.diff tbl s in
          if
            Bitset.compare s l < 0 && is_constructible s && is_constructible l
            && feasible_join s l
          then incr joins)
  done;
  !joins

let formula_tests =
  [
    t "linear bushy joins = (n^3 - n)/6 (Ono-Lohman)" (fun () ->
        List.iter
          (fun n ->
            let joins, _, _ = run_enum ~knobs:Helpers.full_bushy_stable (Helpers.chain n) in
            Alcotest.(check int)
              (Printf.sprintf "n=%d" n)
              (((n * n * n) - n) / 6)
              joins)
          [ 2; 3; 4; 5; 6; 7; 8 ]);
    t "star joins = (n-1) * 2^(n-2)" (fun () ->
        List.iter
          (fun n ->
            let joins, _, _ = run_enum ~knobs:Helpers.full_bushy_stable (Helpers.star_block n) in
            Alcotest.(check int)
              (Printf.sprintf "n=%d" n)
              ((n - 1) * (1 lsl (n - 2)))
              joins)
          [ 3; 4; 5; 6; 7; 8 ]);
    t "left-deep linear joins = n(n-1)/2" (fun () ->
        (* Chains: left-deep joins are (contiguous segment, adjacent single).
           Segments [i..j] joined with i-1 or j+1: count = 2*(n-1) + ... each
           join is (segment, single) with the single adjacent; per segment of
           length l >= 1 there are its adjacent extensions; total = number of
           (segment, extension) pairs = n(n-1)/2 + extra?  Verified against
           the oracle instead of a closed form. *)
        List.iter
          (fun n ->
            let block = Helpers.chain n in
            let joins, _, _ = run_enum ~knobs:O.Knobs.left_deep block in
            Alcotest.(check int) (Printf.sprintf "n=%d oracle" n)
              (oracle ~knobs:O.Knobs.left_deep block)
              joins)
          [ 2; 3; 4; 5; 6 ]);
    t "composite-inner limit prunes bushy joins" (fun () ->
        let block = Helpers.chain 6 in
        let unrestricted, _, _ = run_enum ~knobs:Helpers.full_bushy_stable block in
        let limited, _, _ =
          run_enum ~knobs:{ Helpers.stable_knobs with O.Knobs.max_inner = Some 2 } block
        in
        Alcotest.(check bool) "fewer joins" true (limited < unrestricted);
        Alcotest.(check int) "limited matches oracle"
          (oracle ~knobs:{ Helpers.stable_knobs with O.Knobs.max_inner = Some 2 } block)
          limited);
  ]

let behaviour_tests =
  [
    t "each unordered pair enumerated once" (fun () ->
        let _, events, _ = run_enum (Helpers.chain 5) in
        let keys =
          List.map
            (fun (ev : O.Enumerator.join_event) ->
              ( Bitset.to_int ev.O.Enumerator.left.O.Memo.tables,
                Bitset.to_int ev.O.Enumerator.right.O.Memo.tables ))
            events
        in
        Alcotest.(check int) "no duplicates" (List.length keys)
          (List.length (List.sort_uniq compare keys)));
    t "events carry crossing predicates" (fun () ->
        let _, events, _ = run_enum (Helpers.chain 3) in
        List.iter
          (fun (ev : O.Enumerator.join_event) ->
            Alcotest.(check bool) "connected events have preds" true
              (ev.O.Enumerator.cartesian = (ev.O.Enumerator.preds = [])))
          events);
    t "result entry is the union" (fun () ->
        let _, events, _ = run_enum (Helpers.chain 4) in
        List.iter
          (fun (ev : O.Enumerator.join_event) ->
            Alcotest.(check bool) "union" true
              (Bitset.equal ev.O.Enumerator.result.O.Memo.tables
                 (Bitset.union ev.O.Enumerator.left.O.Memo.tables
                    ev.O.Enumerator.right.O.Memo.tables)))
          events);
    t "no cartesian events without the heuristic" (fun () ->
        let _, events, _ = run_enum (Helpers.chain 5) in
        Alcotest.(check bool) "none" true
          (List.for_all (fun ev -> not ev.O.Enumerator.cartesian) events));
    t "outer join blocks null side as outer" (fun () ->
        let quantifiers =
          [
            O.Quantifier.make 0 (Helpers.table ~rows:100.0 "a");
            O.Quantifier.make 1 (Helpers.table ~rows:100.0 "b");
          ]
        in
        let block =
          O.Query_block.make ~name:"oj" ~quantifiers
            ~preds:[ O.Pred.Eq_join (cr 0 "j1", cr 1 "j1") ]
            ~outer_joins:
              [ { O.Query_block.oj_preserved = Helpers.set [ 0 ]; oj_null = Helpers.set [ 1 ] } ]
            ()
        in
        let _, events, _ = run_enum block in
        match events with
        | [ ev ] ->
          (* Left = {0} (preserved) may be outer; right = {1} (null side)
             may not. *)
          Alcotest.(check bool) "preserved outer ok" true ev.O.Enumerator.left_outer_ok;
          Alcotest.(check bool) "null side blocked" false ev.O.Enumerator.right_outer_ok
        | _ -> Alcotest.fail "expected exactly one join");
    t "correlation dependency gates composites" (fun () ->
        (* c depends on a: {b,c} is never built; c joins only once a is
           present. *)
        let quantifiers =
          [
            O.Quantifier.make 0 (Helpers.table ~rows:100.0 "a");
            O.Quantifier.make 1 (Helpers.table ~rows:100.0 "b");
            O.Quantifier.make ~deps:(Helpers.set [ 0 ]) 2 (Helpers.table ~rows:100.0 "c");
          ]
        in
        let block =
          O.Query_block.make ~name:"dep" ~quantifiers
            ~preds:
              [
                O.Pred.Eq_join (cr 0 "j1", cr 1 "j1");
                O.Pred.Eq_join (cr 1 "j2", cr 2 "j2");
              ]
            ()
        in
        let _, events, memo = run_enum block in
        Alcotest.(check bool) "{1,2} never built" true
          (O.Memo.find_opt memo (Helpers.set [ 1; 2 ]) = None);
        Alcotest.(check bool) "some join involves c" true
          (List.exists
             (fun (ev : O.Enumerator.join_event) ->
               Bitset.mem 2 ev.O.Enumerator.result.O.Memo.tables)
             events));
    t "outer_allowed=false quantifier never on the outer side" (fun () ->
        let quantifiers =
          [
            O.Quantifier.make 0 (Helpers.table ~rows:100.0 "a");
            O.Quantifier.make ~outer_allowed:false 1 (Helpers.table ~rows:100.0 "b");
          ]
        in
        let block =
          O.Query_block.make ~name:"na" ~quantifiers
            ~preds:[ O.Pred.Eq_join (cr 0 "j1", cr 1 "j1") ]
            ()
        in
        let _, events, _ = run_enum block in
        match events with
        | [ ev ] ->
          Alcotest.(check bool) "left ok" true ev.O.Enumerator.left_outer_ok;
          Alcotest.(check bool) "blocked right" false ev.O.Enumerator.right_outer_ok
        | _ -> Alcotest.fail "expected one join");
    t "card-1 heuristic admits singleton cartesians only" (fun () ->
        (* One-row table t0 with no predicate to t2. *)
        let one_row =
          Qopt_catalog.Table.make ~rows:1.0 ~name:"one"
            [ Qopt_catalog.Column.make ~rows:1.0 "j1" ]
        in
        let quantifiers =
          [
            O.Quantifier.make 0 one_row;
            O.Quantifier.make 1 (Helpers.table ~rows:100.0 "b");
          ]
        in
        let block = O.Query_block.make ~name:"c1" ~quantifiers ~preds:[] () in
        let without, _, _ = run_enum ~knobs:Helpers.stable_knobs block in
        let with_h, events, _ = run_enum ~knobs:O.Knobs.default block in
        Alcotest.(check int) "no joins without heuristic" 0 without;
        Alcotest.(check int) "cartesian admitted" 1 with_h;
        Alcotest.(check bool) "flagged cartesian" true
          (List.for_all (fun ev -> ev.O.Enumerator.cartesian) events));
  ]

(* Random join graphs checked against the oracle. *)
let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* extra_edges = small_list (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let* max_inner = int_range 1 3 in
    let* left_deep = bool in
    return (n, extra_edges, max_inner, left_deep))

let block_of_graph (n, extra_edges, _, _) =
  let quantifiers =
    List.init n (fun i -> O.Quantifier.make i (Helpers.table ~rows:(100.0 *. float_of_int (i + 1)) (Printf.sprintf "g%d" i)))
  in
  (* A spanning chain keeps the graph connected; extra edges add cycles. *)
  let chain_preds =
    List.init (n - 1) (fun i -> O.Pred.Eq_join (cr i "j1", cr (i + 1) "j1"))
  in
  let extra_preds =
    List.filter_map
      (fun (a, b) ->
        if a <> b then Some (O.Pred.Eq_join (cr (min a b) "j2", cr (max a b) "j2"))
        else None)
      extra_edges
  in
  O.Query_block.make ~name:"rand" ~quantifiers ~preds:(chain_preds @ extra_preds) ()

let oracle_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"enumerator matches brute-force oracle" ~count:60 gen_graph
       (fun ((_, _, max_inner, left_deep) as g) ->
         let block = block_of_graph g in
         let knobs =
           {
             Helpers.stable_knobs with
             O.Knobs.max_inner = Some max_inner;
             left_deep_only = left_deep;
           }
         in
         let joins, _, _ = run_enum ~knobs block in
         joins = oracle ~knobs block))

(* ------------------------------------------------------------------ *)
(* Differential suite: the adjacency-indexed enumerator vs the naive    *)
(* reference loop (test/ref_enumerator.ml).  COTE correctness depends   *)
(* on the enumerator producing exactly the optimizer's joins, so the    *)
(* index must be behaviour-preserving join-for-join.                    *)
(* ------------------------------------------------------------------ *)

module W = Qopt_workloads

(* A join event reduced to comparable data: table sets, the crossing
   predicates (rendered, order-sensitive — merge-order derivation reads
   them in list order) and their list indices, and the feasibility
   flags. *)
let event_key (ev : O.Enumerator.join_event) =
  ( Bitset.to_int ev.O.Enumerator.left.O.Memo.tables,
    Bitset.to_int ev.O.Enumerator.right.O.Memo.tables,
    List.map (Format.asprintf "%a" O.Pred.pp) ev.O.Enumerator.preds,
    ev.O.Enumerator.pred_ids,
    ev.O.Enumerator.cartesian,
    ev.O.Enumerator.left_outer_ok,
    ev.O.Enumerator.right_outer_ok )

(* Run one enumerator over a fresh MEMO with a recording consumer. *)
let trace run_fn ~knobs block =
  let memo = O.Memo.create block in
  let events = ref [] in
  let entries_seen = ref [] in
  let consumer =
    {
      O.Enumerator.on_entry =
        (fun e -> entries_seen := Bitset.to_int e.O.Memo.tables :: !entries_seen);
      O.Enumerator.on_join = (fun ev -> events := event_key ev :: !events);
    }
  in
  run_fn ~knobs ~card_of:(O.Memo.card_of memo O.Cardinality.Full) memo consumer;
  ( List.rev !events,
    List.rev !entries_seen,
    (O.Memo.stats memo).O.Memo.joins_enumerated,
    O.Memo.n_entries memo )

let new_run ~knobs ~card_of memo consumer =
  O.Enumerator.run ~knobs ~card_of memo consumer

let ref_run ~knobs ~card_of memo consumer =
  Ref_enumerator.run ~knobs ~card_of memo consumer

(* Every block of every query in the seeded workloads (children included —
   subquery blocks are enumerated separately). *)
let workload_blocks =
  lazy
    (let schema = W.Warehouse.schema ~partitioned:false in
     let workloads =
       [
         W.Synthetic.linear ~partitioned:false;
         W.Synthetic.star ~partitioned:false;
         W.Random_gen.generate ~seed:42 ~count:20 ~complexity:8 ~schema ();
         W.Tpch.all ~partitioned:false;
       ]
     in
     List.concat_map
       (fun (wl : W.Workload.t) ->
         List.concat_map
           (fun (q : W.Workload.query) ->
             let blocks = ref [] in
             O.Query_block.iter_blocks
               (fun b ->
                 blocks := (wl.W.Workload.w_name ^ "/" ^ q.W.Workload.q_name, b) :: !blocks)
               q.W.Workload.block;
             List.rev !blocks)
           wl.W.Workload.queries)
       workloads)

let knob_sets =
  [
    ("default", O.Knobs.default);
    ("stable", Helpers.stable_knobs);
    ("full-bushy-stable", Helpers.full_bushy_stable);
    ("left-deep", O.Knobs.left_deep);
    ("permissive", O.Knobs.permissive O.Knobs.default);
  ]

(* Reference COTE estimate: Estimator.estimate re-implemented on top of the
   naive reference loop, including the permissive fallback and both-passes
   accounting. *)
let ref_estimate ~knobs env block =
  let est_block b =
    let run_pass knobs =
      let memo = O.Memo.create b in
      let acc = Cote.Accumulate.create env memo in
      Ref_enumerator.run ~knobs ~card_of:(Cote.Accumulate.card_of acc) memo
        (Cote.Accumulate.consumer acc);
      (memo, acc)
    in
    let first = run_pass knobs in
    let passes =
      let memo, _ = first in
      if
        O.Memo.find_opt memo (O.Query_block.all_tables b) = None
        && O.Query_block.n_quantifiers b > 1
      then [ first; run_pass (O.Knobs.permissive knobs) ]
      else [ first ]
    in
    let joins, nljn, mgjn, hsjn, scans, entries =
      List.fold_left
        (fun (j, n, m, h, s, e) (memo, acc) ->
          let counts = Cote.Accumulate.counts acc in
          ( j + (O.Memo.stats memo).O.Memo.joins_enumerated,
            n + counts.O.Memo.nljn,
            m + counts.O.Memo.mgjn,
            h + counts.O.Memo.hsjn,
            s + Cote.Accumulate.scan_plans acc,
            e + O.Memo.n_entries memo ))
        (0, 0, 0, 0, 0, 0) passes
    in
    (joins, nljn, mgjn, hsjn, scans, entries)
  in
  let total = ref (0, 0, 0, 0, 0, 0) in
  O.Query_block.iter_blocks
    (fun b ->
      let j, n, m, h, s, e = est_block b in
      let j0, n0, m0, h0, s0, e0 = !total in
      total := (j0 + j, n0 + n, m0 + m, h0 + h, s0 + s, e0 + e))
    block;
  !total

let differential_tests =
  [
    t "indexed enumerator = naive loop: identical event streams (all workloads)"
      (fun () ->
        let checked = ref 0 in
        List.iter
          (fun (name, block) ->
            List.iter
              (fun (kname, knobs) ->
                let ev_new, en_new, j_new, m_new = trace new_run ~knobs block in
                let ev_ref, en_ref, j_ref, m_ref = trace ref_run ~knobs block in
                incr checked;
                if j_new <> j_ref then
                  Alcotest.failf "%s [%s]: joins_enumerated %d <> %d" name
                    kname j_new j_ref;
                if m_new <> m_ref then
                  Alcotest.failf "%s [%s]: entries %d <> %d" name kname m_new
                    m_ref;
                if en_new <> en_ref then
                  Alcotest.failf "%s [%s]: entry creation sequences differ"
                    name kname;
                if ev_new <> ev_ref then
                  Alcotest.failf "%s [%s]: join event streams differ" name
                    kname)
              knob_sets)
          (Lazy.force workload_blocks);
        Alcotest.(check bool) "covered a real corpus" true (!checked > 300));
    t "COTE estimates unchanged by the adjacency index (all workloads)"
      (fun () ->
        List.iter
          (fun (env_name, env) ->
            List.iter
              (fun (name, block) ->
                List.iter
                  (fun (kname, knobs) ->
                    let e = Cote.Estimator.estimate ~knobs env block in
                    let j, n, m, h, s, en = ref_estimate ~knobs env block in
                    let ck what a b =
                      if a <> b then
                        Alcotest.failf "%s [%s/%s]: %s %d <> reference %d" name
                          env_name kname what a b
                    in
                    ck "joins" e.Cote.Estimator.joins j;
                    ck "nljn" e.Cote.Estimator.nljn n;
                    ck "mgjn" e.Cote.Estimator.mgjn m;
                    ck "hsjn" e.Cote.Estimator.hsjn h;
                    ck "scan_plans" e.Cote.Estimator.scan_plans s;
                    ck "entries" e.Cote.Estimator.entries en)
                  [ ("default", O.Knobs.default); ("stable", Helpers.stable_knobs) ])
              (* Top-level queries only: estimate recurses into children
                 itself. *)
              (List.concat_map
                 (fun (wl : W.Workload.t) ->
                   List.map
                     (fun (q : W.Workload.query) ->
                       ( wl.W.Workload.w_name ^ "/" ^ q.W.Workload.q_name,
                         q.W.Workload.block ))
                     wl.W.Workload.queries)
                 [
                   W.Synthetic.star ~partitioned:false;
                   W.Tpch.all ~partitioned:false;
                 ]))
          [ ("serial", O.Env.serial); ("parallel", O.Env.parallel ~nodes:4) ]);
    t "adjacency gate skips pairs corpus-wide (pairs_considered drops)"
      (fun () ->
        let consumer =
          { O.Enumerator.on_entry = (fun _ -> ()); on_join = (fun _ -> ()) }
        in
        let naive_pairs knobs block =
          let pairs = ref 0 in
          let memo = O.Memo.create block in
          Ref_enumerator.run
            ~on_pair:(fun () -> incr pairs)
            ~knobs
            ~card_of:(O.Memo.card_of memo O.Cardinality.Full)
            memo consumer;
          !pairs
        in
        let indexed_pairs knobs block =
          (* Via the metrics layer: the gate must fire before the counter. *)
          let reg = Qopt_obs.Registry.default in
          let snap () =
            Qopt_obs.Registry.counter_value reg "enumerator.pairs_considered"
          in
          let before = snap () in
          Qopt_obs.Control.with_enabled true (fun () ->
              let memo = O.Memo.create block in
              O.Enumerator.run ~knobs
                ~card_of:(O.Memo.card_of memo O.Cardinality.Full)
                memo consumer);
          snap () - before
        in
        List.iter
          (fun (kname, knobs) ->
            let naive, indexed =
              List.fold_left
                (fun (a, b) (_, block) ->
                  (a + naive_pairs knobs block, b + indexed_pairs knobs block))
                (0, 0)
                (Lazy.force workload_blocks)
            in
            let ratio = float_of_int indexed /. float_of_int naive in
            Format.printf
              "pairs_considered [%s]: naive %d -> indexed %d (%.1f%%)@." kname
              naive indexed (100.0 *. ratio);
            Alcotest.(check bool)
              (Printf.sprintf "[%s] %d -> %d" kname naive indexed)
              true
              (indexed < naive && ratio <= 0.9))
          [ ("default", O.Knobs.default); ("stable", Helpers.stable_knobs) ])
  ]

(* Plan_gen.partition_groups was rewritten from a quadratic nested recursion
   to an accumulator pass; the reference below is the old implementation
   verbatim.  Both must group identically — same group order, same winner
   per group, same strict-< tie behaviour. *)
let reference_partition_groups equiv plans =
  List.fold_left
    (fun groups (p : O.Plan.t) ->
      let rec place = function
        | [] -> [ (p.O.Plan.partition, p) ]
        | ((part, best) as g) :: rest ->
          let same =
            match (part, p.O.Plan.partition) with
            | None, None -> true
            | Some a, Some b -> O.Partition_prop.equal_under equiv a b
            | None, Some _ | Some _, None -> false
          in
          if same then
            if p.O.Plan.cost < best.O.Plan.cost then (part, p) :: rest
            else g :: rest
          else g :: place rest
      in
      place groups)
    [] plans

let partition_groups_diff =
  t "partition_groups matches the quadratic reference on random plan lists"
    (fun () ->
      let rng = Qopt_util.Rng.create 20260807 in
      let partitions =
        [|
          None;
          Some (O.Partition_prop.hash [ cr 0 "j1" ]);
          Some (O.Partition_prop.hash [ cr 1 "j1" ]);
          Some (O.Partition_prop.hash [ cr 0 "j2" ]);
          Some (O.Partition_prop.range [ cr 0 "j1" ]);
          Some (O.Partition_prop.hash [ cr 0 "j1"; cr 0 "j2" ]);
        |]
      in
      (* One equivalence so distinct colrefs can still collide as keys. *)
      let equiv = O.Equiv.add_eq O.Equiv.empty (cr 0 "j1") (cr 1 "j1") in
      let plan partition cost =
        {
          O.Plan.op = O.Plan.Seq_scan 0;
          tables = Bitset.of_list [ 0 ];
          order = [];
          partition;
          card = 10.0;
          cost;
        }
      in
      for _trial = 1 to 200 do
        let n = Qopt_util.Rng.int rng 24 in
        let plans =
          List.init n (fun _ ->
              plan
                (Qopt_util.Rng.pick rng partitions)
                (* Few distinct costs, so cost ties actually occur. *)
                (float_of_int (Qopt_util.Rng.int rng 5)))
        in
        List.iter
          (fun eq ->
            let expected = reference_partition_groups eq plans in
            let actual = O.Plan_gen.partition_groups eq plans in
            if expected <> actual then
              Alcotest.failf "groups diverge on a %d-plan list" n)
          [ O.Equiv.empty; equiv ]
      done)

let suite =
  formula_tests @ behaviour_tests @ [ oracle_prop ] @ differential_tests
  @ [ partition_groups_diff ]
