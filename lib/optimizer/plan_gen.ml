module Bitset = Qopt_util.Bitset
module Table = Qopt_catalog.Table
module Obs = Qopt_obs

(* Process-wide plan-generation metrics (no-ops unless Qopt_obs is
   enabled). *)
let m_nljn = Obs.Registry.counter Obs.Registry.default "plan_gen.plans.nljn"

let m_mgjn = Obs.Registry.counter Obs.Registry.default "plan_gen.plans.mgjn"

let m_hsjn = Obs.Registry.counter Obs.Registry.default "plan_gen.plans.hsjn"

let m_scan = Obs.Registry.counter Obs.Registry.default "plan_gen.plans.scan"

let m_cost = Obs.Registry.counter Obs.Registry.default "plan_gen.cost_calls"

let m_of_method = function
  | Join_method.NLJN -> m_nljn
  | Join_method.MGJN -> m_mgjn
  | Join_method.HSJN -> m_hsjn

type t = {
  env : Env.t;
  params : Cost_model.params;
  memo : Memo.t;
  sel : Cardinality.ctx;
  block : Query_block.t;
  instr : Instrument.t;
  cost_bound : float option;
  views : Mat_view.t list;
  mutable prunable : int;
  mutable mv_tests : int;
  mutable mv_matches : int;
}

let create ?cost_bound ?(views = []) env memo instr =
  {
    env;
    params = Cost_model.params env;
    memo;
    sel = Memo.selectivity memo Cardinality.Full;
    block = Memo.block memo;
    instr;
    cost_bound;
    views;
    prunable = 0;
    mv_tests = 0;
    mv_matches = 0;
  }

let bound_prunable t = t.prunable

let mv_tests t = t.mv_tests

let mv_matches t = t.mv_matches

let card_of t entry =
  Instrument.card t.instr (fun () -> Memo.card_of t.memo Cardinality.Full entry)

let track_bound t (p : Plan.t) =
  match t.cost_bound with
  | Some b when p.Plan.cost > b -> t.prunable <- t.prunable + 1
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Scan planning (eager order policy at the leaves, Section 4 point 1) *)
(* ------------------------------------------------------------------ *)

let default_partition env block q =
  if Env.is_parallel env then
    match Interesting.physical_partition block q with
    | Some p -> Some p
    | None ->
      (* Unpartitioned tables are treated as hash-partitioned on their first
         column so that every parallel plan carries a partition value; a
         zero-column table (a degenerate catalog entry) has no column to
         hash on and stays unpartitioned. *)
      let table = (Query_block.quantifier block q).Quantifier.table in
      (match Table.column_names table with
      | [] -> None
      | col :: _ -> Some (Partition_prop.hash [ Colref.make q col ]))
  else None

let ptag = function
  | Partition_prop.Hash -> 0
  | Partition_prop.Range -> 1

(* Distinct partition values among a plan list, with the cheapest plan
   carrying each; serial mode yields the single [None] group.  Each plan's
   partition canonicalizes (and interns) once via [key_of]; group matching
   is integer equality, so a plan walks the group list without any further
   structural comparison.  [key_of None] must be negative and [key_of
   (Some p)] non-negative — group identity follows [Partition_prop.
   equal_under]. *)
let partition_groups_keyed key_of plans =
  List.fold_left
    (fun groups (p : Plan.t) ->
      let k = key_of p.Plan.partition in
      let rec place acc = function
        | [] -> List.rev ((k, p.Plan.partition, p) :: acc)
        | ((k', part, (best : Plan.t)) as g) :: rest ->
          if k = k' then
            if p.Plan.cost < best.Plan.cost then
              List.rev_append acc ((k', part, p) :: rest)
            else List.rev_append acc (g :: rest)
          else place (g :: acc) rest
      in
      place [] groups)
    [] plans

(* The interned partition key of a plan's partition under the join's
   equivalence: canonical columns hash-consed in the MEMO's property table,
   kind folded into the low bit. *)
let memo_part_key t equiv = function
  | None -> Prop_id.none
  | Some (p : Partition_prop.t) ->
    (2 * Memo.intern_cols t.memo (Partition_prop.canonical equiv p))
    + ptag p.Partition_prop.kind

(* The public variant keeps its structural signature (it is differentially
   tested standalone): a throwaway intern table scopes the ids. *)
let partition_groups equiv plans =
  let tbl = Prop_id.create () in
  let key_of = function
    | None -> Prop_id.none
    | Some (p : Partition_prop.t) ->
      (2 * Prop_id.id_of_cols tbl (Partition_prop.canonical equiv p))
      + ptag p.Partition_prop.kind
  in
  List.map (fun (_, part, best) -> (part, best)) (partition_groups_keyed key_of plans)

let scan_plans t (entry : Memo.entry) ~card =
  let q = Bitset.min_elt entry.Memo.tables in
  let table = (Query_block.quantifier t.block q).Quantifier.table in
  let partition = default_partition t.env t.block q in
  let base =
    {
      Plan.op = Plan.Seq_scan q;
      tables = entry.Memo.tables;
      order = [];
      partition;
      card;
      cost = Cost_model.seq_scan t.params table;
    }
  in
  let sel = card /. Float.max 1.0 table.Table.row_count in
  let eager =
    List.map
      (fun (o : Order_prop.t) ->
        let cols = Order_prop.canonical Equiv.empty o in
        let col_names = List.map (fun (c : Colref.t) -> c.Colref.col) cols in
        match Table.index_providing table col_names with
        | Some idx ->
          {
            Plan.op = Plan.Index_scan (q, idx);
            tables = entry.Memo.tables;
            order = List.map (fun col -> Colref.make q col) idx.Qopt_catalog.Index.columns;
            partition;
            card;
            cost = Cost_model.index_scan t.params table ~sel;
          }
        | None ->
          {
            Plan.op = Plan.Sort base;
            tables = entry.Memo.tables;
            order = cols;
            partition;
            card;
            cost =
              base.Plan.cost
              +. Cost_model.sort t.params ~rows:card
                   ~width:(float_of_int (Table.row_width table));
          })
      (Interesting.orders_for_table t.block q)
  in
  (* Access-path selection: indexes whose leading column is constrained by
     an equality predicate give cheap selective access. *)
  let filter_scans =
    List.map
      (fun (idx : Qopt_catalog.Index.t) ->
        {
          Plan.op = Plan.Index_scan (q, idx);
          tables = entry.Memo.tables;
          order = List.map (fun col -> Colref.make q col) idx.Qopt_catalog.Index.columns;
          partition;
          card;
          cost = Cost_model.index_scan t.params table ~sel;
        })
      (Interesting.filter_indexes t.block q)
  in
  let plans = (base :: eager) @ filter_scans in
  let n_plans = List.length plans in
  Obs.Counter.add m_scan n_plans;
  Obs.Counter.add m_cost n_plans;
  (Memo.stats t.memo).Memo.scan_plans <-
    (Memo.stats t.memo).Memo.scan_plans + n_plans;
  Instrument.save t.instr (fun () ->
      List.iter (Memo.insert_plan t.memo entry) plans)


(* ------------------------------------------------------------------ *)
(* Join planning                                                       *)
(* ------------------------------------------------------------------ *)

(* Partition bookkeeping for one join plan in parallel mode: the result
   carries the outer's partition; the inner pays a repartition or broadcast
   when it is not collocated with the join columns.  [jc] (the first join
   column) and [wi] (the inner's row width) are per-direction constants
   computed once by [gen_direction]. *)
let parallel_adjust t equiv ~jc ~wi ~(outer : Plan.t) ~(inner : Plan.t) =
  if not (Env.is_parallel t.env) then (None, 0.0)
  else begin
    let keyed plan =
      match (plan.Plan.partition, jc) with
      | Some part, Some c -> Partition_prop.keyed_on equiv part c
      | Some _, None | None, _ -> false
    in
    let transfer =
      if keyed outer && keyed inner then 0.0
      else if keyed outer then
        Cost_model.repartition t.params ~rows:inner.Plan.card ~width:wi
      else Cost_model.broadcast t.params ~rows:inner.Plan.card ~width:wi
    in
    (outer.Plan.partition, transfer)
  end

(* Builds one join plan and the interned id of its normalized order — the
   signature work [Memo.insert_plan] would otherwise redo per insertion.
   The memoized widths [wo]/[wi]/[wout] (outer/inner/output table sets) are
   handed to the cost model. *)
let join_plan t equiv ~ctx ?(probe = None) ~jc ~wo ~wi ~wout ~method_
    ~(outer : Plan.t) ~(inner : Plan.t) ~preds ~out_card ~order ~sort_outer
    ~sort_inner () =
  let partition, transfer = parallel_adjust t equiv ~jc ~wi ~outer ~inner in
  Obs.Counter.incr m_cost;
  let cost =
    match method_ with
    | Join_method.NLJN ->
      Cost_model.nljn t.params t.block ~ctx ~probe ~width_outer:wo
        ~width_inner:wi ~width_out:wout ~outer ~inner ~out_card ()
    | Join_method.MGJN ->
      Cost_model.mgjn t.params t.block ~ctx ~width_outer:wo ~width_inner:wi
        ~width_out:wout ~outer ~inner ~out_card ~sort_outer ~sort_inner ()
    | Join_method.HSJN ->
      Cost_model.hsjn t.params t.block ~ctx ~width_inner:wi ~width_out:wout
        ~outer ~inner ~out_card ()
  in
  let p =
    {
      Plan.op = Plan.Join (method_, outer, inner, preds);
      tables = Bitset.union outer.Plan.tables inner.Plan.tables;
      order;
      partition;
      card = out_card;
      cost = cost +. transfer;
    }
  in
  track_bound t p;
  (p, Memo.intern_cols t.memo (Equiv.normalize_cols equiv order))

(* The Section 4 repartitioning heuristic: triggered when no kept plan of
   either input is partitioned on a join column. *)
let repart_heuristic_triggers t equiv ~preds ~x_plans ~(y : Memo.entry) =
  Env.is_parallel t.env && preds <> []
  &&
  let join_cols =
    List.concat_map
      (fun p ->
        match Pred.join_cols p with Some (l, r) -> [ l; r ] | None -> [])
      preds
  in
  let keyed (plan : Plan.t) =
    match plan.Plan.partition with
    | None -> false
    | Some part -> List.exists (Partition_prop.keyed_on equiv part) join_cols
  in
  not (List.exists keyed x_plans || List.exists keyed (Memo.plans y))

let repart_variant t equiv ~ctx ~jc ~wo ~wi ~wout ~method_ ~(x : Memo.entry)
    ~(y : Memo.entry) ~preds ~out_card ~merge_cols =
  match (Memo.best_plan x, Memo.best_plan y) with
  | Some bx, Some by ->
    Option.map
      (fun c ->
        let part = Partition_prop.hash [ Equiv.repr equiv c ] in
        let transfer =
          Cost_model.repartition t.params ~rows:bx.Plan.card ~width:wo
          +. Cost_model.repartition t.params ~rows:by.Plan.card ~width:wi
        in
        (* Hash repartitioning interleaves streams: order survives only if
           re-sorted, which MGJN does as part of the join. *)
        let order, sort_flags =
          match method_ with
          | Join_method.MGJN -> (merge_cols, (true, true))
          | Join_method.NLJN | Join_method.HSJN -> ([], (false, false))
        in
        let sort_outer, sort_inner = sort_flags in
        let base, norm =
          join_plan t equiv ~ctx ~jc ~wo ~wi ~wout ~method_ ~outer:bx ~inner:by
            ~preds ~out_card ~order ~sort_outer ~sort_inner ()
        in
        let p = { base with Plan.partition = Some part; cost = base.Plan.cost +. transfer } in
        track_bound t p;
        (p, norm))
      jc
  | None, _ | _, None -> None


let gen_direction t event ~(x : Memo.entry) ~(y : Memo.entry) =
  let j = event.Enumerator.result in
  let preds = event.Enumerator.preds in
  let stats = Memo.stats t.memo in
  match Memo.best_plan y with
  | None -> []
  | Some inner_best ->
    (* The logical properties of the join — equivalences, output
       cardinality and the predicate-dependent cost inputs — are computed
       once here, shared by every generated plan, and timed in the
       cardinality bucket.  The histogram reads come from the MEMO's
       selectivity context. *)
    let equiv, out_card, ctx, probe =
      Instrument.card t.instr (fun () ->
          let ctx =
            Cost_model.join_context
              ~sel:(t.sel, event.Enumerator.pred_ids)
              t.params t.block ~preds ~inner_card:inner_best.Plan.card
          in
          let probe =
            Cost_model.inner_probe_cost ~sel:t.sel t.params t.block ~preds
              ~inner_tables:y.Memo.tables
          in
          (Memo.equiv_of t.memo j, Memo.card_of t.memo Cardinality.Full j, ctx, probe))
    in
    (* Per-direction constants, shared by every generated plan: the kept
       outer plans (one list materialization instead of four), their
       partition groups (once instead of twice), the memoized row widths,
       and the first join column. *)
    let x_plans = Memo.plans x in
    let repart = repart_heuristic_triggers t equiv ~preds ~x_plans ~y in
    let groups = partition_groups_keyed (memo_part_key t equiv) x_plans in
    let wo = Memo.width_of t.memo x in
    let wi = Memo.width_of t.memo y in
    let wout = Memo.width_of t.memo j in
    let jc =
      List.find_map
        (fun p -> match Pred.join_cols p with Some (l, _) -> Some l | None -> None)
        preds
    in
    (* NLJN: full propagation of the outer's order, one plan per kept outer
       plan.  For top-N queries, a pipelinable inner variant is additionally
       tried when the cheapest inner is blocking — pipelinable join plans
       must exist in the MEMO for the LIMIT to exploit. *)
    let pipe_inner =
      if t.block.Query_block.first_n <> None && not (Plan.pipelinable inner_best)
      then Memo.best_pipelinable_plan t.memo y
      else None
    in
    let nljn_plans =
      Instrument.nljn t.instr (fun () ->
          let base =
            List.concat_map
              (fun (po : Plan.t) ->
                join_plan t equiv ~ctx ~probe ~jc ~wo ~wi ~wout
                  ~method_:Join_method.NLJN ~outer:po ~inner:inner_best ~preds
                  ~out_card ~order:po.Plan.order ~sort_outer:false
                  ~sort_inner:false ()
                :: (match pipe_inner with
                   | Some inner when Plan.pipelinable po ->
                     [
                       join_plan t equiv ~ctx ~probe ~jc ~wo ~wi ~wout
                         ~method_:Join_method.NLJN ~outer:po ~inner ~preds
                         ~out_card ~order:po.Plan.order ~sort_outer:false
                         ~sort_inner:false ();
                     ]
                   | Some _ | None -> []))
              x_plans
          in
          let extra =
            if repart then
              Option.to_list
                (repart_variant t equiv ~ctx ~jc ~wo ~wi ~wout
                   ~method_:Join_method.NLJN ~x ~y ~preds ~out_card
                   ~merge_cols:[])
            else []
          in
          base @ extra)
    in
    let n_nljn = List.length nljn_plans in
    Memo.counts_add stats.Memo.generated Join_method.NLJN n_nljn;
    Obs.Counter.add (m_of_method Join_method.NLJN) n_nljn;
    (* MGJN: partial propagation — the canonical merge order plus covering
       outer orders. *)
    let mgjn_plans =
      if preds = [] then []
      else
        Instrument.mgjn t.instr (fun () ->
            match Interesting.merge_order equiv preds with
            | None -> []
            | Some mo ->
              let mo_cols = Order_prop.canonical equiv mo in
              let inner_sorted = Memo.best_plan_satisfying t.memo y mo in
              let inner, sort_inner =
                match inner_sorted with
                | Some p -> (p, false)
                | None -> (inner_best, true)
              in
              let covering =
                List.filter
                  (fun (po : Plan.t) ->
                    po.Plan.order <> []
                    && Order_prop.satisfied_by equiv mo po.Plan.order)
                  x_plans
              in
              let natural =
                List.map
                  (fun (po : Plan.t) ->
                    join_plan t equiv ~ctx ~jc ~wo ~wi ~wout
                      ~method_:Join_method.MGJN ~outer:po ~inner ~preds
                      ~out_card ~order:po.Plan.order ~sort_outer:false
                      ~sort_inner ())
                  covering
              in
              (* Sort-enforced merge joins (eager policy): one per distinct
                 outer partition lacking a natural covering plan.  Coverage
                 is integer membership on interned partition keys. *)
              let covering_keys =
                List.map
                  (fun (po : Plan.t) -> memo_part_key t equiv po.Plan.partition)
                  covering
              in
              let enforced =
                List.filter_map
                  (fun (k, _, (cheapest : Plan.t)) ->
                    if List.mem k covering_keys then None
                    else
                      Some
                        (join_plan t equiv ~ctx ~jc ~wo ~wi ~wout
                           ~method_:Join_method.MGJN ~outer:cheapest ~inner
                           ~preds ~out_card ~order:mo_cols ~sort_outer:true
                           ~sort_inner ()))
                  groups
              in
              let extra =
                if repart then
                  Option.to_list
                    (repart_variant t equiv ~ctx ~jc ~wo ~wi ~wout
                       ~method_:Join_method.MGJN ~x ~y ~preds ~out_card
                       ~merge_cols:mo_cols)
                else []
              in
              natural @ enforced @ extra)
    in
    let n_mgjn = List.length mgjn_plans in
    Memo.counts_add stats.Memo.generated Join_method.MGJN n_mgjn;
    Obs.Counter.add (m_of_method Join_method.MGJN) n_mgjn;
    (* HSJN: no order propagation — a single unordered plan. *)
    let hsjn_plans =
      Instrument.hsjn t.instr (fun () ->
          (* One unordered plan per distinct outer partition value. *)
          let base =
            List.map
              (fun (_, _, (cheapest : Plan.t)) ->
                join_plan t equiv ~ctx ~jc ~wo ~wi ~wout
                  ~method_:Join_method.HSJN ~outer:cheapest ~inner:inner_best
                  ~preds ~out_card ~order:[] ~sort_outer:false ~sort_inner:false
                  ())
              groups
          in
          let extra =
            if repart then
              Option.to_list
                (repart_variant t equiv ~ctx ~jc ~wo ~wi ~wout
                   ~method_:Join_method.HSJN ~x ~y ~preds ~out_card
                   ~merge_cols:[])
            else []
          in
          base @ extra)
    in
    let n_hsjn = List.length hsjn_plans in
    Memo.counts_add stats.Memo.generated Join_method.HSJN n_hsjn;
    Obs.Counter.add (m_of_method Join_method.HSJN) n_hsjn;
    nljn_plans @ mgjn_plans @ hsjn_plans

let on_join t (event : Enumerator.join_event) =
  let plans_lr =
    if event.Enumerator.left_outer_ok then
      gen_direction t event ~x:event.Enumerator.left ~y:event.Enumerator.right
    else []
  in
  let plans_rl =
    if event.Enumerator.right_outer_ok then
      gen_direction t event ~x:event.Enumerator.right ~y:event.Enumerator.left
    else []
  in
  Instrument.save t.instr (fun () ->
      List.iter
        (fun (p, norm) -> Memo.insert_plan ~norm t.memo event.Enumerator.result p)
        (plans_lr @ plans_rl))

(* Materialized-view matching: every new MEMO entry is tested against each
   registered view; a hit contributes a substitute scan of the materialized
   result (Section 6.2). *)
let try_views t (entry : Memo.entry) =
  if t.views <> [] then begin
    let card = card_of t entry in
    Instrument.mv t.instr (fun () ->
        List.iter
          (fun view ->
            t.mv_tests <- t.mv_tests + 1;
            if Mat_view.matches view t.block entry.Memo.tables then begin
              t.mv_matches <- t.mv_matches + 1;
              let plan =
                {
                  Plan.op = Plan.Mv_scan view.Mat_view.mv_name;
                  tables = entry.Memo.tables;
                  order = [];
                  partition =
                    (if Env.is_parallel t.env then
                       default_partition t.env t.block
                         (Qopt_util.Bitset.min_elt entry.Memo.tables)
                     else None);
                  card;
                  cost = Mat_view.substitute_cost t.params view;
                }
              in
              Memo.insert_plan t.memo entry plan
            end)
          t.views)
  end

(* Cardinalities are computed ahead of the scan and view buckets so the
   card bucket times them without nesting inside another bucket. *)
let on_entry t (entry : Memo.entry) =
  if Bitset.cardinal entry.Memo.tables = 1 then begin
    let card = card_of t entry in
    Instrument.scan t.instr (fun () -> scan_plans t entry ~card)
  end;
  try_views t entry

let consumer t =
  { Enumerator.on_entry = on_entry t; Enumerator.on_join = on_join t }

(* ------------------------------------------------------------------ *)
(* Parallel level flush                                                *)
(* ------------------------------------------------------------------ *)

let m_parallel_levels =
  Obs.Registry.counter Obs.Registry.default "optimizer.parallel_levels"

type runner = int -> (int -> unit) -> unit

(* A task's generator: the parent's environment, context and instrument
   (its spans record on the running domain's shard slot), with the
   counters it bumps — MEMO view, bound-prunable — starting at zero. *)
let fork t = { t with memo = Memo.fork t.memo; prunable = 0 }

let absorb t child =
  Memo.absorb t.memo child.memo;
  t.prunable <- t.prunable + child.prunable

(* Below these sizes a level is generated serially: waking a helper and
   meeting at the barrier costs more than the helper can take over.  On
   3-6-table warehouse queries with one helper (2 vCPUs), splitting levels
   from 2 events on slowed 3-table compiles by up to 13%; from 8 events on,
   no size was more than 1% slower and 6-table compiles ran 1.45-1.56x
   faster. *)
let min_split_events = 8

let min_split_entries = 2

let flush t ~run (events : Enumerator.join_event array) =
  (* Group the events by result entry: groups in order of first
     appearance (the entries' creation order), events in serial order
     within a group. *)
  let ids = Hashtbl.create 64 in
  let owner =
    Array.map
      (fun (ev : Enumerator.join_event) ->
        let key = Bitset.to_int ev.Enumerator.result.Memo.tables in
        match Hashtbl.find_opt ids key with
        | Some g -> g
        | None ->
          let g = Hashtbl.length ids in
          Hashtbl.add ids key g;
          g)
      events
  in
  let n = Hashtbl.length ids in
  if Array.length events < min_split_events || n < min_split_entries then
    Array.iter (on_join t) events
  else begin
    let groups = Array.make n [] in
    for i = Array.length events - 1 downto 0 do
      groups.(owner.(i)) <- events.(i) :: groups.(owner.(i))
    done;
    let forks = Array.init n (fun _ -> fork t) in
    run n (fun g -> List.iter (on_join forks.(g)) groups.(g));
    Array.iter (absorb t) forks;
    Obs.Counter.incr m_parallel_levels
  end
