module Bitset = Qopt_util.Bitset
module Timer = Qopt_util.Timer
module Obs = Qopt_obs

(* Process-wide compile metrics (no-ops unless Qopt_obs is enabled). *)
let m_queries = Obs.Registry.counter Obs.Registry.default "optimizer.queries"

let m_compile_s = Obs.Registry.histogram Obs.Registry.default "optimizer.compile_s"

let m_span = Obs.Registry.span Obs.Registry.default "optimizer.compile"

let m_memo_bytes = Obs.Registry.gauge Obs.Registry.default "optimizer.memo_bytes"

let m_retries = Obs.Registry.counter Obs.Registry.default "optimizer.retries"

let m_alloc = Obs.Registry.counter Obs.Registry.default "plan_gen.alloc_bytes"

type result = {
  best : Plan.t option;
  elapsed : float;
  joins : int;
  generated : Memo.counts;
  scan_plans : int;
  kept : int;
  entries : int;
  pruned : int;
  breakdown : Instrument.snapshot;
  memo_bytes : float;
  mv_tests : int;
  mv_matches : int;
}

(* Final SORT / GROUP BY operators on top of the winning join plan.  Their
   planning cost is negligible (two group-by plans, one sort — part of the
   "other" slice of Figure 2), but they make [best] a complete plan. *)
let finish env block (plan : Plan.t) =
  let params = Cost_model.params env in
  let equiv = Equiv.of_preds (Query_block.join_preds block) in
  let width = Cost_model.row_width block plan.Plan.tables in
  let plan =
    match block.Query_block.group_by with
    | [] -> plan
    | cols ->
      let grouping = Order_prop.make Grouping cols in
      let pre_sorted = Order_prop.satisfied_by equiv grouping plan.Plan.order in
      let sort_based =
        if pre_sorted then plan.Plan.cost +. (plan.Plan.card *. 0.002)
        else
          plan.Plan.cost
          +. Cost_model.sort params ~rows:plan.Plan.card ~width
          +. (plan.Plan.card *. 0.002)
      in
      let hash_based = plan.Plan.cost +. (plan.Plan.card *. 0.004) in
      if sort_based <= hash_based then
        if pre_sorted then
          (* The input already delivers the grouping order: aggregate on top
             without a SORT operator, keeping the plan's order — and its
             pipelinability, which the top-N discount depends on. *)
          { plan with Plan.cost = sort_based }
        else
          {
            plan with
            Plan.op = Plan.Sort plan;
            order = Order_prop.canonical equiv grouping;
            cost = sort_based;
          }
      else { plan with Plan.op = plan.Plan.op; cost = hash_based; order = [] }
  in
  match block.Query_block.order_by with
  | [] -> plan
  | cols ->
    let ordering = Order_prop.make Ordering cols in
    if Order_prop.satisfied_by equiv ordering plan.Plan.order then plan
    else
      {
        plan with
        Plan.op = Plan.Sort plan;
        order = Order_prop.canonical equiv ordering;
        cost = plan.Plan.cost +. Cost_model.sort params ~rows:plan.Plan.card ~width;
      }

(* The top-N adjustment: a pipelinable plan under LIMIT n stops early, so
   only a fraction of its cost is paid. *)
let topn_adjusted_cost block (p : Plan.t) =
  match block.Query_block.first_n with
  | None -> p.Plan.cost
  | Some n ->
    if Plan.pipelinable p then
      let frac = Float.min 1.0 (float_of_int n /. Float.max 1.0 p.Plan.card) in
      p.Plan.cost *. Float.max 0.05 frac
    else p.Plan.cost

(* Pick the top plan by its cost *after* the final GROUP BY / ORDER BY
   operators and the top-N early-termination benefit: for a LIMIT query a
   pipelinable plan that avoids the final sort can beat a cheaper blocking
   plan. *)
let best_for_block env block entry =
  let best = ref None in
  List.iter
    (fun (p : Plan.t) ->
      let finished = finish env block p in
      let adjusted = topn_adjusted_cost block finished in
      match !best with
      | Some (_, c) when c <= adjusted -> ()
      | Some _ | None -> best := Some (finished, adjusted))
    (Memo.plans entry);
  Option.map fst !best

(* The budget check rides the consumer callbacks: entries grow in on_entry,
   kept plans in on_join, and both reads are O(1) counters — so a capped
   pass costs two int compares per event and an uncapped pass (the common
   case) is never wrapped at all, keeping the hot path and the differential
   suites bit-for-bit unchanged. *)
let budgeted_consumer budget memo (consumer : Enumerator.consumer) =
  let check () =
    Budget.check budget ~entries:(Memo.n_entries memo) ~kept:(Memo.kept_plans memo)
  in
  {
    Enumerator.on_entry =
      (fun e ->
        consumer.Enumerator.on_entry e;
        check ());
    on_join =
      (fun ev ->
        consumer.Enumerator.on_join ev;
        check ());
  }

let run_block ?budget ?views ?runner env knobs block =
  let memo = Memo.create block in
  let instr = Instrument.create () in
  let gen = Plan_gen.create ?views env memo instr in
  let consumer = Plan_gen.consumer gen in
  let consumer =
    match budget with
    | Some b when not (Budget.is_unlimited b) -> budgeted_consumer b memo consumer
    | Some _ | None -> consumer
  in
  (* Levels go wide only when the budget's kept-plan check — which reads
     the running count after every join — has nothing to check; the entry
     cap is checked in the enumeration pass either way. *)
  let flush =
    match (runner, budget) with
    | Some _, Some { Budget.max_kept_plans = Some _; _ } | None, _ -> None
    | Some run, _ -> Some (Plan_gen.flush gen ~run)
  in
  let alloc0 = if !Obs.Control.on then Gc.allocated_bytes () else 0.0 in
  let (), elapsed =
    Timer.time (fun () ->
        Obs.Span.time m_span (fun () ->
            Enumerator.run ?flush ~knobs ~card_of:(Plan_gen.card_of gen) memo
              consumer))
  in
  Instrument.set_total instr elapsed;
  if !Obs.Control.on then
    Obs.Counter.add m_alloc
      (int_of_float (Gc.allocated_bytes () -. alloc0));
  Obs.Histo.observe m_compile_s elapsed;
  let stats = Memo.stats memo in
  let top = Memo.find_opt memo (Query_block.all_tables block) in
  let best =
    match top with
    | Some entry -> best_for_block env block entry
    | None -> None
  in
  let result =
    {
      best;
      elapsed;
      joins = stats.Memo.joins_enumerated;
      generated = stats.Memo.generated;
      scan_plans = stats.Memo.scan_plans;
      kept = Memo.kept_plans memo;
      entries = Memo.n_entries memo;
      pruned = stats.Memo.pruned;
      breakdown = Instrument.snapshot instr;
      memo_bytes = Memo.memo_bytes memo;
      mv_tests = Plan_gen.mv_tests gen;
      mv_matches = Plan_gen.mv_matches gen;
    }
  in
  (result, top <> None)

let add_counts (a : Memo.counts) (b : Memo.counts) =
  {
    Memo.nljn = a.Memo.nljn + b.Memo.nljn;
    Memo.mgjn = a.Memo.mgjn + b.Memo.mgjn;
    Memo.hsjn = a.Memo.hsjn + b.Memo.hsjn;
  }

exception Interrupted

let no_interrupt () = false

let check_interrupt interrupt = if interrupt () then raise Interrupted

let optimize_block ?(interrupt = no_interrupt) ?budget ?views ?runner env knobs
    block =
  check_interrupt interrupt;
  let result, reached_top = run_block ?budget ?views ?runner env knobs block in
  if reached_top || Query_block.n_quantifiers block <= 1 then result
  else begin
    (* The knobs left the query unplannable (disconnected graph without
       Cartesian products, or an over-tight inner limit): retry permissively. *)
    Obs.Counter.incr m_retries;
    check_interrupt interrupt;
    let retry, _ =
      run_block ?budget ?views ?runner env (Knobs.permissive knobs) block
    in
    (* The failed pass is real compile time — Estimator.estimate_block times
       both passes, and COTE accuracy depends on actuals doing the same.
       Fold the first pass's elapsed and work counters into the retry
       result; plan-state snapshots (best, kept, memo_bytes) describe the
       surviving MEMO and stay the retry's. *)
    {
      retry with
      elapsed = result.elapsed +. retry.elapsed;
      joins = result.joins + retry.joins;
      generated = add_counts result.generated retry.generated;
      scan_plans = result.scan_plans + retry.scan_plans;
      entries = result.entries + retry.entries;
      pruned = result.pruned + retry.pruned;
      breakdown = Instrument.merge result.breakdown retry.breakdown;
      mv_tests = result.mv_tests + retry.mv_tests;
      mv_matches = result.mv_matches + retry.mv_matches;
    }
  end

let optimize env ?(interrupt = no_interrupt) ?budget ?(knobs = Knobs.default)
    ?views ?runner block =
  Obs.Counter.incr m_queries;
  let results = ref [] in
  Query_block.iter_blocks
    (fun b ->
      results :=
        optimize_block ~interrupt ?budget ?views ?runner env knobs b :: !results)
    block;
  let result =
    match !results with
    | [] -> assert false
    | top :: rest ->
      (* [iter_blocks] visits children first, so the last result is the top
         block's. *)
      List.fold_left
        (fun acc r ->
          {
            best = acc.best;
            elapsed = acc.elapsed +. r.elapsed;
            joins = acc.joins + r.joins;
            generated = add_counts acc.generated r.generated;
            scan_plans = acc.scan_plans + r.scan_plans;
            kept = acc.kept + r.kept;
            entries = acc.entries + r.entries;
            pruned = acc.pruned + r.pruned;
            breakdown = Instrument.merge acc.breakdown r.breakdown;
            memo_bytes = acc.memo_bytes +. r.memo_bytes;
            mv_tests = acc.mv_tests + r.mv_tests;
            mv_matches = acc.mv_matches + r.mv_matches;
          })
        top rest
  in
  Obs.Gauge.set m_memo_bytes result.memo_bytes;
  result

type fallback = {
  fb_best : Plan.t option;
  fb_elapsed : float;
  fb_quantifiers : int;
  fb_edges : int;
  fb_restarts : int;
  fb_joins : int;
}

let optimize_fallback env ?(interrupt = no_interrupt) ?(seed = 0) ?(restarts = 0)
    block =
  Obs.Counter.incr m_queries;
  let last = ref None in
  let elapsed = ref 0.0 in
  let edges = ref 0 in
  let joins = ref 0 in
  let quants = ref 0 in
  Query_block.iter_blocks
    (fun b ->
      check_interrupt interrupt;
      let r = Spanning_tree.optimize ~seed ~restarts env b in
      elapsed := !elapsed +. r.Spanning_tree.st_elapsed;
      edges := !edges + r.Spanning_tree.st_edges;
      joins := !joins + r.Spanning_tree.st_joins;
      quants := !quants + Query_block.n_quantifiers b;
      last := Some (b, r.Spanning_tree.st_plan))
    block;
  Obs.Histo.observe m_compile_s !elapsed;
  let best =
    (* [iter_blocks] visits children first: the last block is the top one,
       and its plan gets the same final SORT / GROUP BY treatment the DP
       path applies in [best_for_block]. *)
    match !last with
    | Some (top, Some plan) -> Some (finish env top plan)
    | Some (_, None) | None -> None
  in
  {
    fb_best = best;
    fb_elapsed = !elapsed;
    fb_quantifiers = !quants;
    fb_edges = !edges;
    fb_restarts = restarts;
    fb_joins = !joins;
  }
