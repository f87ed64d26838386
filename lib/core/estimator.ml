module O = Qopt_optimizer
module Timer = Qopt_util.Timer
module Obs = Qopt_obs

(* Process-wide estimation metrics (no-ops unless Qopt_obs is enabled). *)
let m_runs = Obs.Registry.counter Obs.Registry.default "estimator.runs"

let m_est_nljn = Obs.Registry.counter Obs.Registry.default "estimator.est_plans.nljn"

let m_est_mgjn = Obs.Registry.counter Obs.Registry.default "estimator.est_plans.mgjn"

let m_est_hsjn = Obs.Registry.counter Obs.Registry.default "estimator.est_plans.hsjn"

let m_elapsed_s = Obs.Registry.histogram Obs.Registry.default "estimator.elapsed_s"

let m_overhead = Obs.Registry.gauge Obs.Registry.default "estimator.overhead_pct"

let m_precheck_aborts =
  Obs.Registry.counter Obs.Registry.default "estimator.budget_precheck_aborts"

(* The headline COTE claim: estimation must be a tiny fraction of full
   compilation.  Estimation seconds over compile seconds, cumulated across
   the process — meaningful once both have run at least once. *)
let update_overhead () =
  if !Obs.Control.on then begin
    let compile_s =
      Obs.Histo.sum
        (Obs.Registry.histogram Obs.Registry.default "optimizer.compile_s")
    in
    if compile_s > 0.0 then
      Obs.Gauge.set m_overhead (Obs.Histo.sum m_elapsed_s /. compile_s *. 100.0)
  end

type estimate = {
  joins : int;
  nljn : int;
  mgjn : int;
  hsjn : int;
  scan_plans : int;
  entries : int;
  elapsed : float;
  est_memo_plans : float;
  mv_tests : int;
}

let total e = e.nljn + e.mgjn + e.hsjn

let get e = function
  | O.Join_method.NLJN -> e.nljn
  | O.Join_method.MGJN -> e.mgjn
  | O.Join_method.HSJN -> e.hsjn

let zero =
  {
    joins = 0;
    nljn = 0;
    mgjn = 0;
    hsjn = 0;
    scan_plans = 0;
    entries = 0;
    elapsed = 0.0;
    est_memo_plans = 0.0;
    mv_tests = 0;
  }

let add a b =
  {
    joins = a.joins + b.joins;
    nljn = a.nljn + b.nljn;
    mgjn = a.mgjn + b.mgjn;
    hsjn = a.hsjn + b.hsjn;
    scan_plans = a.scan_plans + b.scan_plans;
    entries = a.entries + b.entries;
    elapsed = a.elapsed +. b.elapsed;
    est_memo_plans = a.est_memo_plans +. b.est_memo_plans;
    mv_tests = a.mv_tests + b.mv_tests;
  }

let run_block ?options ?budget ~knobs env block =
  let memo = O.Memo.create block in
  let acc = Accumulate.create ?options env memo in
  let consumer = Accumulate.consumer acc in
  let consumer =
    (* The estimate pass enumerates the same joins the optimizer would, so
       on a giant graph it explodes just like the real compile; cap it the
       same way.  The estimate-mode analogue of kept plans is the memory
       model's plan count.  Both figures are running counters, so the check
       after each event is two int compares, as in
       [Optimizer.budgeted_consumer]. *)
    match budget with
    | Some b when not (O.Budget.is_unlimited b) ->
      let check () =
        O.Budget.check b ~entries:(O.Memo.n_entries memo)
          ~kept:(Accumulate.kept_plans acc)
      in
      {
        O.Enumerator.on_entry =
          (fun e ->
            consumer.O.Enumerator.on_entry e;
            check ());
        on_join =
          (fun ev ->
            consumer.O.Enumerator.on_join ev;
            check ());
      }
    | Some _ | None -> consumer
  in
  O.Enumerator.run ~knobs ~card_of:(Accumulate.card_of acc) memo consumer;
  (memo, acc)

let of_pass ~n_views (memo, acc) =
  let counts = Accumulate.counts acc in
  let stats = O.Memo.stats memo in
  {
    joins = stats.O.Memo.joins_enumerated;
    nljn = counts.O.Memo.nljn;
    mgjn = counts.O.Memo.mgjn;
    hsjn = counts.O.Memo.hsjn;
    scan_plans = Accumulate.scan_plans acc;
    entries = O.Memo.n_entries memo;
    elapsed = 0.0;
    est_memo_plans = float_of_int (Accumulate.kept_plans acc);
    mv_tests = O.Memo.n_entries memo * n_views;
  }

(* The structural dry run behind a MEMO-entry cap: the same enumerator
   with no consumer work and [card_of] at infinity.  Every enumerator gate
   but the card-1 Cartesian escape is structural, and that escape only adds
   joins; infinite cardinalities turn it off, so the dry run creates a
   subset of the entries the real first pass creates.  Crossing the cap
   here therefore proves the real pass crosses it too, and the dry run
   raises what the real pass would have raised for an entry-only budget
   (entries grow one at a time, so the first crossing reads [cap + 1]).
   A block with [2^n - 1 <= cap] subsets cannot cross the cap at all (the
   shift would overflow past [Sys.int_size - 2] quantifiers).  Nor can a
   block with at most [cap] connected sets when the dry run admits no
   Cartesian product: every entry it creates is then a connected set, so
   chains and cycles under the cap skip a dry run that would cost half a
   pass. *)
let precheck ~knobs ~cap block =
  let n = O.Query_block.n_quantifiers block in
  let connected_only =
    (not knobs.O.Knobs.allow_cartesian)
    && not (knobs.O.Knobs.card1_cartesian && knobs.O.Knobs.card1_threshold = infinity)
  in
  if
    (n >= Sys.int_size - 1 || (1 lsl n) - 1 > cap)
    && ((not connected_only) || O.Query_block.connected_sets_exceed block cap)
  then begin
    let memo = O.Memo.create block in
    let entries_only = O.Budget.make ~max_memo_entries:cap () in
    let on_entry _ =
      let entries = O.Memo.n_entries memo in
      if entries > cap then begin
        Obs.Counter.incr m_precheck_aborts;
        O.Budget.check entries_only ~entries ~kept:0
      end
    in
    O.Enumerator.run ~knobs
      ~card_of:(fun _ -> infinity)
      memo
      { O.Enumerator.on_entry; on_join = ignore }
  end

let estimate_block ?options ?budget ~knobs ~n_views env block =
  let passes, elapsed =
    Timer.time (fun () ->
        (match budget with
        | Some { O.Budget.max_memo_entries = Some cap; _ } ->
          precheck ~knobs ~cap block
        | Some _ | None -> ());
        let first = run_block ?options ?budget ~knobs env block in
        (* Mirror the optimizer's permissive fallback when the knobs leave
           the top table set unreachable. *)
        let memo, _ = first in
        if
          O.Memo.find_opt memo (O.Query_block.all_tables block) = None
          && O.Query_block.n_quantifiers block > 1
        then
          [
            first;
            run_block ?options ?budget ~knobs:(O.Knobs.permissive knobs) env
              block;
          ]
        else [ first ])
  in
  (* Work counters fold across both passes — the optimizer does both passes'
     work and its fixed accounting reports it.  The memory estimate is a
     snapshot of the surviving MEMO, so it comes from the final pass. *)
  let r =
    match passes with
    | [ only ] -> of_pass ~n_views only
    | [ first; retry ] ->
      let a = of_pass ~n_views first and b = of_pass ~n_views retry in
      { (add a b) with est_memo_plans = b.est_memo_plans }
    | _ -> assert false
  in
  { r with elapsed }

let estimate ?options ?budget ?(knobs = O.Knobs.default) ?(views = []) env
    block =
  let n_views = List.length views in
  let result = ref zero in
  O.Query_block.iter_blocks
    (fun b ->
      result := add !result (estimate_block ?options ?budget ~knobs ~n_views env b))
    block;
  let r = !result in
  Obs.Counter.incr m_runs;
  Obs.Counter.add m_est_nljn r.nljn;
  Obs.Counter.add m_est_mgjn r.mgjn;
  Obs.Counter.add m_est_hsjn r.hsjn;
  Obs.Histo.observe m_elapsed_s r.elapsed;
  update_overhead ();
  r
