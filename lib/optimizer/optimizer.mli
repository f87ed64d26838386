(** The optimization driver.

    Runs full dynamic-programming optimization of a query (all blocks,
    bottom-up), returning the best plan together with everything the
    experiments need: wall-clock time, the Figure 2 breakdown, enumeration
    and plan-generation counters, and MEMO size. *)

type result = {
  best : Plan.t option;  (** best plan of the top block *)
  elapsed : float;  (** wall-clock seconds, all blocks *)
  joins : int;  (** joins enumerated *)
  generated : Memo.counts;  (** join plans generated, before pruning *)
  scan_plans : int;
  kept : int;  (** plans held in the MEMO after pruning *)
  entries : int;
  pruned : int;
  breakdown : Instrument.snapshot;
  memo_bytes : float;
  mv_tests : int;  (** materialized-view matching tests (§6.2) *)
  mv_matches : int;
}

exception Interrupted
(** Raised by {!optimize} / {!optimize_block} when the [interrupt] callback
    returns [true]: the caller (e.g. a compile-service deadline) asked for
    cancellation.  The MEMO built so far is discarded. *)

val optimize_block :
  ?interrupt:(unit -> bool) ->
  ?budget:Budget.t ->
  ?views:Mat_view.t list ->
  ?runner:(int -> (int -> unit) -> unit) ->
  Env.t ->
  Knobs.t ->
  Query_block.t ->
  result
(** Optimizes a single block, ignoring children.  If the knobs leave the top
    table set unreachable (e.g. a disconnected join graph without Cartesian
    products), the block is retried with Cartesian products enabled, as a
    real system would.  [interrupt] is polled between optimizer passes
    (before the first pass and before the permissive retry); when it
    returns [true], {!Interrupted} is raised.  [budget] (default
    unlimited) caps the MEMO mid-pass: crossing a cap raises
    {!Budget.Exceeded} from inside the enumeration, before the MEMO can
    grow past the limit — the giant-join-graph guardrail.

    [runner] (a {!Plan_gen.runner}, e.g. [Qopt_par.Pool.run pool])
    generates the plans of each DP size level in parallel
    ({!Plan_gen.flush}); without it the pass is serial.  The MEMO, every
    plan list, the best plan and every counter of the result are
    bit-identical to the serial pass; only [elapsed] (wall clock) and the
    [breakdown] (busy time summed over the domains that worked) differ.
    A pass under a [max_kept_plans] cap stays serial, since its check
    reads the running kept-plan count after every join. *)

val optimize :
  Env.t ->
  ?interrupt:(unit -> bool) ->
  ?budget:Budget.t ->
  ?knobs:Knobs.t ->
  ?views:Mat_view.t list ->
  ?runner:(int -> (int -> unit) -> unit) ->
  Query_block.t ->
  result
(** Optimizes the block and all child blocks bottom-up; counters and times
    are summed, [best] is the top block's plan (with final SORT / GROUP BY
    operators applied).  [knobs] defaults to {!Knobs.default}.  [interrupt]
    (default: never) is polled between optimizer passes — before each
    block's enumeration and before any permissive retry — and raises
    {!Interrupted} when it returns [true]; a request past its deadline is
    cancelled at the next pass boundary rather than hanging to completion.
    [budget] (default unlimited) additionally caps MEMO entries / kept
    plans {e inside} each pass, raising {!Budget.Exceeded} the moment a
    cap is crossed; callers fall back to {!optimize_fallback}.  [runner]
    is {!optimize_block}'s. *)

type fallback = {
  fb_best : Plan.t option;
      (** top block's spanning-tree plan, with final SORT / GROUP BY *)
  fb_elapsed : float;  (** wall-clock seconds, all blocks *)
  fb_quantifiers : int;  (** summed over blocks (a time-model feature) *)
  fb_edges : int;  (** join-graph edges, summed (a time-model feature) *)
  fb_restarts : int;  (** randomized restarts per block *)
  fb_joins : int;  (** join operators costed *)
}

val optimize_fallback :
  Env.t ->
  ?interrupt:(unit -> bool) ->
  ?seed:int ->
  ?restarts:int ->
  Query_block.t ->
  fallback
(** The polynomial fallback regime: every block is planned by
    {!Spanning_tree.optimize} (MST over the join graph by estimated
    intermediate cardinality, cheapest-method joins, [restarts] seeded
    perturbed retries) instead of DP enumeration — no MEMO, no budget to
    exceed.  Deterministic for a given [(seed, restarts)].  [interrupt] is
    polled before each block. *)
