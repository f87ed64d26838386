(** The execution-cost model.

    Cost estimation is deliberately detailed — an iterative buffer-pool
    model, multi-pass external-sort simulation, hash-partition spill
    modelling, and (in parallel mode) skew analysis and communication costs
    — because in real systems "a large amount of time in generating a plan
    is spent on estimating the execution cost" (Section 3.1).  This is
    precisely what makes plan generation dominate compilation time and what
    the COTE bypasses.

    Predicate-dependent quantities (join selectivity from histograms, skew)
    are *logical* per-join properties, gathered into a {!join_ctx} once per
    enumerated join and direction and shared by every plan of that join,
    mirroring the property caching of Section 3.2.  Their histogram inputs
    are read once per compile: the plan generator passes the MEMO's
    {!Cardinality.ctx} ([?sel]), so each predicate's [Histogram.sel_join]
    and skew probe and each inner table's index-probe hit ratio are
    computed on first use and then looked up.  Without them the same values
    are computed on the spot.  The per-plan work — the cost formulas
    themselves, buffer-pool fixpoint, device integral, sort and hash
    simulations included — is deliberately evaluated for every generated
    plan: it is roughly constant per plan and differs by join method, which
    is exactly the premise of the paper's [T = T_inst * sum(C_t * P_t)]
    time model, and caching it would remove the weight the model counts.

    Costs are abstract units roughly proportional to milliseconds of
    execution; only their relative magnitudes matter to plan choice. *)

module Table = Qopt_catalog.Table

type params = {
  io_page : float;
  cpu_tuple : float;
  cpu_cmp : float;
  cpu_hash : float;
  cpu_probe : float;
  buffer_pages : float;
  sort_mem_pages : float;
  net_tuple : float;
  nodes : int;
}

val params : Env.t -> params
(** Default parameters for the environment (nodes from the environment). *)

type join_ctx = {
  matches_per_outer : float;
      (** expected inner matches per outer row, from the join-column
          histograms *)
  skew : float;  (** most-loaded-node factor in parallel mode; 1 in serial *)
}

val join_context :
  ?sel:Cardinality.ctx * int list ->
  params ->
  Query_block.t ->
  preds:Pred.t list ->
  inner_card:float ->
  join_ctx
(** The per-join logical cost context — computed once per enumerated join
    and direction, not per plan.  [sel] is a selectivity context of the
    block with the list indices of [preds] (in the same order): the join
    selectivity and the parallel skew of the first join column are then
    read from (and on first use stored in) the context; otherwise they are
    computed from the histograms. *)

val seq_scan : params -> Table.t -> float

val index_scan : params -> Table.t -> sel:float -> float
(** Cost of an index scan returning the given fraction of the table. *)

val sort : params -> rows:float -> width:float -> float
(** External-merge sort cost; simulates the merge passes. *)

val row_width : Query_block.t -> Qopt_util.Bitset.t -> float
(** Approximate byte width of a composite row over the table set. *)

val inner_probe_cost :
  ?sel:Cardinality.ctx ->
  params ->
  Query_block.t ->
  preds:Pred.t list ->
  inner_tables:Qopt_util.Bitset.t ->
  float option
(** Per-probe cost of index nested loops: available when the inner side is a
    single table with an index led by the inner join column.  With [sel]
    the table's buffer-hit ratio is read from (and on first use stored in)
    the context. *)

val nljn :
  params ->
  Query_block.t ->
  ctx:join_ctx ->
  probe:float option ->
  ?width_outer:float ->
  ?width_inner:float ->
  ?width_out:float ->
  outer:Plan.t ->
  inner:Plan.t ->
  out_card:float ->
  unit ->
  float

val mgjn :
  params ->
  Query_block.t ->
  ctx:join_ctx ->
  ?width_outer:float ->
  ?width_inner:float ->
  ?width_out:float ->
  outer:Plan.t ->
  inner:Plan.t ->
  out_card:float ->
  sort_outer:bool ->
  sort_inner:bool ->
  unit ->
  float

val hsjn :
  params ->
  Query_block.t ->
  ctx:join_ctx ->
  ?width_inner:float ->
  ?width_out:float ->
  outer:Plan.t ->
  inner:Plan.t ->
  out_card:float ->
  unit ->
  float
(** The three join cost models.  The [?width_*] arguments let the caller
    pass memoized {!row_width} values for the outer / inner / output table
    sets (see [Memo.width_of]); omitted widths are derived from the plans'
    table sets — the same value, recomputed. *)

val repartition : params -> rows:float -> width:float -> float
(** Cost of redistributing rows across the nodes. *)

val broadcast : params -> rows:float -> width:float -> float
(** Cost of replicating rows to every node. *)
