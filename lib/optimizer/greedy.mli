(** A polynomial-time greedy join optimizer — the "low" optimization level.

    Commercial systems pair the expensive dynamic-programming level with a
    cheap greedy/randomized level (Section 1.1); the meta-optimizer compiles
    at this level first to obtain an execution-cost estimate E before asking
    the COTE for the high level's compilation cost C.

    The algorithm is greedy operator ordering: repeatedly merge the pair of
    connected components whose join yields the smallest intermediate result,
    picking the cheapest join method for each merge. *)

val optimize : Env.t -> Query_block.t -> Plan.t option
(** Best-effort greedy plan for the block (children blocks are ignored —
    drive them through {!Optimizer}).  [None] only for empty blocks. *)

val scan_plan : Env.t -> Cost_model.params -> Cardinality.ctx -> int -> Plan.t
(** Cheapest access path for one quantifier of the context's block: a
    sequential scan or a filtered index probe, with the parallel
    environment's partition property attached.  Shared with
    {!Spanning_tree}. *)

val cheapest_join :
  ?sel:Cardinality.ctx * int list ->
  Cost_model.params ->
  Query_block.t ->
  outer:Plan.t ->
  inner:Plan.t ->
  preds:Pred.t list ->
  out_card:float ->
  Plan.t
(** The cheapest of NLJN/MGJN/HSJN for one (outer, inner) direction.
    [sel] hands the caller's selectivity context and the list indices of
    [preds] to the cost model (see {!Cost_model.join_context}).
    Shared with {!Spanning_tree}. *)
