(** The polynomial-time fallback enumeration regime for giant join graphs.

    Follows the spanning-tree family of plan enumerators: instead of the
    exponential DP MEMO, build a minimum spanning tree over the join graph
    weighted by estimated intermediate-result cardinality, then construct
    one plan by merging components along tree edges in weight order,
    costing both join directions and all three join methods at each merge
    (reusing {!Greedy}'s scan and cheapest-join machinery).  Optional
    randomized restarts perturb the edge weights multiplicatively and keep
    the cheapest plan found — a cheap hedge against the MST's greedy
    blind spot, still seed-deterministic.

    No MEMO is ever materialized: work is O(E log E + V·E) per attempt
    (E = join-graph edges, V = quantifiers), so 100-table cliques compile
    in milliseconds where the DP path exceeds any practical budget. *)

type result = {
  st_plan : Plan.t option;  (** [None] only for empty blocks *)
  st_elapsed : float;  (** wall-clock seconds, all attempts *)
  st_edges : int;  (** distinct join-graph edges (a time-model feature) *)
  st_restarts : int;  (** randomized restarts performed (attempts - 1) *)
  st_joins : int;  (** join operators costed across all attempts *)
}

val edge_count : Query_block.t -> int
(** Number of distinct quantifier pairs connected by at least one join
    predicate — computable without any enumeration, so the regime policy
    can predict fallback compile time before choosing a regime. *)

val optimize : ?seed:int -> ?restarts:int -> Env.t -> Query_block.t -> result
(** Optimizes a single block (children are ignored — drive them through
    {!Optimizer.optimize_fallback}).  [seed] (default 0) drives the
    restart perturbations; [restarts] (default 0) adds that many perturbed
    attempts after the unperturbed MST attempt.  Deterministic for a given
    [(seed, restarts)] pair.  Disconnected graphs are completed with
    Cartesian merges, smallest product of component cardinalities first
    — the rule {!Greedy} falls back to once no connected pair is left. *)
