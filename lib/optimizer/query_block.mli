(** Query blocks: the unit of join enumeration.

    A query block is a select-project-join expression with optional grouping
    and ordering.  Subqueries appear as child blocks (compiled independently,
    bottom-up, exactly as the paper's Section 3.3 extension to "multiple
    query blocks"); correlation between a child and its parent is modelled by
    quantifier dependency sets inside the parent. *)

module Bitset = Qopt_util.Bitset

type outer_join = {
  oj_preserved : Bitset.t;  (** quantifiers on the row-preserving side *)
  oj_null : Bitset.t;  (** quantifiers on the null-producing side *)
}

type adjacency
(** The precomputed join-graph index: per-quantifier neighbor bitsets plus a
    (quantifier pair -> predicate list) map.  Built by {!make} from the
    quantifiers and predicates; consulted through {!neighbors} and
    {!crossing_preds}.  Functional record updates are safe as long as they
    leave [quantifiers] and [preds] untouched — rebuild through {!make}
    otherwise. *)

type t = {
  name : string;
  quantifiers : Quantifier.t array;
  preds : Pred.t list;
  group_by : Colref.t list;
  order_by : Colref.t list;
  outer_joins : outer_join list;
  children : t list;  (** subquery blocks, compiled separately *)
  first_n : int option;
      (** top-N queries ("LIMIT n"): makes the *pipelinable* property
          interesting (Table 1 of the paper) — plans that can deliver rows
          without a blocking SORT, hash build or TEMP are kept alongside
          cheaper blocking plans *)
  adj : adjacency;  (** join-graph index derived from quantifiers + preds *)
}

val make :
  ?name:string ->
  ?group_by:Colref.t list ->
  ?order_by:Colref.t list ->
  ?outer_joins:outer_join list ->
  ?children:t list ->
  ?first_n:int ->
  quantifiers:Quantifier.t list ->
  preds:Pred.t list ->
  unit ->
  t
(** Validates that predicates and properties reference existing quantifiers
    and columns; raises [Invalid_argument] otherwise. *)

val n_quantifiers : t -> int

val quantifier : t -> int -> Quantifier.t

val all_tables : t -> Bitset.t
(** The set of all quantifier ids. *)

val neighbors : t -> int -> Bitset.t
(** Quantifiers sharing a join predicate with the given quantifier — the
    quantifier's join-graph neighborhood, precomputed at block
    construction. *)

val crossing_preds : t -> Bitset.t -> Bitset.t -> Pred.t list
(** [crossing_preds t s l] is every join predicate with one side in [s] and
    the other in [l], in predicate-list order — equal to filtering [preds]
    with {!Pred.crosses} but via the adjacency index, so the cost scales
    with the edges between [s] and [l] rather than the block's total
    predicate count. *)

val crossing_preds_indexed : t -> Bitset.t -> Bitset.t -> (int * Pred.t) list
(** {!crossing_preds} with each predicate tagged by its index in [preds] —
    the key of the per-predicate slots in {!Cardinality.ctx}. *)

val pair_preds : t -> int -> int -> (int * Pred.t) list
(** The join predicates between two quantifiers (either order), tagged with
    their [preds] index, ascending; [[]] for a non-adjacent pair. *)

val join_preds : t -> Pred.t list

val local_preds : t -> Pred.t list

val column : t -> Colref.t -> Qopt_catalog.Column.t
(** Resolves a column reference to its catalog statistics.  Raises
    [Not_found]. *)

val is_connected : t -> bool
(** Whether the join graph (join predicates as edges) connects all
    quantifiers. *)

val connected_sets_exceed : t -> int -> bool
(** [connected_sets_exceed t limit]: whether more than [limit] quantifier
    sets induce a connected subgraph of the join graph — the most MEMO
    entries an enumeration without Cartesian products can create.  Costs
    O(n) per set counted, and stops counting past [limit]. *)

val iter_blocks : (t -> unit) -> t -> unit
(** Applies the function to this block and, recursively, all children
    (children first — blocks are compiled bottom-up). *)

val total_quantifiers : t -> int
(** Number of quantifiers summed over this block and all children. *)

val pp : Format.formatter -> t -> unit
