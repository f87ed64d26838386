(** The MEMO structure: one entry per enumerated table set.

    Each entry holds the non-pruned plans (real optimization), cached
    logical properties (cardinality, column equivalence, applicable
    interesting orders) and — in plan-estimate mode — the interesting
    property value lists that the COTE accumulates instead of plans
    (Section 3.3: "a classical technique of trading space for time").

    Pruning follows the generalized interesting-property rule: a plan is
    pruned when a cheaper plan satisfies a superset of the applicable
    interesting orders (and a compatible partition).  This implements the
    "plan sharing" behaviour the paper identifies as an over-estimation
    source: a cheap plan ordered on (a,b) also serves requests for (a) and
    silently absorbs that plan slot.

    Hot-path layout: physical properties are hash-consed into dense integer
    ids by a per-MEMO {!Prop_id} table, kept plans live in a growable array
    compacted in place on pruning, and the per-entry bests ([best_plan],
    [best_pipelinable_plan], the per-order cheapest-satisfying plan) are
    maintained incrementally on insertion — so the generator's repeated
    queries are O(1) and dominance tests compare integers.  All observable
    behaviour (kept-plan sets, iteration order of {!plans}, every
    tie-break) is bit-for-bit that of the legacy list-based MEMO, enforced
    by the differential suite in [test/t_hotpath.ml] against the verbatim
    reference copy in [test/ref_memo.ml]. *)

module Bitset = Qopt_util.Bitset

type counts = {
  mutable nljn : int;
  mutable mgjn : int;
  mutable hsjn : int;
}

val counts_zero : unit -> counts

val counts_total : counts -> int

val counts_get : counts -> Join_method.t -> int

val counts_add : counts -> Join_method.t -> int -> unit

type saved_plan = {
  sp_plan : Plan.t;
  sp_norm : int;
      (** interned id of the plan's normalized physical order *)
  sp_osig : int;
      (** bitmask: which applicable interesting orders the plan satisfies —
          dominance tests reduce to integer subset checks *)
  sp_pkey : int;
      (** interned canonical partition key (kind-tagged); {!Prop_id.none}
          when unpartitioned *)
  sp_pint : bool;  (** whether that partition is interesting here *)
  sp_pipe : bool;
      (** pipelinable — only meaningful (and only protected from pruning)
          when the block is a top-N query *)
}

type sat_slot = {
  ss_kind : Order_prop.kind;
  ss_cols : Colref.t list;
  mutable ss_best : saved_plan option;
}
(** One memoized [best_plan_satisfying] answer, kept current on insert. *)

type entry = {
  tables : Bitset.t;
  mutable saved : saved_plan array;
      (** kept (non-pruned) plans, oldest-first; only the first [n_saved]
          slots are live *)
  mutable n_saved : int;
  mutable best : saved_plan option;  (** cheapest kept plan, incremental *)
  mutable best_pipe : saved_plan option;
      (** cheapest kept pipelinable plan (top-N blocks only) *)
  sat_cache : (int, sat_slot) Hashtbl.t;
      (** interned order id -> cheapest satisfying plan *)
  osig_cache : (int, int) Hashtbl.t;
      (** interned normalized order -> interesting-order bitmask *)
  pprop_cache : (int, int * bool) Hashtbl.t;
      (** interned raw partition -> (canonical partition id, interesting) *)
  mutable width_cache : float;
      (** memoized [Cost_model.row_width] of the table set; negative =
          unset *)
  mutable card_cache : float option;  (** logical, computed once *)
  mutable equiv_cache : Equiv.t option;  (** logical, computed once *)
  mutable app_orders_cache : Order_prop.t list option;
      (** interesting orders applicable and unretired at this entry *)
  mutable app_canon_cache : (Order_prop.kind * Colref.t list) list option;
      (** their canonical column lists, for cheap per-plan signatures *)
  mutable neigh_cache : Bitset.t option;
      (** join-graph neighborhood of the entry's table set, computed once *)
  mutable i_orders : Order_prop.t list;  (** estimate mode: order list *)
  mutable i_parts : Partition_prop.t list;  (** estimate mode: partitions *)
  mutable i_pipe : bool;
      (** estimate mode: a pipelinable plan variant reaches this entry *)
  mutable propagated_once : bool;
      (** estimate mode: set after the first join populates the entry, for
          the first-join-only propagation shortcut (Section 4, point 4) *)
}

type stats = {
  mutable entries_created : int;
  mutable joins_enumerated : int;
  generated : counts;  (** join plans generated, before pruning *)
  mutable scan_plans : int;
  mutable pruned : int;
}

type t

val create : Query_block.t -> t

val block : t -> Query_block.t

val stats : t -> stats

val intern_cols : t -> Colref.t list -> int
(** Intern a canonical column list in the MEMO's property table — the
    generator uses this to compute each join plan's normalized-order id
    once at construction and pass it to {!insert_plan}. *)

val find_opt : t -> Bitset.t -> entry option

val find_or_create : t -> Bitset.t -> entry * bool
(** The boolean is [true] when the entry was just created. *)

val iter_entries_of_size : t -> int -> (entry -> unit) -> unit
(** Allocation-free iteration over the entries of one size, in creation
    order — the enumerator's inner loops.  Entries created during the
    iteration (necessarily of a larger size) are not visited. *)

val neighborhood : t -> entry -> Bitset.t
(** The join-graph neighborhood of the entry: quantifiers outside the
    entry's table set that share a join predicate with a member.  Cached on
    the entry; a right-hand candidate disjoint from this set can only join
    as a Cartesian product. *)

val iter_entries : (entry -> unit) -> t -> unit

val n_entries : t -> int

val equiv_of : t -> entry -> Equiv.t
(** Column equivalences induced by predicates internal to the entry
    (cached). *)

val selectivity : t -> Cardinality.mode -> Cardinality.ctx
(** The MEMO's selectivity context, created on first use.  A MEMO instance
    is used with a single mode throughout its lifetime; asking for the
    other mode replaces the context with a fresh one. *)

val card_of : t -> Cardinality.mode -> entry -> float
(** Cached cardinality of the entry under the given model, computed from
    {!selectivity}. *)

val width_of : t -> entry -> float
(** Memoized [Cost_model.row_width] of the entry's table set — every plan
    of an entry shares it, so the cost model is handed the cached value
    instead of re-folding the quantifier widths per generated plan. *)

val applicable_orders : t -> entry -> Order_prop.t list
(** Interesting orders applicable to (and not retired at) the entry, derived
    from the query block and cached. *)

val plans : entry -> Plan.t list
(** The kept plans, without their cached signatures, newest-first — the
    exact iteration order of the legacy list-based MEMO, which downstream
    tie-breaks depend on. *)

val best_plan : entry -> Plan.t option
(** Cheapest kept plan regardless of properties.  O(1): maintained
    incrementally on insertion. *)

val best_pipelinable_plan : t -> entry -> Plan.t option
(** Cheapest kept plan that can pipeline (top-N planning).  O(1) on top-N
    blocks (cached incrementally); a scan otherwise. *)

val best_plan_satisfying : t -> entry -> Order_prop.t -> Plan.t option
(** Cheapest kept plan whose physical order satisfies the interesting
    order.  Memoized per interned order id and kept current on insertion:
    amortized O(1) for the generator's repeated merge-order queries. *)

val insert_plan : ?norm:int -> t -> entry -> Plan.t -> unit
(** Insert with dominance pruning (does not touch the [generated]
    counters — generation sites count).  [norm], when given, must be
    [intern_cols t (Equiv.normalize_cols (equiv_of t e) plan.order)] — the
    generator computes it once per plan at construction; otherwise it is
    derived here. *)

val kept_plans : t -> int
(** Total kept plans across all entries.  O(1): a running counter updated
    on insertion and dominance drops. *)

val memo_bytes : t -> float
(** Approximate bytes held in kept plans (for the Section 6.2 memory
    experiment). *)
