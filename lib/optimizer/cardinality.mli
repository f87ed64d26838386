(** Cardinality estimation for MEMO entries.

    Cardinality is a logical property: it has the same value for every plan
    of an entry and is computed once per entry (Section 3.2).  Two models are
    provided:

    - [Full]: the real optimizer's model — histogram-based selectivities,
      correlation back-off across multiple predicates between the same pair
      of quantifiers, and unique-key clamping.
    - [Simple]: the cheap model used in plan-estimate mode — closed-form
      System-R-style selectivities with no histogram access and no key/FD
      adjustment.

    Because DB2's enumerator applies cardinality-sensitive heuristics (the
    card-1 Cartesian rule), the two models can disagree about which joins are
    enumerated; the paper cites this as the main source of HSJN plan-count
    error in the parallel workloads (Section 5.2).  [Simple] exists to
    reproduce exactly that behaviour.

    {b The selectivity context.}  Every selectivity a compile needs is a
    function of one predicate, one adjacent quantifier pair or one
    quantifier, never of the table set being estimated.  A {!ctx} holds
    them, each filled on first use: per predicate (by its index in the
    block's predicate list) the local selectivity and the raw
    [Histogram.sel_join] estimate; per adjacent pair the back-off-combined
    join selectivity; and two cost-model inputs, the skew probe of a join
    predicate's column (parallel mode) and per quantifier the index-probe
    buffer-hit ratio.  Each [Memo] owns one (see [Memo.selectivity]), and it
    is the only place a histogram is read during a compile: entry
    cardinalities ({!card}), the join cost context and the index-probe
    cost in [Plan_gen], and the spanning-tree fallback's pair weights all
    read it.  It is never built at bind time or on a plan-cache lookup.  A
    MEMO runs on one domain, so the context takes no locks.

    {!card} multiplies in exactly the order the historical per-call model
    did (row counts by ascending quantifier, local selectivities in
    predicate-list order, pair products in ascending pair order), so every
    cardinality is bit-identical to it; [test/ref_cardinality.ml] keeps
    that model as the differential oracle. *)

module Bitset = Qopt_util.Bitset

type mode =
  | Full
  | Simple

val local_selectivity : mode -> Query_block.t -> Pred.t -> float
(** Selectivity of a non-join predicate. *)

val raw_join_selectivity : Query_block.t -> Pred.t -> float
(** [Histogram.sel_join] of a join predicate's two columns, before the
    unique-key clamp — the estimate the join cost context prices matches
    with.  [1.0] for a non-join predicate. *)

type ctx
(** A selectivity context over one block under one mode. *)

val context : mode -> Query_block.t -> ctx
(** An empty context: O(predicates) to build, every slot filled lazily. *)

val ctx_mode : ctx -> mode

val ctx_block : ctx -> Query_block.t

val card : ctx -> Bitset.t -> float
(** Estimated output cardinality of the table set with all internal
    predicates applied.  Always positive. *)

val local_sel : ctx -> int -> float
(** {!local_selectivity} of the predicate with this list index. *)

val raw_join_sel : ctx -> int -> float
(** {!raw_join_selectivity} of the predicate with this list index. *)

val raw_join_product : ctx -> int list -> float
(** Product of {!raw_join_sel} over the indices, in list order, from [1.0]
    — the selectivity the join cost context uses for a join's crossing
    predicates. *)

val pair_sel : ctx -> int -> int -> float
(** Combined selectivity of the join predicates between two quantifiers
    (either order) with the per-pair correlation back-off applied (the
    i-th most selective contributes [sel^(1/2^i)]); [1.0] for a
    non-adjacent pair. *)

val probe_hit : ctx -> int -> (unit -> float) -> float
(** [probe_hit c q compute]: the quantifier's index-probe buffer-hit
    ratio, computed by [compute] on first use.  The cost model supplies
    [compute]; a context serves one cost-model parameter set. *)

val join_skew : ctx -> int -> (unit -> float) -> float
(** [join_skew c i compute]: the parallel cost model's skew factor of the
    left column of the join predicate with list index [i], computed by
    [compute] on first use, like {!probe_hit}. *)

val of_set : mode -> Query_block.t -> Bitset.t -> float
(** {!card} over a throwaway context — for one-off estimates outside a
    compile. *)
