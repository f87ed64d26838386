(** The statement-cache baseline (Section 1.2).

    "One straightforward approach to estimating the compilation time is to
    cache the compilation time for each compiled query in a statement cache
    and use it as an estimate for subsequent similar queries.  However, this
    approach may not work well for a variety of complex ad-hoc queries."

    Queries are keyed by a structural signature (tables, predicate shape,
    grouping/ordering arity, knob-relevant flags); a hit returns the
    recorded compile time, a miss returns nothing — the cache cannot say
    anything about a query it has not compiled. *)

module O = Qopt_optimizer

type t

val capacity : int
(** The most [(tag, key)] pairs a cache holds: 4,096, eight times the
    plan cache's default capacity.  A {!record} of a new pair into a full
    stripe first evicts that stripe's least recently used pair (last
    {!lookup} hit or {!record}), so a server that sees an unbounded
    stream of one-off templates keeps a bounded cache. *)

val create : ?shared:bool -> unit -> t
(** [~shared:true] makes the cache safe to consult and update from
    multiple domains (e.g. under {!Qopt_par.Batch.run_batch} or the
    compile server's worker domains): the key hash picks one of 8
    {!Striped} tables, each locked under the [lock.stmt_cache.*] family,
    so concurrent domains only serialize when they hash to the same
    stripe.  Defaults to [false]: one table with zero locking overhead. *)

val signature : O.Query_block.t -> string
(** Structural signature covering the block and its children: sorted base
    table names, join/local predicate column sets, grouping and ordering
    arities, LIMIT presence. *)

val pred_signature : O.Query_block.t -> O.Pred.t -> string
(** Signature of one predicate within its block (literal values
    abstracted — but comparison operators, IN arity and expensive-
    predicate parameters are identity), the per-predicate building block
    of {!signature} — also the envelope labels of {!Plan_cache}. *)

val lookup : t -> ?tag:string -> ?key:string -> O.Query_block.t -> float option
(** Recorded compile time for a structurally identical query, if any.
    [?tag] partitions the key space (the server tags with the chosen
    optimization level, so an actual measured at a downgraded level never
    serves a full-level request).  [?key] replaces the block's
    {!signature} as the shape key: a caller that already holds a key at
    least as fine — the server passes the request's schema-qualified
    template key, the plan cache's key — saves rendering the signature,
    and the cache holds the caller's string instead of a copy.  A cache
    should be keyed one way throughout. *)

val mem : t -> ?tag:string -> ?key:string -> O.Query_block.t -> bool
(** Whether an actual is recorded under [?tag] and [?key].  Unlike
    {!lookup} it is not counted as a hit or a miss and does not touch the
    LRU order.  The compile server asks it before recording a finished
    compile: a plan is stored in the plan cache only on the second
    compile of a template (second-sight admission). *)

val record : t -> ?tag:string -> ?key:string -> O.Query_block.t -> float -> unit
(** Store a measured compile time under the same optional [?tag]
    partition and [?key] as {!lookup}, evicting the stripe's least
    recently used pair when it is full (see {!capacity}). *)

val refine :
  t -> ?tag:string -> ?key:string -> O.Query_block.t -> model_s:float -> float
(** [refine t block ~model_s]: the recorded actual for a structurally
    identical query when one exists, [model_s] otherwise — the
    estimate-refinement rule shared by the compile server's admission
    path and the fleet router's routing estimate.  Counts as a lookup. *)

val size : t -> int
(** Entries across all stripes.  Lookups count into the process-wide
    [stmt_cache.hits] and [stmt_cache.misses] counters of
    {!Qopt_obs.Registry.default}. *)
