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

val create : ?shared:bool -> ?stripes:int -> unit -> t
(** [~shared:true] makes the cache safe to consult and update from
    multiple domains (e.g. under {!Qopt_par.Batch.run_batch} or the
    compile server's worker domains).  A shared cache is {e striped}: the
    key hash picks one of [stripes] (default 8, clamped to [1, 64])
    independently locked tables, so concurrent domains only serialize when
    they hash to the same stripe — [~stripes:1] recovers the old
    single-shared-mutex design, which the contention bench uses as its
    before measurement.  Stripe locks are contention-audited
    {!Qopt_obs.Lock}s under the [lock.stmt_cache.*] family.  Defaults to
    [false]: the unshared cache is one stripe with zero locking
    overhead. *)

val stripes : t -> int
(** Number of stripes (1 for an unshared cache). *)

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

val record : t -> ?tag:string -> ?key:string -> O.Query_block.t -> float -> unit
(** Store a measured compile time under the same optional [?tag]
    partition and [?key] as {!lookup}. *)

val refine :
  t -> ?tag:string -> ?key:string -> O.Query_block.t -> model_s:float -> float
(** [refine t block ~model_s]: the recorded actual for a structurally
    identical query when one exists, [model_s] otherwise — the
    estimate-refinement rule shared by the compile server's admission
    path and the fleet router's routing estimate.  Counts as a lookup
    for hit/miss accounting. *)

val size : t -> int

val hits : t -> int
(** Number of successful lookups so far. *)

val misses : t -> int
