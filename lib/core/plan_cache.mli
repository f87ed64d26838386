(** A parameterized plan cache with envelope invalidation.

    Where {!Stmt_cache} memoizes compile {e times}, this caches the chosen
    {!Qopt_optimizer.Plan.t} itself, so a repeated statement template can
    skip optimization entirely.  Serving a stale plan silently would be
    worse than recompiling, so every entry carries the evidence needed to
    revalidate it at lookup:

    - a {b selectivity envelope}: for every local predicate of the stored
      query (all blocks), the estimated selectivity observed at store time
      widened by a multiplicative [slack].  A lookup whose estimated
      selectivities all fall inside the envelope is served from cache; one
      that drifts outside — different parameter values, or drifted
      histograms — invalidates the entry and falls back to a fresh
      compile.  The envelope is a conservative under-approximation of the
      true validity range of the join order: it never serves a plan the
      optimizer might no longer choose because the inputs moved more than
      [slack], at the cost of some recompiles that would have returned the
      same plan.
    - a {b statistics generation} per dependent base table
      ({!bump_stats}): an explicit signal that a table's catalog
      statistics changed.  Bumping a table's generation eagerly flushes
      exactly the entries that depend on it.

    Keys default to {!Stmt_cache.signature}; callers with SQL text supply
    the {!Qopt_sql.Template} key instead, which additionally separates
    string- from numeric-literal templates.

    Capacity is bounded; insertion over [capacity] evicts the
    least-recently-used entry.  Metrics: [plan_cache.{hits,misses,
    invalidations,evictions}] counters plus the [plan_cache.size] gauge
    in {!Qopt_obs.Registry.default}.

    The payload type ['a] is the caller's: the server stores the reply
    fields a hit must echo, tests store fingerprint material. *)

module O = Qopt_optimizer

type config = {
  slack : float;
      (** multiplicative envelope half-width: store-time selectivity [s]
          admits lookups in [[s*(1-slack), s*(1+slack)]] *)
  capacity : int;  (** max entries before LRU eviction *)
}

val default_config : config
(** slack 0.5, capacity 512. *)

type invalidation =
  | Envelope  (** a lookup selectivity left the stored envelope *)
  | Stats_generation
      (** a dependent table's statistics generation moved under the entry *)

val invalidation_string : invalidation -> string
(** ["envelope"] / ["stats_generation"]. *)

type 'a outcome =
  | Hit of { plan : O.Plan.t; payload : 'a }
  | Miss
  | Invalidated of invalidation
      (** the entry existed but failed revalidation; it has been removed,
          so the caller's fresh compile can {!store} a replacement *)

type 'a t

val create : ?shared:bool -> ?config:config -> unit -> 'a t
(** [~shared:true] makes the cache safe for multi-domain servers.  A
    shared cache is {!Striped}: the key hash picks one of
    [min 8 capacity] sub-caches, each locked under [lock.plan_cache.*]
    and owning its exact share of [capacity], its own LRU clock, and its
    own copy of the per-table statistics generations (so lookups stay
    single-lock; {!bump_stats} walks every stripe).  LRU eviction is
    per-stripe: the evicted entry is the least recently used {e within
    the full stripe}, which under a uniform key hash approximates global
    LRU while never letting total size exceed [capacity].  Defaults to
    [false]: one stripe, no locking. *)

val lookup : 'a t -> ?key:string -> O.Query_block.t -> 'a outcome
(** Revalidate and serve.  [key] defaults to
    [Stmt_cache.signature block].  The block's current estimated
    selectivities (histograms as they are {e now}, literals as bound) are
    checked against the stored envelope, and the dependent tables' stats
    generations against the store-time snapshot. *)

val store : 'a t -> ?key:string -> O.Query_block.t -> plan:O.Plan.t -> 'a -> unit
(** Cache a freshly chosen plan, recording the envelope and generation
    snapshot from [block] as currently estimated.  Replaces any entry
    under the same key; evicts the LRU entry when full. *)

val bump_stats : 'a t -> string -> int
(** [bump_stats t table] advances [table]'s statistics generation and
    eagerly flushes every entry depending on it, returning how many were
    flushed.  Each flush counts into [plan_cache.invalidations]. *)

val generation : 'a t -> string -> int
(** Current statistics generation of a table (0 until first bumped). *)

val envelope : 'a t -> string -> (string * float * float) list option
(** The stored envelope of the entry under [key] — [(predicate signature,
    lo, hi)] rows — for tests and introspection. *)

val size : 'a t -> int
(** Entries across all stripes. *)
