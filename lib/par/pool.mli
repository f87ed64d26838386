(** The domain pool.

    One implementation, two lifetimes.  A persistent pool ({!create})
    keeps its helpers in a {!Crew}: no helper domain exists until a {!run}
    posts a batch, which wakes the sleeping helpers and spawns the retired
    ones; the caller and the helpers then work through the batch together.
    The owner's tick ({!retire_idle}) retires helpers idle for
    {!Crew.idle_spell_s}.  {!map_indexed} is a pool that lives for a single
    batch.

    Scheduling: task indices are seeded round-robin into one work-stealing
    deque per participant; a participant drains its own deque LIFO and
    steals FIFO from the others when empty.  A helper that wakes late
    finds its deque already stolen from, so a slow wake-up costs load
    balance, never a task.  Since tasks are keyed by index and must not
    depend on execution order, scheduling affects only load balance, never
    output.

    Each helper records metrics on its own {!Qopt_obs.Shard} slot.  If a
    task calls back into the pool, the nested call runs sequentially on its
    domain (no oversubscription, no slot collisions).

    If one or more tasks of a batch that went wide raise, every task still
    runs, then the exception of the lowest-indexed failing task is
    re-raised (with its original backtrace) — deterministic regardless of
    domain count.  A batch run on the caller alone stops at its first
    failing task, which is the lowest-indexed one too. *)

val max_domains : int
(** Equal to {!Qopt_obs.Shard.max_slots}. *)

type t
(** A persistent pool of helper domains. *)

val create : ?minor_heap_words:int -> helpers:int -> first_slot:int -> unit -> t
(** A pool of up to [helpers] helper domains, none of them spawned yet (0
    is allowed: every batch then runs on its caller).  Helper [k] (from 1)
    takes obs shard slot [first_slot + k - 1]; callers put [first_slot]
    past every slot already in use (the main domain's 0, a server's
    workers).  [minor_heap_words] sets each
    helper's own minor heap (default: the runtime's, 256k words = 2 MB),
    for helpers that take over part of a caller's work rather than whole
    jobs.  Raises [Invalid_argument] when the slots fall outside
    [\[1, max_domains)]. *)

val helpers : t -> int
(** The configured helper count. *)

val live : t -> int
(** Helper domains alive right now ({!Crew.live}). *)

val retire_idle : t -> unit
(** {!Crew.retire_idle} on the helpers: call it from a periodic tick.
    Without one, helpers live from their first batch to {!close}. *)

val run : t -> int -> (int -> unit) -> unit
(** [run t n f] calls [f i] for every [i] in [0..n-1] on the caller and
    the pool's helpers, and returns once every call has returned (the
    barrier: every write a task made is visible to the caller afterwards).
    It runs on the caller alone when [n <= 1], when the pool has no
    helpers, when called from inside a task, or when another caller's
    batch holds the helpers — it never waits for them.  Retired helpers are
    respawned on the caller before it starts on its share; one that
    {!retire_idle} is retiring right then sits the batch out.  Safe to
    call from several domains at once. *)

val close : t -> unit
(** Wakes and joins the helpers, including one being spawned or retired
    concurrently.  Idempotent; {!run} after [close] runs on the caller
    alone. *)

val map_indexed : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map_indexed ~domains n f] evaluates [f i] for every [i] in [0..n-1]
    across [domains] domains (the caller participates, so a pool of
    [domains - 1] helpers on slots [1..domains-1] lives for the call) and
    returns the results indexed by [i] — input order is always preserved.
    [domains] defaults to 1 (run everything in the caller) and is clamped
    to {!max_domains}. *)
