(** On-demand domains: the one lifecycle of every compile domain, the
    server's workers and the pool's helpers alike.

    A crew has [cap] members.  Member [k] (from 1) runs on obs shard slot
    [first_slot + k - 1] whenever it has a live domain.  No domain exists
    until work arrives: {!demand} wakes the sleeping members and spawns
    domains for free ones.  A domain polls for work under the crew's
    lock, runs it outside the lock, and sleeps on a condition variable
    when there is none.  A member asleep for {!idle_spell_s} since its
    last piece of work is retired by the next {!retire_idle}: its domain
    exits and is joined before the member (and its slot) can be spawned
    again.

    Why retire at all: in OCaml 5.1 every minor collection stops every
    domain, and a blocked domain answers only through its backup thread,
    so an idle domain taxes the collections of the domains that are
    working.  OCaml 5.1's [Condition] has no timed wait, so nothing in the
    crew sleeps on a timer: the owner calls {!retire_idle} from a tick it
    already has (the server's accept loop wakes every 50 ms).  Without
    ticks, domains live until {!close}. *)

val idle_spell_s : float
(** How long a member sleeps without work before {!retire_idle} retires
    it: 0.2 s.  Measured against retiring as soon as the queue empties
    (which doubled the serving peak RSS through spawn churn); see
    EXPERIMENTS.md, "Idle domains and minor collections". *)

type 'w t

val create :
  ?minor_heap_words:int ->
  ?lock:Mutex.t ->
  cap:int ->
  first_slot:int ->
  poll:(int -> 'w option) ->
  work:(int -> 'w -> unit) ->
  unit ->
  'w t
(** A crew with no live domain.  Member [k]'s domain loops: [poll k] under
    [lock] (a fresh mutex by default; pass one to guard the state [poll]
    reads with it), [work k w] outside it, sleep when [poll] finds nothing.
    Neither may raise.  [minor_heap_words] sets each domain's own minor
    heap (default: the runtime's, 256k words = 2 MB).  Raises
    [Invalid_argument] when [cap < 0] or the slots fall outside
    [\[1, Qopt_obs.Shard.max_slots)]. *)

val demand : 'w t -> int -> unit
(** [demand t n]: work for [n] domains arrived (callers update what [poll]
    reads first, under the lock).  Wakes every sleeping member and spawns
    domains for free members, lowest first, until [n] are awake or
    [cap] are live.  The spawns run on the caller, which never waits for a
    domain to start working.  Work that finds every member busy waits for
    one to poll again; a member being retired is replaced right after its
    join.  A no-op after {!close}. *)

val retire_idle : 'w t -> unit
(** Retires every member asleep for at least {!idle_spell_s} since its
    last work, joins its domain, then spawns what {!demand} could not while
    those members were leaving.  Call it from a periodic tick; it blocks
    only for the retiring domains to exit. *)

val live : 'w t -> int
(** Members with a domain, spawning, working, asleep or being retired. *)

val close : 'w t -> unit
(** Stops spawning, lets every live domain finish the work [poll] still
    hands it, and joins them all, including domains being spawned or
    retired concurrently.  Idempotent. *)

val spawned : Qopt_obs.Counter.t
(** [domains.spawned]: domains spawned by every crew of the process.  The
    lifecycle counters live in their own ["domains"] registry, not in
    {!Qopt_obs.Registry.default}, so that a compile's counters there do
    not depend on whether a helper had to be respawned for it.  Like every
    counter, they count only while {!Qopt_obs.Control.on}. *)

val retired : Qopt_obs.Counter.t
(** [domains.retired]: domains retired idle and joined. *)
