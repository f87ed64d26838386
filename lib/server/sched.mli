(** The request scheduler: a thread-safe priority queue ordering admitted
    work shortest-estimated-compilation-first.

    SJF over {e predicted} compile time is the paper's scheduling payoff:
    the estimate is available before optimization starts, so cheap queries
    overtake expensive ones and tail latency of the (dominant) cheap
    traffic drops.  [Fifo] mode keeps arrival order — the comparison
    baseline, selectable per server.

    Within equal keys the tiebreak is arrival order, so [Fifo] is literally
    SJF with a constant key.  Nothing here blocks: consumers poll with
    {!try_pop} (the server's workers sleep on their crew's condition, see
    {!Qopt_par.Crew}); producers and consumers may live on any mix of
    threads and domains.

    The heap lock is a contention-audited {!Qopt_obs.Lock} (family
    [lock.sched.*]); {!length} reads an atomic mirror of the size instead
    of taking it, so admission checks and queue-depth gauges never
    contend with pushers and poppers. *)

type mode = Sjf | Fifo

val mode_string : mode -> string

type 'a t

val create : mode -> 'a t

val mode : 'a t -> mode

val push : 'a t -> priority:float -> 'a -> bool
(** Enqueue with the given priority (predicted seconds; ignored under
    [Fifo]).  Returns [false] — and drops the item — if the scheduler is
    already closed. *)

val try_pop : 'a t -> 'a option
(** The next item in priority order, or [None] when nothing is queued.
    Items left at close time are still delivered (drain them with
    {!drain} first for cancel-on-shutdown semantics). *)

val drain : 'a t -> 'a list
(** Atomically removes and returns everything queued, in pop order. *)

val close : 'a t -> unit
(** Subsequent pushes are refused. *)

val length : 'a t -> int
(** Lock-free: reads an atomic mirror maintained inside push/pop.  A read
    overlapping a concurrent mutation sees the size just before or just
    after it. *)
