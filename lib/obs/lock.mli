(** Contention-audited mutexes.

    A [Lock.t] is a plain [Mutex.t] plus a named metric family in
    {!Registry.default}:

    - [lock.<name>.acquisitions] — counter, one per instrumented acquire
    - [lock.<name>.contended]    — counter, acquires that actually blocked
    - [lock.<name>.wait_s]       — histogram of seconds spent blocked per
      acquire (zero observations for uncontended acquires, so [sum] is the
      total blocked time and [count] equals [acquisitions])

    Locks sharing a name share the family: the N stripes of a striped
    cache all fold into one [lock.stmt_cache.*] reading.  Lock {e wait
    share} — the fraction of a run's core-seconds spent blocked on locks —
    is [total_wait_s () /. (elapsed *. domains)].

    When {!Control.on} is false every operation is a bare
    [Mutex.lock]/[Mutex.protect] behind one load-and-branch, the same
    disabled-path contract as every other metric in this library.
    Instrumented acquires cost a counter bump and a histogram observation;
    contended ones add two monotonic clock reads around the blocking
    [Mutex.lock].

    Waits recorded from concurrent domains shard per {!Shard} slot like
    every other metric; readings merge by summing. *)

type t

val create : string -> t
(** A fresh mutex under the given family name.  Called once per guarded
    structure (or stripe) at construction time. *)

val name : t -> string

val with_lock : t -> (unit -> 'a) -> 'a
(** Instrumented [Mutex.protect]: unlocks on normal return and on
    exceptions. *)

val total_wait_s : unit -> float
(** Summed blocked seconds across every lock family created so far. *)

val total_acquisitions : unit -> int

val total_contended : unit -> int

val wait_s : string -> float
(** Blocked seconds of one family (0.0 if the family does not exist). *)
