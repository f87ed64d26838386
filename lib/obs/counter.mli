(** Monotonic integer counter, sharded per domain slot ({!Shard}):
    increments touch only the calling domain's cell, [value] sums the
    cells.  Concurrent workers on distinct slots never lose updates, and
    the cells sit a cache line apart, so they never share one either. *)

type t

val make : string -> t
(** Standalone constructor; use {!Registry.counter} for named, exported
    metrics. *)

val name : t -> string

val incr : t -> unit
(** No-op while {!Control.on} is false. *)

val add : t -> int -> unit
(** No-op while {!Control.on} is false. *)

val value : t -> int

val reset : t -> unit
