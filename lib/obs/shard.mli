(** Per-domain shard slots.

    Metrics are sharded: each metric holds [max_slots] independent cells and
    a recording operation writes only the cell of the calling domain's slot.
    A domain's slot is stored in domain-local storage and defaults to 0 (the
    main domain).  Worker domains that record metrics concurrently must
    claim distinct slots with {!set_slot} before recording —
    [Qopt_par.Pool] does this for its workers.

    Merged readings ({!Counter.value}, {!Histo.count}, [Registry] export …)
    sum the slots, so a merged batch reading equals the serial reading over
    the same work.  Reads that overlap concurrent recording are eventually
    consistent; resetting while workers record is not supported. *)

val max_slots : int
(** 16.  [Qopt_par] clamps its domain count to this. *)

val slot : unit -> int
(** The calling domain's slot (domain-local, default 0). *)

val set_slot : int -> unit
(** Claim a slot for the calling domain.  Raises [Invalid_argument] outside
    [0, max_slots). *)

val in_use : unit -> int
(** One past the highest slot any domain has claimed (at least 1): the
    cells at and above it have never been written. *)

val next_seq : unit -> int
(** Next value of the process-wide write sequence (gauge merging). *)
