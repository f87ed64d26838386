(** Stripe routing and locking shared by {!Stmt_cache} and {!Plan_cache}.

    A striped map is an array of caller-owned stripe states.  A key's
    hash picks its stripe, so concurrent domains serialize only when they
    touch the same stripe.  An unshared map is one stripe with no lock; a
    shared one guards each stripe with its own contention-audited
    {!Qopt_obs.Lock}, all under one family name ([lock.<family>.*]).  No
    operation ever holds two stripe locks at once. *)

type 'a t

val count : shared:bool -> capacity:int -> int
(** The stripe-count rule: 1 when unshared, [max 1 (min 8 capacity)]
    when shared — never more stripes than capacity, so every stripe
    holds at least one entry. *)

val share : capacity:int -> count:int -> int -> int
(** [share ~capacity ~count i] is stripe [i]'s exact share of
    [capacity]: the shares of stripes [0 .. count-1] sum to [capacity]
    and differ by at most one. *)

val create : shared:bool -> capacity:int -> string -> (int -> 'a) -> 'a t
(** [create ~shared ~capacity family init] builds {!count} stripes;
    [init share] makes each stripe's state from its capacity {!share}.
    [family] names the stripe locks (unused when unshared). *)

val with_key : 'a t -> 'k -> ('a -> 'b) -> 'b
(** Run on the key's stripe ([Hashtbl.hash key mod count]), under that
    stripe's lock. *)

val fold : 'a t -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc
(** Visit every stripe in index order, each under its own lock. *)

val evict_lru : ('k, 'e) Hashtbl.t -> ('e -> int) -> bool
(** The eviction rule of a bounded stripe: remove the entry with the
    smallest [tick] (its last touch on the stripe's LRU clock).  [false]
    when the table is empty. *)
