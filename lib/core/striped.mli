(** Stripe routing, locking and bounded LRU stripes shared by {!Stmt_cache},
    {!Plan_cache} and the compile server's statement text map.

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

(** A bounded table evicted least recently used first: the state of one
    bounded stripe.  Every cache on a striped map keeps one per stripe,
    sized by the stripe's capacity {!share}, and adds only its own entry
    payload.  Not synchronized: use it under {!with_key} or {!fold}. *)
module Lru : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** An empty table holding at most the given number of pairs. *)

  val find : ('k, 'v) t -> 'k -> 'v option
  (** Look a key up and, when present, make it the most recently used. *)

  val peek : ('k, 'v) t -> 'k -> 'v option
  (** Look a key up without touching the LRU order. *)

  val mem : ('k, 'v) t -> 'k -> bool
  (** Membership, without touching the LRU order. *)

  val replace : ('k, 'v) t -> 'k -> 'v -> bool
  (** Bind a key and make it the most recently used.  A new key in a
      full table first evicts the least recently used pair (last
      {!find} or {!replace}); [true] when it did. *)

  val remove : ('k, 'v) t -> 'k -> unit

  val length : ('k, 'v) t -> int

  val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
end
