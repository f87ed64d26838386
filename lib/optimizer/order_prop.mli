(** The order physical property (System R's "interesting orders").

    An interesting order is a *requested* row order with a kind that decides
    its subsumption rule (Section 4 of the paper: prefix subsumption for
    ORDER BY coverage, set subsumption for GROUP BY coverage) and its
    retirement behaviour.  Plans carry a *physical* order — a plain column
    sequence — which may satisfy several interesting orders at once. *)

type kind =
  | Join_key  (** order on a (future) merge-join column *)
  | Grouping  (** order useful to a sort-based GROUP BY: any permutation *)
  | Ordering  (** the ORDER BY clause: exact sequence required *)

type t = {
  cols : Colref.t list;
  kind : kind;
}

type physical = Colref.t list
(** The order actually delivered by a plan; [[]] means unordered (DC). *)

val make : kind -> Colref.t list -> t
(** Raises [Invalid_argument] on an empty column list. *)

val canonical : Equiv.t -> t -> Colref.t list
(** Equivalence-normalized column list; [Grouping] columns are additionally
    sorted so that set-equal groupings canonicalize identically. *)

val equal_under : Equiv.t -> t -> t -> bool
(** Same physical requirement: canonical column lists coincide (a grouping
    matches an order on any permutation of the same columns). *)

val applicable : tables:Qopt_util.Bitset.t -> t -> bool
(** All referenced quantifiers are inside the table set. *)

val satisfied_by : Equiv.t -> t -> physical -> bool
(** Does a plan's physical order satisfy this interesting order?
    [Join_key]/[Ordering]: the requested columns are a prefix of the physical
    order; [Grouping]: the requested column set equals the first [k] physical
    columns in any permutation. *)

val covers : Equiv.t -> base:t -> candidate:t -> bool
(** [covers equiv ~base ~candidate] is the subsumption test [base ≺ candidate]
    (candidate is more general): a plan delivering [candidate] also delivers
    [base].  Uses the candidate's kind to pick prefix vs. set subsumption. *)

val insert_dedup : Equiv.t -> t -> t list -> t list
(** Adds an interesting order to a list unless an equivalent one (under
    {!equal_under}) is present.  When merging, a non-[Join_key] kind wins so
    that retirement stays conservative. *)

val dedup_canonical : Equiv.t -> t list -> (t * Colref.t list) list
(** [List.fold_left (fun acc o -> insert_dedup equiv o acc) [] orders],
    each kept order paired with its {!canonical} columns.  Every order is
    canonicalized once, where the fold re-canonicalizes both sides of
    every comparison. *)

val pp : Format.formatter -> t -> unit

val pp_physical : Format.formatter -> physical -> unit
