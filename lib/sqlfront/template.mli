(** Parameter abstraction for plan caching.

    Production traffic is dominated by parameter-varying repeats of the
    same statement templates: the SQL text differs only in literal
    constants.  [normalize] rewrites a parsed SELECT into its template —
    every literal constant is replaced by a typed placeholder while the
    observed value is retained alongside, so a plan cache can key on the
    template text and still feed the concrete values to selectivity
    estimation ({!Cote.Plan_cache}).

    Placeholders are ordinals in query traversal order (join ON
    conditions, then WHERE, recursing into EXISTS / IN subqueries), so
    normalization is deterministic and idempotent: numeric literals
    become the ordinal itself, string literals become ["?<ordinal>"].
    Everything structural — tables, predicate shapes, IN-list arity,
    grouping/ordering columns and LIMIT — survives untouched, which is
    exactly the equivalence class of {!Cote.Stmt_cache.signature}. *)

type ptype =
  | P_num  (** numeric literal *)
  | P_str  (** string literal *)

type param = {
  p_index : int;  (** placeholder ordinal, 0-based, traversal order *)
  p_type : ptype;
  p_value : Ast.literal;  (** the observed literal the placeholder replaced *)
}

type t = {
  shape : Ast.select;  (** the query with literals replaced by placeholders *)
  params : param list;  (** observed values, in placeholder order *)
  key : string;  (** rendered template text — the cache key *)
}

val normalize : Ast.select -> t
(** Abstract every literal constant.  Idempotent: normalizing [t.shape]
    yields the same shape and key (with the placeholders themselves as the
    observed values). *)

val key_of : Ast.select -> string
(** [(normalize s).key] without building the parameter list. *)

val instantiate : Ast.select -> Ast.literal list -> Ast.select
(** The inverse of {!normalize}: [instantiate t.shape (List.map (fun p ->
    p.p_value) t.params)] is the statement [t] was normalized from.  The
    literals fill the placeholders in {!normalize}'s traversal order, which
    is their order in the statement's text.  Raises [Invalid_argument]
    unless there are exactly as many literals as placeholders. *)
