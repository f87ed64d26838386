(** The random workload (Section 5).

    Reproduces DB2's random query generator as the paper describes it: "The
    tool creates increasingly complex queries by merging simpler queries
    defined on a given database schema, using either subqueries or joins,
    until a specified complexity level is reached.  One important feature of
    the generator is that it tries to join two tables with a foreign-key to
    primary-key relationship or having columns with the same name."

    Seed queries pick a table and attach neighbours along foreign keys;
    merging either splices two queries into one block joined through a
    foreign key (or a shared column name) or nests one query as a subquery
    of the other.  Generation is deterministic in the seed. *)

val generate :
  ?seed:int ->
  ?count:int ->
  ?complexity:int ->
  schema:Qopt_catalog.Schema.t ->
  unit ->
  Workload.t
(** [generate ~schema ()] builds [count] (default 12) queries of increasing
    complexity (up to ~[complexity] tables per query, default 12) over the
    schema — the paper uses the real1 schema. *)

val blocks :
  schema:Qopt_catalog.Schema.t ->
  tables:int ->
  count:int ->
  Qopt_optimizer.Query_block.t list
(** [count] query blocks of exactly [tables] quantifiers (subquery blocks
    included), in the order the seeds 1, 2, ... of {!generate} (complexity
    10) produce them.  Deterministic; raises [Invalid_argument] when the
    first 10,000 seeds hold fewer. *)
