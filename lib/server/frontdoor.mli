(** The front door shared by the compile server ({!Server}) and the fleet
    router ([Qopt_fleet.Router]): everything between the socket and the
    serving policy.

    Concurrency model: an accept loop polls the listener in 50 ms ticks
    (so a shutdown stops it within one tick) and starts one thread per
    connection, which decodes frames and hands each request to the
    caller's [handle].  Replies from any thread go through {!send} under
    the connection's write lock.  A connection owns its descriptor: once
    closed, later replies to it (a queued job finishing, a router
    dispatch completing) are dropped, never written to the client the
    kernel hands the recycled descriptor to next.  The request front end
    and its [error] replies live here too, so both front doors answer the
    same input with the same reply. *)

module O = Qopt_optimizer

type addr = [ `Unix of string | `Tcp of string * int ]

val dial : addr -> Unix.file_descr
(** Connect a stream socket, closing it again if the connect fails (the
    error is re-raised).  Ignores SIGPIPE for the process (once), as
    {!serve} does, so a peer hanging up mid-write is an [EPIPE] error,
    not a fatal signal. *)

type conn
(** One accepted connection: its descriptor, write lock and open flag. *)

val send : conn -> Proto.reply -> unit
(** Encode and write one reply frame under the write lock.  A reply to a
    closed connection is dropped, and a write failing because the client
    hung up is ignored. *)

val send_encoded : conn -> string -> unit
(** {!send} for a reply already encoded (as {!Proto.encode_compile}
    makes one). *)

val spawn : conn -> id:int -> (unit -> unit) -> unit
(** Run [f] on its own thread for request [id].  Its front-end failures
    are answered like [handle]'s in {!serve}, and the connection is not
    closed before every [f] spawned on it has returned. *)

val serve :
  ?tick:(unit -> unit) ->
  listen:addr ->
  on_ready:(unit -> unit) ->
  shutting:(unit -> bool) ->
  handle:(conn -> Proto.request -> unit) ->
  on_error:(unit -> unit) ->
  drain:(unit -> unit) ->
  unit ->
  unit
(** Listen (backlog 64; a stale Unix socket file is unlinked first, TCP
    sets [SO_REUSEADDR]), call [on_ready], then accept until
    [shutting ()].  [tick ()] runs on the accept loop after every poll, so
    at least every 50 ms (default: nothing); the server retires its idle
    compile domains from it.

    A front-end failure raised by [handle] is counted by [on_error ()]
    and answered with an [error] reply carrying the request's id.  The
    front-end failures are [Failure], [Parser.Error], [Binder.Error] and
    [Invalid_argument] (their message), a lexer error (its message with
    ["(at byte N)"]) and a blown budget (as {!O.Budget.pp_blown} prints
    it); any other exception propagates.  A payload that is not JSON or
    not a request gets an [error] with id 0 and the connection reads on;
    a malformed frame gets one with id 0 and closes it.

    On the way out — or on an exception — the listener is closed (a Unix
    socket file unlinked), [drain ()] runs, then every live connection is
    shut down and its thread joined.  [drain] also runs, before the
    [Unix.Unix_error] propagates, when the address cannot be bound. *)

type shapes
(** The statement text map: a bounded map from (schema, literal-masked
    text — {!Qopt_sql.Lexer.shape}) to the statement's template key and
    shape, so a repeated text is prepared without the parser and the
    template key.  Striped and locked like the plan cache, with the same
    capacity rule and least-recently-used eviction.  Metrics:
    [frontdoor.shape_hits] counts the prepares it served,
    [frontdoor.shape_entries] is its size after the last admission. *)

val shapes : capacity:int -> shapes
(** An empty map holding at most [capacity] entries. *)

val entries : shapes -> int
(** Entries across all stripes. *)

type ticket
(** What {!admit} enters into a {!shapes} map for a parsed statement. *)

type prepared = {
  p_schema : string;  (** the resolved schema name *)
  p_key : string;
      (** [schema ^ "|" ^ Template.key_of ast]: the key of the statement
          cache, the plan cache and backend affinity.  At least as fine as
          the block signature; the prefix keeps identical SQL against
          same-named tables in different schemas apart. *)
  p_block : O.Query_block.t;  (** the bound query, named ["q<id>"] *)
  p_ticket : ticket option;
      (** set when the statement was parsed, a map was given, and its
          literals in text order are exactly its template's parameters —
          a [LIMIT n] never is, nor is a statement served from the map *)
}

val prepare :
  ?shapes:shapes ->
  who:string ->
  (string * Qopt_catalog.Schema.t) list ->
  id:int ->
  sql:string ->
  schema:string option ->
  prepared
(** Resolve the schema ([None] picks the first one, under its real name),
    parse, key, then bind.  Raises front-end failures, among them
    ["unknown schema ..."] and ["<who> has no schemas configured"].

    With [shapes], a text whose masked form is in the map skips the parse
    and the key: its literals fill the stored shape, which is then bound.
    Both ways give the same [p_key] and an equal [p_block]; a text
    {!Qopt_sql.Lexer.shape} rejects is parsed, so it fails as before. *)

val admit : shapes -> prepared -> unit
(** Enter [p]'s text into the map if it carries a ticket ([p_ticket]).  The
    server admits a text once its plan-cache lookup hit, so traffic that
    rarely repeats never fills the map. *)

type evaluation = {
  ev_choice : Level.chosen;  (** the level and its COTE prediction *)
  ev_predicted_s : float;
      (** the statement cache's recorded actual when there is one, else
          [ev_choice.predicted_s] *)
  ev_cache_hit : bool;  (** the statement cache supplied the seconds *)
}

val evaluate :
  O.Env.t ->
  model:Cote.Time_model.t ->
  downgrade_s:float option ->
  budget:O.Budget.t ->
  Cote.Stmt_cache.t ->
  key:string ->
  O.Query_block.t ->
  evaluation
(** {!Level.select} over {!Level.default_levels} with
    {!Cote.Predict.compile_time} under [budget], then
    the statement-cache lookup by [key], tagged with the chosen level (an
    actual measured at a downgraded level never refines a full-level
    request).  Raises {!O.Budget.Exceeded} when the budgeted pass blows. *)

val estimate_reply : int -> evaluation -> Proto.reply
(** The [estimate] reply for request [id]. *)

val model_fields :
  model:Cote.Time_model.t -> fit_s:float -> (string * Qopt_util.Json.t) list
(** The [stats] fields both front doors add: ["model"], the serving
    coefficients in seconds per plan ([c_nljn], [c_mgjn], [c_hsjn],
    [c_join]; printed with 17 significant digits, so they parse back bit
    for bit), and ["model_fit_s"], the wall seconds the startup fit took
    (0 when the model was given, not fitted). *)
