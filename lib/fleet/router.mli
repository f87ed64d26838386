(** The fleet front door: one process that estimates every compile to
    route it to one of a fleet of independent [qopt serve] backends.

    Process isolation is the point — each backend runs its own OCaml
    runtime, so one backend's stop-the-world minor GC (or its death)
    never stalls the others, which is what keeps tail latency flat at
    equal total domains compared to one big multi-worker server.

    Routing pipeline per compile request:

    + {b Estimate to route}: parse + bind at the router and run one COTE
      pass under [budget] at the first level of
      {!Qopt_server.Level.default_levels}.  The request goes on without
      it ([estimate_hint_s] is [None]): the backend estimates again to
      admit, so every backend prices its own compiles.
    + {b Tier}: a model prediction at or under [threshold_s] goes to the
      latency tier (backends [0, latency_tier)), the rest, and compiles
      whose pass blew the budget, to the throughput tier (the remaining
      backends, with a 60 s timeout against the latency tier's 10 s).
      The tier reads the model alone, never a measured actual, so a
      template's repeats stay on one tier whatever the load.
    + {b Affinity}: within the tier, candidates are ordered by
      rendezvous hash over the schema-qualified template key, so repeat
      templates land on the same backend (warm statement + plan
      caches); with [affinity = false], least-inflight wins.
    + {b Retry / failover}: a rejection carrying [retry_after_us] earns
      one same-backend retry after the advised backoff (capped at
      50 ms); a dead channel marks the backend down and fails over along
      the candidate order — a SIGKILLed backend costs an in-flight
      request one retry, never a wedge.  Down backends are re-admitted
      by a single-flight probe after [probe_after_s], which respawns a
      dead spawned process.

    The router also answers [estimate] (locally, no backend hop; the
    prediction is refined by the router's statement cache, fed from the
    measured [c_elapsed_s] of compile replies),
    [stats] (per-backend health + live backend stats + the router's
    [fleet.*] metrics and serving model), and [shutdown] (drains
    backends first).

    The socket side and the [error] replies for bad input are
    {!Qopt_server.Frontdoor}'s, shared with [qopt serve].  Each compile
    runs on its own dispatcher thread ({!Qopt_server.Frontdoor.spawn}),
    so a pipelined burst fans out across backends. *)

module O = Qopt_optimizer
module Srv = Qopt_server

type config = {
  listen : Srv.Frontdoor.addr;
  backends : Backend.spec list;
  latency_tier : int;  (** backends reserved for small queries *)
  threshold_s : float;  (** tier split on predicted seconds *)
  affinity : bool;  (** rendezvous template affinity vs least-inflight *)
  env : O.Env.t;
  model : Cote.Time_model.t;
  model_fit_s : float;
      (** wall seconds the caller spent fitting [model], reported by
          [stats] *)
  budget : O.Budget.t;
      (** caps on the router's COTE pass.  A budget error answers an
          [estimate] with the server's [error] reply; a [compile] goes
          to the throughput tier, where the backend (run with the same
          caps) picks the regime. *)
  schemas : (string * Qopt_catalog.Schema.t) list;
  probe_after_s : float;  (** down-time before a readmission probe *)
}

val default_config :
  listen:Srv.Frontdoor.addr ->
  backends:Backend.spec list ->
  model:Cote.Time_model.t ->
  schemas:(string * Qopt_catalog.Schema.t) list ->
  unit ->
  config
(** [latency_tier = n-1] (one throughput backend), [threshold_s =
    0.5ms], affinity on, serial env, no fit time, unlimited budget, 250ms
    probe cool-down. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Spawn/connect every backend (fails if any never comes up), listen,
    and serve until a [shutdown] request.  [on_ready] fires after the
    listener is bound and all backends are in rotation — tests hook it
    to start clients.  On shutdown, backends drain before client
    connections are torn down. *)
