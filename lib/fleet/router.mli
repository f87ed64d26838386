(** The fleet front door: one process that estimates every compile once
    and routes it to a fleet of independent [qopt serve] backends.

    Process isolation is the point — each backend runs its own OCaml
    runtime, so one backend's stop-the-world minor GC (or its death)
    never stalls the others, which is what keeps tail latency flat at
    equal total domains compared to one big multi-worker server.

    Routing pipeline per compile request:

    + {b Estimate once}: parse + bind at the router, run one COTE pass
      over the configured level chain, refine with the router's shared
      statement cache under the template key (fed back from measured
      [c_elapsed_s] in compile replies).  The refined estimate rides
      along as [estimate_hint_s], so backends started with
      [--trust-hints] skip their own pass.
    + {b Tier}: predicted seconds at or under [threshold_s] go to the
      latency tier (backends [0, latency_tier)), the rest to the
      throughput tier (the remaining backends, with a higher timeout).
    + {b Affinity}: within the tier, candidates are ordered by
      rendezvous hash over the schema-qualified template key, so repeat
      templates land on the same backend (warm statement + plan
      caches); with [affinity = false], least-inflight wins.
    + {b Retry / failover}: a rejection carrying [retry_after_us] earns
      one same-backend retry after the advised backoff (capped at
      [backoff_cap_s]); a dead channel marks the backend down and fails
      over along the candidate order — a SIGKILLed backend costs an
      in-flight request one retry, never a wedge.  Down backends are
      re-admitted by a single-flight probe after [probe_after_s]
      (respawning a dead spawned process when [respawn]).

    The router also answers [estimate] (locally, no backend hop),
    [stats] (per-backend health + live backend stats + the router's
    [fleet.*] metrics), and [shutdown] (drains backends first).

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
  schemas : (string * Qopt_catalog.Schema.t) list;
  levels : Cote.Multi_level.level list;
  latency_timeout_s : float;
  throughput_timeout_s : float;
  backoff_cap_s : float;  (** cap on server-advised retry backoff *)
  probe_after_s : float;  (** down-time before a readmission probe *)
  respawn : bool;  (** probes may respawn dead spawned backends *)
}

val default_config :
  listen:Srv.Frontdoor.addr ->
  backends:Backend.spec list ->
  model:Cote.Time_model.t ->
  schemas:(string * Qopt_catalog.Schema.t) list ->
  unit ->
  config
(** [latency_tier = n-1] (one throughput backend), [threshold_s =
    0.5ms], affinity on, serial env, default level chain, 10s/60s tier
    timeouts, 50ms backoff cap, 250ms probe cool-down, respawn on. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Spawn/connect every backend (fails if any never comes up), listen,
    and serve until a [shutdown] request.  [on_ready] fires after the
    listener is bound and all backends are in rotation — tests hook it
    to start clients.  On shutdown, backends drain before client
    connections are torn down. *)
