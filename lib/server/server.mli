(** The compile-service daemon.

    Serves {!Proto} requests over a Unix-domain or TCP socket.  Every
    incoming query is first run through the COTE ({!Cote.Predict}); the
    predicted compilation time then drives the three serving decisions:

    - {b admission} ({!Admission}): requests whose estimate exceeds the
      per-request or aggregate in-flight budget get a structured
      [rejected] reply instead of queueing-forever;
    - {b scheduling} ({!Sched}): admitted compiles are ordered
      shortest-estimated-job-first (or FIFO for comparison) and executed
      by a pool of worker domains, with per-request deadlines enforced at
      dequeue and between optimizer passes ({!Qopt_optimizer.Optimizer}
      [~interrupt]);
    - {b level selection} ({!Level}): estimates above a threshold
      downgrade the optimization level before compiling.

    The socket side — listener, one thread per connection, framing,
    replies, schema resolution, parse/bind/template key, the COTE pass and
    the [error] replies for bad input — is {!Frontdoor}'s; this module is
    the policy behind it.  Connection threads run admission inline and
    answer [estimate], [stats] and plan-cache hits themselves; worker
    domains execute compiles.  Workers and helpers are spawned when work
    arrives and retired after an idle spell ({!Qopt_par.Crew}), so a
    server answering only plan-cache hits runs no compile domain at all.
    Worker domains claim distinct {!Qopt_obs.Shard} slots so [server.*]
    and optimizer metrics shard cleanly.  A statement cache ({!Cote.Stmt_cache} [~shared:true]) is
    shared across all connections: recorded actual compile times refine
    the admission estimate for queries with the same
    template key ({!Frontdoor.prepared}).

    The spanning-tree regime is priced by {!Cote.Greedy_model.default}
    and runs one deterministic sweep (no randomized restarts).

    Each server event is counted once, per server, in the field of the
    [stats] reply that names it: [requests] (every request, [stats] polls
    included), [admitted], [rejected], [cancelled], [compiles],
    [estimates], [errors], [compile_errors] (the [errors] of admitted
    compiles that raised in a worker), [plan_hits], [downgrades]
    (downgrade steps, a request can take several), [regime_dp],
    [regime_greedy] and [regime_fallbacks].  After any sequence of
    requests, once every reply is in, [requests] is the sum of
    [estimates], [errors], [compiles], [plan_hits], [rejected],
    [cancelled] and the [stats], [shutdown] requests, and [admitted] is
    [compiles + plan_hits + cancelled + compile_errors].  The [metrics]
    object carries the timing distributions ([server.queue_wait_s],
    [server.latency_s], [server.estimate_err_pct]) and the
    [server.queue_depth] gauge. *)

module O = Qopt_optimizer

type addr = Frontdoor.addr
(** Kept under this name for callers that only know the server. *)

type config = {
  listen : addr;
  env : O.Env.t;
  model : Cote.Time_model.t;  (** fitted time model for [env] *)
  model_fit_s : float;
      (** wall seconds the caller spent fitting [model] before starting
          the server, reported by [stats]; default 0 (no fit) *)
  workers : int;
      (** the most worker domains alive at once (clamped to obs shard
          slots - 1); a worker is spawned when a compile is queued and
          every live one is busy *)
  mode : Sched.mode;
  admission : Admission.policy;
  levels : Cote.Multi_level.level list;  (** most- to least-expensive *)
  downgrade_s : float option;
      (** predictions above this walk down [levels] before compiling *)
  default_deadline_s : float option;
      (** applied to compile requests that carry no [deadline_ms] *)
  schemas : (string * Qopt_catalog.Schema.t) list;
      (** named schemas for binding ad-hoc SQL; the first is the default *)
  plan_cache : Cote.Plan_cache.config option;
      (** [Some cfg] enables the parameterized plan cache: compile
          requests are keyed by their resolved schema name plus their
          {!Qopt_sql.Template} (identical SQL against same-named tables
          in different schemas never shares an entry), and a hit
          whose selectivity envelope still holds is answered inline from
          the cached plan — no COTE pass, no worker, an admission
          estimate of 0, and the reply the entry stored already
          encoded.  A plan is admitted on second sight: a compile
          stores only when the statement cache already held an actual
          for its (level or regime, template key), so a template's
          first compile stores nothing, its second stores and its third
          is a hit.  A compile whose actual is over
          [admission.per_request_s] stores at once: no cold repeat of it
          could be admitted to store it later.  It also enables the front door's statement text map
          ({!Frontdoor.shapes}, as many entries as the plan cache): a
          text whose lookup hit is admitted, and its repeats are
          prepared without the parser.  [None] (the default) preserves
          the always-compile behaviour. *)
  recalibrate : Cote.Recalibrate.config option;
      (** [Some cfg] enables online recalibration ({!Cote.Recalibrate}):
          every completed compile feeds its generated plan counts and
          measured elapsed seconds into a sliding window, and when the
          windowed mean relative error of the model's predictions crosses
          the drift threshold the coefficients are refitted and swapped
          atomically — admission, SJF priorities and level selection all
          use the corrected model from the next request on.  [None] (the
          default) serves [model] unchanged forever. *)
  trust_hints : bool;
      (** admit compile requests on their [estimate_hint_s] (when
          present) instead of running a local COTE pass — for fleet
          backends behind a {!Qopt_fleet.Router} that estimates once at
          the front door.  Only honored when [downgrade_s] is [None]:
          a downgrade decision needs the local per-level predictions.
          Hint-less requests estimate locally as always.  Default
          [false]. *)
  budget : O.Budget.t;
      (** resource caps applied to every DP pass — the budgeted estimate
          at admission and the real compile in the worker alike.  A giant
          join graph aborts with {!O.Budget.Exceeded} instead of growing
          the MEMO without bound; the compile is then served by the
          spanning-tree regime ({!Cote.Regime}).  Default
          {!O.Budget.unlimited}. *)
  helpers : Qopt_par.Pool.t option;
      (** persistent helper domains that generate each DP compile's plans
          level by level beside the worker ({!O.Optimizer.optimize}
          [~runner]); replies are bit-identical to a serial compile and
          [elapsed_s] is wall clock.  The pool's slots must follow the
          workers' ([1..workers]); the caller owns and closes it, and the
          server's tick retires its idle helpers.  [stats] reports its
          size as [helpers].  Default [None]: serial compiles. *)
}

val default_config :
  listen:addr ->
  model:Cote.Time_model.t ->
  schemas:(string * Qopt_catalog.Schema.t) list ->
  unit ->
  config
(** Serial env, 1 worker, SJF, unlimited admission, {!Level.default_levels},
    no downgrade threshold, no default deadline, unlimited budget, no
    helpers. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serves ({!Frontdoor.serve}) until a [shutdown] request arrives, then
    drains: queued jobs are cancelled (reason ["shutdown"]), the running
    compile finishes, workers and connection threads are joined, and the
    socket is closed (a Unix socket file is unlinked).  While serving,
    the accept loop's tick retires idle workers and helpers.  [stats]
    reports [live_domains] (workers and helpers alive now) and the
    process's [domains_spawned] and [domains_retired].  [on_ready] fires
    once the socket is listening — tests and in-process harnesses connect
    from it.  Metrics collection ({!Qopt_obs.Control}) is forced on for
    the server's lifetime and restored on exit.  Raises [Unix.Unix_error]
    if the address cannot be bound. *)
