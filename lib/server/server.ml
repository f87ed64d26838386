module O = Qopt_optimizer
module J = Qopt_util.Json
module Timer = Qopt_util.Timer
module Obs = Qopt_obs

type addr = Frontdoor.addr

type config = {
  listen : addr;
  env : O.Env.t;
  model : Cote.Time_model.t;
  model_fit_s : float;  (* wall seconds the startup fit of [model] took *)
  workers : int;
  mode : Sched.mode;
  admission : Admission.policy;
  levels : Cote.Multi_level.level list;
  downgrade_s : float option;
  default_deadline_s : float option;
  schemas : (string * Qopt_catalog.Schema.t) list;
  plan_cache : Cote.Plan_cache.config option;
  recalibrate : Cote.Recalibrate.config option;
  trust_hints : bool;
      (* admit on a request's [estimate_hint_s] instead of running a
         local COTE pass — for fleet backends behind a router that
         estimates once.  Only honored when no downgrade decision needs
         a local per-level prediction. *)
  budget : O.Budget.t;
      (* resource caps on every DP pass, estimate and compile alike: a
         giant join graph aborts with [Budget.Exceeded] instead of
         OOMing, and the compile is served by the greedy regime. *)
  helpers : Qopt_par.Pool.t option;
      (* persistent helper domains that share each DP compile's levels *)
}

let default_config ~listen ~model ~schemas () =
  {
    listen;
    env = O.Env.serial;
    model;
    model_fit_s = 0.0;
    workers = 1;
    mode = Sched.Sjf;
    admission = Admission.unlimited;
    levels = Level.default_levels;
    downgrade_s = None;
    default_deadline_s = None;
    schemas;
    plan_cache = None;
    recalibrate = None;
    trust_hints = false;
    budget = O.Budget.unlimited;
    helpers = None;
  }

(* ------------------------------------------------------------------ *)
(* server.* metrics: histograms and the queue-depth gauge (no-ops       *)
(* unless Qopt_obs collection is on; run forces it on for the server's  *)
(* lifetime).  The event counts are the per-server tallies in [t].      *)
(* ------------------------------------------------------------------ *)

let m_queue_depth = Obs.Registry.gauge Obs.Registry.default "server.queue_depth"

let m_queue_wait = Obs.Registry.histogram Obs.Registry.default "server.queue_wait_s"

let m_latency = Obs.Registry.histogram Obs.Registry.default "server.latency_s"

let m_est_err =
  Obs.Registry.histogram Obs.Registry.default "server.estimate_err_pct"

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type job = {
  j_id : int;
  j_block : O.Query_block.t;
  j_knobs : O.Knobs.t;
  j_level : string;
  j_predicted_s : float;  (* cache-refined; drives admission + SJF *)
  j_model_s : float;  (* the pure model prediction; drives drift *)
  j_cache_hit : bool;
  j_regime : Cote.Regime.t;  (* which compile path the decision picked *)
  j_key : string;
      (* the request's template key: the statement-cache key, and the
         plan-cache key the result is stored under *)
  j_deadline : float option;  (* absolute, monotonic clock *)
  j_enqueued : float;  (* monotonic *)
  j_send : Proto.reply -> unit;
}

(* The reply fields a compile reports beside its plan. *)
type compile_meta = {
  pm_joins : int;
  pm_kept : int;
  pm_entries : int;
  pm_level : string;
  pm_regime : string;
}

(* Each server event is counted once, in one of the [n_*] atomics that
   [stats] reports: per server, exact, and independent of the
   process-wide {!Qopt_obs.Control} switch.  A bump from a connection
   thread or a worker domain never touches [t.lock], which guards only the
   coupled admission state (in_flight_s + the shutdown flag, which must be
   read-modified together under admission).  The lock is a
   contention-audited {!Qopt_obs.Lock} ([lock.server_state.*]) so its
   residual traffic stays measured. *)
type t = {
  cfg : config;
  sched : job Sched.t;
  cache : Cote.Stmt_cache.t;
  pcache : string Cote.Plan_cache.t option;
      (* the payload is the entry's hit reply, encoded but for the id
         ({!Proto.compile_tail}) *)
  shapes : Frontdoor.shapes option;  (* present with the plan cache *)
  recal : Cote.Recalibrate.t option;
  lock : Obs.Lock.t;
  mutable shutting : bool;
  mutable in_flight_s : float;
  n_requests : int Atomic.t;
  n_admitted : int Atomic.t;
  n_rejected : int Atomic.t;
  n_cancelled : int Atomic.t;
  n_compiles : int Atomic.t;
  n_estimates : int Atomic.t;
  n_errors : int Atomic.t;
  n_compile_errors : int Atomic.t;  (* the errors of admitted compiles *)
  n_downgrades : int Atomic.t;
  n_plan_hits : int Atomic.t;
  n_regime_dp : int Atomic.t;
  n_regime_greedy : int Atomic.t;
  n_regime_fallbacks : int Atomic.t;
}

(* The model serving predictions right now: the recalibrator's atomically
   swapped coefficients when enabled, the configured model otherwise. *)
let current_model t =
  match t.recal with
  | None -> t.cfg.model
  | Some r -> Cote.Recalibrate.model r

let stats_json t ~workers =
  let n a = J.int (Atomic.get a) in
  let in_flight_s = Obs.Lock.with_lock t.lock (fun () -> t.in_flight_s) in
  let refits =
    match t.recal with
    | None -> 0
    | Some r -> (Cote.Recalibrate.snapshot r).Cote.Recalibrate.sn_refits
  in
  J.Obj
    ([
      ("requests", n t.n_requests);
      ("admitted", n t.n_admitted);
      ("rejected", n t.n_rejected);
      ("cancelled", n t.n_cancelled);
      ("compiles", n t.n_compiles);
      ("estimates", n t.n_estimates);
      ("errors", n t.n_errors);
      ("compile_errors", n t.n_compile_errors);
      ("downgrades", n t.n_downgrades);
      ("plan_hits", n t.n_plan_hits);
      ("refits", J.int refits);
      ("regime_dp", n t.n_regime_dp);
      ("regime_greedy", n t.n_regime_greedy);
      ("regime_fallbacks", n t.n_regime_fallbacks);
      ("queue_depth", J.int (Sched.length t.sched));
      ("in_flight_s", J.Num in_flight_s);
      ("mode", J.Str (Sched.mode_string (Sched.mode t.sched)));
      ( "helpers",
        J.int (match t.cfg.helpers with None -> 0 | Some p -> Qopt_par.Pool.helpers p) );
      ( "live_domains",
        J.int
          (Qopt_par.Crew.live workers
          + match t.cfg.helpers with None -> 0 | Some p -> Qopt_par.Pool.live p) );
      ("domains_spawned", J.int (Obs.Counter.value Qopt_par.Crew.spawned));
      ("domains_retired", J.int (Obs.Counter.value Qopt_par.Crew.retired));
      ("metrics", Obs.Registry.json_value Obs.Registry.default);
    ]
    @ Frontdoor.model_fields ~model:(current_model t) ~fit_s:t.cfg.model_fit_s)

(* ------------------------------------------------------------------ *)
(* Request evaluation (connection threads)                             *)
(* ------------------------------------------------------------------ *)

(* The shared COTE pass under this server's levels, downgrade threshold
   and budget, with its downgrade steps counted. *)
let evaluate t ~key block =
  let ev =
    Frontdoor.evaluate t.cfg.env ~model:(current_model t) ~levels:t.cfg.levels
      ~downgrade_s:t.cfg.downgrade_s ~budget:t.cfg.budget t.cache ~key block
  in
  ignore (Atomic.fetch_and_add t.n_downgrades ev.Frontdoor.ev_choice.Level.downgrades);
  ev

(* ------------------------------------------------------------------ *)
(* Workers (spawned domains)                                           *)
(* ------------------------------------------------------------------ *)

let release t job =
  Obs.Lock.with_lock t.lock (fun () ->
      t.in_flight_s <- t.in_flight_s -. job.j_predicted_s)

let cancel_job t job reason =
  release t job;
  Atomic.incr t.n_cancelled;
  job.j_send
    (Proto.R_cancelled
       {
         id = job.j_id;
         reason;
         estimate_us = job.j_predicted_s *. 1e6;
         queue_s = Timer.monotonic_now () -. job.j_enqueued;
       })

(* Every [compile] reply the server sends — DP, fallback or plan-cache
   hit — is built here: the rendered plan with its cost and cardinality,
   the compile's counters, and the request's own timings. *)
let compile_body ~plan ~cost ~card meta ~elapsed_s ~predicted_s ~queue_s ~cache_hit
    ~plan_cached =
  {
    Proto.c_plan = plan;
    c_cost = cost;
    c_card = card;
    c_joins = meta.pm_joins;
    c_kept = meta.pm_kept;
    c_entries = meta.pm_entries;
    c_elapsed_s = elapsed_s;
    c_predicted_s = predicted_s;
    c_level = meta.pm_level;
    c_queue_s = queue_s;
    c_cache_hit = cache_hit;
    c_plan_cached = plan_cached;
    c_regime = meta.pm_regime;
  }

(* A finished compile, DP or fallback: release its reservation, record the
   actual under [tag], store the plan with its hit reply on second sight,
   account and reply.  The statement cache is the plan cache's doorkeeper:
   a plan is stored only when an actual for the same (tag, key) was
   already recorded, so a template's first compile stores nothing, its
   second stores, and its third is a hit.  Traffic that never repeats
   leaves no plan behind.  One exception: an actual over the per-request
   ceiling prices every cold repeat at this tag out, so no second compile
   could store the plan — the first one does. *)
let complete t job ~now ~tag ~elapsed_s best meta =
  release t job;
  let admit_plan =
    t.pcache <> None
    && (elapsed_s > t.cfg.admission.Admission.per_request_s
       || Cote.Stmt_cache.mem t.cache ~tag ~key:job.j_key job.j_block)
  in
  Cote.Stmt_cache.record t.cache ~tag ~key:job.j_key job.j_block elapsed_s;
  let text = Option.map (Format.asprintf "%a" O.Plan.pp_compact) best in
  (match (t.pcache, best) with
  | Some pc, Some plan when admit_plan ->
    (* A hit reports no compile of its own: zero seconds everywhere, and
       [cache_hit] false — that flag means "the statement cache refined
       the predicted seconds", and a hit never consults it;
       [plan_cached] is the hit signal. *)
    let hit =
      compile_body ~plan:text ~cost:plan.O.Plan.cost ~card:plan.O.Plan.card meta
        ~elapsed_s:0.0 ~predicted_s:0.0 ~queue_s:0.0 ~cache_hit:false
        ~plan_cached:true
    in
    Cote.Plan_cache.store pc ~key:job.j_key job.j_block ~plan (Proto.compile_tail hit)
  | _ -> ());
  Obs.Histo.observe m_latency (Timer.monotonic_now () -. job.j_enqueued);
  (* Model-vs-actual, not refined-vs-actual: the histogram is the drift
     evidence, so a stmt-cache hit must not flatter it. *)
  if elapsed_s > 0.0 then
    Obs.Histo.observe m_est_err
      (Float.abs (job.j_model_s -. elapsed_s) /. elapsed_s *. 100.0);
  Atomic.incr t.n_compiles;
  let cost, card =
    match best with Some p -> (p.O.Plan.cost, p.O.Plan.card) | None -> (0.0, 0.0)
  in
  job.j_send
    (Proto.R_compile
       ( job.j_id,
         compile_body ~plan:text ~cost ~card meta ~elapsed_s
           ~predicted_s:job.j_predicted_s ~queue_s:(now -. job.j_enqueued)
           ~cache_hit:job.j_cache_hit ~plan_cached:false ))

(* The spanning-tree fallback runs one deterministic sweep, and its time
   prediction assumes the same. *)
let greedy_restarts = 0

(* A compile served by the spanning-tree regime — chosen up front (Greedy)
   or as the mid-compile rescue of a DP pass that blew its budget
   (Dp_budget_fallback).  Actuals are recorded under the "greedy" statement
   -cache tag (whatever the admission level was, the measured work is
   greedy work) and never feed the recalibrator: its features are DP
   generated-plan counts, which a fallback compile does not have. *)
let run_fallback t job ~now ~interrupt regime =
  let fb =
    O.Optimizer.optimize_fallback t.cfg.env ~interrupt
      ~restarts:greedy_restarts job.j_block
  in
  complete t job ~now ~tag:"greedy" ~elapsed_s:fb.O.Optimizer.fb_elapsed
    fb.O.Optimizer.fb_best
    {
      pm_joins = fb.O.Optimizer.fb_joins;
      pm_kept = 0;
      pm_entries = 0;
      pm_level = job.j_level;
      pm_regime = Cote.Regime.to_string regime;
    }

let job_error t job e =
  release t job;
  Atomic.incr t.n_errors;
  Atomic.incr t.n_compile_errors;
  job.j_send (Proto.R_error { id = job.j_id; message = Printexc.to_string e })

let rec run_job t job =
  let now = Timer.monotonic_now () in
  Obs.Histo.observe m_queue_wait (now -. job.j_enqueued);
  Obs.Gauge.set m_queue_depth (float_of_int (Sched.length t.sched));
  match job.j_deadline with
  | Some d when now > d -> cancel_job t job "deadline"
  | deadline -> (
    let interrupt =
      match deadline with
      | None -> fun () -> false
      | Some d -> fun () -> Timer.monotonic_now () > d
    in
    match job.j_regime with
    | Cote.Regime.Greedy | Cote.Regime.Dp_budget_fallback -> (
      match run_fallback t job ~now ~interrupt job.j_regime with
      | () -> ()
      | exception O.Optimizer.Interrupted -> cancel_job t job "deadline"
      | exception e -> job_error t job e)
    | Cote.Regime.Dp -> run_dp t job ~now ~interrupt)

and run_dp t job ~now ~interrupt =
  match
    O.Optimizer.optimize t.cfg.env ~interrupt ~budget:t.cfg.budget
      ~knobs:job.j_knobs
      ?runner:(Option.map Qopt_par.Pool.run t.cfg.helpers)
      job.j_block
  with
    | r ->
      (match t.recal with
      | None -> ()
      | Some recal ->
        (* Features are the *generated* plan counts (the quantities the
           coefficients price), the target is the measured wall clock, and
           the drift signal compares against the pure model prediction —
           a stmt-cache-refined estimate would hide exactly the drift the
           detector exists to catch. *)
        ignore
          (Cote.Recalibrate.observe recal
             ~nljn:(float_of_int r.O.Optimizer.generated.O.Memo.nljn)
             ~mgjn:(float_of_int r.O.Optimizer.generated.O.Memo.mgjn)
             ~hsjn:(float_of_int r.O.Optimizer.generated.O.Memo.hsjn)
             ~predicted_s:job.j_model_s ~elapsed_s:r.O.Optimizer.elapsed));
      complete t job ~now ~tag:job.j_level ~elapsed_s:r.O.Optimizer.elapsed
        r.O.Optimizer.best
        {
          pm_joins = r.O.Optimizer.joins;
          pm_kept = r.O.Optimizer.kept;
          pm_entries = r.O.Optimizer.entries;
          pm_level = job.j_level;
          pm_regime = Cote.Regime.to_string Cote.Regime.Dp;
        }
  | exception O.Optimizer.Interrupted -> cancel_job t job "deadline"
  | exception O.Budget.Exceeded _ -> (
    (* The estimate said DP fits, the MEMO said otherwise: rescue the
       compile with the polynomial regime instead of failing it. *)
    Atomic.incr t.n_regime_fallbacks;
    match run_fallback t job ~now ~interrupt Cote.Regime.Dp_budget_fallback with
    | () -> ()
    | exception O.Optimizer.Interrupted -> cancel_job t job "deadline"
    | exception e -> job_error t job e)
  | exception e -> job_error t job e

(* ------------------------------------------------------------------ *)
(* Connection handling (threads on the main domain)                    *)
(* ------------------------------------------------------------------ *)

(* The one admission gate, for cold compiles and plan-cache hits alike:
   the decision and the [in_flight_s] reservation share one critical
   section (Sched.length is lock-free, so it holds just the shutdown flag,
   the in-flight float and the ceiling arithmetic).  A rejection is
   answered here, with the retry-after hint computed from the in-flight
   seconds the decision saw, not a later reading.  [true] when admitted;
   the caller owns the reservation from then on. *)
let admit t conn req_id ~estimate_s =
  match
    Obs.Lock.with_lock t.lock (fun () ->
        if t.shutting then Error (Admission.Shutting_down, t.in_flight_s)
        else
          match
            Admission.decide t.cfg.admission ~in_flight_s:t.in_flight_s
              ~queued:(Sched.length t.sched) ~estimate_s
          with
          | Error r -> Error (r, t.in_flight_s)
          | Ok () ->
            t.in_flight_s <- t.in_flight_s +. estimate_s;
            Ok ())
  with
  | Ok () ->
    Atomic.incr t.n_admitted;
    true
  | Error (reason, in_flight_s) ->
    Atomic.incr t.n_rejected;
    Frontdoor.send conn
      (Proto.R_rejected
         {
           id = req_id;
           reason = Admission.reason_string reason;
           estimate_us = estimate_s *. 1e6;
           retry_after_us =
             Option.map
               (fun s -> s *. 1e6)
               (Admission.retry_after_s reason ~in_flight_s);
         });
    false

(* A plan-cache hit bypasses optimization entirely: no COTE pass, no
   worker, no statement-cache traffic.  Admission still runs — with a 0
   estimate, so hits pass ceilings that reject cold compiles and reserve
   nothing — and the reply is the stored one, encoded at store time,
   under this id. *)
let serve_plan_hit t conn req_id ~arrival tail =
  if admit t conn req_id ~estimate_s:0.0 then begin
    Atomic.incr t.n_plan_hits;
    Obs.Histo.observe m_latency (Timer.monotonic_now () -. arrival);
    Frontdoor.send_encoded conn (Proto.encode_compile ~id:req_id tail)
  end

(* The greedy regime's prediction needs nothing but the join graph: both
   features are summed over all blocks, matching what
   [Optimizer.optimize_fallback] will report. *)
let greedy_predicted block =
  let quantifiers = ref 0 and edges = ref 0 in
  O.Query_block.iter_blocks
    (fun b ->
      quantifiers := !quantifiers + O.Query_block.n_quantifiers b;
      edges := !edges + O.Spanning_tree.edge_count b)
    block;
  Cote.Greedy_model.predict Cote.Greedy_model.default ~quantifiers:!quantifiers
    ~edges:!edges ~restarts:greedy_restarts

let compile_cold t ~workers conn req_id ~arrival ~key ~estimate_hint_s block
    deadline_ms =
  let deadline_s =
    match deadline_ms with
    | Some ms -> Some (ms /. 1000.0)
    | None -> t.cfg.default_deadline_s
  in
  (* The DP side of the regime decision.  The estimate pass runs under the
     same budget as the compile, so on a giant graph it aborts (cheaply)
     instead of exploding — [None] here means DP is infeasible outright. *)
  let dp_choice =
    match estimate_hint_s with
    | Some hint when t.cfg.trust_hints && t.cfg.downgrade_s = None ->
      (* The router already ran the COTE pass — once, refined against its
         own statement cache — and with no downgrade decision to make
         there is nothing a local per-level prediction would add, so
         admit on the hint and skip the estimation cost entirely.  The
         hint stands in for the model prediction too: router and backend
         serve the same model family. *)
      let level = List.hd t.cfg.levels in
      Some
        ( level.Cote.Multi_level.level_knobs,
          level.Cote.Multi_level.level_name,
          hint,
          hint,
          false )
    | Some _ | None -> (
      match evaluate t ~key block with
      | ev ->
        let choice = ev.Frontdoor.ev_choice in
        Some
          ( choice.Level.level.Cote.Multi_level.level_knobs,
            choice.Level.level.Cote.Multi_level.level_name,
            ev.Frontdoor.ev_predicted_s,
            choice.Level.predicted_s,
            ev.Frontdoor.ev_cache_hit )
      | exception O.Budget.Exceeded _ -> None)
  in
  let greedy_s = greedy_predicted block in
  let decision =
    Cote.Regime.decide ?deadline_s
      ~dp_s:(Option.map (fun (_, _, p, _, _) -> p) dp_choice)
      ~greedy_s ()
  in
  Cote.Regime.record decision;
  let knobs, level_name, predicted_s, model_s, cache_hit, regime =
    match (decision.Cote.Regime.d_regime, dp_choice) with
    | Cote.Regime.Dp, Some (k, n, p, m, c) ->
      Atomic.incr t.n_regime_dp;
      (k, n, p, m, c, Cote.Regime.Dp)
    | _ ->
      (* Greedy admission gets the same statement-cache refinement as DP,
         keyed under its own tag: a recorded greedy actual beats the
         greedy model. *)
      Atomic.incr t.n_regime_greedy;
      let cached = Cote.Stmt_cache.lookup t.cache ~tag:"greedy" ~key block in
      ( O.Knobs.default,
        "greedy",
        Option.value ~default:greedy_s cached,
        greedy_s,
        cached <> None,
        Cote.Regime.Greedy )
  in
  if admit t conn req_id ~estimate_s:predicted_s then begin
    let job =
      {
        j_id = req_id;
        j_block = block;
        j_knobs = knobs;
        j_level = level_name;
        j_predicted_s = predicted_s;
        j_model_s = model_s;
        j_cache_hit = cache_hit;
        j_regime = regime;
        j_key = key;
        j_deadline = Option.map (fun d -> arrival +. d) deadline_s;
        j_enqueued = Timer.monotonic_now ();
        j_send = Frontdoor.send conn;
      }
    in
    if Sched.push t.sched ~priority:job.j_predicted_s job then begin
      Obs.Gauge.set m_queue_depth (float_of_int (Sched.length t.sched));
      Qopt_par.Crew.demand workers 1
    end
    else
      (* The scheduler closed between the admission decision and the push:
         shutdown won the race, so account and answer like a rejection. *)
      cancel_job t job "shutdown"
  end

let handle_compile t ~workers conn ~id ~sql ~schema ~deadline_ms ~estimate_hint_s =
  let arrival = Timer.monotonic_now () in
  let p =
    Frontdoor.prepare ?shapes:t.shapes ~who:"server" t.cfg.schemas ~id ~sql ~schema
  in
  let cold () =
    compile_cold t ~workers conn id ~arrival ~key:p.Frontdoor.p_key ~estimate_hint_s
      p.Frontdoor.p_block deadline_ms
  in
  match t.pcache with
  | None -> cold ()
  | Some pc -> (
    match Cote.Plan_cache.lookup pc ~key:p.Frontdoor.p_key p.Frontdoor.p_block with
    | Cote.Plan_cache.Hit { plan = _; payload } ->
      Option.iter (fun m -> Frontdoor.admit m p) t.shapes;
      serve_plan_hit t conn id ~arrival payload
    | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ -> cold ())

let initiate_shutdown t =
  let first =
    Obs.Lock.with_lock t.lock (fun () ->
        if t.shutting then false
        else begin
          t.shutting <- true;
          true
        end)
  in
  if first then begin
    (* Cancel everything still queued, then close: no push lands after
       this, and the drain in [run] closes the workers. *)
    let leftovers = Sched.drain t.sched in
    Sched.close t.sched;
    List.iter (fun job -> cancel_job t job "shutdown") leftovers
  end

(* Front-end failures raised here become [error] replies in
   {!Frontdoor.serve}, counted by [run]'s [on_error]. *)
let handle t ~workers conn req =
  Atomic.incr t.n_requests;
  match req with
  | Proto.Estimate { id; sql; schema } ->
    let p =
      Frontdoor.prepare ?shapes:t.shapes ~who:"server" t.cfg.schemas ~id ~sql ~schema
    in
    let ev = evaluate t ~key:p.Frontdoor.p_key p.Frontdoor.p_block in
    Atomic.incr t.n_estimates;
    Frontdoor.send conn (Frontdoor.estimate_reply id ev)
  | Proto.Compile { id; sql; schema; deadline_ms; estimate_hint_s } ->
    handle_compile t ~workers conn ~id ~sql ~schema ~deadline_ms ~estimate_hint_s
  | Proto.Stats { id } -> Frontdoor.send conn (Proto.R_stats (id, stats_json t ~workers))
  | Proto.Shutdown { id } ->
    Frontdoor.send conn (Proto.R_ok id);
    initiate_shutdown t

let run ?(on_ready = fun () -> ()) cfg =
  let workers = max 1 (min cfg.workers (Obs.Shard.max_slots - 1)) in
  let t =
    {
      cfg;
      sched = Sched.create cfg.mode;
      cache = Cote.Stmt_cache.create ~shared:true ();
      pcache =
        Option.map
          (fun config -> Cote.Plan_cache.create ~shared:true ~config ())
          cfg.plan_cache;
      shapes =
        Option.map
          (fun c -> Frontdoor.shapes ~capacity:c.Cote.Plan_cache.capacity)
          cfg.plan_cache;
      recal =
        Option.map
          (fun config -> Cote.Recalibrate.create ~config ~model:cfg.model ())
          cfg.recalibrate;
      lock = Obs.Lock.create "server_state";
      shutting = false;
      in_flight_s = 0.0;
      n_requests = Atomic.make 0;
      n_admitted = Atomic.make 0;
      n_rejected = Atomic.make 0;
      n_cancelled = Atomic.make 0;
      n_compiles = Atomic.make 0;
      n_estimates = Atomic.make 0;
      n_errors = Atomic.make 0;
      n_compile_errors = Atomic.make 0;
      n_downgrades = Atomic.make 0;
      n_plan_hits = Atomic.make 0;
      n_regime_dp = Atomic.make 0;
      n_regime_greedy = Atomic.make 0;
      n_regime_fallbacks = Atomic.make 0;
    }
  in
  (* Worker [k] claims obs shard slot [k], so compile metrics recorded on
     it never race the connection threads on slot 0 or the other workers;
     the helpers' slots follow. *)
  let workers =
    Qopt_par.Crew.create ~cap:workers ~first_slot:1
      ~poll:(fun _ -> Sched.try_pop t.sched)
      ~work:(fun _ job -> run_job t job)
      ()
  in
  let obs_was = !Obs.Control.on in
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_enabled obs_was)
    (fun () ->
      Frontdoor.serve ~listen:cfg.listen ~on_ready
        ~shutting:(fun () -> Obs.Lock.with_lock t.lock (fun () -> t.shutting))
        ~handle:(fun conn req -> handle t ~workers conn req)
        ~on_error:(fun () -> Atomic.incr t.n_errors)
        ~tick:(fun () ->
          Qopt_par.Crew.retire_idle workers;
          Option.iter Qopt_par.Pool.retire_idle cfg.helpers)
        ~drain:(fun () ->
          (* The queue is already drained and closed (shutdown) — or must
             be closed now if serve is unwinding on an exception.  A job
             pushed between that drain and the close finds no worker once
             the workers are closed: cancel it too. *)
          initiate_shutdown t;
          Qopt_par.Crew.close workers;
          List.iter (fun job -> cancel_job t job "shutdown") (Sched.drain t.sched))
        ())
