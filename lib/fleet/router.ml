module O = Qopt_optimizer
module J = Qopt_util.Json
module Timer = Qopt_util.Timer
module Obs = Qopt_obs
module Srv = Qopt_server

type config = {
  listen : Srv.Frontdoor.addr;
  backends : Backend.spec list;
  latency_tier : int;
  threshold_s : float;
  affinity : bool;
  env : O.Env.t;
  model : Cote.Time_model.t;
  model_fit_s : float;
  budget : O.Budget.t;
  schemas : (string * Qopt_catalog.Schema.t) list;
  probe_after_s : float;
}

let default_config ~listen ~backends ~model ~schemas () =
  {
    listen;
    backends;
    latency_tier = max 1 (List.length backends - 1);
    threshold_s = 5e-4;
    affinity = true;
    env = O.Env.serial;
    model;
    model_fit_s = 0.0;
    budget = O.Budget.unlimited;
    schemas;
    probe_after_s = 0.25;
  }

(* Backend rpc timeouts per tier, and the cap on a server-advised retry
   backoff. *)
let latency_timeout_s = 10.0

let throughput_timeout_s = 60.0

let backoff_cap_s = 0.05

(* ------------------------------------------------------------------ *)
(* fleet.* metrics                                                     *)
(* ------------------------------------------------------------------ *)

let m_requests = Obs.Registry.counter Obs.Registry.default "fleet.requests"

let m_compiles = Obs.Registry.counter Obs.Registry.default "fleet.compiles"

let m_rejected = Obs.Registry.counter Obs.Registry.default "fleet.rejected"

let m_cancelled = Obs.Registry.counter Obs.Registry.default "fleet.cancelled"

let m_errors = Obs.Registry.counter Obs.Registry.default "fleet.errors"

let m_retries = Obs.Registry.counter Obs.Registry.default "fleet.retries"

let m_failovers = Obs.Registry.counter Obs.Registry.default "fleet.failovers"

let m_timeouts = Obs.Registry.counter Obs.Registry.default "fleet.timeouts"

let m_affinity_hits =
  Obs.Registry.counter Obs.Registry.default "fleet.affinity_hits"

let m_affinity_total =
  Obs.Registry.counter Obs.Registry.default "fleet.affinity_total"

let m_readmissions =
  Obs.Registry.counter Obs.Registry.default "fleet.readmissions"

let m_routed_latency =
  Obs.Registry.counter Obs.Registry.default "fleet.routed_latency_tier"

let m_routed_throughput =
  Obs.Registry.counter Obs.Registry.default "fleet.routed_throughput_tier"

let m_latency = Obs.Registry.histogram Obs.Registry.default "fleet.latency_s"

let m_backends_up = Obs.Registry.gauge Obs.Registry.default "fleet.backends_up"

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  backends : Backend.t array;
  cache : Cote.Stmt_cache.t;  (* router-side refinement, shared by conns *)
  lock : Mutex.t;
  mutable shutting : bool;
}

let shutting t = Mutex.protect t.lock (fun () -> t.shutting)

(* ------------------------------------------------------------------ *)
(* Estimation (to answer [estimate] and to route)                      *)
(* ------------------------------------------------------------------ *)

(* The router's COTE pass, refined by its own statement cache (fed by
   elapsed times out of compile replies).  It answers [estimate] and
   picks a compile's tier; the backend prices the compile again with its
   own pass to admit it, so nothing the router computes rides along.  The
   pass runs under the router's budget, so a giant join graph raises
   [Budget.Exceeded] after the cheap dry run instead of growing the MEMO
   without bound. *)
let evaluate t (p : Srv.Frontdoor.prepared) =
  Srv.Frontdoor.evaluate t.cfg.env ~model:t.cfg.model ~downgrade_s:None
    ~budget:t.cfg.budget t.cache ~key:p.p_key p.p_block

(* A compile's pass; [None] when it blows the DP budget. *)
let evaluate_compile t p =
  match evaluate t p with
  | ev -> Some ev
  | exception O.Budget.Exceeded _ -> None

let prepare t ~id ~sql ~schema =
  Srv.Frontdoor.prepare ~who:"router" t.cfg.schemas ~id ~sql ~schema

(* ------------------------------------------------------------------ *)
(* Tiering and candidate order                                         *)
(* ------------------------------------------------------------------ *)

type tier = Latency | Throughput

(* The tier follows the model prediction, which depends on the query
   alone.  The statement cache's refinement is a measured actual that
   moves with load: one slow compile of a small template would send its
   repeats to the other tier, away from their backend's warm caches.  A
   compile whose pass blew the DP budget is a giant query. *)
let tier_of t = function
  | Some ev
    when ev.Srv.Frontdoor.ev_choice.Srv.Level.predicted_s <= t.cfg.threshold_s ->
    Latency
  | Some _ | None -> Throughput

let tier_size t =
  min (max 1 t.cfg.latency_tier) (Array.length t.backends)

(* Backends [0, k) serve the latency tier (small queries spread wide);
   [k, n) serve the throughput tier (big queries, fewer backends, higher
   per-request ceilings).  When k = n the split is degenerate and both
   tiers share everyone. *)
let tier_members t tier =
  let n = Array.length t.backends in
  let k = tier_size t in
  match tier with
  | Latency -> Array.to_list (Array.sub t.backends 0 k)
  | Throughput ->
    if k >= n then Array.to_list t.backends
    else Array.to_list (Array.sub t.backends k (n - k))

let order t ~key members =
  match members with
  | [] | [ _ ] -> members
  | _ ->
    if t.cfg.affinity then begin
      (* Rendezvous over positions within the member list: stable under
         a member dropping out (the rest keep their relative order). *)
      let arr = Array.of_list members in
      List.map (fun i -> arr.(i)) (Rendezvous.ranked ~nodes:(Array.length arr) key)
    end
    else
      List.stable_sort
        (fun a b -> compare (Backend.inflight a) (Backend.inflight b))
        members

(* A down backend is only dispatched to after a successful probe; the
   probe itself is rate-limited and single-flight inside Backend. *)
let available t b =
  Backend.is_up b
  || (not (shutting t))
     && Backend.try_probe b ~probe_after_s:t.cfg.probe_after_s
     && begin
          Obs.Counter.incr m_readmissions;
          true
        end

(* ------------------------------------------------------------------ *)
(* Dispatch with retry / failover                                      *)
(* ------------------------------------------------------------------ *)

let dispatch t ~orig_id ~sql ~deadline_ms (p : Srv.Frontdoor.prepared) ev =
  let tier = tier_of t ev in
  let estimate_us =
    Option.fold ~none:0.0
      ~some:(fun ev -> ev.Srv.Frontdoor.ev_predicted_s *. 1e6)
      ev
  in
  let timeout_s =
    match tier with
    | Latency ->
      Obs.Counter.incr m_routed_latency;
      latency_timeout_s
    | Throughput ->
      Obs.Counter.incr m_routed_throughput;
      throughput_timeout_s
  in
  let primary = order t ~key:p.p_key (tier_members t tier) in
  let home = List.map Backend.index primary in
  let backup =
    order t ~key:p.p_key
      (List.filter
         (fun b -> not (List.mem (Backend.index b) home))
         (Array.to_list t.backends))
  in
  let first_choice =
    match primary with b :: _ -> Backend.index b | [] -> -1
  in
  let mk id =
    Srv.Proto.Compile
      {
        id;
        sql;
        schema = Some p.p_schema;
        deadline_ms;
        estimate_hint_s = None;
      }
  in
  let finalize b reply =
    (match reply with
    | Srv.Proto.R_compile (_, body) ->
      Obs.Counter.incr m_compiles;
      (* Feed the router's statement cache from the measured elapsed so
         the next estimate for this shape is an observed actual.  Plan
         hits report 0 elapsed — recording those would poison estimates —
         and the actual of a compile whose pass blew the budget would
         never be looked up. *)
      if
        Option.is_some ev
        && (not body.Srv.Proto.c_plan_cached)
        && body.Srv.Proto.c_elapsed_s > 0.0
      then
        Cote.Stmt_cache.record t.cache ~tag:body.Srv.Proto.c_level ~key:p.p_key
          p.p_block body.Srv.Proto.c_elapsed_s;
      if t.cfg.affinity then begin
        Obs.Counter.incr m_affinity_total;
        if Backend.index b = first_choice then
          Obs.Counter.incr m_affinity_hits
      end
    | Srv.Proto.R_rejected _ -> Obs.Counter.incr m_rejected
    | Srv.Proto.R_cancelled _ -> Obs.Counter.incr m_cancelled
    | Srv.Proto.R_error _ -> Obs.Counter.incr m_errors
    | Srv.Proto.R_estimate _ | Srv.Proto.R_stats _ | Srv.Proto.R_ok _ -> ());
    Srv.Proto.with_reply_id reply orig_id
  in
  (* One rejection-retry on the same backend (after the server-advised
     backoff), then the next candidate.  Channel loss fails over
     immediately: a SIGKILLed backend costs an in-flight request exactly
     one retry, never a wedge. *)
  let rec attempt b ~may_retry =
    match Backend.rpc b ~timeout_s mk with
    | Backend.Reply (Srv.Proto.R_rejected { retry_after_us; _ } as reply) -> (
      match retry_after_us with
      | Some us when may_retry && not (shutting t) ->
        Obs.Counter.incr m_retries;
        Thread.delay (Float.min (us *. 1e-6) backoff_cap_s);
        attempt b ~may_retry:false
      | _ -> `Rejected reply)
    | Backend.Reply reply -> `Served reply
    | Backend.Timeout ->
      Obs.Counter.incr m_timeouts;
      `Move_on
    | Backend.Unreachable ->
      Backend.mark_down b;
      Obs.Counter.incr m_failovers;
      `Move_on
  in
  let rec go cands last_reject =
    if shutting t then begin
      Obs.Counter.incr m_cancelled;
      Srv.Proto.R_cancelled
        {
          id = orig_id;
          reason = "shutdown";
          estimate_us;
          queue_s = 0.0;
        }
    end
    else
      match cands with
      | [] -> (
        Obs.Counter.incr m_rejected;
        match last_reject with
        | Some reply -> Srv.Proto.with_reply_id reply orig_id
        | None ->
          Srv.Proto.R_rejected
            {
              id = orig_id;
              reason = "fleet_unavailable";
              estimate_us;
              retry_after_us = None;
            })
      | b :: rest ->
        if not (available t b) then go rest last_reject
        else begin
          Backend.note_routed b;
          match attempt b ~may_retry:true with
          | `Served reply -> finalize b reply
          | `Rejected reply -> go rest (Some reply)
          | `Move_on -> go rest last_reject
        end
  in
  go (primary @ backup) None

(* ------------------------------------------------------------------ *)
(* Stats aggregation                                                   *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  let backend_doc b =
    let live =
      if Backend.is_up b then
        match
          Backend.rpc b ~timeout_s:2.0 (fun id -> Srv.Proto.Stats { id })
        with
        | Backend.Reply (Srv.Proto.R_stats (_, doc)) -> doc
        | Backend.Unreachable ->
          (* Dead: out of rotation, so the prober reaps and respawns it. *)
          Backend.mark_down b;
          J.Null
        | Backend.Reply _ | Backend.Timeout -> J.Null
      else J.Null
    in
    J.Obj
      [
        ("index", J.int (Backend.index b));
        ("up", J.Bool (Backend.is_up b));
        ("pid", J.opt J.int (Backend.pid b));
        ("routed", J.int (Backend.routed b));
        ("inflight", J.int (Backend.inflight b));
        ("stats", live);
      ]
  in
  J.Obj
    ([
      ("fleet", J.Bool true);
      ("backends", J.Arr (Array.to_list (Array.map backend_doc t.backends)));
      ("latency_tier", J.int (tier_size t));
      ("metrics", Obs.Registry.json_value Obs.Registry.default);
    ]
    @ Srv.Frontdoor.model_fields ~model:t.cfg.model ~fit_s:t.cfg.model_fit_s)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let initiate_shutdown t =
  Mutex.protect t.lock (fun () -> t.shutting <- true)

(* Front-end failures raised here, or in a compile's dispatcher thread,
   become [error] replies in {!Srv.Frontdoor}, counted by [run]'s
   [on_error]. *)
let handle t conn req =
  Obs.Counter.incr m_requests;
  match req with
  | Srv.Proto.Compile { id; sql; schema; deadline_ms; _ } ->
    (* Each compile gets its own dispatcher thread: a pipelined client
       burst fans out across backends concurrently instead of serializing
       on this connection's read loop. *)
    Srv.Frontdoor.spawn conn ~id (fun () ->
        let t0 = Timer.monotonic_now () in
        let p = prepare t ~id ~sql ~schema in
        let reply =
          dispatch t ~orig_id:id ~sql ~deadline_ms p (evaluate_compile t p)
        in
        Obs.Histo.observe m_latency (Timer.monotonic_now () -. t0);
        Srv.Frontdoor.send conn reply)
  | Srv.Proto.Estimate { id; sql; schema } ->
    Srv.Frontdoor.send conn
      (Srv.Frontdoor.estimate_reply id (evaluate t (prepare t ~id ~sql ~schema)))
  | Srv.Proto.Stats { id } ->
    Srv.Frontdoor.send conn (Srv.Proto.R_stats (id, stats_json t))
  | Srv.Proto.Shutdown { id } ->
    Srv.Frontdoor.send conn (Srv.Proto.R_ok id);
    initiate_shutdown t

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

(* Readmission must not depend on traffic: with only dispatch-path
   probes an idle fleet never heals.  This loop probes every down
   backend on a slow cadence; the single-flight claim and cool-down
   inside [Backend.try_probe] keep it from colliding with dispatchers
   probing the same backend. *)
let prober t () =
  let rec loop () =
    if shutting t then ()
    else begin
      Array.iter
        (fun b ->
          if (not (Backend.is_up b)) && not (shutting t) then
            if Backend.try_probe b ~probe_after_s:t.cfg.probe_after_s then
              Obs.Counter.incr m_readmissions)
        t.backends;
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

let watchdog t () =
  let rec loop () =
    if shutting t then ()
    else begin
      Array.iter Backend.tick t.backends;
      Obs.Gauge.set m_backends_up
        (float_of_int
           (Array.fold_left
              (fun acc b -> if Backend.is_up b then acc + 1 else acc)
              0 t.backends));
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(on_ready = fun () -> ()) (cfg : config) =
  if cfg.backends = [] then
    invalid_arg "Qopt_fleet.Router.run: no backends configured";
  let t =
    {
      cfg;
      backends = Array.of_list (List.mapi Backend.create cfg.backends);
      cache = Cote.Stmt_cache.create ~shared:true ();
      lock = Mutex.create ();
      shutting = false;
    }
  in
  let obs_was = !Obs.Control.on in
  Obs.Control.set_enabled true;
  let started_all =
    Array.for_all (fun b -> Backend.start b) t.backends
  in
  if not started_all then begin
    Array.iter (fun b -> Backend.shutdown ~timeout_s:1.0 b) t.backends;
    Obs.Control.set_enabled obs_was;
    failwith "qopt fleet: a backend never became reachable"
  end;
  let dog = Thread.create (watchdog t) () in
  let heal = Thread.create (prober t) () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join dog;
      Obs.Control.set_enabled obs_was)
    (fun () ->
      Srv.Frontdoor.serve ~listen:cfg.listen ~on_ready
        ~shutting:(fun () -> shutting t)
        ~handle:(fun conn req -> handle t conn req)
        ~on_error:(fun () -> Obs.Counter.incr m_errors)
        ~drain:(fun () ->
          initiate_shutdown t;
          (* The prober must be gone before backends are torn down — a
             probe racing shutdown could respawn a process nobody would
             reap. *)
          Thread.join heal;
          (* Backends drain before client connections: their running
             compiles finish and reply, and pending router rpcs resolve. *)
          Array.iter Backend.shutdown t.backends)
        ())
