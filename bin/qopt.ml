(* The qopt command-line interface.

   Subcommands:
     optimize   — compile a query (from a workload, or ad-hoc SQL over a
                  named schema) and show the plan and counters
     estimate   — run the COTE on the same query and show the prediction
     breakdown  — Figure 2-style time breakdown for one query
     batch      — compile/estimate whole workloads across a domain pool
     calibrate  — fit and print the time model for an environment
     experiment — run registered experiments by id
     list       — list workloads, their queries, and experiment ids
     serve      — run the compile-service daemon (COTE-driven admission,
                  SJF scheduling, level downgrades) on a socket
     fleet      — spawn N backend servers and route compiles across them
                  (estimate-aware tiering, template affinity, failover)
     client     — send one request to a running server and print the reply
     loadgen    — drive a server with a mixed workload and report latency
                  percentiles and outcome counts *)

module O = Qopt_optimizer
module W = Qopt_workloads
module E = Qopt_experiments
module Obs = Qopt_obs
module F = Qopt_fleet
open Cmdliner

let env_of_string = function
  | "serial" -> Ok O.Env.serial
  | "parallel" -> Ok (O.Env.parallel ~nodes:4)
  | s -> Error (`Msg (Printf.sprintf "unknown environment %S (serial|parallel)" s))

let env_conv =
  Arg.conv
    ( (fun s -> env_of_string s),
      fun ppf env -> O.Env.pp ppf env )

let env_term =
  Arg.(value & opt env_conv O.Env.serial & info [ "e"; "env" ] ~doc:"serial or parallel")

let workload_names =
  [
    "linear"; "star"; "cycle"; "real1"; "real2"; "random"; "tpch";
    "calibration"; "giant";
  ]

let schema_for env = function
  | "tpch" -> W.Tpch.schema ~partitioned:(O.Env.is_parallel env)
  | "warehouse" | "real1" | "real2" | "random" ->
    W.Warehouse.schema ~partitioned:(O.Env.is_parallel env)
  | "giant" -> W.Giant.schema ~partitioned:(O.Env.is_parallel env) ()
  | s -> failwith (Printf.sprintf "unknown schema %S (tpch|warehouse|giant)" s)

let resolve_block env ~workload ~query ~sql ~schema =
  match (sql, workload, query) with
  | Some text, _, _ ->
    let schema = schema_for env (Option.value ~default:"warehouse" schema) in
    Qopt_sql.Binder.parse_and_bind ~name:"adhoc" schema text
  | None, Some w, Some q ->
    (W.Workload.find (E.Common.workload env w) q).W.Workload.block
  | None, _, _ ->
    failwith "provide either --sql, or --workload and --query (see `qopt list`)"

let workload_term =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~doc:"workload name")

let query_term =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~doc:"query name")

let sql_term =
  Arg.(value & opt (some string) None & info [ "sql" ] ~doc:"ad-hoc SQL text")

let schema_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "schema" ]
        ~doc:"schema for --sql: warehouse (default), tpch or giant")

let wrap f = try `Ok (f ()) with Failure msg | Invalid_argument msg -> `Error (false, msg)

(* The helper domains of a server with [workers] workers: every CPU the
   workers leave idle gets one, which generates DP plans beside them,
   level by level (Optimizer.optimize ~runner).  Their obs slots follow
   the workers' (Server.run clamps workers the same way).  A helper is
   spawned by the first batch that wants it and, under a server, retired
   by its tick once idle (Qopt_par.Crew).  It keeps a 512 KB minor heap
   instead of the runtime's 2 MB: it only ever runs slices of a worker's
   compile, and on adhoc serving the smaller heap cut the server's peak
   RSS by about 2 MB at unchanged qps.  None when no CPU is left; the pool
   is closed when [f] returns. *)
let with_helpers ~workers f =
  let workers = max 1 (min workers (Obs.Shard.max_slots - 1)) in
  let n =
    min
      (Domain.recommended_domain_count () - workers)
      (Obs.Shard.max_slots - 1 - workers)
  in
  let pool =
    if n <= 0 then None
    else
      Some
        (Qopt_par.Pool.create ~minor_heap_words:65536 ~helpers:n
           ~first_slot:(workers + 1) ())
  in
  Fun.protect ~finally:(fun () -> Option.iter Qopt_par.Pool.close pool) (fun () ->
      f pool)

(* --metrics[=json]: enable Qopt_obs collection around the run and dump the
   default registry afterwards. *)
let metrics_term =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:"Collect optimizer metrics and dump the registry after the run \
              (text or json)")

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some fmt ->
    if fmt <> "text" && fmt <> "json" then
      failwith (Printf.sprintf "unknown metrics format %S (text|json)" fmt);
    Obs.Control.set_enabled true;
    let finish () =
      Obs.Control.set_enabled false;
      match fmt with
      | "json" -> print_endline (Obs.Registry.to_json Obs.Registry.default)
      | _ -> Obs.Registry.pp_text Format.std_formatter Obs.Registry.default
    in
    Fun.protect ~finally:finish f

let optimize_cmd =
  let run env workload query sql schema metrics =
    wrap (fun () ->
      with_metrics metrics (fun () ->
        let block = resolve_block env ~workload ~query ~sql ~schema in
        let cache = Cote.Stmt_cache.create () in
        ignore (Cote.Stmt_cache.lookup cache block);
        let r = O.Optimizer.optimize env block in
        (* Under --metrics, run the complete production pipeline so the
           dump covers the COTE and cache metrics too: estimate alongside
           the compile, then record the observed time. *)
        if metrics <> None then begin
          ignore (Cote.Estimator.estimate env block);
          Cote.Stmt_cache.record cache block r.O.Optimizer.elapsed
        end;
        Format.printf "query: %a@." O.Query_block.pp block;
        (match r.O.Optimizer.best with
        | None -> Format.printf "no plan found@."
        | Some p ->
          Format.printf "best plan: %a@.  cost=%.1f card=%.1f@." O.Plan.pp_compact
            p p.O.Plan.cost p.O.Plan.card);
        Format.printf
          "compile time %.4fs; joins %d; generated plans NLJN=%d MGJN=%d \
           HSJN=%d; kept %d; entries %d@."
          r.O.Optimizer.elapsed r.O.Optimizer.joins
          r.O.Optimizer.generated.O.Memo.nljn r.O.Optimizer.generated.O.Memo.mgjn
          r.O.Optimizer.generated.O.Memo.hsjn r.O.Optimizer.kept
          r.O.Optimizer.entries))
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Compile a query and show the plan")
    Term.(
      ret
        (const run $ env_term $ workload_term $ query_term $ sql_term
       $ schema_term $ metrics_term))

let estimate_cmd =
  let run env workload query sql schema metrics =
    wrap (fun () ->
      with_metrics metrics (fun () ->
        let block = resolve_block env ~workload ~query ~sql ~schema in
        (* The fit `serve --model calibrated` starts with: one compile of
           each calibration query, no COTE estimates, with the helpers of
           a one-worker server. *)
        let model =
          with_helpers ~workers:1 (fun pool ->
              E.Common.startup_model ?runner:(Option.map Qopt_par.Pool.run pool) env)
        in
        let p = Cote.Predict.compile_time ~model env block in
        let e = p.Cote.Predict.estimate in
        Format.printf
          "estimated compile time: %.4fs@.estimated plans: NLJN=%d MGJN=%d \
           HSJN=%d (joins %d)@.estimation took %.4fs@."
          p.Cote.Predict.seconds e.Cote.Estimator.nljn e.Cote.Estimator.mgjn
          e.Cote.Estimator.hsjn e.Cote.Estimator.joins e.Cote.Estimator.elapsed))
  in
  Cmd.v (Cmd.info "estimate" ~doc:"Run the COTE on a query")
    Term.(
      ret
        (const run $ env_term $ workload_term $ query_term $ sql_term
       $ schema_term $ metrics_term))

let breakdown_cmd =
  let run env workload query sql schema metrics =
    wrap (fun () ->
      with_metrics metrics (fun () ->
        let block = resolve_block env ~workload ~query ~sql ~schema in
        let r = O.Optimizer.optimize env block in
        Format.printf "%a@." O.Instrument.pp_breakdown r.O.Optimizer.breakdown))
  in
  Cmd.v (Cmd.info "breakdown" ~doc:"Figure 2-style compile-time breakdown")
    Term.(
      ret
        (const run $ env_term $ workload_term $ query_term $ sql_term
       $ schema_term $ metrics_term))

let batch_cmd =
  let workloads_term =
    Arg.(
      value
      & opt_all string []
      & info [ "w"; "workload" ]
          ~doc:"workload to include (repeatable; default: linear, star, cycle)")
  in
  let mode_term =
    Arg.(
      value
      & opt string "compile"
      & info [ "mode" ] ~docv:"MODE" ~doc:"compile, estimate or both")
  in
  let domains_conv =
    Arg.conv
      ( (fun s ->
          if s = "auto" then Ok `Auto
          else
            match int_of_string_opt s with
            | Some n when n >= 1 -> Ok (`Count n)
            | Some _ | None ->
              Error (`Msg (Printf.sprintf "bad domain count %S (N or auto)" s))),
        fun ppf d ->
          match d with
          | `Auto -> Format.pp_print_string ppf "auto"
          | `Count n -> Format.pp_print_int ppf n )
  in
  let domains_term =
    Arg.(
      value
      & opt (some domains_conv) None
      & info [ "d"; "domains" ]
          ~doc:
            "domain count, or $(b,auto) for the runtime's recommended count \
             (default: \\$(b,QOPT_DOMAINS) or 1)")
  in
  let fingerprint_term =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:"print the batch determinism fingerprint (MD5 over every \
                deterministic result field)")
  in
  let plan_cache_term =
    Arg.(
      value & flag
      & info [ "plan-cache" ]
          ~doc:"store every compiled plan in a plan cache, then replay the \
                compile tasks against it and report the hit rate and replay \
                wall time")
  in
  let run env workloads mode domains fingerprint plan_cache metrics =
    wrap (fun () ->
      with_metrics metrics (fun () ->
        let workloads =
          if workloads = [] then [ "linear"; "star"; "cycle" ] else workloads
        in
        let queries =
          List.concat_map
            (fun name ->
              List.map
                (fun (q : W.Workload.query) ->
                  (Printf.sprintf "%s/%s" name q.W.Workload.q_name, q.W.Workload.block))
                (E.Common.workload env name).W.Workload.queries)
            workloads
        in
        let tasks =
          List.concat_map
            (fun (name, block) ->
              match mode with
              | "compile" -> [ (name, Qopt_par.Batch.Compile block) ]
              | "estimate" -> [ (name, Qopt_par.Batch.Estimate block) ]
              | "both" ->
                [ (name, Qopt_par.Batch.Compile block);
                  (name, Qopt_par.Batch.Estimate block) ]
              | m ->
                failwith
                  (Printf.sprintf "unknown mode %S (compile|estimate|both)" m))
            queries
        in
        let domains =
          match domains with
          | Some (`Count d) -> d
          | Some `Auto -> Qopt_par.Batch.auto_domains ()
          | None -> Qopt_par.Batch.default_domains ()
        in
        let outcomes, wall =
          Qopt_util.Timer.time (fun () ->
              Qopt_par.Batch.run_batch ~domains env (List.map snd tasks))
        in
        let cumulative = ref 0.0 in
        List.iter2
          (fun (name, _) outcome ->
            match outcome with
            | Qopt_par.Batch.Compiled r ->
              cumulative := !cumulative +. r.O.Optimizer.elapsed;
              Format.printf
                "%-24s compile %8.4fs  joins %3d  plans %5d  entries %4d@." name
                r.O.Optimizer.elapsed r.O.Optimizer.joins r.O.Optimizer.kept
                r.O.Optimizer.entries
            | Qopt_par.Batch.Estimated e ->
              cumulative := !cumulative +. e.Cote.Estimator.elapsed;
              Format.printf
                "%-24s estimate %7.4fs  joins %3d  plans %5d  entries %4d@." name
                e.Cote.Estimator.elapsed e.Cote.Estimator.joins
                (e.Cote.Estimator.nljn + e.Cote.Estimator.mgjn
                + e.Cote.Estimator.hsjn)
                e.Cote.Estimator.entries)
          tasks outcomes;
        let n = List.length tasks in
        Format.printf
          "batch: %d tasks, %d domain(s): wall %.4fs (%.1f tasks/s), \
           cumulative task time %.4fs, speedup %.2fx@."
          n domains wall
          (float_of_int n /. wall)
          !cumulative (!cumulative /. wall);
        if fingerprint then
          Format.printf "fingerprint: %s@."
            (Digest.to_hex (Digest.string (Qopt_par.Batch.fingerprint outcomes)));
        if plan_cache then begin
          (* Warm a plan cache from the batch results, then replay every
             compile task against it: the replay wall time is what repeat
             traffic would cost with the cache in front of the pool. *)
          let pc = Cote.Plan_cache.create () in
          List.iter2
            (fun (_, task) outcome ->
              match (task, outcome) with
              | Qopt_par.Batch.Compile block, Qopt_par.Batch.Compiled r -> (
                match r.O.Optimizer.best with
                | Some plan -> Cote.Plan_cache.store pc block ~plan r
                | None -> ())
              | _ -> ())
            tasks outcomes;
          let compiles =
            List.filter_map
              (fun (_, task) ->
                match task with
                | Qopt_par.Batch.Compile block -> Some block
                | Qopt_par.Batch.Estimate _ -> None)
              tasks
          in
          let served, replay_wall =
            Qopt_util.Timer.time (fun () ->
                List.fold_left
                  (fun n block ->
                    match Cote.Plan_cache.lookup pc block with
                    | Cote.Plan_cache.Hit _ -> n + 1
                    | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ -> n)
                  0 compiles)
          in
          let n = List.length compiles in
          Format.printf
            "plan cache: %d entries; replay %d compiles: %d hits (%.1f%%), \
             wall %.4fs (batch wall %.4fs)@."
            (Cote.Plan_cache.size pc) n served
            (if n = 0 then 0.0 else 100.0 *. float_of_int served /. float_of_int n)
            replay_wall wall
        end))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile/estimate whole workloads across a domain pool")
    Term.(
      ret
        (const run $ env_term $ workloads_term $ mode_term $ domains_term
       $ fingerprint_term $ plan_cache_term $ metrics_term))

let calibrate_cmd =
  let run env =
    wrap (fun () ->
        let model =
          with_helpers ~workers:1 (fun pool ->
              E.Common.startup_model ?runner:(Option.map Qopt_par.Pool.run pool) env)
        in
        Format.printf "time model (%a): %a@.--model %s@." O.Env.pp env
          Cote.Time_model.pp model (Cote.Time_model.to_string model))
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Fit and print the time model a server fits with --model \
             calibrated, and its exact --model text form")
    Term.(ret (const run $ env_term))

let experiment_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    wrap (fun () ->
        let ids = if ids = [] then E.Registry.ids else ids in
        List.iter
          (fun id ->
            match E.Registry.find id with
            | None -> failwith (Printf.sprintf "unknown experiment %s" id)
            | Some e ->
              Format.printf "== %s: %s@." e.E.Registry.id e.E.Registry.title;
              e.E.Registry.run ())
          ids)
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Run experiments by id (default: all)")
    Term.(ret (const run $ ids))

let list_cmd =
  let run env =
    wrap (fun () ->
        Format.printf "workloads:@.";
        List.iter
          (fun name ->
            let wl = E.Common.workload env name in
            Format.printf "  %-12s %d queries: %s@." name (W.Workload.size wl)
              (String.concat ", "
                 (List.map
                    (fun (q : W.Workload.query) -> q.W.Workload.q_name)
                    wl.W.Workload.queries)))
          workload_names;
        Format.printf "experiments: %s@." (String.concat ", " E.Registry.ids))
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, queries and experiments")
    Term.(ret (const run $ env_term))

(* ------------------------------------------------------------------ *)
(* Compile service: serve / client / loadgen                           *)
(* ------------------------------------------------------------------ *)

module Srv = Qopt_server

let addr_of ~socket ~tcp : Srv.Server.addr =
  match tcp with
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | Some i -> (
      let host = String.sub spec 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port -> `Tcp (host, port)
      | None -> failwith (Printf.sprintf "bad --tcp %S (HOST:PORT)" spec))
    | None -> failwith (Printf.sprintf "bad --tcp %S (HOST:PORT)" spec))
  | None -> `Unix socket

let socket_term =
  Arg.(
    value
    & opt string "/tmp/qopt.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let tcp_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"listen/connect on TCP instead")

(* --model: the canned model ships rough serial-environment coefficients so
   a server can start instantly; "calibrated" fits them at startup for this
   machine's actual speeds, with one compile of each calibration query
   (E.Common.startup_model, about 0.6 s on a 2-vCPU host); anything else is
   a model in Time_model.to_string's exact text form, which is how qopt
   fleet hands its own fit to the backends it spawns.  Returns the model and
   the wall seconds its fit took (0 when none ran).  Metrics collection is
   on from here, as for the rest of a server's life, so [stats] shows what
   the fit compiled.  [runner] is the plan-generation runner the server
   compiles with, so the fit predicts the wall clock it will report. *)
let model_of ?runner env spec =
  Obs.Control.set_enabled true;
  match spec with
  | "default" ->
    (Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 (), 0.0)
  | "calibrated" ->
    let t0 = Qopt_util.Timer.monotonic_now () in
    let m = E.Common.startup_model ?runner env in
    (m, Qopt_util.Timer.monotonic_now () -. t0)
  | text -> (
    match Cote.Time_model.of_string text with
    | Some m -> (m, 0.0)
    | None ->
      failwith
        (Printf.sprintf
           "unknown model %S (default, calibrated or \
            c_nljn=H,c_mgjn=H,c_hsjn=H,c_join=H)"
           text))

let model_doc =
  "time model: $(b,default) (canned coefficients, instant start), \
   $(b,calibrated) (fit at startup from one compile of each calibration \
   query, under a second) or the exact text form \
   $(i,c_nljn=H,c_mgjn=H,c_hsjn=H,c_join=H) with hexadecimal floats, as \
   $(b,qopt calibrate) prints it"

(* The MEMO caps of serve, shared by fleet (which applies them at the
   router and hands them to every backend). *)
let max_memo_entries_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-memo-entries" ] ~docv:"N"
        ~doc:"abort any DP pass (estimate or compile) whose MEMO grows \
              past N entries and serve the query with the spanning-tree \
              regime instead")

let max_kept_plans_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-kept-plans" ] ~docv:"N"
        ~doc:"abort any DP pass holding more than N pruned-surviving \
              plans and fall back to the spanning-tree regime")

let serve_cmd =
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers" ]
          ~doc:"most compile worker domains alive at once: each is spawned \
                when a compile is queued and none is free, and retired \
                after an idle spell")
  in
  let mode_term =
    Arg.(
      value & opt string "sjf"
      & info [ "mode" ] ~doc:"scheduling: sjf (default) or fifo")
  in
  let model_term =
    Arg.(value & opt string "default" & info [ "model" ] ~doc:model_doc)
  in
  let per_request_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "per-request-s" ]
          ~doc:"reject any compile whose estimate exceeds this many seconds")
  in
  let aggregate_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "aggregate-s" ]
          ~doc:"reject when admitted estimated seconds in flight would \
                exceed this")
  in
  let max_queue_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queue" ] ~doc:"reject when this many compiles are queued")
  in
  let downgrade_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "downgrade-s" ]
          ~doc:"estimates above this walk down the optimization-level chain")
  in
  let deadline_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:"default per-compile deadline for requests that carry none")
  in
  let plan_cache_term =
    Arg.(
      value & flag
      & info [ "plan-cache" ]
          ~doc:"serve repeated statement templates from a plan cache \
                (parameter-abstracted keys, selectivity-envelope \
                invalidation) instead of recompiling")
  in
  let plan_cache_slack_term =
    Arg.(
      value
      & opt float Cote.Plan_cache.default_config.Cote.Plan_cache.slack
      & info [ "plan-cache-slack" ] ~docv:"FRACTION"
          ~doc:"envelope half-width: a cached plan is served while every \
                predicate selectivity stays within (1±FRACTION) of its \
                store-time estimate")
  in
  let recalibrate_term =
    Arg.(
      value & flag
      & info [ "recalibrate" ]
          ~doc:"refit the time-model coefficients online: completed \
                compiles feed a sliding window, and when the windowed \
                mean prediction error crosses the drift threshold the \
                model is refitted and swapped atomically")
  in
  let recalib_window_term =
    Arg.(
      value
      & opt int Cote.Recalibrate.default_config.Cote.Recalibrate.window
      & info [ "recalib-window" ] ~docv:"N"
          ~doc:"observations retained for refitting")
  in
  let recalib_drift_term =
    Arg.(
      value
      & opt float
          Cote.Recalibrate.default_config.Cote.Recalibrate.drift_threshold_pct
      & info [ "recalib-drift" ] ~docv:"PCT"
          ~doc:"refit when the windowed mean relative prediction error \
                reaches this many percent")
  in
  let recalib_min_interval_term =
    Arg.(
      value
      & opt int Cote.Recalibrate.default_config.Cote.Recalibrate.min_refit_interval
      & info [ "recalib-min-interval" ] ~docv:"N"
          ~doc:"observations that must separate consecutive refit attempts")
  in
  let trust_hints_term =
    Arg.(
      value & flag
      & info [ "trust-hints" ]
          ~doc:"admit compile requests on their estimate_hint_s instead of \
                running a local COTE pass (fleet backends behind a router \
                that estimates once); ignored when --downgrade-s is set")
  in
  let run env socket tcp workers mode model per_request aggregate max_queue
      downgrade deadline plan_cache plan_cache_slack recalibrate recalib_window
      recalib_drift recalib_min_interval trust_hints max_memo_entries
      max_kept_plans =
    wrap (fun () ->
        let mode =
          match mode with
          | "sjf" -> Srv.Sched.Sjf
          | "fifo" -> Srv.Sched.Fifo
          | m -> failwith (Printf.sprintf "unknown mode %S (sjf|fifo)" m)
        in
        let admission =
          {
            Srv.Admission.per_request_s =
              Option.value ~default:infinity per_request;
            aggregate_s = Option.value ~default:infinity aggregate;
            max_queue = Option.value ~default:max_int max_queue;
          }
        in
        let listen = addr_of ~socket ~tcp in
        with_helpers ~workers @@ fun helpers ->
        let n_helpers = Option.fold ~none:0 ~some:Qopt_par.Pool.helpers helpers in
        let runner = Option.map Qopt_par.Pool.run helpers in
        let model, model_fit_s = model_of ?runner env model in
        let cfg =
          {
            (Srv.Server.default_config ~listen ~model
               ~schemas:
                 [
                   ("warehouse", schema_for env "warehouse");
                   ("tpch", schema_for env "tpch");
                   ("giant", schema_for env "giant");
                 ]
               ())
            with
            env;
            model_fit_s;
            workers;
            mode;
            admission;
            downgrade_s = downgrade;
            default_deadline_s = Option.map (fun ms -> ms /. 1000.0) deadline;
            plan_cache =
              (if plan_cache then
                 Some
                   {
                     Cote.Plan_cache.default_config with
                     Cote.Plan_cache.slack = plan_cache_slack;
                   }
               else None);
            recalibrate =
              (if recalibrate then
                 Some
                   {
                     Cote.Recalibrate.default_config with
                     Cote.Recalibrate.window = recalib_window;
                     drift_threshold_pct = recalib_drift;
                     min_refit_interval = recalib_min_interval;
                   }
               else None);
            trust_hints;
            budget =
              O.Budget.make ?max_memo_entries ?max_kept_plans ();
            helpers;
          }
        in
        let pp_addr ppf = function
          | `Unix p -> Format.fprintf ppf "unix:%s" p
          | `Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p
        in
        Srv.Server.run
          ~on_ready:(fun () ->
            Format.printf
              "qopt serve: listening on %a (%d worker%s, %d helper%s, %s)@."
              pp_addr listen workers
              (if workers = 1 then "" else "s")
              n_helpers
              (if n_helpers = 1 then "" else "s")
              (Srv.Sched.mode_string mode))
          cfg;
        Format.printf "qopt serve: shut down@.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the compile-service daemon (admission, SJF, level downgrades)")
    Term.(
      ret
        (const run $ env_term $ socket_term $ tcp_term $ workers_term
       $ mode_term $ model_term $ per_request_term $ aggregate_term
       $ max_queue_term $ downgrade_term $ deadline_term $ plan_cache_term
       $ plan_cache_slack_term $ recalibrate_term $ recalib_window_term
       $ recalib_drift_term $ recalib_min_interval_term $ trust_hints_term
       $ max_memo_entries_term $ max_kept_plans_term))

let fleet_cmd =
  let backends_term =
    Arg.(
      value & opt int 3
      & info [ "backends" ] ~docv:"N" ~doc:"backend server processes to spawn")
  in
  let latency_tier_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "latency-tier" ] ~docv:"K"
          ~doc:"backends reserved for small queries (default all but one); \
                the rest take the big ones")
  in
  let threshold_term =
    Arg.(
      value & opt float 0.5
      & info [ "threshold-ms" ] ~docv:"MS"
          ~doc:"predicted milliseconds at or under this route to the \
                latency tier")
  in
  let affinity_term =
    Arg.(
      value & flag
      & info [ "affinity" ]
          ~doc:"route repeat statement templates to the same backend \
                (rendezvous hash on the schema-qualified template key); \
                default balances on least in-flight")
  in
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~doc:"compile worker domains per backend")
  in
  let plan_cache_term =
    Arg.(
      value & flag
      & info [ "plan-cache" ] ~doc:"backends serve repeats from a plan cache")
  in
  let model_term =
    Arg.(
      value & opt string "default"
      & info [ "model" ]
          ~doc:(model_doc
               ^ ".  The router fits once and starts every backend with \
                  its coefficients in the exact text form, so backends \
                  never calibrate"))
  in
  let run env socket tcp backends latency_tier threshold_ms affinity workers
      plan_cache model max_memo_entries max_kept_plans =
    wrap (fun () ->
        if backends < 1 then failwith "--backends must be at least 1";
        let listen = addr_of ~socket ~tcp in
        (* Fitted with the helpers each backend will compile with. *)
        let model, model_fit_s =
          with_helpers ~workers (fun pool ->
              model_of ?runner:(Option.map Qopt_par.Pool.run pool) env model)
        in
        let caps flag =
          Option.fold ~none:[] ~some:(fun n -> [ flag; string_of_int n ])
        in
        (* Backend addresses derive from the router's: sockets get a .bN
           suffix, TCP backends take the next ports on loopback. *)
        let backend_addr i : Srv.Server.addr =
          match listen with
          | `Unix p -> `Unix (Printf.sprintf "%s.b%d" p i)
          | `Tcp (_, port) -> `Tcp ("127.0.0.1", port + 1 + i)
        in
        let spec i =
          let addr = backend_addr i in
          let argv =
            [ "qopt"; "serve"; "--workers"; string_of_int workers;
              "--trust-hints"; "--model"; Cote.Time_model.to_string model ]
            @ (if plan_cache then [ "--plan-cache" ] else [])
            @ caps "--max-memo-entries" max_memo_entries
            @ caps "--max-kept-plans" max_kept_plans
            @ (match addr with
              | `Unix p -> [ "-s"; p ]
              | `Tcp (h, p) -> [ "--tcp"; Printf.sprintf "%s:%d" h p ])
          in
          {
            F.Backend.sp_addr = addr;
            sp_launch =
              F.Backend.Spawn
                { exe = Sys.executable_name; argv = Array.of_list argv };
          }
        in
        let cfg =
          {
            (F.Router.default_config ~listen
               ~backends:(List.init backends spec)
               ~model
               ~schemas:
                 [
                   ("warehouse", schema_for env "warehouse");
                   ("tpch", schema_for env "tpch");
                   ("giant", schema_for env "giant");
                 ]
               ())
            with
            F.Router.latency_tier =
              Option.value ~default:(max 1 (backends - 1)) latency_tier;
            threshold_s = threshold_ms /. 1000.0;
            affinity;
            env;
            model_fit_s;
            budget = O.Budget.make ?max_memo_entries ?max_kept_plans ();
          }
        in
        let pp_addr ppf = function
          | `Unix p -> Format.fprintf ppf "unix:%s" p
          | `Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p
        in
        F.Router.run
          ~on_ready:(fun () ->
            Format.printf
              "qopt fleet: %d backend%s up (%d latency-tier), listening on \
               %a%s@."
              backends
              (if backends = 1 then "" else "s")
              (min (max 1 (Option.value ~default:(backends - 1) latency_tier)) backends)
              pp_addr listen
              (if affinity then ", template affinity" else ""))
          cfg;
        Format.printf "qopt fleet: shut down@.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Route compiles across a fleet of spawned backend servers \
             (estimate once, tier by predicted time, fail over on death)")
    Term.(
      ret
        (const run $ env_term $ socket_term $ tcp_term $ backends_term
       $ latency_tier_term $ threshold_term $ affinity_term $ workers_term
       $ plan_cache_term $ model_term $ max_memo_entries_term
       $ max_kept_plans_term))

let client_cmd =
  let op_term =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"estimate, compile, stats or shutdown")
  in
  let deadline_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~doc:"compile deadline in milliseconds")
  in
  let run socket tcp op sql schema deadline_ms =
    wrap (fun () ->
        let c = Srv.Client.connect (addr_of ~socket ~tcp) in
        Fun.protect
          ~finally:(fun () -> Srv.Client.close c)
          (fun () ->
            let id = Srv.Client.fresh_id c in
            let need_sql () =
              match sql with
              | Some s -> s
              | None -> failwith "--sql is required for estimate/compile"
            in
            let req =
              match op with
              | "estimate" -> Srv.Proto.Estimate { id; sql = need_sql (); schema }
              | "compile" ->
                Srv.Proto.Compile
                  {
                    id;
                    sql = need_sql ();
                    schema;
                    deadline_ms;
                    estimate_hint_s = None;
                  }
              | "stats" -> Srv.Proto.Stats { id }
              | "shutdown" -> Srv.Proto.Shutdown { id }
              | o ->
                failwith
                  (Printf.sprintf
                     "unknown op %S (estimate|compile|stats|shutdown)" o)
            in
            match Srv.Client.request c req with
            | None -> failwith "server closed the connection without replying"
            | Some reply ->
              print_endline
                (Qopt_util.Json.to_string (Srv.Proto.reply_to_json reply))))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running qopt server and print the JSON reply")
    Term.(
      ret
        (const run $ socket_term $ tcp_term $ op_term $ sql_term $ schema_term
       $ deadline_term))

let loadgen_cmd =
  let smalls_term =
    Arg.(value & opt int 48 & info [ "smalls" ] ~doc:"single-table queries")
  in
  let bigs_term =
    Arg.(value & opt int 2 & info [ "bigs" ] ~doc:"8-table star joins, sent first")
  in
  let burst_term =
    Arg.(
      value & flag
      & info [ "burst" ]
          ~doc:"pipeline the whole mix on one connection (shows scheduling \
                policy); default is closed-loop")
  in
  let clients_term =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"closed-loop client threads")
  in
  let deadline_term =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~doc:"per-compile deadline in milliseconds")
  in
  let scenario_term =
    Arg.(
      value & flag
      & info [ "scenario" ]
          ~doc:"fleet scenario: --tenants concurrent connections each \
                pipeline --bursts jittered bursts of the mix (smalls/bigs \
                become per-burst bases), with optional per-tenant \
                --slow-start-ms stagger")
  in
  let tenants_term =
    Arg.(value & opt int 4 & info [ "tenants" ] ~doc:"scenario connections")
  in
  let bursts_term =
    Arg.(value & opt int 3 & info [ "bursts" ] ~doc:"bursts per tenant")
  in
  let pause_term =
    Arg.(
      value & opt float 20.0
      & info [ "pause-ms" ] ~doc:"idle gap between a tenant's bursts")
  in
  let slow_start_term =
    Arg.(
      value & opt float 0.0
      & info [ "slow-start-ms" ] ~doc:"per-tenant connect stagger")
  in
  let seed_term =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"scenario jitter seed")
  in
  let run socket tcp smalls bigs burst clients deadline_ms scenario tenants
      bursts pause_ms slow_start_ms seed =
    wrap (fun () ->
        let addr = addr_of ~socket ~tcp in
        let sql = Srv.Loadgen.warehouse_mix ~smalls ~bigs in
        let s =
          if scenario then
            F.Scenario.run
              {
                F.Scenario.tenants;
                bursts;
                smalls;
                bigs;
                pause_s = pause_ms /. 1000.0;
                slow_start_s = slow_start_ms /. 1000.0;
                seed;
              }
              ~addr
          else if burst then Srv.Loadgen.run_burst ?deadline_ms ~addr ~sql ()
          else Srv.Loadgen.run_closed ?deadline_ms ~clients ~addr ~sql ()
        in
        Format.printf
          "sent %d: compiled %d, rejected %d, cancelled %d, errored %d@."
          s.Srv.Loadgen.sent s.Srv.Loadgen.compiled s.Srv.Loadgen.rejected
          s.Srv.Loadgen.cancelled s.Srv.Loadgen.errored;
        Format.printf "wall %.3fs, %.1f compiles/s@." s.Srv.Loadgen.wall_s
          s.Srv.Loadgen.qps;
        let p q = Srv.Loadgen.percentile s.Srv.Loadgen.latencies_s q in
        Format.printf "latency p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms@."
          (1e3 *. p 0.50) (1e3 *. p 0.95) (1e3 *. p 0.99) (1e3 *. p 1.0))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running qopt server with a mixed compile workload")
    Term.(
      ret
        (const run $ socket_term $ tcp_term $ smalls_term $ bigs_term
       $ burst_term $ clients_term $ deadline_term $ scenario_term
       $ tenants_term $ bursts_term $ pause_term $ slow_start_term
       $ seed_term))

let () =
  let info =
    Cmd.info "qopt" ~version:"1.0.0"
      ~doc:"Query-optimizer compilation-time estimation (SIGMOD 2003 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            optimize_cmd; estimate_cmd; breakdown_cmd; batch_cmd; calibrate_cmd;
            experiment_cmd; list_cmd; serve_cmd; fleet_cmd; client_cmd;
            loadgen_cmd;
          ]))
