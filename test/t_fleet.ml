(* The compile fleet: rendezvous-hash routing properties, a router on a
   Unix socket in front of in-process backends (compile replies must
   match a direct single server bit-for-bit on deterministic fields, and
   repeat templates must concentrate on one backend), backend rejections
   surfacing through the router with the original request id, one table
   of bad inputs answered with the same structured errors by a server
   and a router, and a spawned fleet surviving SIGKILL of its hottest
   backend mid-stream with zero lost requests. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module Srv = Qopt_server
module F = Qopt_fleet
module J = Qopt_util.Json
module Obs = Qopt_obs

let t name f = Alcotest.test_case name `Quick f

let schema = W.Warehouse.schema ~partitioned:false

let model = Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 ()

let small_sql n =
  Printf.sprintf "SELECT s.s_store_name FROM store s WHERE s.s_market_id = %d" n

let big_sql =
  String.concat " "
    [
      "SELECT d.d_year, i.i_category_id, SUM(ss.ss_quantity)";
      "FROM store_sales ss, date_dim d, time_dim t, item i, customer c,";
      "household_demographics hd, store s, promotion p";
      "WHERE ss.ss_sold_date_sk = d.d_date_sk";
      "AND ss.ss_sold_time_sk = t.t_time_sk";
      "AND ss.ss_item_sk = i.i_item_sk";
      "AND ss.ss_customer_sk = c.c_customer_sk";
      "AND ss.ss_hdemo_sk = hd.hd_demo_sk";
      "AND ss.ss_store_sk = s.s_store_sk";
      "AND ss.ss_promo_sk = p.p_promo_sk";
      "AND d.d_year = 2000";
      "GROUP BY d.d_year, i.i_category_id";
    ]

(* ------------------------------------------------------------------ *)
(* Rendezvous hashing                                                  *)
(* ------------------------------------------------------------------ *)

let rendezvous_tests =
  [
    t "ranked is deterministic and a permutation" (fun () ->
        List.iter
          (fun key ->
            let r1 = F.Rendezvous.ranked ~nodes:7 key in
            let r2 = F.Rendezvous.ranked ~nodes:7 key in
            Alcotest.(check (list int)) "deterministic" r1 r2;
            Alcotest.(check (list int))
              "permutation of 0..6"
              [ 0; 1; 2; 3; 4; 5; 6 ]
              (List.sort compare r1))
          [ "a"; "warehouse|sel-1"; ""; "x|y|z" ]);
    t "every node owns some keys" (fun () ->
        let owned = Array.make 4 0 in
        for i = 0 to 199 do
          let n = F.Rendezvous.choose ~nodes:4 (Printf.sprintf "key-%d" i) in
          owned.(n) <- owned.(n) + 1
        done;
        Array.iteri
          (fun i c ->
            Alcotest.(check bool)
              (Printf.sprintf "node %d owns a share" i)
              true (c > 0))
          owned);
    t "removing the last node remaps only its keys" (fun () ->
        (* Scores are independent of the node count, so dropping node 4
           must leave every other key's owner unchanged — the
           minimal-disruption property modulo placement lacks. *)
        for i = 0 to 99 do
          let key = Printf.sprintf "stmt-%d" i in
          let before = F.Rendezvous.choose ~nodes:5 key in
          if before <> 4 then
            Alcotest.(check int)
              "owner survives the shrink" before
              (F.Rendezvous.choose ~nodes:4 key)
        done);
    t "choose refuses an empty node set" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Qopt_fleet.Rendezvous.choose: no nodes")
          (fun () -> ignore (F.Rendezvous.choose ~nodes:0 "k")));
  ]

(* ------------------------------------------------------------------ *)
(* Harness: in-process backends behind an in-process router            *)
(* ------------------------------------------------------------------ *)

let next_sock =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qopt-fleet-%s-%d-%d.sock" tag (Unix.getpid ()) !n)

let start_thread_ready start =
  let lock = Mutex.create () and cond = Condition.create () in
  let ready = ref false in
  let th =
    Thread.create
      (fun () ->
        start (fun () ->
            Mutex.protect lock (fun () ->
                ready := true;
                Condition.signal cond)))
      ()
  in
  Mutex.lock lock;
  while not !ready do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  th

let start_inproc_server ?(configure = fun c -> c) path =
  let cfg =
    configure
      (Srv.Server.default_config ~listen:(`Unix path) ~model
         ~schemas:[ ("warehouse", schema) ]
         ())
  in
  start_thread_ready (fun on_ready -> Srv.Server.run ~on_ready cfg)

(* [n] in-process servers as External backends behind an in-process
   router.  Shutting the router down drains the backends too (its
   Backend.shutdown sends each one a Shutdown request), so all threads
   join. *)
let with_fleet ?(backend_cfg = fun c -> c) ?(configure = fun c -> c) ~n f =
  let bpaths = List.init n (fun i -> next_sock (Printf.sprintf "b%d" i)) in
  let bthreads = List.map (start_inproc_server ~configure:backend_cfg) bpaths in
  let rpath = next_sock "router" in
  let specs =
    List.map
      (fun p -> { F.Backend.sp_addr = `Unix p; sp_launch = F.Backend.External })
      bpaths
  in
  let cfg =
    configure
      (F.Router.default_config ~listen:(`Unix rpath) ~backends:specs ~model
         ~schemas:[ ("warehouse", schema) ]
         ())
  in
  let router = start_thread_ready (fun on_ready -> F.Router.run ~on_ready cfg) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Srv.Client.connect (`Unix rpath) in
         ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 999_999 }));
         Srv.Client.close c
       with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join router;
      List.iter Thread.join bthreads;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (rpath :: bpaths))
    (fun () -> f (`Unix rpath))

let request_exn c req =
  match Srv.Client.request c req with
  | Some reply -> reply
  | None -> Alcotest.fail "connection closed without a reply"

let compile_req id sql =
  Srv.Proto.Compile
    { id; sql; schema = None; deadline_ms = None; estimate_hint_s = None }

let compile_exn c sql =
  let id = Srv.Client.fresh_id c in
  match request_exn c (compile_req id sql) with
  | Srv.Proto.R_compile (rid, body) ->
    Alcotest.(check int) "id echoed" id rid;
    body
  | r ->
    Alcotest.failf "expected compile reply, got %s"
      (J.to_string (Srv.Proto.reply_to_json r))

let counter name = Obs.Registry.counter_value Obs.Registry.default name

let stats_doc c =
  match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
  | Srv.Proto.R_stats (_, doc) -> doc
  | _ -> Alcotest.fail "expected stats reply"

let estimate_s c sql =
  let id = Srv.Client.fresh_id c in
  match request_exn c (Srv.Proto.Estimate { id; sql; schema = None }) with
  | Srv.Proto.R_estimate (_, e) -> e.Srv.Proto.e_predicted_s
  | r ->
    Alcotest.failf "expected estimate reply, got %s"
      (J.to_string (Srv.Proto.reply_to_json r))

(* Per-backend compile counts out of the router's aggregated stats doc
   (each backend entry nests the live server stats). *)
let backend_compiles doc =
  match J.member "backends" doc with
  | Some (J.Arr bs) ->
    List.map
      (fun b ->
        match J.member "stats" b with
        | Some (J.Obj _ as s) ->
          Option.value ~default:0 (Option.bind (J.member "compiles" s) J.get_int)
        | _ -> 0)
      bs
  | _ -> Alcotest.fail "stats doc has no backends array"

(* ------------------------------------------------------------------ *)
(* Router behaviour over the socket                                    *)
(* ------------------------------------------------------------------ *)

let router_tests =
  [
    t "fleet compile equals a direct single server bit-for-bit" (fun () ->
        (* Deterministic reply fields must be unchanged by the extra hop:
           same plan, same costs, same predicted seconds (every backend
           runs the same COTE the single server runs). *)
        let direct = ref [] in
        let spath = next_sock "direct" in
        let sthread = start_inproc_server spath in
        (try
           let c = Srv.Client.connect (`Unix spath) in
           direct :=
             List.map (fun sql -> compile_exn c sql) [ small_sql 5; big_sql ];
           ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 999_998 }));
           Srv.Client.close c
         with e ->
           Thread.join sthread;
           raise e);
        Thread.join sthread;
        with_fleet ~n:3 (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                List.iter2
                  (fun sql d ->
                    let f = compile_exn c sql in
                    Alcotest.(check (option string))
                      "plan" d.Srv.Proto.c_plan f.Srv.Proto.c_plan;
                    Alcotest.(check (float 0.0)) "cost" d.Srv.Proto.c_cost
                      f.Srv.Proto.c_cost;
                    Alcotest.(check (float 0.0)) "card" d.Srv.Proto.c_card
                      f.Srv.Proto.c_card;
                    Alcotest.(check int) "joins" d.Srv.Proto.c_joins
                      f.Srv.Proto.c_joins;
                    Alcotest.(check int) "kept" d.Srv.Proto.c_kept
                      f.Srv.Proto.c_kept;
                    Alcotest.(check int) "entries" d.Srv.Proto.c_entries
                      f.Srv.Proto.c_entries;
                    Alcotest.(check (float 0.0))
                      "predicted_s" d.Srv.Proto.c_predicted_s
                      f.Srv.Proto.c_predicted_s;
                    Alcotest.(check string) "level" d.Srv.Proto.c_level
                      f.Srv.Proto.c_level;
                    Alcotest.(check bool) "plan_cached"
                      d.Srv.Proto.c_plan_cached f.Srv.Proto.c_plan_cached)
                  [ small_sql 5; big_sql ]
                  !direct)));
    t "router estimate equals the direct library call" (fun () ->
        with_fleet ~n:2 (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let sql = big_sql in
                let block = Qopt_sql.Binder.parse_and_bind schema sql in
                let d =
                  Cote.Predict.compile_time ~knobs:O.Knobs.default ~model
                    O.Env.serial block
                in
                let id = Srv.Client.fresh_id c in
                match
                  request_exn c (Srv.Proto.Estimate { id; sql; schema = None })
                with
                | Srv.Proto.R_estimate (rid, e) ->
                  Alcotest.(check int) "id echoed" id rid;
                  Alcotest.(check (float 0.0)) "predicted_s"
                    d.Cote.Predict.seconds e.Srv.Proto.e_predicted_s;
                  Alcotest.(check int) "joins"
                    d.Cote.Predict.estimate.Cote.Estimator.joins
                    e.Srv.Proto.e_joins;
                  Alcotest.(check string) "level" "dp_default"
                    e.Srv.Proto.e_level
                | r ->
                  Alcotest.failf "expected estimate reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)))));
    t "template affinity concentrates repeats on one backend" (fun () ->
        with_fleet ~n:3 (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let hits0 = counter "fleet.affinity_hits" in
                let total0 = counter "fleet.affinity_total" in
                (* Same template, varying literal: the statement-cache
                   key is structural, so all 20 share one affinity key. *)
                for i = 1 to 20 do
                  ignore (compile_exn c (small_sql i))
                done;
                (match
                   request_exn c
                     (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                 with
                | Srv.Proto.R_stats (_, doc) ->
                  let per_backend = backend_compiles doc in
                  Alcotest.(check int) "three backends" 3
                    (List.length per_backend);
                  Alcotest.(check (list int))
                    "all 20 compiles on a single backend" [ 0; 0; 20 ]
                    (List.sort compare per_backend)
                | _ -> Alcotest.fail "expected stats reply");
                Alcotest.(check int)
                  "every routed compile hit its first choice" 20
                  (counter "fleet.affinity_hits" - hits0);
                Alcotest.(check int) "affinity accounted" 20
                  (counter "fleet.affinity_total" - total0))));
    t "a template's tier follows the model, not its measured actuals"
      (fun () ->
        (* The single-table template's model prediction is 0 s (no
           joins), so under a 0 s threshold it belongs to the latency
           tier, while every measured actual the router's statement cache
           records is above the threshold.  A tier read from the refined
           prediction would send each repeat after the first to the
           throughput tier's backend. *)
        with_fleet ~n:3
          ~configure:(fun c -> { c with F.Router.threshold_s = 0.0 })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                Alcotest.(check (float 0.0)) "model prediction" 0.0
                  (estimate_s c (small_sql 0));
                let latency0 = counter "fleet.routed_latency_tier" in
                for i = 1 to 20 do
                  ignore (compile_exn c (small_sql i))
                done;
                Alcotest.(check int) "all 20 on the latency tier" 20
                  (counter "fleet.routed_latency_tier" - latency0);
                Alcotest.(check (list int))
                  "all 20 compiles on a single backend" [ 0; 0; 20 ]
                  (List.sort compare (backend_compiles (stats_doc c))))));
    t "backend rejections surface with the original id and retry advice"
      (fun () ->
        with_fleet ~n:2
          ~backend_cfg:(fun cfg ->
            {
              cfg with
              Srv.Server.admission =
                {
                  Srv.Admission.per_request_s = 1e-12;
                  aggregate_s = infinity;
                  max_queue = max_int;
                };
            })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let id = Srv.Client.fresh_id c in
                match request_exn c (compile_req id big_sql) with
                | Srv.Proto.R_rejected { id = rid; reason; retry_after_us; _ }
                  ->
                  Alcotest.(check int) "original id" id rid;
                  Alcotest.(check string) "reason" "per_request_budget" reason;
                  Alcotest.(check bool)
                    "per-request rejections carry no retry advice" true
                    (retry_after_us = None)
                | r ->
                  Alcotest.failf "expected rejection, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)))));
    t "scenario aggregates across tenants against a fleet" (fun () ->
        with_fleet ~n:2 (fun addr ->
            let s =
              F.Scenario.run
                {
                  F.Scenario.tenants = 2;
                  bursts = 2;
                  smalls = 6;
                  bigs = 1;
                  pause_s = 0.0;
                  slow_start_s = 0.0;
                  seed = 7;
                }
                ~addr
            in
            Alcotest.(check bool) "sent something" true (s.Srv.Loadgen.sent > 0);
            Alcotest.(check int)
              "every request compiled" s.Srv.Loadgen.sent
              s.Srv.Loadgen.compiled;
            Alcotest.(check int)
              "latency per compile" s.Srv.Loadgen.compiled
              (Array.length s.Srv.Loadgen.latencies_s)));
  ]

(* ------------------------------------------------------------------ *)
(* Front-end errors: one table, both front doors                       *)
(* ------------------------------------------------------------------ *)

let with_single_server f =
  let path = next_sock "single" in
  let th = start_inproc_server path in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Srv.Client.connect (`Unix path) in
         ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 999_996 }));
         Srv.Client.close c
       with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (`Unix path))

let frame payload = Printf.sprintf "%d\n%s\n" (String.length payload) payload

let request_frame req = frame (J.to_string (Srv.Proto.request_to_json req))

(* (case, bytes sent, reply id, message fragment, closes the connection) *)
let front_end_cases =
  let estimate ?schema id sql =
    request_frame (Srv.Proto.Estimate { id; sql; schema })
  in
  let compile ?schema id sql =
    request_frame
      (Srv.Proto.Compile
         { id; sql; schema; deadline_ms = None; estimate_hint_s = None })
  in
  [
    ("bad JSON", frame "{\"op\":", 0, "", false);
    ("unknown op", frame "{\"op\":\"frobnicate\",\"id\":7}", 0, "unknown request op", false);
    ("unknown schema", estimate ~schema:"nope" 11 (small_sql 1), 11, "unknown schema", false);
    ("unknown schema (compile)", compile ~schema:"nope" 21 (small_sql 1), 21, "unknown schema", false);
    ("lexer error", estimate 12 "SELECT ' FROM store s", 12, "at byte", false);
    ("lexer error (compile)", compile 22 "SELECT ' FROM store s", 22, "at byte", false);
    ("parse error", estimate 13 "SELECT FROM store s", 13, "", false);
    ("binder error", estimate 14 "SELECT x.a FROM no_such_table x", 14, "no_such_table", false);
    ("binder error (compile)", compile 24 "SELECT x.a FROM no_such_table x", 24, "no_such_table", false);
    ("empty SQL", estimate 15 "", 15, "", false);
    ("oversized frame header", "99999999999\n", 0, "out of bounds", true);
  ]

let read_reply ic =
  Option.map
    (fun payload ->
      match Result.bind (J.parse payload) Srv.Proto.reply_of_json with
      | Ok r -> r
      | Error msg -> Alcotest.fail msg)
    (Srv.Wire.read ic)

let check_front_end_errors addr =
  List.iter
    (fun (case, bytes, want_id, fragment, closes) ->
      let fd = Srv.Frontdoor.dial addr in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc bytes;
          flush oc;
          (match read_reply ic with
          | Some (Srv.Proto.R_error { id; message }) ->
            Alcotest.(check int) (case ^ ": id") want_id id;
            Alcotest.(check bool)
              (Printf.sprintf "%s: message %S mentions %S" case message fragment)
              true
              (message <> "" && Helpers.contains message fragment)
          | Some r ->
            Alcotest.failf "%s: expected an error reply, got %s" case
              (J.to_string (Srv.Proto.reply_to_json r))
          | None -> Alcotest.failf "%s: connection closed without a reply" case);
          if closes then
            Alcotest.(check bool) (case ^ ": connection closed") true
              (read_reply ic = None)
          else begin
            Srv.Wire.write oc
              (J.to_string (Srv.Proto.request_to_json (Srv.Proto.Stats { id = 99 })));
            match read_reply ic with
            | Some (Srv.Proto.R_stats (99, _)) -> ()
            | _ -> Alcotest.failf "%s: connection no longer answers stats" case
          end))
    front_end_cases

let front_end_tests =
  [
    t "server answers every front-end error with structure" (fun () ->
        with_single_server check_front_end_errors);
    t "router answers every front-end error with structure" (fun () ->
        with_fleet ~n:1 check_front_end_errors);
    t "router statement cache refines the next estimate of a compiled template"
      (fun () ->
        with_fleet ~n:2 (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                ignore (compile_exn c (small_sql 3));
                let id = Srv.Client.fresh_id c in
                match
                  request_exn c
                    (Srv.Proto.Estimate { id; sql = small_sql 4; schema = None })
                with
                | Srv.Proto.R_estimate (_, e) ->
                  Alcotest.(check bool) "cache_hit" true e.Srv.Proto.e_cache_hit
                | r ->
                  Alcotest.failf "expected estimate reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)))));
  ]

(* ------------------------------------------------------------------ *)
(* SIGKILL failover on a spawned fleet                                 *)
(* ------------------------------------------------------------------ *)

let qopt_exe =
  (* _build/default/test/test_main.exe -> _build/default/bin/qopt.exe *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/qopt.exe"

let backend_fields doc =
  match J.member "backends" doc with
  | Some (J.Arr bs) ->
    List.map
      (fun b ->
        ( Option.value ~default:false
            (Option.bind (J.member "up" b) J.get_bool),
          Option.bind (J.member "pid" b) J.get_int,
          Option.value ~default:0 (Option.bind (J.member "routed" b) J.get_int)
        ))
      bs
  | _ -> Alcotest.fail "stats doc has no backends array"

(* [n] spawned [qopt serve] backends (each a real process, so a test can
   SIGKILL one) behind an in-process router probing down backends after
   [probe_after_s]; [f] gets a client of the router. *)
let with_spawned_fleet ~tag ~n ~probe_after_s f =
  let bpaths =
    List.init n (fun i -> next_sock (Printf.sprintf "%sb%d" tag i))
  in
  let rpath = next_sock (tag ^ "router") in
  let specs =
    List.map
      (fun p ->
        {
          F.Backend.sp_addr = `Unix p;
          sp_launch =
            F.Backend.Spawn
              {
                exe = qopt_exe;
                argv =
                  [| "qopt"; "serve"; "-s"; p; "--workers"; "1" |];
              };
        })
      bpaths
  in
  let cfg =
    {
      (F.Router.default_config ~listen:(`Unix rpath) ~backends:specs ~model
         ~schemas:[ ("warehouse", schema) ]
         ())
      with
      F.Router.probe_after_s;
    }
  in
  let router = start_thread_ready (fun on_ready -> F.Router.run ~on_ready cfg) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Srv.Client.connect (`Unix rpath) in
         ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 999_997 }));
         Srv.Client.close c
       with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join router;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (rpath :: bpaths))
    (fun () ->
      let c = Srv.Client.connect (`Unix rpath) in
      Fun.protect ~finally:(fun () -> Srv.Client.close c) (fun () -> f c))

(* Poll the router's stats until [ok] holds of the backend fields, for
   at most [within_s]. *)
let await_backends c ~within_s what ok =
  let deadline = Unix.gettimeofday () +. within_s in
  let rec go () =
    let fields = backend_fields (stats_doc c) in
    if ok fields then fields
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: not within %.0f s" what within_s
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let failover_tests =
  [
    t "SIGKILLed backend fails over with zero lost requests, then respawns"
      (fun () ->
        with_spawned_fleet ~tag:"k" ~n:3 ~probe_after_s:0.05 (fun c ->
          let failovers0 = counter "fleet.failovers" in
          (* Route one compile to find the template's owner. *)
          ignore (compile_exn c (small_sql 1));
          let owner_pid =
            match
              List.find_opt
                (fun (_, _, routed) -> routed > 0)
                (backend_fields (stats_doc c))
            with
            | Some (_, Some pid, _) -> pid
            | Some (_, None, _) ->
              Alcotest.fail "owner backend has no pid"
            | None -> Alcotest.fail "no backend routed the probe compile"
          in
          (* The router takes a backend whose socket hangs up out of
             rotation at once, so a request can only fail over if it
             is in flight when the owner dies: stop the owner, route
             the same template to it again, then kill it. *)
          Unix.kill owner_pid Sys.sigstop;
          let in_flight = Srv.Client.fresh_id c in
          Srv.Client.send c (compile_req in_flight (small_sql 1));
          Thread.delay 0.2;
          Unix.kill owner_pid Sys.sigkill;
          (* Pipeline a burst at the now-dead owner: every request
             must come back compiled via failover — one retry each,
             never a wedge, never a lost reply. *)
          let ids =
            in_flight
            :: List.init 40 (fun _ ->
                   let id = Srv.Client.fresh_id c in
                   Srv.Client.send c (compile_req id (small_sql (id mod 9)));
                   id)
          in
          let got = Hashtbl.create 64 in
          List.iter
            (fun _ ->
              match Srv.Client.recv c with
              | Some (Srv.Proto.R_compile (rid, _)) ->
                Hashtbl.replace got rid ()
              | Some r ->
                Alcotest.failf "expected compile reply, got %s"
                  (J.to_string (Srv.Proto.reply_to_json r))
              | None -> Alcotest.fail "router closed mid-burst")
            ids;
          List.iter
            (fun id ->
              Alcotest.(check bool)
                (Printf.sprintf "reply for id %d" id)
                true (Hashtbl.mem got id))
            ids;
          Alcotest.(check bool) "at least one failover" true
            (counter "fleet.failovers" - failovers0 >= 1);
          (* The probe respawns the killed process: all three
             backends must be back in rotation, the dead one under
             a fresh pid. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec wait_respawn () =
            let fields = backend_fields (stats_doc c) in
            let all_up = List.for_all (fun (up, _, _) -> up) fields in
            let pids = List.filter_map (fun (_, pid, _) -> pid) fields in
            if all_up && List.length pids = 3 then
              Alcotest.(check bool) "killed pid replaced" false
                (List.mem owner_pid pids)
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "fleet did not heal within 10s"
            else begin
              Thread.delay 0.05;
              wait_respawn ()
            end
          in
          wait_respawn ()));
    t "an idle SIGKILLed backend leaves rotation and comes back respawned"
      (fun () ->
        (* No request ever goes to the killed backend: only its channel's
           hang-up (or the stats rpc failing) can tell the router. *)
        with_spawned_fleet ~tag:"i" ~n:2 ~probe_after_s:0.3 (fun c ->
            let pid0 =
              match
                await_backends c ~within_s:5.0 "both backends up"
                  (List.for_all (fun (up, pid, _) -> up && pid <> None))
              with
              | (_, Some pid, _) :: _ -> pid
              | _ -> Alcotest.fail "backend 0 has no pid"
            in
            Unix.kill pid0 Sys.sigkill;
            ignore
              (await_backends c ~within_s:2.0 "killed backend marked down"
                 (function (up, _, _) :: _ -> not up | [] -> false));
            ignore
              (await_backends c ~within_s:10.0 "killed backend respawned"
                 (function
                   | (up, Some pid, _) :: _ -> up && pid <> pid0
                   | _ -> false))));
  ]

(* ------------------------------------------------------------------ *)
(* Budgeted router                                                     *)
(* ------------------------------------------------------------------ *)

let budget_tests =
  [
    t "a 30-table star through a router capped at 600 entries" (fun () ->
        (* The router's COTE pass runs under the cap: the estimate gets
           the server's budget error, the compile goes to the throughput
           tier, and the backend runs its own budgeted pass and picks the
           greedy regime. *)
        let giant = W.Giant.schema () in
        let budget = O.Budget.make ~max_memo_entries:600 () in
        with_fleet ~n:1
          ~backend_cfg:(fun c ->
            {
              c with
              Srv.Server.schemas = c.Srv.Server.schemas @ [ ("giant", giant) ];
              budget;
            })
          ~configure:(fun c ->
            {
              c with
              F.Router.schemas = c.F.Router.schemas @ [ ("giant", giant) ];
              budget;
            })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let sql = T_server.giant_star_sql 30 in
                let id = Srv.Client.fresh_id c in
                (match
                   request_exn c
                     (Srv.Proto.Estimate { id; sql; schema = Some "giant" })
                 with
                | Srv.Proto.R_error { id = rid; message } ->
                  Alcotest.(check int) "id echoed" id rid;
                  Alcotest.(check string) "estimate error"
                    "budget exceeded: memo_entries 601 > 600" message
                | r ->
                  Alcotest.failf "expected an error reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)));
                let throughput0 = counter "fleet.routed_throughput_tier" in
                let b = T_server.compile_regime c sql in
                Alcotest.(check string) "regime" "greedy" b.Srv.Proto.c_regime;
                Alcotest.(check bool) "a plan came back" true
                  (b.Srv.Proto.c_plan <> None);
                Alcotest.(check int) "throughput tier" 1
                  (counter "fleet.routed_throughput_tier" - throughput0))));
  ]

(* ------------------------------------------------------------------ *)
(* Startup fit of spawned processes                                    *)
(* ------------------------------------------------------------------ *)

(* Run [f] against a spawned qopt process listening on [path]; Backend
   polls the socket until the process accepts, and its shutdown waits
   for the exit. *)
let with_spawned argv path f =
  let b =
    F.Backend.create 0
      {
        F.Backend.sp_addr = `Unix path;
        sp_launch = F.Backend.Spawn { exe = qopt_exe; argv };
      }
  in
  if not (F.Backend.start b) then Alcotest.fail "spawned qopt never listened";
  Fun.protect
    ~finally:(fun () ->
      F.Backend.shutdown b;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (`Unix path))

let ( >>= ) = Option.bind

let doc_counter doc name =
  J.member "metrics" doc >>= J.member "counters" >>= J.member name
  >>= J.get_int

let doc_num doc name = J.member name doc >>= J.get_float

let model_text doc =
  match J.member "model" doc with
  | Some (J.Obj _ as m) -> J.to_string m
  | _ -> Alcotest.fail "stats doc has no model"

let startup_tests =
  [
    t "serve --model calibrated compiles each calibration query once" (fun () ->
        (* The startup fit measures only what the fitter reads: one
           compile per calibration query, no COTE estimate. *)
        let corpus = W.Workload.size (W.Synthetic.calibration ~partitioned:false) in
        Alcotest.(check int) "serial calibration corpus" 18 corpus;
        let path = next_sock "calserve" in
        with_spawned
          [| "qopt"; "serve"; "-s"; path; "--model"; "calibrated" |]
          path
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let doc = stats_doc c in
                Alcotest.(check (option int)) "optimizer.queries" (Some corpus)
                  (doc_counter doc "optimizer.queries");
                Alcotest.(check (option int)) "estimator.runs" (Some 0)
                  (doc_counter doc "estimator.runs");
                Alcotest.(check bool) "fit seconds reported" true
                  (Option.value ~default:0.0 (doc_num doc "model_fit_s") > 0.0);
                ignore (model_text doc))));
    t "estimate fits like serve --model calibrated: one compile per query"
      (fun () ->
        (* The fit compiles each calibration query once and estimates
           nothing; the one COTE run is the estimate asked for. *)
        let ic =
          Unix.open_process_args_in qopt_exe
            [| "qopt"; "estimate"; "-w"; "tpch"; "-q"; "tpch_q8"; "--metrics=json" |]
        in
        let rec last acc =
          match input_line ic with
          | line -> last (Some line)
          | exception End_of_file -> acc
        in
        let out = last None in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "qopt estimate failed");
        let doc =
          match Option.map J.parse out with
          | Some (Ok doc) -> doc
          | Some (Error e) -> Alcotest.failf "metrics line is not JSON: %s" e
          | None -> Alcotest.fail "qopt estimate printed nothing"
        in
        let count name = J.member "counters" doc >>= J.member name >>= J.get_int in
        Alcotest.(check (option int)) "optimizer.queries" (Some 18)
          (count "optimizer.queries");
        Alcotest.(check (option int)) "estimator.runs" (Some 1)
          (count "estimator.runs"));
    t "fleet backends serve the router's fit bit for bit, never calibrating"
      (fun () ->
        let path = next_sock "calfleet" in
        with_spawned
          [|
            "qopt"; "fleet"; "-s"; path; "--backends"; "1"; "--model";
            "calibrated";
          |]
          path
          (fun addr ->
            let r = Srv.Client.connect addr in
            let b = Srv.Client.connect (`Unix (path ^ ".b0")) in
            Fun.protect
              ~finally:(fun () ->
                Srv.Client.close r;
                Srv.Client.close b)
              (fun () ->
                let rdoc = stats_doc r and bdoc = stats_doc b in
                Alcotest.(check string) "same coefficients" (model_text rdoc)
                  (model_text bdoc);
                Alcotest.(check bool) "router fitted" true
                  (Option.value ~default:0.0 (doc_num rdoc "model_fit_s") > 0.0);
                Alcotest.(check (option (float 0.0))) "backend did not fit"
                  (Some 0.0) (doc_num bdoc "model_fit_s");
                Alcotest.(check (option int)) "backend compiled nothing"
                  (Some 0) (doc_counter bdoc "optimizer.queries");
                (* A template neither side has seen: both answer from the
                   model alone. *)
                Alcotest.(check (float 0.0)) "predicted_s"
                  (estimate_s r big_sql) (estimate_s b big_sql))));
    t "a fleet backend prices a hinted compile itself" (fun () ->
        (* A client that reaches a backend directly may send any hint; the
           backend admits on its own COTE pass, so the reply's prediction
           is the one its [estimate] gives, never the hint. *)
        let path = next_sock "hintfleet" in
        with_spawned [| "qopt"; "fleet"; "-s"; path; "--backends"; "1" |] path
          (fun _ ->
            let b = Srv.Client.connect (`Unix (path ^ ".b0")) in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close b)
              (fun () ->
                let own = estimate_s b big_sql in
                let id = Srv.Client.fresh_id b in
                match
                  request_exn b
                    (Srv.Proto.Compile
                       {
                         id;
                         sql = big_sql;
                         schema = None;
                         deadline_ms = None;
                         estimate_hint_s = Some 123.0;
                       })
                with
                | Srv.Proto.R_compile (_, body) ->
                  Alcotest.(check (float 0.0)) "the backend's own prediction" own
                    body.Srv.Proto.c_predicted_s;
                  Alcotest.(check bool) "not the hint" true
                    (body.Srv.Proto.c_predicted_s <> 123.0)
                | r ->
                  Alcotest.failf "expected compile reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)))));
  ]

let suite =
  rendezvous_tests @ router_tests @ front_end_tests @ failover_tests
  @ budget_tests @ startup_tests
