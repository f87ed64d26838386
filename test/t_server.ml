(* The compile service: wire framing, protocol round trips, the scheduler
   and admission policy in isolation, and a real server on a Unix socket —
   replies must match direct library calls bit-for-bit on deterministic
   fields, overload must reject with structure (never hang), and deadlines
   and shutdown must cancel with structure. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module C = Qopt_catalog
module Srv = Qopt_server
module J = Qopt_util.Json

let t name f = Alcotest.test_case name `Quick f

let schema = W.Warehouse.schema ~partitioned:false

let model = Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 ()

let small_sql = "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 5"

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
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let pipe_io () =
  let r, w = Unix.pipe () in
  (Unix.in_channel_of_descr r, Unix.out_channel_of_descr w)

let wire_tests =
  [
    t "write/read round trip" (fun () ->
        let ic, oc = pipe_io () in
        Srv.Wire.write oc "hello";
        Srv.Wire.write oc "";
        Srv.Wire.write oc "two\nlines";
        Alcotest.(check (option string)) "first" (Some "hello") (Srv.Wire.read ic);
        Alcotest.(check (option string)) "empty" (Some "") (Srv.Wire.read ic);
        Alcotest.(check (option string)) "embedded newline" (Some "two\nlines")
          (Srv.Wire.read ic);
        close_out oc;
        Alcotest.(check (option string)) "clean EOF" None (Srv.Wire.read ic));
    t "garbage length is a framing error" (fun () ->
        let ic, oc = pipe_io () in
        output_string oc "notanumber\npayload\n";
        flush oc;
        (try
           ignore (Srv.Wire.read ic);
           Alcotest.fail "expected Framing_error"
         with Srv.Wire.Framing_error _ -> ());
        close_out oc);
    t "oversized frame refused" (fun () ->
        let ic, oc = pipe_io () in
        output_string oc (string_of_int (Srv.Wire.max_frame + 1) ^ "\n");
        flush oc;
        (try
           ignore (Srv.Wire.read ic);
           Alcotest.fail "expected Framing_error"
         with Srv.Wire.Framing_error _ -> ());
        close_out oc);
    t "partial writes across frame boundaries reassemble" (fun () ->
        (* A slow peer dribbles two frames in arbitrary chunks — the
           length prefix, payload, and trailing newline all split across
           writes; the reader must still see exactly two intact frames. *)
        let ic, oc = pipe_io () in
        let writer =
          Thread.create
            (fun () ->
              List.iter
                (fun chunk ->
                  output_string oc chunk;
                  flush oc;
                  Thread.delay 0.002)
                [ "1"; "1\nhel"; "lo"; " world\n"; "0"; "\n"; "\n" ])
            ()
        in
        Alcotest.(check (option string))
          "first frame" (Some "hello world") (Srv.Wire.read ic);
        Alcotest.(check (option string)) "second frame" (Some "")
          (Srv.Wire.read ic);
        Thread.join writer;
        close_out oc);
    t "frame exactly at the cap is accepted" (fun () ->
        let ic, oc = pipe_io () in
        let payload = String.make Srv.Wire.max_frame 'x' in
        let writer = Thread.create (fun () -> Srv.Wire.write oc payload) () in
        (match Srv.Wire.read ic with
        | Some got ->
          Alcotest.(check int) "length" Srv.Wire.max_frame (String.length got);
          Alcotest.(check bool) "content" true (String.equal got payload)
        | None -> Alcotest.fail "at-cap frame refused");
        Thread.join writer;
        close_out oc);
    t "explicit zero-length frame" (fun () ->
        let ic, oc = pipe_io () in
        output_string oc "0\n\n";
        flush oc;
        Alcotest.(check (option string)) "empty payload" (Some "")
          (Srv.Wire.read ic);
        close_out oc);
    t "torn length prefix on close is a framing error" (fun () ->
        (* The peer died after writing only part of the length line: the
           digits parse as a length, but the stream ends before the
           payload — that must be a framing error, not a clean EOF. *)
        let ic, oc = pipe_io () in
        output_string oc "12";
        flush oc;
        close_out oc;
        try
          ignore (Srv.Wire.read ic);
          Alcotest.fail "expected Framing_error"
        with Srv.Wire.Framing_error _ -> ());
    t "EOF inside the payload is a framing error" (fun () ->
        let ic, oc = pipe_io () in
        output_string oc "10\nonly4";
        flush oc;
        close_out oc;
        try
          ignore (Srv.Wire.read ic);
          Alcotest.fail "expected Framing_error"
        with Srv.Wire.Framing_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let proto_tests =
  let req_rt req =
    match Srv.Proto.request_of_json (Srv.Proto.request_to_json req) with
    | Ok req' -> Alcotest.(check bool) "request round trip" true (req = req')
    | Error e -> Alcotest.failf "request_of_json: %s" e
  in
  let reply_rt reply =
    match Srv.Proto.reply_of_json (Srv.Proto.reply_to_json reply) with
    | Ok reply' -> Alcotest.(check bool) "reply round trip" true (reply = reply')
    | Error e -> Alcotest.failf "reply_of_json: %s" e
  in
  [
    t "requests round trip through JSON" (fun () ->
        List.iter req_rt
          [
            Srv.Proto.Estimate { id = 1; sql = small_sql; schema = None };
            Srv.Proto.Estimate { id = 2; sql = big_sql; schema = Some "warehouse" };
            Srv.Proto.Compile
              {
                id = 3;
                sql = small_sql;
                schema = None;
                deadline_ms = Some 250.0;
                estimate_hint_s = None;
              };
            Srv.Proto.Compile
              {
                id = 4;
                sql = small_sql;
                schema = Some "tpch";
                deadline_ms = Some 1.5;
                estimate_hint_s = Some 0.0125;
              };
            Srv.Proto.Stats { id = 5 };
            Srv.Proto.Shutdown { id = 6 };
          ]);
    t "replies round trip through JSON" (fun () ->
        List.iter reply_rt
          [
            Srv.Proto.R_rejected
              {
                id = 7;
                reason = "aggregate_budget";
                estimate_us = 1234.5;
                retry_after_us = None;
              };
            Srv.Proto.R_rejected
              {
                id = 12;
                reason = "queue_full";
                estimate_us = 99.0;
                retry_after_us = Some 2500.0;
              };
            Srv.Proto.R_cancelled
              { id = 8; reason = "deadline"; estimate_us = 10.0; queue_s = 0.25 };
            Srv.Proto.R_error { id = 9; message = "no such table" };
            Srv.Proto.R_ok 10;
            Srv.Proto.R_stats (11, J.Obj [ ("requests", J.int 3) ]);
          ]);
    t "malformed request is an Error, not an exception" (fun () ->
        List.iter
          (fun doc ->
            match Srv.Proto.request_of_json doc with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected Error")
          [
            J.Null;
            J.Obj [];
            J.Obj [ ("op", J.Str "nope"); ("id", J.int 1) ];
            J.Obj [ ("op", J.Str "estimate"); ("id", J.int 1) ] (* no sql *);
            J.Obj [ ("op", J.Str "compile"); ("id", J.int 2) ] (* no sql *);
          ]);
    t "a missing id defaults to 0 rather than failing" (fun () ->
        match
          Srv.Proto.request_of_json
            (J.Obj [ ("op", J.Str "compile"); ("sql", J.Str "SELECT") ])
        with
        | Ok req -> Alcotest.(check int) "id" 0 (Srv.Proto.request_id req)
        | Error e -> Alcotest.failf "expected Ok, got %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let sched_tests =
  [
    t "SJF pops cheapest first, FIFO within ties" (fun () ->
        let q = Srv.Sched.create Srv.Sched.Sjf in
        List.iter
          (fun (p, x) -> assert (Srv.Sched.push q ~priority:p x))
          [ (3.0, "c"); (1.0, "a1"); (2.0, "b"); (1.0, "a2") ];
        let order = List.init 4 (fun _ -> Option.get (Srv.Sched.try_pop q)) in
        Alcotest.(check (list string)) "order" [ "a1"; "a2"; "b"; "c" ] order;
        Alcotest.(check (option string)) "then empty" None (Srv.Sched.try_pop q));
    t "FIFO ignores priority" (fun () ->
        let q = Srv.Sched.create Srv.Sched.Fifo in
        List.iter
          (fun (p, x) -> assert (Srv.Sched.push q ~priority:p x))
          [ (3.0, "x"); (1.0, "y"); (2.0, "z") ];
        let order = List.init 3 (fun _ -> Option.get (Srv.Sched.try_pop q)) in
        Alcotest.(check (list string)) "order" [ "x"; "y"; "z" ] order);
    t "close rejects pushes and still delivers queued items" (fun () ->
        let q = Srv.Sched.create Srv.Sched.Sjf in
        assert (Srv.Sched.push q ~priority:1.0 "first");
        Srv.Sched.close q;
        Alcotest.(check bool) "push after close" false
          (Srv.Sched.push q ~priority:0.0 "late");
        Alcotest.(check (option string)) "drains existing" (Some "first")
          (Srv.Sched.try_pop q);
        Alcotest.(check (option string)) "then None" None (Srv.Sched.try_pop q));
    t "drain empties in priority order" (fun () ->
        let q = Srv.Sched.create Srv.Sched.Sjf in
        List.iter
          (fun (p, x) -> assert (Srv.Sched.push q ~priority:p x))
          [ (2.0, "b"); (1.0, "a") ];
        Alcotest.(check (list string)) "drained" [ "a"; "b" ] (Srv.Sched.drain q);
        Alcotest.(check int) "empty" 0 (Srv.Sched.length q));
  ]

(* ------------------------------------------------------------------ *)
(* Admission policy                                                    *)
(* ------------------------------------------------------------------ *)

let admission_tests =
  let p =
    { Srv.Admission.per_request_s = 1.0; aggregate_s = 2.0; max_queue = 3 }
  in
  let decide ?(in_flight_s = 0.0) ?(queued = 0) estimate_s =
    Srv.Admission.decide p ~in_flight_s ~queued ~estimate_s
  in
  [
    t "admits within budgets" (fun () ->
        Alcotest.(check bool) "ok" true (decide 0.5 = Ok ()));
    t "per-request ceiling" (fun () ->
        Alcotest.(check bool) "rejected" true
          (decide 1.5 = Error Srv.Admission.Per_request));
    t "aggregate ceiling with work in flight" (fun () ->
        Alcotest.(check bool) "rejected" true
          (decide ~in_flight_s:1.8 0.5 = Error Srv.Admission.Aggregate));
    t "aggregate never wedges an idle server" (fun () ->
        (* estimate alone exceeds aggregate_s, but nothing is in flight and
           the queue is empty: per-request-legal work must be admitted. *)
        let p =
          { Srv.Admission.per_request_s = 10.0; aggregate_s = 2.0; max_queue = 3 }
        in
        Alcotest.(check bool) "admitted" true
          (Srv.Admission.decide p ~in_flight_s:0.0 ~queued:0 ~estimate_s:5.0
          = Ok ()));
    t "queue ceiling" (fun () ->
        Alcotest.(check bool) "rejected" true
          (decide ~queued:3 0.1 = Error Srv.Admission.Queue_full));
    t "reason strings are stable" (fun () ->
        Alcotest.(check (list string)) "identifiers"
          [ "per_request_budget"; "aggregate_budget"; "queue_full"; "shutting_down" ]
          (List.map Srv.Admission.reason_string
             [
               Srv.Admission.Per_request;
               Srv.Admission.Aggregate;
               Srv.Admission.Queue_full;
               Srv.Admission.Shutting_down;
             ]));
  ]

(* ------------------------------------------------------------------ *)
(* Level selection                                                     *)
(* ------------------------------------------------------------------ *)

let level_tests =
  let level name = { Cote.Multi_level.level_name = name; level_knobs = O.Knobs.default } in
  let predictions = [ ("full", 5.0); ("greedy", 1.5); ("minimal", 0.1) ] in
  let predict_for chosen_name = List.assoc chosen_name predictions in
  (* select identifies levels by walking the chain; drive it with a predict
     that keys off a mutable cursor naming the level under evaluation. *)
  let run_select ~downgrade_s =
    let chain = List.map (fun (n, _) -> level n) predictions in
    let cursor = ref [] in
    let predict _knobs =
      let name =
        match !cursor with
        | [] -> cursor := List.map fst predictions; List.hd !cursor
        | _ -> List.hd !cursor
      in
      cursor := List.tl !cursor;
      {
        Cote.Predict.seconds = predict_for name;
        estimate =
          {
            Cote.Estimator.joins = 0; nljn = 0; mgjn = 0; hsjn = 0; scan_plans = 0;
            entries = 0; elapsed = 0.0; est_memo_plans = 0.0; mv_tests = 0;
          };
      }
    in
    cursor := List.map fst predictions;
    Srv.Level.select ~levels:chain ~downgrade_s ~predict
  in
  [
    t "no budget takes the first level" (fun () ->
        let c = run_select ~downgrade_s:None in
        Alcotest.(check string) "level" "full" c.Srv.Level.level.Cote.Multi_level.level_name;
        Alcotest.(check int) "downgrades" 0 c.Srv.Level.downgrades);
    t "budget walks down to the first level that fits" (fun () ->
        let c = run_select ~downgrade_s:(Some 2.0) in
        Alcotest.(check string) "level" "greedy" c.Srv.Level.level.Cote.Multi_level.level_name;
        Alcotest.(check int) "downgrades" 1 c.Srv.Level.downgrades);
    t "nothing fits: cheapest level wins" (fun () ->
        let c = run_select ~downgrade_s:(Some 0.01) in
        Alcotest.(check string) "level" "minimal" c.Srv.Level.level.Cote.Multi_level.level_name;
        Alcotest.(check int) "downgrades" 2 c.Srv.Level.downgrades);
    t "empty chain raises" (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Qopt_server.Level.select: empty level chain")
          (fun () ->
            ignore
              (Srv.Level.select ~levels:[] ~downgrade_s:None ~predict:(fun _ ->
                   Alcotest.fail "predict called on empty chain"))));
  ]

(* ------------------------------------------------------------------ *)
(* The real server on a Unix socket                                    *)
(* ------------------------------------------------------------------ *)

let with_server ?(configure = fun c -> c) f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qopt-test-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    configure
      (Srv.Server.default_config ~listen:(`Unix path) ~model
         ~schemas:[ ("warehouse", schema) ]
         ())
  in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Srv.Server.run
          ~on_ready:(fun () ->
            Mutex.protect lock (fun () ->
                ready := true;
                Condition.signal cond))
          cfg)
      ()
  in
  Mutex.lock lock;
  while not !ready do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Srv.Client.connect (`Unix path) in
         ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 999_999 }));
         Srv.Client.close c
       with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (`Unix path))

let request_exn c req =
  match Srv.Client.request c req with
  | Some reply -> reply
  | None -> Alcotest.fail "connection closed without a reply"

(* Polls the stats endpoint until [pred] holds on the stats document —
   used to wait for a compile to actually occupy the worker before
   queueing work behind it, without sleeping for guessed durations. *)
let wait_for_stats c pred =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
    | Srv.Proto.R_stats (_, doc) ->
      if pred doc then ()
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail "stats condition not reached within 5s"
      else begin
        Thread.delay 0.002;
        go ()
      end
    | _ -> Alcotest.fail "expected stats reply"
  in
  go ()

let stat doc name = Option.bind (J.member name doc) J.get_int |> Option.get

let statf doc name = Option.bind (J.member name doc) J.get_float |> Option.get

(* The serving Cm out of a stats doc's "model" object. *)
let served_c_mgjn doc =
  match Option.bind (J.member "model" doc) (J.member "c_mgjn") with
  | Some v -> Option.get (J.get_float v)
  | None -> Alcotest.fail "stats doc has no model"

(* The big compile is on the worker (not queued) and nothing else is. *)
let big_is_running doc = stat doc "queue_depth" = 0 && statf doc "in_flight_s" > 0.0

(* Request sequences for the stats reconciliation property.  The
   templates span one to five tables: under [reconcile_config] the model
   downgrades the four- and five-table ones, and the five-table one is
   still over the per-request ceiling and rejected (a recorded actual can
   push another template over it too).  A template compiled twice is a
   plan-cache hit from then on, and a [deadline_ms = 0] compile is
   usually cancelled at dequeue but may be compiled or served from the
   cache. *)
type reconcile_op =
  | Estimate of int * int  (** template, literal *)
  | Compile of int * int * bool  (** template, literal, zero deadline *)
  | Bad_estimate
  | Bad_compile
  | Poll

let reconcile_templates =
  [|
    "SELECT s.s_store_name FROM store s WHERE s.s_market_id = ";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d WHERE \
     ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = ";
    "SELECT i.i_category_id FROM item i, store_sales ss, date_dim d WHERE \
     ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk AND \
     d.d_year = ";
    "SELECT i.i_category_id FROM item i, store_sales ss, date_dim d, store s \
     WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = d.d_date_sk \
     AND ss.ss_store_sk = s.s_store_sk AND d.d_year = ";
    "SELECT i.i_category_id FROM item i, store_sales ss, date_dim d, store s, \
     customer c WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_sold_date_sk = \
     d.d_date_sk AND ss.ss_store_sk = s.s_store_sk AND ss.ss_customer_sk = \
     c.c_customer_sk AND d.d_year = ";
  |]

let reconcile_sql tpl lit = reconcile_templates.(tpl) ^ string_of_int lit

let reconcile_config cfg =
  {
    cfg with
    Srv.Server.plan_cache = Some Cote.Plan_cache.default_config;
    downgrade_s = Some 2e-4;
    admission =
      { Srv.Admission.per_request_s = 4e-4; aggregate_s = infinity; max_queue = max_int };
  }

let reconcile_op_gen =
  let open QCheck2.Gen in
  let tpl = int_bound (Array.length reconcile_templates - 1) in
  let lit = int_range 1998 2000 in
  frequency
    [
      (3, map2 (fun t l -> Estimate (t, l)) tpl lit);
      ( 6,
        map3
          (fun t l z -> Compile (t, l, z))
          tpl lit
          (frequency [ (3, pure false); (1, pure true) ]) );
      (1, pure Bad_estimate);
      (1, pure Bad_compile);
      (2, pure Poll);
    ]

let show_reconcile_op = function
  | Estimate (t, l) -> Printf.sprintf "estimate %d/%d" t l
  | Compile (t, l, z) ->
    Printf.sprintf "compile %d/%d%s" t l (if z then " deadline 0" else "")
  | Bad_estimate -> "bad estimate"
  | Bad_compile -> "bad compile"
  | Poll -> "stats"

(* After every [stats] poll — the sequence's own and a last one — every
   request is in exactly one outcome counter, every admission ended in a
   compile, a plan hit, a cancellation or a compile error (both read from
   [stats] alone), and each counter equals the replies of its kind the
   client received.  None of the three depends on which way a
   timing-sensitive request went. *)
let stats_reconcile_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"stats reconcile exactly after any request sequence"
       ~print:(fun ops -> String.concat "; " (List.map show_reconcile_op ops))
       QCheck2.Gen.(list_size (int_range 1 25) reconcile_op_gen)
       (fun ops ->
         with_server ~configure:reconcile_config (fun addr ->
             let c = Srv.Client.connect addr in
             Fun.protect
               ~finally:(fun () -> Srv.Client.close c)
               (fun () ->
                 (* Replies received, by the stats counter they land in;
                    [job_errors] are errors of admitted compiles. *)
                 let seen = Hashtbl.create 8 in
                 let got kind = Option.value ~default:0 (Hashtbl.find_opt seen kind) in
                 let saw kind = Hashtbl.replace seen kind (got kind + 1) in
                 let polls = ref 0 in
                 let send ~admissible req =
                   match request_exn c req with
                   | Srv.Proto.R_estimate _ -> saw "estimates"
                   | Srv.Proto.R_compile (_, b) ->
                     saw (if b.Srv.Proto.c_plan_cached then "plan_hits" else "compiles")
                   | Srv.Proto.R_rejected _ -> saw "rejected"
                   | Srv.Proto.R_cancelled _ -> saw "cancelled"
                   | Srv.Proto.R_error _ ->
                     saw "errors";
                     if admissible then saw "job_errors"
                   | r ->
                     Alcotest.failf "unexpected reply %s"
                       (J.to_string (Srv.Proto.reply_to_json r))
                 in
                 let compile ?(admissible = true) ?deadline_ms sql =
                   send ~admissible
                     (Srv.Proto.Compile
                        {
                          id = Srv.Client.fresh_id c;
                          sql;
                          schema = None;
                          deadline_ms;
                          estimate_hint_s = None;
                        })
                 in
                 let estimate sql =
                   send ~admissible:false
                     (Srv.Proto.Estimate { id = Srv.Client.fresh_id c; sql; schema = None })
                 in
                 let poll () =
                   incr polls;
                   match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
                   | Srv.Proto.R_stats (_, doc) ->
                     let f = stat doc in
                     Alcotest.(check int) "requests = outcomes + polls"
                       (f "estimates" + f "errors" + f "compiles" + f "plan_hits"
                      + f "rejected" + f "cancelled" + !polls)
                       (f "requests");
                     Alcotest.(check int) "admitted = compiles + hits + cancelled + compile errors"
                       (f "compiles" + f "plan_hits" + f "cancelled" + f "compile_errors")
                       (f "admitted");
                     Alcotest.(check bool) "compile errors are errors" true
                       (f "compile_errors" <= f "errors");
                     Alcotest.(check int) "compile_errors" (got "job_errors") (f "compile_errors");
                     List.iter
                       (fun k -> Alcotest.(check int) k (got k) (f k))
                       [ "estimates"; "errors"; "compiles"; "plan_hits"; "rejected"; "cancelled" ]
                   | _ -> Alcotest.fail "expected stats reply"
                 in
                 List.iter
                   (function
                     | Estimate (t, l) -> estimate (reconcile_sql t l)
                     | Compile (t, l, z) ->
                       compile ?deadline_ms:(if z then Some 0.0 else None) (reconcile_sql t l)
                     | Bad_estimate -> estimate "SELECT x.a FROM no_such_table x"
                     | Bad_compile -> compile ~admissible:false "SELECT ' FROM store s"
                     | Poll -> poll ())
                   ops;
                 poll ();
                 true))))

let server_tests =
  [
    t "estimate over the socket equals the direct library call" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                List.iter
                  (fun sql ->
                    let block = Qopt_sql.Binder.parse_and_bind schema sql in
                    let direct =
                      Cote.Predict.compile_time ~knobs:O.Knobs.default ~model
                        O.Env.serial block
                    in
                    let id = Srv.Client.fresh_id c in
                    match
                      request_exn c (Srv.Proto.Estimate { id; sql; schema = None })
                    with
                    | Srv.Proto.R_estimate (rid, e) ->
                      let de = direct.Cote.Predict.estimate in
                      Alcotest.(check int) "id echoed" id rid;
                      Alcotest.(check (float 0.0)) "predicted_s bit-for-bit"
                        direct.Cote.Predict.seconds e.Srv.Proto.e_predicted_s;
                      Alcotest.(check int) "joins" de.Cote.Estimator.joins
                        e.Srv.Proto.e_joins;
                      Alcotest.(check int) "nljn" de.Cote.Estimator.nljn
                        e.Srv.Proto.e_nljn;
                      Alcotest.(check int) "mgjn" de.Cote.Estimator.mgjn
                        e.Srv.Proto.e_mgjn;
                      Alcotest.(check int) "hsjn" de.Cote.Estimator.hsjn
                        e.Srv.Proto.e_hsjn;
                      Alcotest.(check int) "entries" de.Cote.Estimator.entries
                        e.Srv.Proto.e_entries;
                      Alcotest.(check string) "level" "dp_default"
                        e.Srv.Proto.e_level
                    | r ->
                      Alcotest.failf "expected estimate reply, got %s"
                        (J.to_string (Srv.Proto.reply_to_json r)))
                  [ small_sql; big_sql ])));
    t "compile over the socket equals the direct optimizer" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let block = Qopt_sql.Binder.parse_and_bind schema small_sql in
                let direct = O.Optimizer.optimize O.Env.serial block in
                let id = Srv.Client.fresh_id c in
                match
                  request_exn c
                    (Srv.Proto.Compile
                       { id; sql = small_sql; schema = None; deadline_ms = None; estimate_hint_s = None })
                with
                | Srv.Proto.R_compile (rid, b) ->
                  Alcotest.(check int) "id echoed" id rid;
                  Alcotest.(check (option string)) "plan"
                    (Option.map
                       (Format.asprintf "%a" O.Plan.pp_compact)
                       direct.O.Optimizer.best)
                    b.Srv.Proto.c_plan;
                  (match direct.O.Optimizer.best with
                  | Some p ->
                    Alcotest.(check (float 0.0)) "cost bit-for-bit"
                      p.O.Plan.cost b.Srv.Proto.c_cost;
                    Alcotest.(check (float 0.0)) "card bit-for-bit"
                      p.O.Plan.card b.Srv.Proto.c_card
                  | None -> ());
                  Alcotest.(check int) "joins" direct.O.Optimizer.joins
                    b.Srv.Proto.c_joins;
                  Alcotest.(check int) "kept" direct.O.Optimizer.kept
                    b.Srv.Proto.c_kept;
                  Alcotest.(check int) "entries" direct.O.Optimizer.entries
                    b.Srv.Proto.c_entries;
                  Alcotest.(check bool) "elapsed positive" true
                    (b.Srv.Proto.c_elapsed_s >= 0.0)
                | r ->
                  Alcotest.failf "expected compile reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)))));
    t "a server with a helper compiles bit-for-bit and counts wide levels"
      (fun () ->
        let pool = Qopt_par.Pool.create ~helpers:1 ~first_slot:2 () in
        Fun.protect
          ~finally:(fun () -> Qopt_par.Pool.close pool)
          (fun () ->
            with_server
              ~configure:(fun c -> { c with Srv.Server.helpers = Some pool })
              (fun addr ->
                let c = Srv.Client.connect addr in
                Fun.protect
                  ~finally:(fun () -> Srv.Client.close c)
                  (fun () ->
                    let block = Qopt_sql.Binder.parse_and_bind schema big_sql in
                    let direct = O.Optimizer.optimize O.Env.serial block in
                    let wide () =
                      Qopt_obs.Registry.counter_value Qopt_obs.Registry.default
                        "optimizer.parallel_levels"
                    in
                    let wide0 = wide () in
                    let id = Srv.Client.fresh_id c in
                    (match
                       request_exn c
                         (Srv.Proto.Compile
                            { id; sql = big_sql; schema = None; deadline_ms = None;
                              estimate_hint_s = None })
                     with
                    | Srv.Proto.R_compile (_, b) ->
                      Alcotest.(check (option string)) "plan"
                        (Option.map
                           (Format.asprintf "%a" O.Plan.pp_compact)
                           direct.O.Optimizer.best)
                        b.Srv.Proto.c_plan;
                      Alcotest.(check (float 0.0)) "cost bit-for-bit"
                        (Option.fold ~none:0.0 ~some:(fun p -> p.O.Plan.cost)
                           direct.O.Optimizer.best)
                        b.Srv.Proto.c_cost;
                      Alcotest.(check int) "kept" direct.O.Optimizer.kept
                        b.Srv.Proto.c_kept
                    | r ->
                      Alcotest.failf "expected compile reply, got %s"
                        (J.to_string (Srv.Proto.reply_to_json r)));
                    Alcotest.(check bool) "levels went wide" true (wide () > wide0);
                    match
                      request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                    with
                    | Srv.Proto.R_stats (_, doc) ->
                      Alcotest.(check (option int)) "helpers" (Some 1)
                        (Option.bind (J.member "helpers" doc) J.get_int)
                    | _ -> Alcotest.fail "expected stats reply"))));
    t "second structurally identical compile hits the statement cache" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let compile sql =
                  let id = Srv.Client.fresh_id c in
                  request_exn c
                    (Srv.Proto.Compile { id; sql; schema = None; deadline_ms = None; estimate_hint_s = None })
                in
                (match compile small_sql with
                | Srv.Proto.R_compile (_, b) ->
                  Alcotest.(check bool) "first is a miss" false
                    b.Srv.Proto.c_cache_hit
                | _ -> Alcotest.fail "expected compile reply");
                (* same structure, different literal: the signature matches *)
                match
                  compile
                    "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 7"
                with
                | Srv.Proto.R_compile (_, b) ->
                  Alcotest.(check bool) "second is a hit" true
                    b.Srv.Proto.c_cache_hit
                | _ -> Alcotest.fail "expected compile reply")));
    t "overload rejects with structure, never hangs" (fun () ->
        with_server
          ~configure:(fun cfg ->
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
                for _ = 1 to 5 do
                  let id = Srv.Client.fresh_id c in
                  match
                    request_exn c
                      (Srv.Proto.Compile
                         { id; sql = big_sql; schema = None; deadline_ms = None; estimate_hint_s = None })
                  with
                  | Srv.Proto.R_rejected { id = rid; reason; estimate_us; _ } ->
                    Alcotest.(check int) "id echoed" id rid;
                    Alcotest.(check string) "reason" "per_request_budget" reason;
                    Alcotest.(check bool) "estimate attached" true
                      (estimate_us > 0.0)
                  | r ->
                    Alcotest.failf "expected rejection, got %s"
                      (J.to_string (Srv.Proto.reply_to_json r))
                done;
                (* estimates are not admission-controlled *)
                match
                  request_exn c
                    (Srv.Proto.Estimate
                       { id = Srv.Client.fresh_id c; sql = big_sql; schema = None })
                with
                | Srv.Proto.R_estimate _ -> ()
                | _ -> Alcotest.fail "estimate should bypass admission")));
    t "past-deadline request is cancelled and reported" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            let probe = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () ->
                Srv.Client.close probe;
                Srv.Client.close c)
              (fun () ->
                (* One worker: the big compile occupies it for tens of ms
                   while the small request's 1 ms deadline expires on the
                   queue; the worker must cancel it at dequeue. *)
                let big_id = Srv.Client.fresh_id c in
                Srv.Client.send c
                  (Srv.Proto.Compile
                     { id = big_id; sql = big_sql; schema = None; deadline_ms = None; estimate_hint_s = None });
                wait_for_stats probe big_is_running;
                let small_id = Srv.Client.fresh_id c in
                Srv.Client.send c
                  (Srv.Proto.Compile
                     {
                       id = small_id;
                       sql = small_sql;
                       schema = None;
                       deadline_ms = Some 1.0;
                       estimate_hint_s = None;
                     });
                let got_big = ref false and got_small = ref false in
                for _ = 1 to 2 do
                  match Srv.Client.recv c with
                  | Some (Srv.Proto.R_compile (rid, _)) when rid = big_id ->
                    got_big := true
                  | Some (Srv.Proto.R_cancelled { id; reason; queue_s; _ })
                    when id = small_id ->
                    got_small := true;
                    Alcotest.(check string) "reason" "deadline" reason;
                    Alcotest.(check bool) "queue time reported" true (queue_s > 0.0)
                  | Some r ->
                    Alcotest.failf "unexpected reply %s"
                      (J.to_string (Srv.Proto.reply_to_json r))
                  | None -> Alcotest.fail "connection closed early"
                done;
                Alcotest.(check bool) "big compiled" true !got_big;
                Alcotest.(check bool) "small cancelled" true !got_small)));
    t "shutdown cancels queued work and exits cleanly" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            let work = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () ->
                Srv.Client.close work;
                Srv.Client.close c)
              (fun () ->
                (* Occupy the single worker, then queue smalls behind it. *)
                let big_id = Srv.Client.fresh_id work in
                Srv.Client.send work
                  (Srv.Proto.Compile
                     { id = big_id; sql = big_sql; schema = None; deadline_ms = None; estimate_hint_s = None });
                (* Wait for the worker to actually start the big job before
                   queueing, so the smalls cannot sneak ahead of it. *)
                wait_for_stats c big_is_running;
                let small_ids =
                  List.init 3 (fun _ ->
                      let id = Srv.Client.fresh_id work in
                      Srv.Client.send work
                        (Srv.Proto.Compile
                           { id; sql = small_sql; schema = None; deadline_ms = None; estimate_hint_s = None });
                      id)
                in
                (* All three smalls admitted and queued before the shutdown
                   races them; the big holds the worker far longer. *)
                wait_for_stats c (fun doc -> stat doc "queue_depth" = 3);
                (match request_exn c (Srv.Proto.Shutdown { id = 1 }) with
                | Srv.Proto.R_ok 1 -> ()
                | _ -> Alcotest.fail "expected ok for shutdown");
                (* The running big compile finishes; the queued smalls come
                   back cancelled with reason "shutdown". *)
                let cancelled = ref [] in
                let compiled = ref [] in
                let rec collect n =
                  if n > 0 then
                    match Srv.Client.recv work with
                    | Some (Srv.Proto.R_compile (rid, _)) ->
                      compiled := rid :: !compiled;
                      collect (n - 1)
                    | Some (Srv.Proto.R_cancelled { id; reason; _ }) ->
                      Alcotest.(check string) "reason" "shutdown" reason;
                      cancelled := id :: !cancelled;
                      collect (n - 1)
                    | Some r ->
                      Alcotest.failf "unexpected reply %s"
                        (J.to_string (Srv.Proto.reply_to_json r))
                    | None -> ()
                  else ()
                in
                collect 4;
                Alcotest.(check (list int)) "big compiled" [ big_id ] !compiled;
                Alcotest.(check (list int)) "smalls cancelled"
                  (List.sort compare small_ids)
                  (List.sort compare !cancelled))));
    t "stats reflects the traffic" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                ignore
                  (request_exn c
                     (Srv.Proto.Estimate
                        { id = Srv.Client.fresh_id c; sql = small_sql; schema = None }));
                ignore
                  (request_exn c
                     (Srv.Proto.Compile
                        {
                          id = Srv.Client.fresh_id c;
                          sql = small_sql;
                          schema = None;
                          deadline_ms = None;
                            estimate_hint_s = None;
                        }));
                match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
                | Srv.Proto.R_stats (_, doc) ->
                  let field name =
                    Option.bind (J.member name doc) J.get_int |> Option.get
                  in
                  Alcotest.(check int) "estimates" 1 (field "estimates");
                  Alcotest.(check int) "compiles" 1 (field "compiles");
                  Alcotest.(check int) "rejected" 0 (field "rejected")
                | _ -> Alcotest.fail "expected stats reply")));
    stats_reconcile_prop;
    t "bad SQL over the socket is a structured error reply" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                List.iter
                  (fun sql ->
                    let id = Srv.Client.fresh_id c in
                    match
                      request_exn c (Srv.Proto.Estimate { id; sql; schema = None })
                    with
                    | Srv.Proto.R_error { id = rid; message } ->
                      Alcotest.(check int) "id echoed" id rid;
                      Alcotest.(check bool) "message non-empty" true
                        (String.length message > 0)
                    | r ->
                      Alcotest.failf "expected error reply, got %s"
                        (J.to_string (Srv.Proto.reply_to_json r)))
                  [
                    "SELECT x.a FROM no_such_table x";
                    "SELECT ' FROM store s";
                    "";
                  ])));
    t "replies for a hung-up client never reach the next connection" (fun () ->
        (* A client hangs up with compiles still queued.  The server closes
           its descriptor and the kernel hands the same number to the next
           connection; the abandoned compiles still finish, and their
           replies must be dropped, not written to the newcomer — whose own
           request ids start at 1 like everyone's. *)
        with_server (fun addr ->
            let probe = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close probe)
              (fun () ->
                let write oc req =
                  Srv.Wire.write oc (J.to_string (Srv.Proto.request_to_json req))
                in
                let compile id sql =
                  Srv.Proto.Compile
                    { id; sql; schema = None; deadline_ms = None; estimate_hint_s = None }
                in
                let a = Srv.Frontdoor.dial addr in
                let a_oc = Unix.out_channel_of_descr a in
                for id = 1 to 6 do
                  write a_oc (compile id big_sql)
                done;
                wait_for_stats probe (fun doc -> stat doc "admitted" = 6);
                Unix.close a;
                (* Give the server's connection thread time to see the
                   hang-up and close its end. *)
                Thread.delay 0.05;
                let b = Srv.Frontdoor.dial addr in
                Fun.protect
                  ~finally:(fun () -> Unix.close b)
                  (fun () ->
                    let b_ic = Unix.in_channel_of_descr b in
                    write (Unix.out_channel_of_descr b) (compile 1 small_sql);
                    let next_reply () =
                      Option.map
                        (fun payload ->
                          match
                            Result.bind (J.parse payload) Srv.Proto.reply_of_json
                          with
                          | Ok r -> r
                          | Error msg -> Alcotest.fail msg)
                        (Srv.Wire.read b_ic)
                    in
                    let small_plan =
                      Option.map
                        (Format.asprintf "%a" O.Plan.pp_compact)
                        (O.Optimizer.optimize O.Env.serial
                           (Qopt_sql.Binder.parse_and_bind schema small_sql))
                          .O.Optimizer.best
                    in
                    (match next_reply () with
                    | Some (Srv.Proto.R_compile (1, body)) ->
                      Alcotest.(check (option string))
                        "id 1 carries this client's plan" small_plan
                        body.Srv.Proto.c_plan
                    | Some r ->
                      Alcotest.failf "unexpected reply %s"
                        (J.to_string (Srv.Proto.reply_to_json r))
                    | None -> Alcotest.fail "connection closed without a reply");
                    (* Every abandoned compile has run; then hang up and read
                       what is left: nothing. *)
                    wait_for_stats probe (fun doc -> stat doc "compiles" = 7);
                    Thread.delay 0.05;
                    Unix.shutdown b Unix.SHUTDOWN_SEND;
                    match next_reply () with
                    | None -> ()
                    | Some r ->
                      Alcotest.failf "received a reply it never asked for: %s"
                        (J.to_string (Srv.Proto.reply_to_json r))))));
  ]

(* ------------------------------------------------------------------ *)
(* The plan cache behind the socket                                    *)
(* ------------------------------------------------------------------ *)

let with_plan_cache_server f =
  with_server
    ~configure:(fun cfg ->
      { cfg with Srv.Server.plan_cache = Some Cote.Plan_cache.default_config })
    f

let compile_reply c sql =
  request_exn c
    (Srv.Proto.Compile
       {
         id = Srv.Client.fresh_id c;
         sql;
         schema = None;
         deadline_ms = None;
         estimate_hint_s = None;
       })

let compile_body c sql =
  match compile_reply c sql with
  | Srv.Proto.R_compile (_, b) -> b
  | r ->
    Alcotest.failf "expected compile reply, got %s"
      (J.to_string (Srv.Proto.reply_to_json r))

(* [frontdoor.shape_hits] from the server's metrics: process-wide, so
   callers compare differences. *)
let shape_hits c =
  match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
  | Srv.Proto.R_stats (_, doc) ->
    Option.get
      (Option.bind
         (Option.bind (Option.bind (J.member "metrics" doc) (J.member "counters"))
            (J.member "frontdoor.shape_hits"))
         J.get_int)
  | _ -> Alcotest.fail "expected stats reply"

let plan_cache_tests =
  [
    t "plan-cache hits bypass the optimizer and clear a cold-reject ceiling"
      (fun () ->
        (* The per-request ceiling is set so only a 0-second estimate can
           clear it: the canned model has no intercept, so the first cold
           single-table compile predicts exactly 0.0 s and is admitted —
           but once its actual elapsed time is recorded, any later COLD
           compile of the same template would be rejected.  A second
           compile could never store the plan, so the first one does
           (second-sight admission yields to the ceiling).  The only way
           parameter-varying repeats can come back compiled is the plan
           cache's inline hit path (estimate 0).  Join queries predict
           microseconds cold and are rejected outright. *)
        with_server
          ~configure:(fun cfg ->
            {
              cfg with
              Srv.Server.plan_cache = Some Cote.Plan_cache.default_config;
              admission =
                {
                  Srv.Admission.per_request_s = 1e-7;
                  aggregate_s = infinity;
                  max_queue = max_int;
                };
            })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let compile sql =
                  let id = Srv.Client.fresh_id c in
                  request_exn c
                    (Srv.Proto.Compile { id; sql; schema = None; deadline_ms = None; estimate_hint_s = None })
                in
                (* Cold miss: compiled by the optimizer, not from the cache. *)
                let b0 =
                  match compile small_sql with
                  | Srv.Proto.R_compile (_, b) ->
                    Alcotest.(check bool) "cold: not plan-cached" false
                      b.Srv.Proto.c_plan_cached;
                    Alcotest.(check bool) "cold: stmt-cache miss" false
                      b.Srv.Proto.c_cache_hit;
                    b
                  | r ->
                    Alcotest.failf "expected compile reply, got %s"
                      (J.to_string (Srv.Proto.reply_to_json r))
                in
                (* A cold join cannot clear the ceiling. *)
                (match
                   compile
                     "SELECT s.s_store_name FROM store s, store_sales ss \
                      WHERE ss.ss_store_sk = s.s_store_sk"
                 with
                | Srv.Proto.R_rejected { reason; _ } ->
                  Alcotest.(check string) "cold join rejected"
                    "per_request_budget" reason
                | r ->
                  Alcotest.failf "expected rejection, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)));
                (* Parameter-varying repeats of the warmed template: every
                   one must be served (from the cache — a cold compile
                   could no longer clear the ceiling). *)
                let mix =
                  List.init 12 (fun i ->
                      Printf.sprintf
                        "SELECT s.s_store_name FROM store s WHERE s.s_market_id = %d"
                        (1 + (i mod 9)))
                in
                let s = Srv.Loadgen.run_burst ~addr ~sql:mix () in
                Alcotest.(check int) "burst: all compiled" 12 s.Srv.Loadgen.compiled;
                Alcotest.(check int) "burst: none rejected" 0 s.Srv.Loadgen.rejected;
                (* A hit's reply is bit-for-bit the cold reply's plan. *)
                (match
                   compile
                     "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 8"
                 with
                | Srv.Proto.R_compile (_, b) ->
                  Alcotest.(check bool) "hit: plan-cached" true
                    b.Srv.Proto.c_plan_cached;
                  (* The stmt cache is bypassed on a plan hit, so the
                     stmt-cache flag must not claim otherwise. *)
                  Alcotest.(check bool) "hit: stmt cache not consulted" false
                    b.Srv.Proto.c_cache_hit;
                  Alcotest.(check (option string)) "hit: same plan"
                    b0.Srv.Proto.c_plan b.Srv.Proto.c_plan;
                  Alcotest.(check (float 0.0)) "hit: cost bit-for-bit"
                    b0.Srv.Proto.c_cost b.Srv.Proto.c_cost;
                  Alcotest.(check (float 0.0)) "hit: card bit-for-bit"
                    b0.Srv.Proto.c_card b.Srv.Proto.c_card;
                  Alcotest.(check int) "hit: joins" b0.Srv.Proto.c_joins
                    b.Srv.Proto.c_joins;
                  Alcotest.(check (float 0.0)) "hit: no optimizer elapsed" 0.0
                    b.Srv.Proto.c_elapsed_s;
                  Alcotest.(check (float 0.0)) "hit: zero estimate" 0.0
                    b.Srv.Proto.c_predicted_s
                | r ->
                  Alcotest.failf "expected compile reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)));
                (* Optimizer pass counters stay flat: one compile total. *)
                match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check int) "one optimizer pass" 1 (stat doc "compiles");
                  Alcotest.(check int) "plan hits" 13 (stat doc "plan_hits");
                  Alcotest.(check int) "rejects" 1 (stat doc "rejected")
                | _ -> Alcotest.fail "expected stats reply")));
    t "same-named schemas never share a plan-cache entry" (fun () ->
        (* Two schemas with identical table and column names but swapped
           row counts: identical SQL produces the same template text and
           near-identical predicate selectivities, so neither the envelope
           nor the generation check can tell them apart — only the
           schema-qualified key keeps a request against one schema from
           being served the other's plan. *)
        let mirror t1_rows t2_rows =
          let table name rows =
            C.Table.make ~rows ~name ~primary_key:[ "k" ]
              [
                C.Column.make ~rows ~distinct:rows "k";
                C.Column.make ~rows ~distinct:100.0 "f";
                C.Column.make ~rows ~distinct:50.0 "v";
              ]
          in
          C.Schema.of_tables [ table "t1" t1_rows; table "t2" t2_rows ]
        in
        let sql n =
          Printf.sprintf "SELECT a.v FROM t1 a, t2 b WHERE a.k = b.k AND a.f = %d"
            n
        in
        with_server
          ~configure:(fun cfg ->
            {
              cfg with
              Srv.Server.plan_cache = Some Cote.Plan_cache.default_config;
              schemas =
                [
                  ("alpha", mirror 40_000.0 200.0);
                  ("beta", mirror 200.0 40_000.0);
                ];
            })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let compile schema n =
                  match
                    request_exn c
                      (Srv.Proto.Compile
                         {
                           id = Srv.Client.fresh_id c;
                           sql = sql n;
                           schema = Some schema;
                           deadline_ms = None;
                            estimate_hint_s = None;
                         })
                  with
                  | Srv.Proto.R_compile (_, b) -> b
                  | r ->
                    Alcotest.failf "expected compile reply, got %s"
                      (J.to_string (Srv.Proto.reply_to_json r))
                in
                let a0 = compile "alpha" 5 in
                Alcotest.(check bool) "alpha cold" false
                  a0.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "alpha's second compile stores" false
                  (compile "alpha" 6).Srv.Proto.c_plan_cached;
                let a1 = compile "alpha" 7 in
                Alcotest.(check bool) "alpha repeat hits" true
                  a1.Srv.Proto.c_plan_cached;
                (* Same SQL against beta must not be served alpha's entry. *)
                let b0 = compile "beta" 7 in
                Alcotest.(check bool) "beta is a miss, not alpha's hit" false
                  b0.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "beta compiled its own plan" true
                  (b0.Srv.Proto.c_cost <> a0.Srv.Proto.c_cost
                  || b0.Srv.Proto.c_plan <> a0.Srv.Proto.c_plan);
                Alcotest.(check bool) "beta's second compile stores" false
                  (compile "beta" 8).Srv.Proto.c_plan_cached;
                let b1 = compile "beta" 9 in
                Alcotest.(check bool) "beta repeat hits its own entry" true
                  b1.Srv.Proto.c_plan_cached;
                Alcotest.(check (option string)) "beta hit serves beta's plan"
                  b0.Srv.Proto.c_plan b1.Srv.Proto.c_plan)));
    t "a disabled plan cache leaves replies un-cached-flagged" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let compile () =
                  request_exn c
                    (Srv.Proto.Compile
                       {
                         id = Srv.Client.fresh_id c;
                         sql = small_sql;
                         schema = None;
                         deadline_ms = None;
                            estimate_hint_s = None;
                       })
                in
                ignore (compile ());
                match compile () with
                | Srv.Proto.R_compile (_, b) ->
                  Alcotest.(check bool) "never plan-cached" false
                    b.Srv.Proto.c_plan_cached
                | _ -> Alcotest.fail "expected compile reply")));
    t "a hit reply is byte-identical to the encoded record" (fun () ->
        let body =
          {
            Srv.Proto.c_plan = Some "HSJN(\"a\"\\b\n,SCAN(t))";
            c_cost = 0.1;
            c_card = 1e20;
            c_joins = 3;
            c_kept = 17;
            c_entries = 5;
            c_elapsed_s = 0.0;
            c_predicted_s = 0.0;
            c_level = "full";
            c_queue_s = 0.0;
            c_cache_hit = false;
            c_plan_cached = true;
            c_regime = "dp";
          }
        in
        let tail = Srv.Proto.compile_tail body in
        List.iter
          (fun id ->
            Alcotest.(check string)
              (Printf.sprintf "id %d" id)
              (J.to_string (Srv.Proto.reply_to_json (Srv.Proto.R_compile (id, body))))
              (Srv.Proto.encode_compile ~id tail))
          (* Both sides of the 1e15 bound where [J] stops printing digits,
             and the ints a float cannot hold. *)
          [
            0;
            1;
            -1;
            7;
            1_000_000_000;
            999_999_999_999_999;
            -999_999_999_999_999;
            1_000_000_000_000_000;
            -1_000_000_000_000_000;
            max_int;
            min_int;
          ];
        (* Over the socket: the raw bytes of a hit are the encoding of the
           reply they parse to. *)
        with_plan_cache_server (fun addr ->
            let fd = Srv.Frontdoor.dial addr in
            let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                List.iter
                  (fun id ->
                    Srv.Wire.write oc
                      (J.to_string
                         (Srv.Proto.request_to_json
                            (Srv.Proto.Compile
                               {
                                 id;
                                 sql = small_sql;
                                 schema = None;
                                 deadline_ms = None;
                                 estimate_hint_s = None;
                               })));
                    let raw = Option.get (Srv.Wire.read ic) in
                    match Result.bind (J.parse raw) Srv.Proto.reply_of_json with
                    | Ok (Srv.Proto.R_compile (rid, b) as r) ->
                      Alcotest.(check int) "id" id rid;
                      (* Ids 0 and 1 are the two compiles that admit the
                         plan; the rest are hits. *)
                      Alcotest.(check bool) "hit" (id > 1) b.Srv.Proto.c_plan_cached;
                      Alcotest.(check string) "bytes"
                        (J.to_string (Srv.Proto.reply_to_json r))
                        raw
                    | _ -> Alcotest.failf "expected a compile reply, got %s" raw)
                  [ 0; 1; 7; 1_000_000_000 ])));
    t "the third request of a template is a hit, the fourth is served through the text map"
      (fun () ->
        with_plan_cache_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let hits0 = shape_hits c in
                let compile n =
                  compile_body c
                    (Printf.sprintf
                       "SELECT s.s_store_name FROM store s WHERE s.s_market_id = %d" n)
                in
                let b1 = compile 3 in
                let b2 = compile 4 in
                let b3 = compile 5 in
                Alcotest.(check int) "no map hit yet" 0 (shape_hits c - hits0);
                let b4 = compile 6 in
                Alcotest.(check int) "served through the map" 1 (shape_hits c - hits0);
                Alcotest.(check bool) "first compiled" false b1.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "second compiled" false b2.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "third a hit" true b3.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "fourth equals the third" true (b3 = b4);
                Alcotest.(check (option string)) "the compiled plan" b1.Srv.Proto.c_plan
                  b4.Srv.Proto.c_plan)));
    t "LIMIT 0 after LIMIT 5 of the same shape still gets the parser's error"
      (fun () ->
        with_plan_cache_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let hits0 = shape_hits c in
                let sql n =
                  Printf.sprintf
                    "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 3 LIMIT %d" n
                in
                ignore (compile_body c (sql 5));
                Alcotest.(check bool) "LIMIT 5 again stores" false
                  (compile_body c (sql 5)).Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "LIMIT 5 a third time is a hit" true
                  (compile_body c (sql 5)).Srv.Proto.c_plan_cached;
                (match compile_reply c (sql 0) with
                | Srv.Proto.R_error { message; _ } ->
                  Alcotest.(check string) "parser's error"
                    "expected a positive LIMIT count, found num(0)" message
                | r ->
                  Alcotest.failf "expected an error, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)));
                Alcotest.(check int) "never through the map" 0 (shape_hits c - hits0))));
    t "a template's first compile stores nothing, its second stores, its third is a hit"
      (fun () ->
        with_plan_cache_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let sql = reconcile_sql 2 in
                let counts () =
                  match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
                  | Srv.Proto.R_stats (_, doc) -> (stat doc "compiles", stat doc "plan_hits")
                  | _ -> Alcotest.fail "expected stats reply"
                in
                let b1 = compile_body c (sql 1998) in
                Alcotest.(check bool) "first compiled" false b1.Srv.Proto.c_plan_cached;
                Alcotest.(check (pair int int)) "one compile" (1, 0) (counts ());
                let b2 = compile_body c (sql 1999) in
                Alcotest.(check bool) "second compiled, nothing was stored" false
                  b2.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "second refined by the first's actual" true
                  b2.Srv.Proto.c_cache_hit;
                Alcotest.(check (pair int int)) "two compiles" (2, 0) (counts ());
                let b3 = compile_body c (sql 2000) in
                Alcotest.(check bool) "third a hit" true b3.Srv.Proto.c_plan_cached;
                Alcotest.(check (option string)) "the second's plan" b2.Srv.Proto.c_plan
                  b3.Srv.Proto.c_plan;
                Alcotest.(check (pair int int)) "two compiles, one hit" (2, 1) (counts ()))));
    t "a stream of distinct templates leaves the plan cache empty" (fun () ->
        with_plan_cache_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let pass () =
                  Array.to_list
                    (Array.mapi
                       (fun tpl _ ->
                         (compile_body c (reconcile_sql tpl 1999)).Srv.Proto.c_plan_cached)
                       reconcile_templates)
                in
                let none = List.map (fun _ -> false) (Array.to_list reconcile_templates) in
                (* Had the stream stored anything, the repeat pass would hit. *)
                Alcotest.(check (list bool)) "the stream compiles" none (pass ());
                Alcotest.(check (list bool)) "its repeat compiles too" none (pass ());
                Alcotest.(check (list bool)) "only a third sight hits"
                  (List.map not none) (pass ()))));
  ]

(* ------------------------------------------------------------------ *)
(* Online recalibration behind the socket                              *)
(* ------------------------------------------------------------------ *)

(* Structurally distinct join templates: every compile is a stmt-cache
   miss, so each reply's c_predicted_s is the pure model prediction and
   the before/after error comparison measures the model, not the cache. *)
let recalib_warm_sql =
  [
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d WHERE \
     ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = 1999";
    "SELECT ss.ss_quantity FROM store_sales ss, item i WHERE ss.ss_item_sk \
     = i.i_item_sk AND i.i_category_id = 4";
    "SELECT ss.ss_quantity FROM store_sales ss, store s WHERE \
     ss.ss_store_sk = s.s_store_sk AND s.s_market_id = 2";
    "SELECT ss.ss_quantity FROM store_sales ss, customer c WHERE \
     ss.ss_customer_sk = c.c_customer_sk AND c.c_birth_year = 1970";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, item i WHERE \
     ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, store s, promotion p WHERE \
     ss.ss_store_sk = s.s_store_sk AND ss.ss_promo_sk = p.p_promo_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, customer c, \
     household_demographics hd WHERE ss.ss_customer_sk = c.c_customer_sk \
     AND ss.ss_hdemo_sk = hd.hd_demo_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, time_dim t \
     WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_sold_time_sk = \
     t.t_time_sk";
  ]

let recalib_probe_sql =
  [
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, item i, store \
     s WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = \
     i.i_item_sk AND ss.ss_store_sk = s.s_store_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, customer c, promotion p \
     WHERE ss.ss_customer_sk = c.c_customer_sk AND ss.ss_promo_sk = \
     p.p_promo_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, item i, \
     household_demographics hd WHERE ss.ss_item_sk = i.i_item_sk AND \
     ss.ss_hdemo_sk = hd.hd_demo_sk";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, customer c, \
     promotion p WHERE ss.ss_sold_date_sk = d.d_date_sk AND \
     ss.ss_customer_sk = c.c_customer_sk AND ss.ss_promo_sk = p.p_promo_sk";
  ]

let recalibrate_tests =
  [
    t "--recalibrate repairs a skewed model's R_compile prediction error"
      (fun () ->
        (* The serving model starts 20x the canned coefficients — a gross
           overestimate of this machine.  The drift detector (never a
           manual refit call) must fire inside the first burst and swap
           the coefficients, after which fresh-template predictions land
           far closer to the measured elapsed. *)
        let skewed =
          Cote.Time_model.make ~c_nljn:4e-5 ~c_mgjn:1e-4 ~c_hsjn:8e-5 ()
        in
        with_server
          ~configure:(fun cfg ->
            {
              cfg with
              Srv.Server.model = skewed;
              recalibrate =
                Some
                  {
                    Cote.Recalibrate.default_config with
                    Cote.Recalibrate.min_observations = 6;
                    drift_window = 12;
                    (* One refit in the run: the second attempt would
                       need more observations than the test sends. *)
                    min_refit_interval = 64;
                    ridge = 1e-6;
                  };
            })
          (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let compile_err sql =
                  match
                    request_exn c
                      (Srv.Proto.Compile
                         {
                           id = Srv.Client.fresh_id c;
                           sql;
                           schema = None;
                           deadline_ms = None;
                            estimate_hint_s = None;
                         })
                  with
                  | Srv.Proto.R_compile (_, b) ->
                    Alcotest.(check bool) "fresh template: no stmt-cache hit"
                      false b.Srv.Proto.c_cache_hit;
                    Float.abs (b.Srv.Proto.c_predicted_s -. b.Srv.Proto.c_elapsed_s)
                    /. b.Srv.Proto.c_elapsed_s *. 100.0
                  | r ->
                    Alcotest.failf "expected compile reply, got %s"
                      (J.to_string (Srv.Proto.reply_to_json r))
                in
                let mean errs =
                  List.fold_left ( +. ) 0.0 errs
                  /. float_of_int (List.length errs)
                in
                (* The first min_observations compiles are all judged by
                   the skewed model (the refit can only land after the
                   6th reply's observation). *)
                let warm = List.map compile_err recalib_warm_sql in
                let err_before =
                  mean
                    (List.filteri (fun i _ -> i < 6) warm)
                in
                (* Fresh templates against whatever is serving now. *)
                let err_after = mean (List.map compile_err recalib_probe_sql) in
                (match
                   request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                 with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check bool) "drift-triggered refit happened" true
                    (stat doc "refits" >= 1);
                  Alcotest.(check bool) "stats shows the refitted model" true
                    (served_c_mgjn doc <> skewed.Cote.Time_model.c_mgjn)
                | _ -> Alcotest.fail "expected stats reply");
                if not (err_after < err_before /. 2.0) then
                  Alcotest.failf
                    "recalibration did not help: %.1f%% before vs %.1f%% after"
                    err_before err_after)));
    t "without --recalibrate the configured model serves unchanged" (fun () ->
        with_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                List.iter
                  (fun sql -> ignore (request_exn c
                       (Srv.Proto.Compile
                          {
                            id = Srv.Client.fresh_id c;
                            sql;
                            schema = None;
                            deadline_ms = None;
                            estimate_hint_s = None;
                          })))
                  recalib_warm_sql;
                match
                  request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check int) "no refits ever" 0 (stat doc "refits");
                  Alcotest.(check (float 0.0)) "stats shows the configured model"
                    model.Cote.Time_model.c_mgjn (served_c_mgjn doc);
                  Alcotest.(check (float 0.0)) "nothing was fitted" 0.0
                    (statf doc "model_fit_s")
                | _ -> Alcotest.fail "expected stats reply")));
  ]

(* ------------------------------------------------------------------ *)
(* Client resilience: reconnect with backoff, per-request timeouts,     *)
(* and sockets dying mid-reply — against a scripted fake server.        *)
(* ------------------------------------------------------------------ *)

let fake_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "qopt-fake-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

(* Binds [path] (after [delay_s], to exercise dial retries) and hands
   the listening socket to [script] on a thread. *)
let with_fake_server ?(delay_s = 0.0) ~script path f =
  let bind_listen () =
    let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_UNIX path);
    Unix.listen lfd 8;
    lfd
  in
  (* Without an intentional delay, bind before [f] runs: a client dialing
     with attempts:1 must never race the server thread to the socket —
     losing that race raises in [f] and leaves the script wedged in
     accept, which the joining finally below then waits on forever. *)
  let pre_bound = if delay_s > 0.0 then None else Some (bind_listen ()) in
  let th =
    Thread.create
      (fun () ->
        let lfd =
          match pre_bound with
          | Some lfd -> lfd
          | None ->
            Thread.delay delay_s;
            bind_listen ()
        in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close lfd with Unix.Unix_error _ -> ())
          (fun () -> script lfd))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    f

let accept_io lfd =
  let fd, _ = Unix.accept lfd in
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let echo_ok ic oc =
  match Srv.Wire.read ic with
  | Some payload -> (
    match Result.bind (J.parse payload) Srv.Proto.request_of_json with
    | Ok req ->
      Srv.Wire.write oc
        (J.to_string
           (Srv.Proto.reply_to_json
              (Srv.Proto.R_ok (Srv.Proto.request_id req))))
    | Error _ -> Alcotest.fail "fake server got unparseable request")
  | None -> Alcotest.fail "fake server got EOF instead of a request"

let drain_until_eof ic = while Srv.Wire.read ic <> None do () done

let client_tests =
  [
    t "connect retries with backoff until the server binds" (fun () ->
        let path = fake_path () in
        with_fake_server ~delay_s:0.15 path
          ~script:(fun lfd ->
            let fd, ic, oc = accept_io lfd in
            echo_ok ic oc;
            drain_until_eof ic;
            Unix.close fd)
          (fun () ->
            (* One attempt would get ENOENT; the backoff schedule covers
               the 150ms bind delay with room to spare. *)
            let c = Srv.Client.connect ~attempts:50 (`Unix path) in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let id = Srv.Client.fresh_id c in
                match Srv.Client.request c (Srv.Proto.Stats { id }) with
                | Some (Srv.Proto.R_ok rid) ->
                  Alcotest.(check int) "id echoed" id rid
                | _ -> Alcotest.fail "expected R_ok from fake server")));
    t "request_timeout returns Timeout when the server stalls" (fun () ->
        let path = fake_path () in
        with_fake_server path
          ~script:(fun lfd ->
            let fd, ic, _ = accept_io lfd in
            (* Swallow the request and stall; the client dropping its end
               unblocks the drain. *)
            drain_until_eof ic;
            Unix.close fd)
          (fun () ->
            let c = Srv.Client.connect (`Unix path) in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let t0 = Unix.gettimeofday () in
                match
                  Srv.Client.request_timeout ~timeout_s:0.2 c
                    (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                with
                | Srv.Client.Timeout ->
                  Alcotest.(check bool) "timed out near the deadline" true
                    (Unix.gettimeofday () -. t0 < 2.0)
                | Srv.Client.Reply _ -> Alcotest.fail "stalled server replied?"
                | Srv.Client.Closed -> Alcotest.fail "expected Timeout, got Closed")));
    t "socket closing mid-reply yields Closed, not a hang" (fun () ->
        let path = fake_path () in
        with_fake_server path
          ~script:(fun lfd ->
            let fd, ic, oc = accept_io lfd in
            (match Srv.Wire.read ic with
            | Some _ ->
              (* A length prefix and half a payload, then death. *)
              output_string oc "100\n{\"op\":\"ok\"";
              flush oc
            | None -> ());
            Unix.close fd)
          (fun () ->
            let c = Srv.Client.connect (`Unix path) in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                match
                  Srv.Client.request_timeout ~timeout_s:5.0 c
                    (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                with
                | Srv.Client.Closed -> ()
                | Srv.Client.Timeout ->
                  Alcotest.fail "torn reply misread as a timeout"
                | Srv.Client.Reply _ ->
                  Alcotest.fail "torn reply misread as a reply")));
    t "lazy redial: a request after the server drops reconnects" (fun () ->
        let path = fake_path () in
        with_fake_server path
          ~script:(fun lfd ->
            (* First connection is dropped unserved; the second is served
               normally — the client must land on it transparently. *)
            let fd1, _, _ = accept_io lfd in
            Unix.close fd1;
            let fd2, ic, oc = accept_io lfd in
            echo_ok ic oc;
            drain_until_eof ic;
            Unix.close fd2)
          (fun () ->
            let c = Srv.Client.connect ~attempts:20 (`Unix path) in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                (* Observe the first connection dying... *)
                Alcotest.(check bool) "first connection died" true
                  (Srv.Client.recv c = None);
                (* ...and the very next request redials and succeeds. *)
                let id = Srv.Client.fresh_id c in
                match Srv.Client.request c (Srv.Proto.Stats { id }) with
                | Some (Srv.Proto.R_ok rid) ->
                  Alcotest.(check int) "served on the redial" id rid
                | _ -> Alcotest.fail "expected R_ok on the second connection")));
  ]

(* ------------------------------------------------------------------ *)
(* Giant join graphs: budget guardrail and regime selection            *)
(* ------------------------------------------------------------------ *)

let giant_schema = W.Giant.schema ()

(* Ad-hoc SQL against the server's "giant" schema: a chain of [n] tables
   joined on j1, or the all-pairs clique. *)
let giant_chain_sql n =
  let tables = List.init n (fun i -> Printf.sprintf "g%d" i) in
  let joins =
    List.init (n - 1) (fun i -> Printf.sprintf "g%d.j1 = g%d.j1" i (i + 1))
  in
  "SELECT g0.v1 FROM " ^ String.concat ", " tables ^ " WHERE "
  ^ String.concat " AND " joins

let giant_clique_sql n =
  let tables = List.init n (fun i -> Printf.sprintf "g%d" i) in
  let joins = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      joins := Printf.sprintf "g%d.j1 = g%d.j1" i j :: !joins
    done
  done;
  "SELECT g0.v1 FROM " ^ String.concat ", " tables ^ " WHERE "
  ^ String.concat " AND " !joins

let giant_star_sql n =
  let tables = List.init n (fun i -> Printf.sprintf "g%d" i) in
  let joins =
    List.init (n - 1) (fun i -> Printf.sprintf "g0.j1 = g%d.j1" (i + 1))
  in
  "SELECT g0.v1 FROM " ^ String.concat ", " tables ^ " WHERE "
  ^ String.concat " AND " joins

let with_budgeted_server ?(trust_hints = false) ?(max_memo_entries = 500) ?plan_cache f =
  with_server
    ~configure:(fun c ->
      {
        c with
        Srv.Server.schemas =
          c.Srv.Server.schemas @ [ ("giant", giant_schema) ];
        budget = O.Budget.make ~max_memo_entries ();
        trust_hints;
        plan_cache;
      })
    f

let compile_regime c ?hint sql =
  let id = Srv.Client.fresh_id c in
  match
    request_exn c
      (Srv.Proto.Compile
         {
           id;
           sql;
           schema = Some "giant";
           deadline_ms = None;
           estimate_hint_s = hint;
         })
  with
  | Srv.Proto.R_compile (_, b) -> b
  | r ->
    Alcotest.failf "expected compile reply, got %s"
      (J.to_string (Srv.Proto.reply_to_json r))

let giant_regime_tests =
  [
    t "compile replies parse as DP when the regime field is absent" (fun () ->
        (* Replies from pre-regime servers carry no "regime" key; the
           fleet router must still parse them. *)
        let body =
          {
            Srv.Proto.c_plan = Some "NLJN(Q0,Q1)";
            c_cost = 10.0;
            c_card = 5.0;
            c_joins = 2;
            c_kept = 3;
            c_entries = 3;
            c_elapsed_s = 0.001;
            c_predicted_s = 0.002;
            c_level = "full";
            c_queue_s = 0.0;
            c_cache_hit = false;
            c_plan_cached = false;
            c_regime = "dp";
          }
        in
        let stripped =
          match Srv.Proto.reply_to_json (Srv.Proto.R_compile (5, body)) with
          | J.Obj fields ->
            J.Obj (List.filter (fun (k, _) -> k <> "regime") fields)
          | _ -> Alcotest.fail "compile reply should be an object"
        in
        match Srv.Proto.reply_of_json stripped with
        | Ok (Srv.Proto.R_compile (_, b)) ->
          Alcotest.(check string) "defaults to dp" "dp" b.Srv.Proto.c_regime
        | Ok _ | Error _ -> Alcotest.fail "expected a compile reply");
    t "a 40-table chain over budget is served by the greedy regime" (fun () ->
        with_budgeted_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let b = compile_regime c (giant_chain_sql 40) in
                Alcotest.(check string) "regime" "greedy" b.Srv.Proto.c_regime;
                Alcotest.(check bool) "a plan came back" true
                  (b.Srv.Proto.c_plan <> None);
                Alcotest.(check int) "no MEMO was built" 0
                  b.Srv.Proto.c_entries;
                (* A query DP handles within budget still runs DP. *)
                let id = Srv.Client.fresh_id c in
                (match
                   request_exn c
                     (Srv.Proto.Compile
                        {
                          id;
                          sql = small_sql;
                          schema = None;
                          deadline_ms = None;
                          estimate_hint_s = None;
                        })
                 with
                | Srv.Proto.R_compile (_, b) ->
                  Alcotest.(check string) "small query stays dp" "dp"
                    b.Srv.Proto.c_regime
                | _ -> Alcotest.fail "expected compile reply");
                match
                  request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check int) "regime_greedy counted" 1
                    (stat doc "regime_greedy");
                  Alcotest.(check int) "regime_dp counted" 1
                    (stat doc "regime_dp");
                  Alcotest.(check int) "no mid-compile fallbacks" 0
                    (stat doc "regime_fallbacks")
                | _ -> Alcotest.fail "expected stats reply")));
    t "guardrail: a 30-table clique cannot run DP unbounded" (fun () ->
        (* The regression this budget exists for: without caps, the MEMO
           of a 30-table clique grows ~2^30 entries and the server OOMs
           long before any deadline check.  With the cap, the budgeted
           estimate aborts in milliseconds and the compile is served by
           the spanning-tree regime. *)
        with_budgeted_server (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let b = compile_regime c (giant_clique_sql 30) in
                Alcotest.(check string) "regime" "greedy" b.Srv.Proto.c_regime;
                Alcotest.(check bool) "a plan came back" true
                  (b.Srv.Proto.c_plan <> None);
                Alcotest.(check bool) "cost is finite" true
                  (Float.is_finite b.Srv.Proto.c_cost))));
    t "a giant star's first greedy compile stores nothing, its second stores"
      (fun () ->
        (* Second-sight admission on the spanning-tree path: the actuals
           are recorded under the "greedy" tag, and the doorkeeper asks
           for that tag too. *)
        with_budgeted_server ~plan_cache:Cote.Plan_cache.default_config (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let sql = giant_star_sql 30 in
                let b1 = compile_regime c sql in
                Alcotest.(check string) "first: greedy" "greedy" b1.Srv.Proto.c_regime;
                Alcotest.(check bool) "first compiled" false b1.Srv.Proto.c_plan_cached;
                let b2 = compile_regime c sql in
                Alcotest.(check string) "second: greedy" "greedy" b2.Srv.Proto.c_regime;
                Alcotest.(check bool) "second compiled, nothing was stored" false
                  b2.Srv.Proto.c_plan_cached;
                Alcotest.(check bool) "second refined by the greedy actual" true
                  b2.Srv.Proto.c_cache_hit;
                let b3 = compile_regime c sql in
                Alcotest.(check bool) "third a hit" true b3.Srv.Proto.c_plan_cached;
                Alcotest.(check string) "the hit keeps its regime" "greedy"
                  b3.Srv.Proto.c_regime;
                Alcotest.(check (option string)) "the second's plan" b2.Srv.Proto.c_plan
                  b3.Srv.Proto.c_plan;
                match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check int) "two greedy compiles" 2 (stat doc "regime_greedy");
                  Alcotest.(check int) "one hit" 1 (stat doc "plan_hits")
                | _ -> Alcotest.fail "expected stats reply")));
    t "a 30-table star: the dry run routes it greedy, estimate still errors"
      (fun () ->
        (* The estimator's dry run proves the blowup before the COTE pass;
           the regime and the estimate error are the ones the full pass
           gives. *)
        with_budgeted_server ~max_memo_entries:600 (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let aborts () =
                  match
                    request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                  with
                  | Srv.Proto.R_stats (_, doc) ->
                    let ( >>= ) = Option.bind in
                    J.member "metrics" doc >>= J.member "counters"
                    >>= J.member "estimator.budget_precheck_aborts"
                    >>= J.get_int
                    |> Option.value ~default:0
                  | _ -> Alcotest.fail "expected stats reply"
                in
                let before = aborts () in
                let sql = giant_star_sql 30 in
                let b = compile_regime c sql in
                Alcotest.(check string) "regime" "greedy" b.Srv.Proto.c_regime;
                Alcotest.(check bool) "a plan came back" true
                  (b.Srv.Proto.c_plan <> None);
                let id = Srv.Client.fresh_id c in
                (match
                   request_exn c
                     (Srv.Proto.Estimate { id; sql; schema = Some "giant" })
                 with
                | Srv.Proto.R_error { message; _ } ->
                  Alcotest.(check string) "estimate error"
                    "budget exceeded: memo_entries 601 > 600" message
                | r ->
                  Alcotest.failf "expected an error reply, got %s"
                    (J.to_string (Srv.Proto.reply_to_json r)));
                Alcotest.(check bool) "both decided by the dry run" true
                  (aborts () >= before + 2))));
    t "a trusted hint that blows the budget mid-compile is rescued" (fun () ->
        (* --trust-hints skips the local budgeted estimate, so the job
           enters as DP and hits the cap inside the worker: the reply must
           come from the fallback, labelled dp_budget_fallback. *)
        with_budgeted_server ~trust_hints:true (fun addr ->
            let c = Srv.Client.connect addr in
            Fun.protect
              ~finally:(fun () -> Srv.Client.close c)
              (fun () ->
                let b =
                  compile_regime c ~hint:1e-4 (giant_chain_sql 40)
                in
                Alcotest.(check string) "regime" "dp_budget_fallback"
                  b.Srv.Proto.c_regime;
                Alcotest.(check bool) "a plan came back" true
                  (b.Srv.Proto.c_plan <> None);
                match
                  request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c })
                with
                | Srv.Proto.R_stats (_, doc) ->
                  Alcotest.(check int) "rescue counted" 1
                    (stat doc "regime_fallbacks")
                | _ -> Alcotest.fail "expected stats reply")));
  ]

(* ------------------------------------------------------------------ *)
(* Compile domains live only while there is work                       *)
(* ------------------------------------------------------------------ *)

let compile_req c sql =
  Srv.Proto.Compile
    { id = Srv.Client.fresh_id c; sql; schema = None; deadline_ms = None;
      estimate_hint_s = None }

let stats_doc c =
  match request_exn c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
  | Srv.Proto.R_stats (_, doc) -> doc
  | _ -> Alcotest.fail "expected stats reply"

let lifecycle_tests =
  [
    t "an idle server retires its compile domains and compiles the same after"
      (fun () ->
        let pool = Qopt_par.Pool.create ~helpers:1 ~first_slot:2 () in
        Fun.protect
          ~finally:(fun () -> Qopt_par.Pool.close pool)
          (fun () ->
            with_server
              ~configure:(fun c -> { c with Srv.Server.helpers = Some pool })
              (fun addr ->
                let c = Srv.Client.connect addr in
                Fun.protect
                  ~finally:(fun () -> Srv.Client.close c)
                  (fun () ->
                    let doc0 = stats_doc c in
                    Alcotest.(check int) "no domain before the first compile" 0
                      (stat doc0 "live_domains");
                    let spawned0 = stat doc0 "domains_spawned" in
                    let retired0 = stat doc0 "domains_retired" in
                    (* The reply with its id and the fields a second compile
                       of the same SQL legitimately changes (timings, and the
                       statement cache's refined estimate) zeroed. *)
                    let compile () =
                      match request_exn c (compile_req c big_sql) with
                      | Srv.Proto.R_compile (_, b) ->
                        J.to_string
                          (Srv.Proto.reply_to_json
                             (Srv.Proto.R_compile
                                ( 0,
                                  {
                                    b with
                                    Srv.Proto.c_elapsed_s = 0.0;
                                    c_queue_s = 0.0;
                                    c_predicted_s = 0.0;
                                    c_cache_hit = false;
                                  } )))
                      | r ->
                        Alcotest.failf "expected compile reply, got %s"
                          (J.to_string (Srv.Proto.reply_to_json r))
                    in
                    let first = compile () in
                    Alcotest.(check int) "the compile spawned worker and helper"
                      (spawned0 + 2)
                      (stat (stats_doc c) "domains_spawned");
                    wait_for_stats c (fun doc -> stat doc "live_domains" = 0);
                    Alcotest.(check int) "both retired" (retired0 + 2)
                      (stat (stats_doc c) "domains_retired");
                    let again = compile () in
                    Alcotest.(check string) "same reply after respawn" first again;
                    let doc = stats_doc c in
                    Alcotest.(check int) "both respawned" (spawned0 + 4)
                      (stat doc "domains_spawned");
                    Alcotest.(check int) "helpers is the configured count" 1
                      (stat doc "helpers")))));
    t "a shutdown racing a compile's admission and worker spawn answers it once"
      (fun () ->
        let rng = Random.State.make [| 24 |] in
        for round = 1 to 30 do
          (* The compile and the shutdown leave within a millisecond of
             each other, either first: the shutdown lands before the
             compile's admission, between its admission and its push, or
             while its push spawns the worker. *)
          let compile_delay_s = Random.State.float rng 0.001 in
          let delay_s = Random.State.float rng 0.001 in
          with_server (fun addr ->
              let a = Srv.Client.connect addr and b = Srv.Client.connect addr in
              (* Both connections accepted before the race starts. *)
              ignore (stats_doc a);
              ignore (stats_doc b);
              let req = compile_req a small_sql in
              let id = Srv.Proto.request_id req in
              let shutdown =
                Thread.create
                  (fun () ->
                    Thread.delay delay_s;
                    ignore
                      (Srv.Client.request b
                         (Srv.Proto.Shutdown { id = Srv.Client.fresh_id b })))
                  ()
              in
              Thread.delay compile_delay_s;
              Srv.Client.send a req;
              let rec replies acc =
                match Srv.Client.recv a with
                | None -> List.rev acc
                | Some r -> replies (r :: acc)
              in
              let got = replies [] in
              Thread.join shutdown;
              Srv.Client.close a;
              Srv.Client.close b;
              match got with
              | [ (Srv.Proto.R_compile _ | Srv.Proto.R_cancelled _ | Srv.Proto.R_rejected _) as r ]
                ->
                Alcotest.(check int) "the request's id" id (Srv.Proto.reply_id r)
              | _ ->
                Alcotest.failf "round %d (%.4fs vs %.4fs): %d replies: %s" round
                  compile_delay_s delay_s
                  (List.length got)
                  (String.concat "; "
                     (List.map (fun r -> J.to_string (Srv.Proto.reply_to_json r)) got)))
        done);
  ]

let suite =
  wire_tests @ proto_tests @ sched_tests @ admission_tests @ level_tests
  @ server_tests @ plan_cache_tests @ recalibrate_tests @ client_tests
  @ giant_regime_tests @ lifecycle_tests
