(* The Qopt_obs metrics layer: counters, gauges, histograms, spans,
   registry export — plus the COTE-vs-actual differential property test
   run over the instrumented optimizer. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module Obs = Qopt_obs

let t name f = Alcotest.test_case name `Quick f

let with_on f = Obs.Control.with_enabled true f

let with_off f = Obs.Control.with_enabled false f

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let counter_tests =
  [
    t "incr and add accumulate when enabled" (fun () ->
        let c = Obs.Counter.make "c" in
        with_on (fun () ->
            Obs.Counter.incr c;
            Obs.Counter.add c 41);
        Alcotest.(check int) "value" 42 (Obs.Counter.value c));
    t "disabled counter is a no-op" (fun () ->
        let c = Obs.Counter.make "c" in
        with_off (fun () ->
            Obs.Counter.incr c;
            Obs.Counter.add c 10);
        Alcotest.(check int) "untouched" 0 (Obs.Counter.value c));
    t "reset zeroes" (fun () ->
        let c = Obs.Counter.make "c" in
        with_on (fun () -> Obs.Counter.add c 7);
        Obs.Counter.reset c;
        Alcotest.(check int) "zero" 0 (Obs.Counter.value c));
  ]

let gauge_tests =
  [
    t "set records last value" (fun () ->
        let g = Obs.Gauge.make "g" in
        Alcotest.(check bool) "unset" false (Obs.Gauge.is_set g);
        with_on (fun () ->
            Obs.Gauge.set g 1.5;
            Obs.Gauge.set g 2.5);
        Alcotest.(check (float 0.0)) "last" 2.5 (Obs.Gauge.value g);
        Alcotest.(check bool) "set" true (Obs.Gauge.is_set g));
    t "disabled gauge is a no-op" (fun () ->
        let g = Obs.Gauge.make "g" in
        with_off (fun () -> Obs.Gauge.set g 9.0);
        Alcotest.(check bool) "unset" false (Obs.Gauge.is_set g));
  ]

let histo_tests =
  [
    t "count, sum, min, max and mean are exact" (fun () ->
        let h = Obs.Histo.make "h" in
        with_on (fun () -> List.iter (Obs.Histo.observe h) [ 1.0; 4.0; 10.0 ]);
        Alcotest.(check int) "count" 3 (Obs.Histo.count h);
        Alcotest.(check (float 1e-9)) "sum" 15.0 (Obs.Histo.sum h);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Histo.min_value h);
        Alcotest.(check (float 1e-9)) "max" 10.0 (Obs.Histo.max_value h);
        Alcotest.(check (float 1e-9)) "mean" 5.0 (Obs.Histo.mean h));
    t "quantiles are log-bucket accurate" (fun () ->
        let h = Obs.Histo.make "h" in
        with_on (fun () ->
            for i = 1 to 1000 do
              Obs.Histo.observe h (float_of_int i)
            done);
        let within lo hi v = v >= lo && v <= hi in
        Alcotest.(check bool) "p50 near 500" true
          (within 400.0 620.0 (Obs.Histo.quantile h 0.50));
        Alcotest.(check bool) "p95 near 950" true
          (within 760.0 1000.0 (Obs.Histo.quantile h 0.95));
        Alcotest.(check bool) "p99 near 990" true
          (within 790.0 1000.0 (Obs.Histo.quantile h 0.99));
        Alcotest.(check bool) "p0 is min-ish" true
          (within 1.0 1.3 (Obs.Histo.quantile h 0.0)));
    t "non-positive values land in the underflow bucket" (fun () ->
        let h = Obs.Histo.make "h" in
        with_on (fun () ->
            Obs.Histo.observe h 0.0;
            Obs.Histo.observe h (-3.0));
        Alcotest.(check int) "count" 2 (Obs.Histo.count h);
        Alcotest.(check (float 1e-9)) "min" (-3.0) (Obs.Histo.min_value h);
        (* The underflow bucket's representative is clamped into the
           observed range, so the quantile stays non-positive. *)
        let p50 = Obs.Histo.quantile h 0.5 in
        Alcotest.(check bool) "p50 within range" true (p50 >= -3.0 && p50 <= 0.0));
    t "empty histogram reports nan quantile" (fun () ->
        let h = Obs.Histo.make "h" in
        Alcotest.(check bool) "nan" true (Float.is_nan (Obs.Histo.quantile h 0.5)));
    t "disabled histogram is a no-op" (fun () ->
        let h = Obs.Histo.make "h" in
        with_off (fun () -> Obs.Histo.observe h 5.0);
        Alcotest.(check int) "count" 0 (Obs.Histo.count h));
  ]

let busy () =
  (* Something the compiler will not optimize away, long enough to beat
     clock granularity. *)
  let acc = ref 0.0 in
  for i = 1 to 200_000 do
    acc := !acc +. Float.sin (float_of_int i)
  done;
  !acc

let span_tests =
  [
    t "time accumulates elapsed and count" (fun () ->
        let s = Obs.Span.make "s" in
        with_on (fun () ->
            ignore (Obs.Span.time s busy);
            ignore (Obs.Span.time s busy));
        Alcotest.(check int) "count" 2 (Obs.Span.count s);
        Alcotest.(check bool) "elapsed > 0" true (Obs.Span.total s > 0.0));
    t "nested spans attribute child time to the parent" (fun () ->
        let outer = Obs.Span.make "outer" in
        let inner = Obs.Span.make "inner" in
        with_on (fun () ->
            ignore
              (Obs.Span.time outer (fun () ->
                   let x = busy () in
                   let y = Obs.Span.time inner busy in
                   x +. y)));
        let self = Obs.Span.self outer in
        Alcotest.(check bool) "inner inside outer" true
          (Obs.Span.total inner <= Obs.Span.total outer);
        Alcotest.(check bool) "self excludes child" true
          (self < Obs.Span.total outer && self > 0.0);
        Alcotest.(check bool) "self + child ~ total" true
          (Float.abs (self +. Obs.Span.total inner -. Obs.Span.total outer)
          < 0.005));
    t "always spans record while disabled" (fun () ->
        let s = Obs.Span.make ~always:true "s" in
        with_off (fun () -> ignore (Obs.Span.time s busy));
        Alcotest.(check int) "count" 1 (Obs.Span.count s);
        Alcotest.(check bool) "elapsed > 0" true (Obs.Span.total s > 0.0));
    t "gated spans skip timing while disabled" (fun () ->
        let s = Obs.Span.make "s" in
        with_off (fun () -> ignore (Obs.Span.time s busy));
        Alcotest.(check int) "count" 0 (Obs.Span.count s));
    t "raising thunk still records and unwinds the stack" (fun () ->
        let outer = Obs.Span.make "outer" in
        let inner = Obs.Span.make "inner" in
        with_on (fun () ->
            (try
               Obs.Span.time outer (fun () ->
                   Obs.Span.time inner (fun () -> failwith "boom"))
             with Failure _ -> ());
            (* The stack must be clean: a fresh span gets no parent credit. *)
            let fresh = Obs.Span.make "fresh" in
            ignore (Obs.Span.time fresh busy);
            Alcotest.(check int) "outer count" 1 (Obs.Span.count outer);
            Alcotest.(check int) "inner count" 1 (Obs.Span.count inner);
            Alcotest.(check int) "fresh count" 1 (Obs.Span.count fresh)));
  ]

(* ------------------------------------------------------------------ *)
(* Registry and export                                                 *)
(* ------------------------------------------------------------------ *)

(* A minimal JSON validator: accepts exactly the RFC 8259 grammar the
   exporter can emit, returning the set of top-level object keys. *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let parse_string () =
    expect '"';
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        loop ()
      | Some _ ->
        advance ();
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let parse_literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail ("expected " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> ignore (parse_object ())
    | Some '"' -> parse_string ()
    | Some 'n' -> parse_literal "null"
    | Some 't' -> parse_literal "true"
    | Some 'f' -> parse_literal "false"
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  and parse_object () =
    skip_ws ();
    expect '{';
    skip_ws ();
    let keys = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let kstart = !pos + 1 in
        parse_string ();
        keys := String.sub s kstart (!pos - kstart - 1) :: !keys;
        skip_ws ();
        expect ':';
        parse_value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or }"
      in
      members ());
    List.rev !keys
  in
  let keys = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  keys

let fresh_registry () =
  let r = Obs.Registry.create ~name:"test" () in
  with_on (fun () ->
      Obs.Counter.add (Obs.Registry.counter r "a.count") 3;
      Obs.Gauge.set (Obs.Registry.gauge r "b.gauge") 1.25;
      List.iter (Obs.Histo.observe (Obs.Registry.histogram r "c.histo")) [ 1.0; 2.0 ];
      ignore (Obs.Span.time (Obs.Registry.span r "d.span") busy));
  r

let registry_tests =
  [
    t "find-or-create returns the same metric" (fun () ->
        let r = Obs.Registry.create () in
        let c1 = Obs.Registry.counter r "x" in
        let c2 = Obs.Registry.counter r "x" in
        Alcotest.(check bool) "same" true (c1 == c2));
    t "kind clash raises" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.counter r "x");
        (try
           ignore (Obs.Registry.gauge r "x");
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    t "counter_value defaults to zero" (fun () ->
        let r = Obs.Registry.create () in
        Alcotest.(check int) "absent" 0 (Obs.Registry.counter_value r "nope"));
    t "reset zeroes every metric" (fun () ->
        let r = fresh_registry () in
        Obs.Registry.reset r;
        Alcotest.(check int) "counter" 0 (Obs.Registry.counter_value r "a.count");
        Alcotest.(check int) "histo" 0
          (Obs.Histo.count (Obs.Registry.histogram r "c.histo")));
    t "text export lists every metric" (fun () ->
        let r = fresh_registry () in
        let out = Format.asprintf "%a" Obs.Registry.pp_text r in
        List.iter
          (fun name ->
            Alcotest.(check bool) name true (Helpers.contains out name))
          [ "a.count"; "b.gauge"; "c.histo"; "d.span"; "p95" ]);
    t "json export is valid and complete" (fun () ->
        let r = fresh_registry () in
        let json = Obs.Registry.to_json r in
        let keys = validate_json json in
        Alcotest.(check (list string)) "sections"
          [ "registry"; "counters"; "gauges"; "histograms"; "spans" ]
          keys;
        List.iter
          (fun name ->
            Alcotest.(check bool) name true (Helpers.contains json name))
          [ "a.count"; "b.gauge"; "c.histo"; "d.span" ]);
    t "json export survives empty and nan-valued metrics" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.histogram r "empty.histo");
        ignore (Obs.Registry.gauge r "unset.gauge");
        ignore (validate_json (Obs.Registry.to_json r)));
  ]

(* ------------------------------------------------------------------ *)
(* The COTE-vs-actual differential property test                       *)
(* ------------------------------------------------------------------ *)

(* A deterministic pool of > 100 randomized queries spanning the paper's
   query classes: FK-driven random queries (two seeds), plus the synthetic
   linear / star / cycle shapes. *)
let query_pool =
  lazy
    (let schema = W.Warehouse.schema ~partitioned:false in
     List.concat_map
       (fun (wl : W.Workload.t) -> wl.W.Workload.queries)
       [
         W.Random_gen.generate ~seed:20250807 ~count:60 ~complexity:9 ~schema ();
         W.Random_gen.generate ~seed:1337 ~count:30 ~complexity:6 ~schema ();
         W.Synthetic.linear ~partitioned:false;
         W.Synthetic.star ~partitioned:false;
         W.Synthetic.cycle ~partitioned:false;
       ])

let run_both block =
  let r = O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs block in
  let e = Cote.Estimator.estimate ~knobs:Helpers.stable_knobs O.Env.serial block in
  (r, e)

(* NLJN/MGJN counts depend on dominance pruning the estimator models with
   property lists — the paper's accepted ~30% error source.  Small queries
   can exceed the relative bound with a tiny absolute gap. *)
let close_enough ~actual ~est =
  let diff = abs (est - actual) in
  diff <= 20
  || float_of_int diff /. float_of_int (max 1 actual) <= 0.40

let differential_tests =
  [
    t "COTE vs actual: exact joins/scans/HSJN, bounded NLJN/MGJN (126 queries)"
      (fun () ->
        let pool = Lazy.force query_pool in
        Alcotest.(check bool) "pool has > 100 queries" true (List.length pool > 100);
        List.iter
          (fun (q : W.Workload.query) ->
            let r, e = run_both q.W.Workload.block in
            let g = r.O.Optimizer.generated in
            let ck what a b =
              if a <> b then
                Alcotest.failf "%s: %s actual %d <> estimated %d"
                  q.W.Workload.q_name what a b
            in
            (* Enumerator reuse makes the join set — and everything counted
               directly off it — exact (the paper's core claim). *)
            ck "joins" r.O.Optimizer.joins e.Cote.Estimator.joins;
            ck "scan plans" r.O.Optimizer.scan_plans e.Cote.Estimator.scan_plans;
            ck "hsjn" g.O.Memo.hsjn e.Cote.Estimator.hsjn;
            if not (close_enough ~actual:g.O.Memo.nljn ~est:e.Cote.Estimator.nljn)
            then
              Alcotest.failf "%s: nljn actual %d vs estimated %d"
                q.W.Workload.q_name g.O.Memo.nljn e.Cote.Estimator.nljn;
            if not (close_enough ~actual:g.O.Memo.mgjn ~est:e.Cote.Estimator.mgjn)
            then
              Alcotest.failf "%s: mgjn actual %d vs estimated %d"
                q.W.Workload.q_name g.O.Memo.mgjn e.Cote.Estimator.mgjn)
          pool);
    t "aggregate plan-count error within the paper's 30% target" (fun () ->
        let pool = Lazy.force query_pool in
        let actual, est =
          List.fold_left
            (fun (a, b) (q : W.Workload.query) ->
              let r, e = run_both q.W.Workload.block in
              ( a + O.Memo.counts_total r.O.Optimizer.generated,
                b + Cote.Estimator.total e ))
            (0, 0) pool
        in
        let err =
          Float.abs (float_of_int (est - actual)) /. float_of_int actual
        in
        if err > 0.30 then
          Alcotest.failf "aggregate error %.1f%% (actual %d, estimated %d)"
            (err *. 100.0) actual est);
  ]

(* The registry counters must agree with the optimizer's own result — the
   wiring itself is under test, as a QCheck property over the pool. *)
let wiring_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"registry counters match optimizer result" ~count:40
       (QCheck2.Gen.int_range 0 125)
       (fun i ->
         let pool = Lazy.force query_pool in
         let q = List.nth pool (i mod List.length pool) in
         with_on (fun () ->
             let reg = Obs.Registry.default in
             let snap name = Obs.Registry.counter_value reg name in
             let j0 = snap "enumerator.joins_feasible" in
             let n0 = snap "plan_gen.plans.nljn" in
             let m0 = snap "plan_gen.plans.mgjn" in
             let h0 = snap "plan_gen.plans.hsjn" in
             let s0 = snap "plan_gen.plans.scan" in
             let e0 = snap "memo.entries" in
             let retries0 = snap "optimizer.retries" in
             let r =
               O.Optimizer.optimize O.Env.serial ~knobs:Helpers.stable_knobs
                 q.W.Workload.block
             in
             let g = r.O.Optimizer.generated in
             if snap "optimizer.retries" > retries0 then
               (* A permissive-knobs retry re-enumerated the block: the
                  counters correctly record both passes, while the result
                  reports only the retry — exact equality cannot hold. *)
               snap "enumerator.joins_feasible" - j0 >= r.O.Optimizer.joins
             else
               snap "enumerator.joins_feasible" - j0 = r.O.Optimizer.joins
               && snap "plan_gen.plans.nljn" - n0 = g.O.Memo.nljn
               && snap "plan_gen.plans.mgjn" - m0 = g.O.Memo.mgjn
               && snap "plan_gen.plans.hsjn" - h0 = g.O.Memo.hsjn
               && snap "plan_gen.plans.scan" - s0 = r.O.Optimizer.scan_plans
               && snap "memo.entries" - e0 = r.O.Optimizer.entries)))

(* Every counter of a compile whose levels went wide, merged over the
   caller's and the helper's shard slots, must read what the serial
   compile reads: each increment lands on exactly one slot.  Excluded:
   the split-level count itself, and [plan_gen.alloc_bytes], which reads
   the compiling domain's allocation only. *)
let counters_after f =
  with_on (fun () ->
      Obs.Registry.reset Obs.Registry.default;
      f ();
      match
        Qopt_util.Json.member "counters"
          (Obs.Registry.json_value Obs.Registry.default)
      with
      | Some (Qopt_util.Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            match Qopt_util.Json.get_int v with
            | Some n
              when k <> "optimizer.parallel_levels" && k <> "plan_gen.alloc_bytes"
              ->
              Some (k, n)
            | Some _ | None -> None)
          kvs
      | Some _ | None -> Alcotest.fail "no counters section")

let parallel_counter_tests =
  [
    t "merged counters of a compile with a helper equal the serial compile's"
      (fun () ->
        let pool = Qopt_par.Pool.create ~helpers:1 ~first_slot:1 () in
        Fun.protect
          ~finally:(fun () -> Qopt_par.Pool.close pool)
          (fun () ->
            let queries =
              List.filteri (fun i _ -> i mod 10 = 0) (Lazy.force query_pool)
            in
            let wide = ref 0 in
            List.iter
              (fun (q : W.Workload.query) ->
                let compile ?runner () =
                  ignore
                    (O.Optimizer.optimize O.Env.serial ?runner q.W.Workload.block)
                in
                let serial = counters_after (fun () -> compile ()) in
                let par =
                  counters_after (fun () ->
                      compile ~runner:(Qopt_par.Pool.run pool) ();
                      wide :=
                        !wide
                        + Obs.Registry.counter_value Obs.Registry.default
                            "optimizer.parallel_levels")
                in
                Alcotest.(check (list (pair string int)))
                  q.W.Workload.q_name serial par)
              queries;
            Alcotest.(check bool) "some levels went wide" true (!wide > 0)));
  ]

let suite =
  counter_tests @ gauge_tests @ histo_tests @ span_tests @ registry_tests
  @ differential_tests
  @ [ wiring_property ]
  @ parallel_counter_tests
