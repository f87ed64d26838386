(* The benchmark harness: one Bechamel test per table/figure of the paper,
   measuring the operation that the table/figure times — full compilation,
   COTE estimation, calibration, greedy compilation — followed by the full
   experiment tables (the same rows/series `bin/experiments.exe` prints).

     dune exec bench/main.exe            # micro-benchmarks + all experiments
     dune exec bench/main.exe -- quick   # micro-benchmarks only

   Pass --metrics (or --metrics=json) to collect Qopt_obs metrics during
   the run and dump the registry at the end.  The obs/* benchmark pair
   measures the same compile with collection off and on — the "off" row
   must match the plain fig benchmarks (the disabled switch is a load and
   branch per call site). *)

module O = Qopt_optimizer
module W = Qopt_workloads
module E = Qopt_experiments
module Obs = Qopt_obs
open Bechamel
open Toolkit

let block_of env wl name =
  (W.Workload.find (E.Common.workload env wl) name).W.Workload.block

(* Representative single queries per figure: Bechamel needs stable,
   repeatable units of work. *)
let serial = E.Common.serial

let parallel = E.Common.parallel

let bench_optimize name env block =
  Test.make ~name (Staged.stage (fun () -> ignore (O.Optimizer.optimize env block)))

let bench_estimate name env block =
  Test.make ~name (Staged.stage (fun () -> ignore (Cote.Estimator.estimate env block)))

(* The MEMO insertion hot path in isolation: one run = a fresh MEMO entry
   receiving a stream of plans with mixed orders and costs, exercising
   signature computation, interned dominance tests and in-place
   compaction. *)
let bench_insert_plan block =
  let c n = O.Colref.make 0 n in
  let orders =
    [ []; [ c "a" ]; [ c "b" ]; [ c "a"; c "b" ]; [ c "b"; c "a" ]; [ c "c" ] ]
  in
  Test.make ~name:"hotpath/insert-plan"
    (Staged.stage (fun () ->
         let memo = O.Memo.create block in
         let e, _ =
           O.Memo.find_or_create memo (Qopt_util.Bitset.singleton 0)
         in
         let i = ref 0 in
         List.iter
           (fun order ->
             for k = 0 to 9 do
               incr i;
               O.Memo.insert_plan memo e
                 {
                   O.Plan.op = O.Plan.Seq_scan 0;
                   tables = Qopt_util.Bitset.singleton 0;
                   order;
                   partition = None;
                   card = 1000.0;
                   cost = float_of_int (((17 * !i) mod 29) + k);
                 }
             done)
           orders))

let tests () =
  let lin = block_of serial "linear" "lin_8_p3" in
  let star = block_of serial "star" "star_8_p3" in
  let star_p = block_of parallel "star" "star_8_p3" in
  let real1 = block_of serial "real1" "r1_q7" in
  let real1_p = block_of parallel "real1" "r1_q7" in
  let real2 = block_of serial "real2" "r2_q17" in
  let tpch = block_of serial "tpch" "tpch_q8" in
  let tpch_p = block_of parallel "tpch" "tpch_q8" in
  let rand_p = block_of parallel "random" "rand_q9" in
  let fig3a = E.Tables_exp.fig3_block ~orderby:false in
  Test.make_grouped ~name:"qopt"
    [
      (* fig2: the timed full compilation whose breakdown the figure shows *)
      bench_optimize "fig2/compile-real2_s" serial real2;
      (* fig3: the joins-vs-plans example query *)
      bench_optimize "fig3/compile-example" serial fig3a;
      (* hotpath: the flattened plan-generation path — the representative
         parallel compile plus the isolated MEMO insertion loop *)
      bench_optimize "hotpath/compile-real1_p" parallel real1_p;
      bench_insert_plan lin;
      (* fig4: actual compilation vs estimation, per sub-figure *)
      bench_optimize "fig4a/compile-linear_s" serial lin;
      bench_estimate "fig4a/estimate-linear_s" serial lin;
      bench_optimize "fig4b/compile-real2_s" serial real2;
      bench_estimate "fig4b/estimate-real2_s" serial real2;
      bench_optimize "fig4c/compile-real1_p" parallel real1_p;
      bench_estimate "fig4c/estimate-real1_p" parallel real1_p;
      (* fig5: the plan-count estimation runs *)
      bench_estimate "fig5ac/estimate-star_s" serial star;
      bench_estimate "fig5df/estimate-random_p" parallel rand_p;
      bench_estimate "fig5gi/estimate-real1_p" parallel real1_p;
      (* fig6: compile + estimate on each workload's representative *)
      bench_optimize "fig6a/compile-star_s" serial star;
      bench_estimate "fig6a/estimate-star_s" serial star;
      bench_optimize "fig6b/compile-real1_s" serial real1;
      bench_optimize "fig6d/compile-tpch_p" parallel tpch_p;
      bench_optimize "fig6d/compile-tpch_s" serial tpch;
      bench_optimize "fig6e/compile-random_p" parallel rand_p;
      bench_estimate "fig6f/estimate-real1_p" parallel real1_p;
      (* tab2/tab3: the counting machinery itself *)
      bench_estimate "tab3/accumulate-star_p" parallel star_p;
      (* ct: one calibration observation (compile + counters) *)
      Test.make ~name:"ct/measure-observation"
        (Staged.stage (fun () ->
             ignore (Cote.Calibrate.measure ~repeats:1 serial lin)));
      (* mop: the low-level greedy compile the meta-optimizer starts with *)
      Test.make ~name:"mop/greedy-real1_s"
        (Staged.stage (fun () -> ignore (O.Greedy.optimize serial real1)));
      (* pilot: bound-tracking analysis *)
      Test.make ~name:"pilot/analyze-real1_s"
        (Staged.stage (fun () -> ignore (O.Pilot_pass.analyze serial real1)));
      (* mem: the memory estimate ride-along *)
      bench_estimate "mem/estimate-star_s" serial star;
      (* multilevel: piggyback pass *)
      Test.make ~name:"multilevel/piggyback-star_s"
        (Staged.stage (fun () ->
             ignore
               (Cote.Multi_level.piggyback ~base:O.Knobs.full_bushy
                  ~levels:E.Multilevel_exp.levels serial star)));
      (* topn: compile a LIMIT variant *)
      bench_optimize "topn/compile-limit-star_s" serial
        (E.Topn_exp.with_limit 10 star);
      (* mv: optimization with the view candidate set *)
      Test.make ~name:"mv/compile-views-real1_s"
        (Staged.stage
           (let views =
              E.Mv_exp.views (E.Common.workload serial "real1").W.Workload.schema
            in
            fun () -> ignore (O.Optimizer.optimize serial ~views real1)));
      (* cache: signature computation *)
      Test.make ~name:"cache/signature-real1_q8"
        (Staged.stage
           (let big = block_of serial "real1" "r1_q8" in
            fun () -> ignore (Cote.Stmt_cache.signature big)));
      (* ablations *)
      Test.make ~name:"abl-sep/compound-real1_p"
        (Staged.stage (fun () ->
             ignore
               (Cote.Estimator.estimate
                  ~options:
                    { Cote.Accumulate.first_join_only = true; separate_lists = false }
                  parallel real1_p)));
      Test.make ~name:"abl-first/every-join-star_s"
        (Staged.stage (fun () ->
             ignore
               (Cote.Estimator.estimate
                  ~options:
                    { Cote.Accumulate.first_join_only = false; separate_lists = true }
                  serial star)));
      (* obs: the metrics-collection overhead pair.  Each run forces the
         switch so the pair is comparable regardless of --metrics. *)
      Test.make ~name:"obs/compile-metrics-off"
        (Staged.stage (fun () ->
             Obs.Control.with_enabled false (fun () ->
                 ignore (O.Optimizer.optimize serial real1))));
      Test.make ~name:"obs/compile-metrics-on"
        (Staged.stage (fun () ->
             Obs.Control.with_enabled true (fun () ->
                 ignore (O.Optimizer.optimize serial real1))));
    ]

let run_benchmarks () =
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  Benchmark.all cfg instances (tests ())

(* Each row reports ns/run and minor-heap words allocated per run: the
   allocation column is what the interned hot path is supposed to shrink,
   and regressions there show up before they cost wall-clock time. *)
let report raw =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let est_of tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> (
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Some est
      | Some _ | None -> None)
    | None -> None
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "%-36s %16s %14s@." "benchmark" "ns/run" "minor-w/run";
  List.iter
    (fun (name, result) ->
      let alloc =
        match est_of allocs name with
        | Some w -> Printf.sprintf "%14.0f" w
        | None -> Printf.sprintf "%14s" "-"
      in
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-36s %16.0f %s@." name est alloc
      | Some _ | None -> Format.printf "%-36s %16s %s@." name "-" alloc)
    rows;
  List.filter_map
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Some (name, est)
      | Some _ | None -> None)
    rows

(* Direct GC accounting for the representative parallel compile: bytes
   allocated and minor collections per [Optimizer.optimize], measured with
   [Gc.allocated_bytes] deltas outside Bechamel (which reports words per
   sampled run batch, not bytes per compile). *)
let hotpath_alloc_rows () =
  let real1_p = block_of parallel "real1" "r1_q7" in
  ignore (O.Optimizer.optimize parallel real1_p);
  let reps = 5 in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let s0 = Gc.quick_stat () in
  for _ = 1 to reps do
    ignore (O.Optimizer.optimize parallel real1_p)
  done;
  let a1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  let rows =
    [
      ("hotpath/alloc-bytes-real1_p", (a1 -. a0) /. float_of_int reps);
      ( "hotpath/minor-collections-real1_p",
        float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections)
        /. float_of_int reps );
    ]
  in
  Format.printf "=== Hot-path allocation accounting (%d compiles) ===@." reps;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.1f@." name v) rows;
  rows

(* Batch throughput: the whole serial synthetic corpus compiled through the
   Qopt_par pool at increasing domain counts.  Rows land next to the
   Bechamel ones in BENCH.json:

     batch/qps-dN          — compile tasks per second at N domains
     batch/speedup-d4      — qps-d4 / qps-d1
     batch/identical-d1-d4 — 1.0 when the 1- and 4-domain batches produced
                             byte-identical fingerprints (the determinism
                             guarantee), else 0.0

   Wall-clock speedup tracks the cores actually available: on a single-core
   host all domain counts time-slice one CPU, so qps stays flat there while
   the identity row still must hold. *)
let batch_corpus () =
  List.concat_map
    (fun wl ->
      List.map
        (fun (q : W.Workload.query) -> Qopt_par.Batch.Compile q.W.Workload.block)
        (E.Common.workload serial wl).W.Workload.queries)
    [ "linear"; "star"; "cycle" ]

(* Level-parallel plan generation: the batch corpus compiled one query at
   a time, serially and with a pool of helper domains (one per CPU beyond
   the caller's, at least one), and 3-6-table random warehouse blocks (20
   of each size, the adhoc workload's compiles) the same way, five passes
   a side, interleaved.

     hotpath/parallel-identical            — 1.0 when both passes over both
                                             corpora give equal Batch
                                             fingerprints, else 0.0
     hotpath/compile-helpers-speedup       — serial seconds / helper seconds
     hotpath/small-compile-helpers-speedup — the same on the small blocks

   The speed-ups track the idle cores: on a single-core host the helper
   time-slices the caller's CPU and the ratios sit near (or below) 1.0,
   while the identity row must hold everywhere. *)
let parallel_gen_rows () =
  let blocks =
    List.filter_map
      (function Qopt_par.Batch.Compile b -> Some b | Qopt_par.Batch.Estimate _ -> None)
      (batch_corpus ())
  in
  let schema = W.Warehouse.schema ~partitioned:false in
  let small =
    List.concat_map
      (fun tables -> W.Random_gen.blocks ~schema ~tables ~count:20)
      [ 3; 4; 5; 6 ]
  in
  let helpers = max 1 (min (Domain.recommended_domain_count () - 1) 3) in
  let pool = Qopt_par.Pool.create ~helpers ~first_slot:1 () in
  let pass ?runner blocks =
    Qopt_util.Timer.time (fun () ->
        List.map
          (fun b -> Qopt_par.Batch.Compiled (O.Optimizer.optimize serial ?runner b))
          blocks)
  in
  let fingerprint = Qopt_par.Batch.fingerprint in
  Fun.protect
    ~finally:(fun () -> Qopt_par.Pool.close pool)
    (fun () ->
      let runner = Qopt_par.Pool.run pool in
      let serial_out, ts = pass blocks in
      let par_out, tp = pass ~runner blocks in
      let small_serial, _ = pass small in
      let small_par, _ = pass ~runner small in
      let small_ts = ref 0.0 and small_tp = ref 0.0 in
      for i = 1 to 5 do
        let add r (_, t) = r := !r +. t in
        if i mod 2 = 0 then begin
          add small_ts (pass small);
          add small_tp (pass ~runner small)
        end
        else begin
          add small_tp (pass ~runner small);
          add small_ts (pass small)
        end
      done;
      let identical =
        if
          String.equal (fingerprint serial_out) (fingerprint par_out)
          && String.equal (fingerprint small_serial) (fingerprint small_par)
        then 1.0
        else 0.0
      in
      let rows =
        [
          ("hotpath/parallel-identical", identical);
          ("hotpath/compile-helpers-speedup", ts /. tp);
          ("hotpath/small-compile-helpers-speedup", !small_ts /. !small_tp);
        ]
      in
      Format.printf
        "=== Level-parallel plan generation (%d + %d compiles, %d helper%s) ===@."
        (List.length blocks) (List.length small) helpers
        (if helpers = 1 then "" else "s");
      List.iter (fun (name, v) -> Format.printf "%-38s %16.2f@." name v) rows;
      rows)

let batch_rows () =
  let corpus = batch_corpus () in
  let n = List.length corpus in
  let time_at domains =
    (* One warm run per domain count: the corpus is ~seconds of work, big
       enough that a single wall-clock reading is stable. *)
    Qopt_util.Timer.time (fun () ->
        Qopt_par.Batch.run_batch ~domains serial corpus)
  in
  let out1, t1 = time_at 1 in
  let out2, t2 = time_at 2 in
  let out4, t4 = time_at 4 in
  ignore out2;
  let qps t = float_of_int n /. t in
  let identical =
    if
      String.equal
        (Qopt_par.Batch.fingerprint out1)
        (Qopt_par.Batch.fingerprint out4)
    then 1.0
    else 0.0
  in
  let rows =
    [
      ("batch/qps-d1", qps t1);
      ("batch/qps-d2", qps t2);
      ("batch/qps-d4", qps t4);
      ("batch/speedup-d4", qps t4 /. qps t1);
      ("batch/identical-d1-d4", identical);
    ]
  in
  Format.printf "=== Batch throughput (%d compile tasks) ===@." n;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* Measured multicore scaling + lock-contention audit (`bench scale`, also
   folded into `bench quick`):

     scale/qps-dN        — compile tasks/second, whole serial corpus
                           through the pool at N domains, obs off
     scale/speedup-dN    — qps-dN / qps-d1 (exactly 1.0 at d1)
     lock/wait-share-dN  — fraction of the hammer run's core-seconds spent
                           blocked on the striped stmt+plan cache locks at
                           N domains: total lock.{stmt,plan}_cache wait_s
                           delta / (elapsed * N)

   Domain counts double from 1 up to [Domain.recommended_domain_count];
   a single-core host still measures {1, 2} so the time-sliced speedup
   (expected ~1.0) and the contention rows stay observable in CI.  The
   cache hammer is the serving-shaped load: every op is a stmt-cache
   probe-or-record plus a plan-cache probe-or-store against shared caches,
   hit-heavy after warmup, with a small hot key set so stripes actually
   collide.  Wait share measured on one core overstates contention (a
   descheduled lock holder charges its whole timeslice to the waiter). *)
let scale_domain_counts () =
  let cores =
    min (Domain.recommended_domain_count ()) Qopt_par.Pool.max_domains
  in
  if cores <= 1 then [ 1; 2 ]
  else begin
    let rec doubling d acc =
      if d >= cores then List.rev (cores :: acc)
      else doubling (2 * d) (d :: acc)
    in
    doubling 1 []
  end

let scale_rows () =
  let ds = scale_domain_counts () in
  let corpus = batch_corpus () in
  let n = List.length corpus in
  let qps_at d =
    Obs.Control.with_enabled false (fun () ->
        let _out, t =
          Qopt_util.Timer.time (fun () ->
              Qopt_par.Batch.run_batch ~domains:d serial corpus)
        in
        float_of_int n /. t)
  in
  let qps = List.map (fun d -> (d, qps_at d)) ds in
  let q1 = List.assoc 1 qps in
  (* Hammer material, prepared serially: a hot set of blocks with their
     chosen plans, so the measured region is cache traffic, not compiles. *)
  let blocks =
    Array.of_list
      (List.map
         (fun (q : W.Workload.query) -> q.W.Workload.block)
         (E.Common.workload serial "linear").W.Workload.queries)
  in
  let plans =
    Array.map
      (fun b ->
        match (O.Optimizer.optimize serial b).O.Optimizer.best with
        | Some p -> p
        | None -> failwith "scale_rows: corpus block has no plan")
      blocks
  in
  let keys = Array.map Cote.Stmt_cache.signature blocks in
  let nb = Array.length blocks in
  let ops_per_domain = 20_000 in
  let wait_share_at d =
    Obs.Control.with_enabled true (fun () ->
        let cache = Cote.Stmt_cache.create ~shared:true () in
        let pcache : unit Cote.Plan_cache.t = Cote.Plan_cache.create ~shared:true () in
        let wait () =
          Obs.Lock.wait_s "stmt_cache" +. Obs.Lock.wait_s "plan_cache"
        in
        let w0 = wait () in
        let total = ops_per_domain * d in
        let (_ : unit array), t =
          Qopt_util.Timer.time (fun () ->
              Qopt_par.Pool.map_indexed ~domains:d total (fun i ->
                  let j = i mod nb in
                  let b = blocks.(j) in
                  (match Cote.Stmt_cache.lookup cache b with
                  | Some _ -> ()
                  | None -> Cote.Stmt_cache.record cache b 1e-3);
                  match Cote.Plan_cache.lookup pcache ~key:keys.(j) b with
                  | Cote.Plan_cache.Hit _ -> ()
                  | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ ->
                    Cote.Plan_cache.store pcache ~key:keys.(j) b
                      ~plan:plans.(j) ()))
        in
        (wait () -. w0) /. (t *. float_of_int d))
  in
  let shares = List.map (fun d -> (d, wait_share_at d)) ds in
  let rows =
    List.concat_map
      (fun (d, q) ->
        [
          (Printf.sprintf "scale/qps-d%d" d, q);
          (Printf.sprintf "scale/speedup-d%d" d, q /. q1);
        ])
      qps
    @ List.map (fun (d, s) -> (Printf.sprintf "lock/wait-share-d%d" d, s)) shares
  in
  Format.printf
    "=== Multicore scaling (%d compile tasks; hammer %d ops/domain) ===@." n
    ops_per_domain;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.4f@." name v) rows;
  rows

(* Compile-service latency under load: an in-process server on a Unix
   socket, driven by the burst load generator (whole mix pipelined up
   front so the queue is actually deep).  The mix is 2 big star joins
   sent first plus 48 sub-millisecond smalls — FIFO makes every small
   wait behind the bigs, SJF jumps them ahead, so the small-dominated
   p95 is the scheduling-policy row:

     server/qps         — compiled replies per second (SJF run)
     server/p95-sjf     — p95 send-to-reply milliseconds under SJF
     server/p95-fifo    — same mix under FIFO (expect p95-sjf <= p95-fifo)
     server/reject-rate — fraction rejected under a tight aggregate
                          admission budget (structured rejections) *)
let bench_schemas = [ ("warehouse", W.Warehouse.schema ~partitioned:false) ]

let bench_model = Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 ()

let with_server configure f =
  let module Srv = Qopt_server in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qopt-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    configure
      (Srv.Server.default_config ~listen:(`Unix path) ~model:bench_model
         ~schemas:bench_schemas ())
  in
  let lock = Mutex.create () and cond = Condition.create () in
  let ready = ref false in
  let th =
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
         ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 0 }));
         Srv.Client.close c
       with Unix.Unix_error _ | Sys_error _ -> ());
      Thread.join th)
    (fun () -> f (`Unix path))

let server_rows () =
  let module Srv = Qopt_server in
  let mix = Srv.Loadgen.warehouse_mix ~smalls:48 ~bigs:2 in
  let run_mode mode =
    with_server
      (fun cfg -> { cfg with Srv.Server.mode })
      (fun addr -> Srv.Loadgen.run_burst ~addr ~sql:mix ())
  in
  let sjf = run_mode Srv.Sched.Sjf in
  let fifo = run_mode Srv.Sched.Fifo in
  let rejecting =
    with_server
      (fun cfg ->
        {
          cfg with
          Srv.Server.admission =
            {
              Srv.Admission.per_request_s = infinity;
              aggregate_s = 0.005;
              max_queue = max_int;
            };
        })
      (fun addr -> Srv.Loadgen.run_burst ~addr ~sql:mix ())
  in
  let p95 s = 1e3 *. Srv.Loadgen.percentile s.Srv.Loadgen.latencies_s 0.95 in
  let rows =
    [
      ("server/qps", sjf.Srv.Loadgen.qps);
      ("server/p95-sjf", p95 sjf);
      ("server/p95-fifo", p95 fifo);
      ( "server/reject-rate",
        float_of_int rejecting.Srv.Loadgen.rejected
        /. float_of_int (max 1 rejecting.Srv.Loadgen.sent) );
    ]
  in
  Format.printf "=== Compile service (%d-request burst, 1 worker) ===@."
    (List.length mix);
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* The plan cache on the same warehouse template mix: one warming burst
   compiles each template once (parameter-varying repeats mostly arrive
   while the first compile of their template is still on the worker), then
   a measured burst should be served from cache almost entirely:

     server/qps-cached    — compiled+cached replies per second on the
                            second (warm) burst; the headline against
                            server/qps
     plan_cache/hit-rate  — percent of warm-burst probes served from
                            cache (plan_cache.* counter deltas) *)
let plan_cache_rows () =
  let module Srv = Qopt_server in
  let mix = Srv.Loadgen.warehouse_mix ~smalls:48 ~bigs:2 in
  let counter name = Obs.Registry.counter_value Obs.Registry.default name in
  let probes () =
    counter "plan_cache.hits" + counter "plan_cache.misses"
    + counter "plan_cache.invalidations"
  in
  let warm, (hot, hits, rate) =
    with_server
      (fun cfg ->
        { cfg with Srv.Server.plan_cache = Some Cote.Plan_cache.default_config })
      (fun addr ->
        let warm = Srv.Loadgen.run_burst ~addr ~sql:mix () in
        let h0 = counter "plan_cache.hits" and p0 = probes () in
        let hot = Srv.Loadgen.run_burst ~addr ~sql:mix () in
        let dh = counter "plan_cache.hits" - h0 and dp = probes () - p0 in
        ( warm,
          (hot, dh, if dp = 0 then 0.0 else 100.0 *. float_of_int dh /. float_of_int dp)
        ))
  in
  ignore warm;
  let rows =
    [
      ("server/qps-cached", hot.Srv.Loadgen.qps);
      ("plan_cache/hit-rate", rate);
    ]
  in
  Format.printf
    "=== Plan cache (%d-request warm burst + measured burst, %d cache hits) ===@."
    (List.length mix) hits;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* What a template that never repeats leaves behind in a plan-cache
   server, the layer number behind the serving benchmark's giant
   peak_rss_mb: 40 distinct giant-schema stars (the MEMO cap
   sends each to the spanning-tree regime, as servebench's giant stars
   go), one request each, with the live heap measured after a full major
   collection before and after.  Reported, not gated.

     server/retained-kb-per-one-off — live KB the server keeps per
                                      one-off request *)
let one_off_retention_rows () =
  let module Srv = Qopt_server in
  let n = 40 in
  let star i =
    (* Center g[i] and the tables after it, 20 to 50 of them as in
       servebench's giant stars: a distinct template for every i. *)
    let size = 20 + (10 * (i mod 4)) in
    let t k = Printf.sprintf "g%d a%d" ((i + k) mod 62) k in
    Printf.sprintf "SELECT a0.v1 FROM %s WHERE %s AND a0.v2 = 3 ORDER BY a0.v1"
      (String.concat ", " (List.init size t))
      (String.concat " AND "
         (List.init (size - 1) (fun k -> Printf.sprintf "a0.j1 = a%d.j1" (k + 1))))
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let kb =
    with_server
      (fun cfg ->
        {
          cfg with
          Srv.Server.schemas = cfg.Srv.Server.schemas @ [ ("giant", W.Giant.schema ()) ];
          plan_cache = Some Cote.Plan_cache.default_config;
          budget = O.Budget.make ~max_memo_entries:600 ();
        })
      (fun addr ->
        let c = Srv.Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Srv.Client.close c)
          (fun () ->
            let compile sql =
              match
                Srv.Client.request c
                  (Srv.Proto.Compile
                     {
                       id = Srv.Client.fresh_id c;
                       sql;
                       schema = Some "giant";
                       deadline_ms = None;
                       estimate_hint_s = None;
                     })
              with
              | Some (Srv.Proto.R_compile _) -> ()
              | _ -> failwith "one_off_retention_rows: expected a compile reply"
            in
            (* One warm-up request spawns the worker and fills the
               process-wide tables before the baseline. *)
            compile (star n);
            let w0 = live_words () in
            for i = 0 to n - 1 do
              compile (star i)
            done;
            let w1 = live_words () in
            float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. float_of_int n /. 1024.0))
  in
  let rows = [ ("server/retained-kb-per-one-off", kb) ] in
  Format.printf "=== One-off retention (%d distinct giant stars, plan cache on) ===@." n;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* Online recalibration under an induced cost-model perturbation: the
   server starts with every canned coefficient multiplied by 12 — the
   same model shape, wildly wrong magnitudes, exactly what a hardware
   change or a stale release calibration looks like.  A first burst of
   join-bearing templates feeds the drift detector (no manual refit
   call); once the windowed mean prediction error crosses the threshold,
   Recalibrate refits from the server's own (counts, elapsed) window and
   swaps the coefficients.  A second burst is then measured against the
   refitted model:

     recalib/error-before — windowed mean relative prediction error (%)
                            at the moment the drift detector fired
     recalib/error-after  — same statistic over the post-refit burst
     recalib/refits       — drift-triggered refits (expect exactly 1) *)
let recalib_queries =
  [|
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d WHERE \
     ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = %d";
    "SELECT ss.ss_quantity FROM store_sales ss, item i, store s WHERE \
     ss.ss_item_sk = i.i_item_sk AND ss.ss_store_sk = s.s_store_sk AND \
     i.i_category_id = %d";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, customer c, \
     promotion p WHERE ss.ss_sold_date_sk = d.d_date_sk AND \
     ss.ss_customer_sk = c.c_customer_sk AND ss.ss_promo_sk = p.p_promo_sk \
     AND c.c_birth_year = %d";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, time_dim t, \
     item i, household_demographics hd WHERE ss.ss_sold_date_sk = \
     d.d_date_sk AND ss.ss_sold_time_sk = t.t_time_sk AND ss.ss_item_sk = \
     i.i_item_sk AND ss.ss_hdemo_sk = hd.hd_demo_sk AND d.d_year = %d";
  |]

(* Bytes one plan-cache hit of the serving benchmark's repeat mix (the
   four Loadgen smalls and the four join templates above) allocates
   before its reply is written: frame decode (JSON parse, request),
   [Frontdoor.prepare] through a warmed statement text map, and the plan
   -cache lookup.  Reported, not gated; the header line also prints the
   same path with every text parsed (no map), the cost the map removes.

     hotpath/alloc-bytes-plan-hit — bytes allocated per hit *)
let plan_hit_alloc_rows () =
  let module Srv = Qopt_server in
  let module J = Qopt_util.Json in
  let schemas = [ ("warehouse", W.Warehouse.schema ~partitioned:false) ] in
  let templates =
    List.init 4 (fun i ->
        (List.nth (Srv.Loadgen.warehouse_mix ~smalls:4 ~bigs:0) i, None))
    @ List.map (fun tpl -> (tpl, Some 1990)) (Array.to_list recalib_queries)
  in
  let sql i =
    let k = i mod List.length templates in
    match List.nth templates k with
    | smalls_sql, None -> smalls_sql
    | tpl, Some base ->
      Printf.sprintf (Scanf.format_from_string tpl "%d") (base + (i / 8 mod 9))
  in
  let n = 64 in
  let payloads =
    Array.init n (fun i ->
        J.to_string
          (Srv.Proto.request_to_json
             (Srv.Proto.Compile
                {
                  id = i;
                  sql = sql i;
                  schema = None;
                  deadline_ms = None;
                  estimate_hint_s = None;
                })))
  in
  let pc = Cote.Plan_cache.create ~shared:true () in
  let shapes = Srv.Frontdoor.shapes ~capacity:Cote.Plan_cache.default_config.capacity in
  let hit ?shapes payload =
    match Result.bind (J.parse payload) Srv.Proto.request_of_json with
    | Ok (Srv.Proto.Compile { id; sql; schema; _ }) -> (
      let p = Srv.Frontdoor.prepare ?shapes ~who:"bench" schemas ~id ~sql ~schema in
      let key = p.Srv.Frontdoor.p_key and block = p.Srv.Frontdoor.p_block in
      match Cote.Plan_cache.lookup pc ~key block with
      | Cote.Plan_cache.Hit _ -> p
      | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ ->
        (match (O.Optimizer.optimize serial block).O.Optimizer.best with
        | Some plan -> Cote.Plan_cache.store pc ~key block ~plan ""
        | None -> ());
        p)
    | _ -> failwith "plan_hit_alloc_rows: not a compile request"
  in
  (* Warm: every template compiled and stored, then every text admitted. *)
  Array.iter (fun payload -> ignore (hit payload)) payloads;
  Array.iter (fun payload -> Srv.Frontdoor.admit shapes (hit ~shapes payload)) payloads;
  let per_hit ?shapes () =
    let reps = 20 in
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to reps do
      Array.iter (fun payload -> ignore (hit ?shapes payload)) payloads
    done;
    (Gc.allocated_bytes () -. a0) /. float_of_int (reps * n)
  in
  let parsed = per_hit () in
  let rows = [ ("hotpath/alloc-bytes-plan-hit", per_hit ~shapes ()) ] in
  Format.printf
    "=== Plan-cache hit allocation (repeat mix, %d texts; every text parsed: %.0f B) ===@."
    n parsed;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.1f@." name v) rows;
  rows

let recalib_rows () =
  let module Srv = Qopt_server in
  (* Round-robin over structurally distinct join templates (2 to 5 tables)
     so the refit window spans independent plan-count mixes — a single
     template would be rank-deficient and correctly refuse to refit. *)
  let burst ~base n =
    List.init n (fun i ->
        let tpl = recalib_queries.(i mod Array.length recalib_queries) in
        Printf.sprintf (Scanf.format_from_string tpl "%d") (base + i))
  in
  let skewed =
    Cote.Time_model.make ~c_nljn:2.4e-5 ~c_mgjn:6e-5 ~c_hsjn:4.8e-5 ()
  in
  let counter name = Obs.Registry.counter_value Obs.Registry.default name in
  let gauge name = Obs.Registry.gauge_value Obs.Registry.default name in
  let before, after, refits =
    with_server
      (fun cfg ->
        {
          cfg with
          Srv.Server.model = skewed;
          recalibrate =
            Some
              {
                Cote.Recalibrate.default_config with
                Cote.Recalibrate.min_observations = 8;
                drift_window = 16;
                (* One refit per run: the second attempt would need more
                   observations than both bursts provide. *)
                min_refit_interval = 64;
                ridge = 1e-6;
              };
        })
      (fun addr ->
        let r0 = counter "recalib.refits" in
        let (_ : Srv.Loadgen.summary) =
          Srv.Loadgen.run_burst ~addr ~sql:(burst ~base:1990 16) ()
        in
        let before = gauge "recalib.error_before_pct" in
        let (_ : Srv.Loadgen.summary) =
          Srv.Loadgen.run_burst ~addr ~sql:(burst ~base:2100 16) ()
        in
        (before, gauge "recalib.model_error_pct", counter "recalib.refits" - r0))
  in
  let rows =
    [
      ("recalib/error-before", before);
      ("recalib/error-after", after);
      ("recalib/refits", float_of_int refits);
    ]
  in
  Format.printf
    "=== Online recalibration (12x-skewed model, %d+%d-request bursts) ===@." 16
    16;
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* Fleet vs one multi-worker server at equal total domains: three
   spawned single-worker backends behind the estimate-aware router
   against one server with three worker domains, both driven by the same
   mixed-tenant bursty scenario (4 tenants x 3 bursts of ~24 smalls +
   ~2 bigs).  Process isolation is the fleet's edge — a backend's
   stop-the-world minor GC stalls only its own queue — and rendezvous
   affinity keeps repeat templates on warm statement caches:

     fleet/qps                — compiled replies per second through the
                                router; the headline against
                                fleet/qps-single-backend
     fleet/p95                — p95 send-to-reply milliseconds through
                                the router
     fleet/affinity-hit-rate  — percent of routed compiles landing on
                                their first-choice rendezvous backend
     fleet/qps-single-backend — same scenario against the one 3-worker
                                server *)
let fleet_rows () =
  let module Srv = Qopt_server in
  let module F = Qopt_fleet in
  let qopt_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/qopt.exe"
  in
  if not (Sys.file_exists qopt_exe) then begin
    Format.printf "=== Fleet serving: skipped (%s not built) ===@." qopt_exe;
    []
  end
  else begin
    let base =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qopt-bench-fleet-%d" (Unix.getpid ()))
    in
    let spec i =
      let sock = Printf.sprintf "%s.b%d" base i in
      (try Sys.remove sock with Sys_error _ -> ());
      {
        F.Backend.sp_addr = `Unix sock;
        sp_launch =
          F.Backend.Spawn
            {
              exe = qopt_exe;
              argv =
                [| "qopt"; "serve"; "--workers"; "1"; "-s"; sock |];
            };
      }
    in
    let router_addr = `Unix (base ^ ".sock") in
    let cfg =
      F.Router.default_config ~listen:router_addr ~backends:(List.init 3 spec)
        ~model:bench_model ~schemas:bench_schemas ()
    in
    let counter name = Obs.Registry.counter_value Obs.Registry.default name in
    let lock = Mutex.create () and cond = Condition.create () in
    let ready = ref false in
    let th =
      Thread.create
        (fun () ->
          F.Router.run
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
    let scenario = F.Scenario.default_config in
    let h0 = counter "fleet.affinity_hits"
    and t0 = counter "fleet.affinity_total" in
    let fleet =
      Fun.protect
        ~finally:(fun () ->
          (try
             let c = Srv.Client.connect router_addr in
             ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = 0 }));
             Srv.Client.close c
           with Unix.Unix_error _ | Sys_error _ -> ());
          Thread.join th)
        (fun () -> F.Scenario.run scenario ~addr:router_addr)
    in
    let hits = counter "fleet.affinity_hits" - h0
    and total = counter "fleet.affinity_total" - t0 in
    let single =
      with_server
        (fun cfg -> { cfg with Srv.Server.workers = 3 })
        (fun addr -> F.Scenario.run scenario ~addr)
    in
    let rows =
      [
        ("fleet/qps", fleet.Srv.Loadgen.qps);
        ( "fleet/p95",
          1e3 *. Srv.Loadgen.percentile fleet.Srv.Loadgen.latencies_s 0.95 );
        ( "fleet/affinity-hit-rate",
          if total = 0 then 0.0
          else 100.0 *. float_of_int hits /. float_of_int total );
        ("fleet/qps-single-backend", single.Srv.Loadgen.qps);
      ]
    in
    Format.printf
      "=== Fleet serving (3 spawned 1-worker backends vs one 3-worker server) \
       ===@.";
    List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
    rows
  end

(* The giant-join-graph regime: the sizes where the DP MEMO explodes and
   the spanning-tree fallback takes over.  The corpus is the 14-query
   giant workload (chains/cycles/stars/snowflakes/cliques at 20-50
   tables); budget and deadline mirror the server smoke settings:

     giant/compile-dp-n20           — median full-DP ms on the 20-table
                                      chain (the regime's DP-friendly end)
     giant/compile-greedy-n50       — median spanning-tree fallback ms on
                                      the 50-table clique (1225 edges)
     giant/dp-n50-budget-exceeded   — 1.0 when budgeted DP on that clique
                                      aborts with the structured
                                      Budget_exceeded (it must: the
                                      unbudgeted MEMO would need ~2^50
                                      entries)
     giant/regime-decision-accuracy — % of the corpus where Regime.decide
                                      (budgeted COTE + greedy time model
                                      against a 100 ms deadline) picks the
                                      same regime as an oracle that
                                      actually ran both and compared
                                      measured times
     giant/cote-abort-ms            — median ms of the budgeted
                                      Predict.compile_time on the corpus
                                      queries whose estimate aborts: what
                                      a spanning-tree request pays before
                                      its compile starts
     giant/cote-overhead-pct        — the served COTE pass's share: median
                                      estimate over median compile, both
                                      under the server's 600-entry MEMO
                                      budget, summed over the 24-table
                                      chain and the 22-table cycle, in %
     giant/cote-budget-tax          — median budgeted over median
                                      unbudgeted estimate on the 24-table
                                      chain (1.0 when the budget's checks
                                      cost nothing) *)
(* Fig. 2's headline shares on real2_s.  The paper's premise is that
   generating and saving join plans dominates compile time; a speed-up
   that caches away the per-plan cost work would show here first. *)
let fig2_rows () =
  let gen_save, other = E.Fig2.shares () in
  let rows = [ ("fig2/plan-gen-save-pct", gen_save); ("fig2/other-pct", other) ] in
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

let giant_rows () =
  let env = serial in
  let budget = O.Budget.make ~max_memo_entries:5_000 ~max_kept_plans:20_000 () in
  let deadline_s = 0.1 in
  let chain20 = W.Giant.block W.Giant.Chain 20 in
  let clique50 = W.Giant.block W.Giant.Clique 50 in
  let _, dp_n20_s =
    Qopt_util.Timer.time_median ~repeats:5 (fun () ->
        ignore (O.Optimizer.optimize env chain20))
  in
  let _, greedy_n50_s =
    Qopt_util.Timer.time_median ~repeats:5 (fun () ->
        ignore (O.Optimizer.optimize_fallback env clique50))
  in
  let blown =
    match O.Optimizer.optimize env ~budget clique50 with
    | exception O.Budget.Exceeded _ -> 1.0
    | _ -> 0.0
  in
  (* The DP time model is fitted here, on small giant shapes, because the
     canned coefficients track a different machine; the greedy model's
     fitted defaults suffice (its features are machine-independent counts
     and its magnitude only matters far below the deadline). *)
  let model =
    Cote.Calibrate.fit
      (List.map
         (fun (shape, n) -> Cote.Calibrate.measure env (W.Giant.block shape n))
         [
           (W.Giant.Chain, 12); (W.Giant.Chain, 16); (W.Giant.Chain, 20);
           (W.Giant.Cycle, 12); (W.Giant.Star, 12);
         ])
  in
  let gm = Cote.Greedy_model.default in
  let oracle_regime b =
    match O.Optimizer.optimize env ~budget b with
    | exception O.Budget.Exceeded _ -> Cote.Regime.Greedy
    | r ->
      if r.O.Optimizer.elapsed <= deadline_s then Cote.Regime.Dp
      else Cote.Regime.Greedy
  in
  let predicted_regime b =
    let dp_s =
      match Cote.Predict.compile_time ~budget ~model env b with
      | p -> Some p.Cote.Predict.seconds
      | exception O.Budget.Exceeded _ -> None
    in
    let greedy_s =
      Cote.Greedy_model.predict gm
        ~quantifiers:(O.Query_block.n_quantifiers b)
        ~edges:(O.Spanning_tree.edge_count b) ~restarts:0
    in
    (Cote.Regime.decide ~deadline_s ~dp_s ~greedy_s ()).Cote.Regime.d_regime
  in
  let corpus = (E.Common.workload env "giant").W.Workload.queries in
  let correct =
    List.fold_left
      (fun acc (q : W.Workload.query) ->
        let b = q.W.Workload.block in
        if predicted_regime b = oracle_regime b then acc + 1 else acc)
      0 corpus
  in
  let accuracy = 100.0 *. float_of_int correct /. float_of_int (List.length corpus) in
  let abort_ms =
    List.filter_map
      (fun (q : W.Workload.query) ->
        let aborts () =
          match Cote.Predict.compile_time ~budget ~model env q.W.Workload.block with
          | _ -> false
          | exception O.Budget.Exceeded _ -> true
        in
        match Qopt_util.Timer.time_median ~repeats:5 aborts with
        | true, s -> Some (s *. 1e3)
        | false, _ -> None)
      corpus
  in
  let served = O.Budget.make ~max_memo_entries:600 () in
  let median_s repeats f = snd (Qopt_util.Timer.time_median ~repeats f) in
  let estimate_s ?budget b =
    median_s 15 (fun () -> Cote.Estimator.estimate ?budget env b)
  in
  let chain24 = W.Giant.block W.Giant.Chain 24 in
  let cycle22 = W.Giant.block W.Giant.Cycle 22 in
  (* Explicit lets fix the measuring order (tuple and operator arguments
     evaluate right to left). *)
  let est_s, compile_s =
    List.fold_left
      (fun (e, c) b ->
        let est = estimate_s ~budget:served b in
        let compile = median_s 5 (fun () -> O.Optimizer.optimize env ~budget:served b) in
        (e +. est, c +. compile))
      (0.0, 0.0) [ chain24; cycle22 ]
  in
  let unbudgeted_s = estimate_s chain24 in
  let budgeted_s = estimate_s ~budget:served chain24 in
  let rows =
    [
      ("giant/compile-dp-n20", dp_n20_s *. 1e3);
      ("giant/compile-greedy-n50", greedy_n50_s *. 1e3);
      ("giant/dp-n50-budget-exceeded", blown);
      ("giant/regime-decision-accuracy", accuracy);
      ("giant/cote-abort-ms", Qopt_util.Stats.median abort_ms);
      ("giant/cote-overhead-pct", 100.0 *. est_s /. compile_s);
      ("giant/cote-budget-tax", budgeted_s /. unbudgeted_s);
    ]
  in
  Format.printf
    "=== Giant join graphs (14-query corpus, budget 5k entries / 20k plans, \
     %.0f ms deadline) ===@."
    (deadline_s *. 1e3);
  List.iter (fun (name, v) -> Format.printf "%-36s %16.2f@." name v) rows;
  rows

(* Machine-readable results for CI trend tracking: a flat benchmark-name ->
   ns/run object, one line per benchmark so diffs stay readable. *)
let write_bench_json path rows =
  let oc = open_out path in
  (* One decimal suffices for ns/qps magnitudes; sub-unit readings (lock
     wait shares, reject rates) keep four so they don't flatten to 0.0. *)
  let fmt v =
    if Float.abs v >= 1.0 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.4f" v
  in
  output_string oc "{\n";
  List.iteri
    (fun i (name, est) ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Printf.sprintf "  %S: %s" name (fmt est)))
    rows;
  output_string oc "\n}\n";
  close_out oc

let scale_row_only (name, _) =
  String.starts_with ~prefix:"scale/" name
  || String.starts_with ~prefix:"lock/" name

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let scale_only = List.mem "scale" args in
  let metrics =
    if List.mem "--metrics=json" args then Some "json"
    else if List.mem "--metrics" args || List.mem "--metrics=text" args then
      Some "text"
    else None
  in
  if metrics <> None then Obs.Control.set_enabled true;
  if scale_only then begin
    (* `bench scale`: just the scaling curve + contention audit, written
       to SCALING.json (the CI artifact) without the full bench run. *)
    let rows = scale_rows () in
    write_bench_json "SCALING.json" rows;
    Format.printf "wrote SCALING.json (%d rows)@." (List.length rows);
    exit 0
  end;
  Format.printf "=== Bechamel micro-benchmarks (one per table/figure) ===@.";
  let raw = run_benchmarks () in
  let rows = report raw in
  Format.printf "@.";
  let rows = rows @ hotpath_alloc_rows () in
  Format.printf "@.";
  let rows = rows @ plan_hit_alloc_rows () in
  Format.printf "@.";
  let rows = rows @ parallel_gen_rows () in
  Format.printf "@.";
  let rows = rows @ batch_rows () in
  Format.printf "@.";
  let rows = rows @ server_rows () in
  Format.printf "@.";
  let rows = rows @ plan_cache_rows () in
  let rows = rows @ one_off_retention_rows () in
  let rows = rows @ recalib_rows () in
  Format.printf "@.";
  let rows = rows @ fleet_rows () in
  Format.printf "@.";
  let rows = rows @ fig2_rows () in
  Format.printf "@.";
  let rows = rows @ giant_rows () in
  Format.printf "@.";
  let rows = if quick then rows @ scale_rows () else rows in
  if quick then begin
    write_bench_json "BENCH.json" rows;
    write_bench_json "SCALING.json" (List.filter scale_row_only rows);
    Format.printf "wrote BENCH.json (%d benchmarks) and SCALING.json@."
      (List.length rows)
  end;
  if not quick then begin
    Format.printf "=== Paper tables and figures ===@.";
    List.iter
      (fun (e : E.Registry.t) ->
        Format.printf "== %s: %s@." e.E.Registry.id e.E.Registry.title;
        e.E.Registry.run ())
      E.Registry.all
  end;
  match metrics with
  | None -> ()
  | Some "json" ->
    Obs.Control.set_enabled false;
    print_endline (Obs.Registry.to_json Obs.Registry.default)
  | Some _ ->
    Obs.Control.set_enabled false;
    Obs.Registry.pp_text Format.std_formatter Obs.Registry.default
