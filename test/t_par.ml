(* Qopt_par: the work-stealing deque, the domain pool, and the batch API.
   The load-bearing property is end-to-end determinism: a 4-domain batch
   must be indistinguishable (results and merged metrics) from a serial
   run over the same tasks. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module P = Qopt_par
module Obs = Qopt_obs

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let deque_tests =
  [
    t "owner pop is LIFO" (fun () ->
        let d = P.Deque.create 8 in
        List.iter (P.Deque.push d) [ 1; 2; 3 ];
        Alcotest.(check (list (option int)))
          "pops"
          [ Some 3; Some 2; Some 1; None ]
          (List.init 4 (fun _ -> P.Deque.pop d)));
    t "steal is FIFO" (fun () ->
        let d = P.Deque.create 8 in
        List.iter (P.Deque.push d) [ 1; 2; 3 ];
        let steal () =
          match P.Deque.steal d with
          | P.Deque.Stolen v -> Some v
          | P.Deque.Empty | P.Deque.Retry -> None
        in
        Alcotest.(check (list (option int)))
          "steals"
          [ Some 1; Some 2; Some 3; None ]
          (List.init 4 (fun _ -> steal ())));
    t "capacity rounds up to a power of two" (fun () ->
        Alcotest.(check int) "min" 4 (P.Deque.capacity (P.Deque.create 0));
        Alcotest.(check int) "round" 8 (P.Deque.capacity (P.Deque.create 5));
        Alcotest.(check int) "exact" 8 (P.Deque.capacity (P.Deque.create 8)));
    t "push beyond capacity raises" (fun () ->
        let d = P.Deque.create 4 in
        List.iter (P.Deque.push d) [ 0; 1; 2; 3 ];
        Alcotest.check_raises "full"
          (Invalid_argument "Qopt_par.Deque.push: deque is full") (fun () ->
            P.Deque.push d 4));
    t "owner and thief drain 1000 tasks exactly once" (fun () ->
        let n = 1000 in
        let d = P.Deque.create n in
        for i = 0 to n - 1 do
          P.Deque.push d i
        done;
        (* All pushes precede the spawn, so a thief's Empty is final: the
           deque only shrinks from here on. *)
        let thief =
          Domain.spawn (fun () ->
              let rec loop acc =
                match P.Deque.steal d with
                | P.Deque.Stolen v -> loop (v :: acc)
                | P.Deque.Retry ->
                  Domain.cpu_relax ();
                  loop acc
                | P.Deque.Empty -> acc
              in
              loop [])
        in
        let rec drain acc =
          match P.Deque.pop d with
          | Some v -> drain (v :: acc)
          | None -> acc
        in
        let popped = drain [] in
        let stolen = Domain.join thief in
        (* Whatever the interleaving, the union is exactly 0..n-1. *)
        let all = List.sort compare (stolen @ popped) in
        Alcotest.(check (list int)) "all tasks once" (List.init n Fun.id) all);
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    t "map_indexed preserves order at every domain count" (fun () ->
        List.iter
          (fun domains ->
            let r = P.Pool.map_indexed ~domains 100 (fun i -> i * i) in
            Alcotest.(check (list int))
              (Printf.sprintf "d%d" domains)
              (List.init 100 (fun i -> i * i))
              (Array.to_list r))
          [ 1; 2; 4; 16; 99 ]);
    t "empty and singleton inputs" (fun () ->
        Alcotest.(check int) "empty" 0
          (Array.length (P.Pool.map_indexed ~domains:4 0 (fun i -> i)));
        Alcotest.(check (list int))
          "one" [ 7 ]
          (Array.to_list (P.Pool.map_indexed ~domains:4 1 (fun _ -> 7))));
    t "lowest-index exception wins deterministically" (fun () ->
        let attempt () =
          try
            ignore
              (P.Pool.map_indexed ~domains:4 64 (fun i ->
                   if i = 13 then failwith "task 13"
                   else if i = 5 then failwith "task 5"
                   else i));
            "no exception"
          with Failure m -> m
        in
        for _ = 1 to 5 do
          Alcotest.(check string) "lowest index" "task 5" (attempt ())
        done);
    t "every task still runs when one fails" (fun () ->
        let ran = Array.make 32 false in
        (try
           ignore
             (P.Pool.map_indexed ~domains:4 32 (fun i ->
                  ran.(i) <- true;
                  if i = 0 then failwith "first"))
         with Failure _ -> ());
        Alcotest.(check bool) "all ran" true (Array.for_all Fun.id ran));
    t "nested pool calls run sequentially and correctly" (fun () ->
        let r =
          P.Pool.map_indexed ~domains:4 8 (fun i ->
              Array.fold_left ( + ) 0
                (P.Pool.map_indexed ~domains:4 4 (fun j -> (10 * i) + j)))
        in
        Alcotest.(check (list int))
          "nested sums"
          (List.init 8 (fun i -> (40 * i) + 6))
          (Array.to_list r));
  ]

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)
(* ------------------------------------------------------------------ *)

let corpus env =
  List.concat_map
    (fun wl ->
      List.map
        (fun (q : W.Workload.query) -> q.W.Workload.block)
        (Qopt_experiments.Common.workload env wl).W.Workload.queries)
    [ "linear"; "star" ]

let tasks_of blocks =
  List.concat_map (fun b -> [ P.Batch.Compile b; P.Batch.Estimate b ]) blocks

let check_outcome_matches_serial env i outcome block =
  match outcome with
  | P.Batch.Compiled r ->
    let s = O.Optimizer.optimize env block in
    let ck what a b =
      if a <> b then Alcotest.failf "task %d: %s %d <> serial %d" i what a b
    in
    ck "joins" r.O.Optimizer.joins s.O.Optimizer.joins;
    ck "kept" r.O.Optimizer.kept s.O.Optimizer.kept;
    ck "entries" r.O.Optimizer.entries s.O.Optimizer.entries;
    ck "nljn" r.O.Optimizer.generated.O.Memo.nljn
      s.O.Optimizer.generated.O.Memo.nljn;
    ck "mgjn" r.O.Optimizer.generated.O.Memo.mgjn
      s.O.Optimizer.generated.O.Memo.mgjn;
    ck "hsjn" r.O.Optimizer.generated.O.Memo.hsjn
      s.O.Optimizer.generated.O.Memo.hsjn;
    (match (r.O.Optimizer.best, s.O.Optimizer.best) with
    | Some a, Some b ->
      if a.O.Plan.cost <> b.O.Plan.cost then
        Alcotest.failf "task %d: cost %f <> serial %f" i a.O.Plan.cost
          b.O.Plan.cost
    | None, None -> ()
    | Some _, None | None, Some _ -> Alcotest.failf "task %d: best mismatch" i)
  | P.Batch.Estimated e ->
    let s = Cote.Estimator.estimate env block in
    if
      (e.Cote.Estimator.joins, e.Cote.Estimator.nljn, e.Cote.Estimator.mgjn,
       e.Cote.Estimator.hsjn, e.Cote.Estimator.entries)
      <> (s.Cote.Estimator.joins, s.Cote.Estimator.nljn, s.Cote.Estimator.mgjn,
          s.Cote.Estimator.hsjn, s.Cote.Estimator.entries)
    then Alcotest.failf "task %d: estimate fields differ from serial" i

let batch_tests =
  [
    t "4-domain batch is byte-identical to 1-domain (serial env)" (fun () ->
        let tasks = tasks_of (corpus O.Env.serial) in
        let f d =
          P.Batch.fingerprint (P.Batch.run_batch ~domains:d O.Env.serial tasks)
        in
        Alcotest.(check string) "fingerprints" (f 1) (f 4));
    t "4-domain batch is byte-identical to 1-domain (parallel env)" (fun () ->
        let env = O.Env.parallel ~nodes:4 in
        let tasks = tasks_of (corpus env) in
        let f d = P.Batch.fingerprint (P.Batch.run_batch ~domains:d env tasks) in
        Alcotest.(check string) "fingerprints" (f 1) (f 4));
    t "batch outcomes equal direct serial calls, field by field" (fun () ->
        let env = O.Env.serial in
        let blocks = corpus env in
        let tasks = tasks_of blocks in
        let outcomes = P.Batch.run_batch ~domains:4 env tasks in
        List.iteri
          (fun i (task, outcome) ->
            let block =
              match task with P.Batch.Compile b | P.Batch.Estimate b -> b
            in
            check_outcome_matches_serial env i outcome block)
          (List.combine tasks outcomes));
    t "merged obs counters equal a serial run's" (fun () ->
        let env = O.Env.serial in
        let tasks = tasks_of (corpus env) in
        let names =
          [
            "enumerator.joins_feasible"; "plan_gen.plans.nljn";
            "plan_gen.plans.mgjn"; "plan_gen.plans.hsjn"; "plan_gen.plans.scan";
            "memo.entries"; "optimizer.queries"; "estimator.runs";
          ]
        in
        let reg = Obs.Registry.default in
        let deltas domains =
          let before =
            List.map (fun n -> Obs.Registry.counter_value reg n) names
          in
          Obs.Control.with_enabled true (fun () ->
              ignore (P.Batch.run_batch ~domains env tasks));
          List.map2
            (fun n b -> Obs.Registry.counter_value reg n - b)
            names before
        in
        let serial_d = deltas 1 in
        let par_d = deltas 4 in
        List.iteri
          (fun i n ->
            Alcotest.(check int)
              (Printf.sprintf "counter %s" n)
              (List.nth serial_d i) (List.nth par_d i))
          names);
    t "map: per-task rng depends only on (seed, index)" (fun () ->
        let items = List.init 64 Fun.id in
        let draw ~rng:r i = (i, Qopt_util.Rng.int r 1_000_000) in
        let d1 = P.Batch.map ~domains:1 ~seed:42 draw items in
        let d4 = P.Batch.map ~domains:4 ~seed:42 draw items in
        let d4' = P.Batch.map ~domains:4 ~seed:42 draw items in
        Alcotest.(check (list (pair int int))) "1 vs 4 domains" d1 d4;
        Alcotest.(check (list (pair int int))) "repeatable" d4 d4';
        let other = P.Batch.map ~domains:4 ~seed:43 draw items in
        Alcotest.(check bool) "seed matters" false (d1 = other));
    t "default_domains reads QOPT_DOMAINS" (fun () ->
        (* Only observable without mutating the environment: the parse
           itself is covered by construction; check the clamp contract. *)
        let d = P.Batch.default_domains () in
        Alcotest.(check bool) "within bounds" true
          (d >= 1 && d <= P.Pool.max_domains));
    t "shared Stmt_cache survives a 4-domain stress run" (fun () ->
        let env = O.Env.serial in
        let blocks = corpus env in
        let cache = Cote.Stmt_cache.create ~shared:true () in
        let n_items = 200 in
        let v = Obs.Registry.counter_value Obs.Registry.default in
        let lookups () = v "stmt_cache.hits" + v "stmt_cache.misses" in
        let l0 = lookups () in
        let results =
          Obs.Control.with_enabled true (fun () ->
              P.Batch.map ~domains:4
                (fun ~rng:_ i ->
                  let block = List.nth blocks (i mod List.length blocks) in
                  match Cote.Stmt_cache.lookup cache block with
                  | Some _ -> 1
                  | None ->
                    Cote.Stmt_cache.record cache block 0.1;
                    0)
                (List.init n_items Fun.id))
        in
        Alcotest.(check int) "every lookup accounted" n_items (lookups () - l0);
        Alcotest.(check int) "results arrived" n_items (List.length results);
        Alcotest.(check bool) "cache holds every distinct signature" true
          (Cote.Stmt_cache.size cache <= List.length blocks
          && Cote.Stmt_cache.size cache > 0));
  ]

(* ------------------------------------------------------------------ *)
(* On-demand helpers: spawn, retire, respawn                           *)
(* ------------------------------------------------------------------ *)

(* A reusable barrier for [parties] threads or domains. *)
let barrier parties =
  let m = Mutex.create () and c = Condition.create () in
  let arrived = ref 0 and round = ref 0 in
  fun () ->
    Mutex.protect m (fun () ->
        let r = !round in
        incr arrived;
        if !arrived = parties then begin
          arrived := 0;
          incr round;
          Condition.broadcast c
        end
        else
          while !round = r do
            Condition.wait c m
          done)

(* The pause before round [r] of participant [p], taken by every
   participant at once (after a barrier): none before round 0; before
   round 1 well past the idle spell, so the domains retire and the round
   respawns them; before later rounds the spell plus 0-4 ms, so the first
   posts race a 2 ms tick's retirement. *)
let gap ~round ~p =
  if round = 0 then 0.0
  else if round = 1 then P.Crew.idle_spell_s +. 0.05
  else P.Crew.idle_spell_s +. (0.002 *. float_of_int p)

(* A tick far faster than a server's, counting the calls that left fewer
   domains live than they found. *)
let fast_ticker ~live ~retire_idle =
  let stop = Atomic.make false and retirements = ref 0 in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let before = live () in
          retire_idle ();
          if live () < before then incr retirements;
          Thread.delay 0.002
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    !retirements

(* Past the idle spell, then one tick: every sleeping helper retires. *)
let retire_all pool =
  Thread.delay (P.Crew.idle_spell_s +. 0.05);
  P.Pool.retire_idle pool

let lifecycle_tests =
  [
    t "a pool whose helpers retired answers run bit for bit" (fun () ->
        let pool = P.Pool.create ~helpers:2 ~first_slot:1 () in
        Fun.protect
          ~finally:(fun () -> P.Pool.close pool)
          (fun () ->
            Alcotest.(check int) "no helper before the first batch" 0 (P.Pool.live pool);
            let blocks =
              List.map (fun (q : W.Workload.query) -> q.W.Workload.block)
                (W.Tpch.all ~partitioned:false).W.Workload.queries
            in
            let compile_all () =
              List.map
                (fun b -> T_parallel_gen.outcome O.Env.serial ~runner:(P.Pool.run pool) b)
                blocks
            in
            let serial = List.map (T_parallel_gen.outcome O.Env.serial) blocks in
            let first = compile_all () in
            Alcotest.(check bool) "helpers spawned" true (P.Pool.live pool > 0);
            retire_all pool;
            Alcotest.(check int) "every helper retired" 0 (P.Pool.live pool);
            let again = compile_all () in
            Alcotest.(check bool) "helpers respawned" true (P.Pool.live pool > 0);
            Alcotest.(check (list string)) "before retirement = serial" serial first;
            Alcotest.(check (list string)) "after respawn = serial" serial again));
    t "concurrent submitters across a retire and a respawn lose no task" (fun () ->
        let pool = P.Pool.create ~helpers:2 ~first_slot:1 () in
        let stop_ticker =
          fast_ticker
            ~live:(fun () -> P.Pool.live pool)
            ~retire_idle:(fun () -> P.Pool.retire_idle pool)
        in
        let n = 64 and rounds = 4 and batches = 20 and submitters = 3 in
        let sync = barrier submitters in
        let submitter s () =
          let lost = ref 0 in
          for round = 0 to rounds - 1 do
            sync ();
            Thread.delay (gap ~round ~p:s);
            for _ = 1 to batches do
              let hits = Array.init n (fun _ -> Atomic.make 0) in
              P.Pool.run pool n (fun i -> Atomic.incr hits.(i));
              Array.iter (fun h -> if Atomic.get h <> 1 then incr lost) hits
            done
          done;
          !lost
        in
        let subs = List.init submitters (fun s -> Domain.spawn (submitter s)) in
        let lost = List.fold_left (fun acc d -> acc + Domain.join d) 0 subs in
        let retirements = stop_ticker () in
        P.Pool.close pool;
        Alcotest.(check int) "every task ran exactly once" 0 lost;
        Alcotest.(check bool) "the helpers retired between rounds" true (retirements > 0);
        Alcotest.(check int) "close joined every helper" 0 (P.Pool.live pool));
    t "a crew runs each demanded item once, within its cap, across retirements"
      (fun () ->
        let q = Queue.create () and ql = Mutex.create () in
        let cap = 3 and producers = 3 and bursts = 4 and per_burst = 40 in
        let n = producers * bursts * per_burst in
        let ran = Array.init n (fun _ -> Atomic.make 0) in
        let running = Atomic.make 0 and peak = Atomic.make 0 in
        let crew =
          P.Crew.create ~cap ~first_slot:1
            ~poll:(fun _ -> Mutex.protect ql (fun () -> Queue.take_opt q))
            ~work:(fun _ i ->
              let r = 1 + Atomic.fetch_and_add running 1 in
              let rec raise_peak () =
                let p = Atomic.get peak in
                if r > p && not (Atomic.compare_and_set peak p r) then raise_peak ()
              in
              raise_peak ();
              Atomic.incr ran.(i);
              Thread.yield ();
              Atomic.decr running)
            ()
        in
        let stop_ticker =
          fast_ticker
            ~live:(fun () -> P.Crew.live crew)
            ~retire_idle:(fun () -> P.Crew.retire_idle crew)
        in
        let sync = barrier producers in
        let producer p () =
          for b = 0 to bursts - 1 do
            sync ();
            Thread.delay (gap ~round:b ~p);
            for k = 0 to per_burst - 1 do
              Mutex.protect ql (fun () ->
                  Queue.push ((((p * bursts) + b) * per_burst) + k) q);
              P.Crew.demand crew 1
            done
          done
        in
        let ps = List.init producers (fun p -> Thread.create (producer p) ()) in
        List.iter Thread.join ps;
        (* Every push demanded a domain, so a live one drains the queue. *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while
          Mutex.protect ql (fun () -> not (Queue.is_empty q))
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.001
        done;
        let drained = Mutex.protect ql (fun () -> Queue.is_empty q) in
        let retirements = stop_ticker () in
        P.Crew.close crew;
        Alcotest.(check bool) "the queue drained before close woke anyone" true drained;
        Alcotest.(check (list int)) "every item ran exactly once" (List.init n (fun _ -> 1))
          (Array.to_list (Array.map Atomic.get ran));
        Alcotest.(check bool) "never more domains working than the cap" true
          (Atomic.get peak <= cap);
        Alcotest.(check bool) "domains retired between bursts" true (retirements > 0);
        Alcotest.(check int) "close joined every domain" 0 (P.Crew.live crew));
    t "close joins every domain, including when it races a spawn" (fun () ->
        for _ = 1 to 20 do
          let pool = P.Pool.create ~helpers:3 ~first_slot:1 () in
          let sum = Atomic.make 0 in
          let submitter =
            Domain.spawn (fun () ->
                P.Pool.run pool 100 (fun i -> ignore (Atomic.fetch_and_add sum i)))
          in
          P.Pool.close pool;
          Alcotest.(check int) "closed pool has no live helper" 0 (P.Pool.live pool);
          Domain.join submitter;
          Alcotest.(check int) "the racing batch still ran whole" 4950 (Atomic.get sum);
          Alcotest.(check int) "nothing spawned after close" 0 (P.Pool.live pool)
        done);
  ]

let suite = deque_tests @ pool_tests @ batch_tests @ lifecycle_tests
