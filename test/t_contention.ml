(* Contention stress for the striped shared caches.  Every invariant here
   is one a torn or lost update would break: exact accounting (hits +
   misses = lookups), no lost updates across domains, the LRU capacity
   bound under concurrent stores, bit-for-bit equality between plans
   served from cache under 4-domain stress and the serial compile, and
   the lock-audit counters reconciling with the traffic that produced
   them. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module P = Qopt_par
module Obs = Qopt_obs

let t name f = Alcotest.test_case name `Quick f

let env = O.Env.serial

(* A hot set small enough that four domains collide on stripes constantly,
   with each block's serially chosen plan as the reference answer. *)
let material =
  lazy
    (let blocks =
       Array.of_list
         (List.concat_map
            (fun wl ->
              List.map
                (fun (q : W.Workload.query) -> q.W.Workload.block)
                (Qopt_experiments.Common.workload env wl).W.Workload.queries)
            [ "linear"; "star" ])
     in
     let plans =
       Array.map
         (fun b ->
           match (O.Optimizer.optimize env b).O.Optimizer.best with
           | Some p -> p
           | None -> Alcotest.fail "corpus block has no plan")
         blocks
     in
     let keys = Array.map Cote.Stmt_cache.signature blocks in
     (blocks, plans, keys))

(* Bit-for-bit plan identity: the compact rendering plus the raw cost
   bits (compare exact, not within epsilon). *)
let plan_bits p =
  Printf.sprintf "%s#%Lx"
    (Format.asprintf "%a" O.Plan.pp_compact p)
    (Int64.bits_of_float p.O.Plan.cost)

type stress = {
  stmt_hit : int;
  stmt_miss : int;
  plan_hit : int;
  plan_miss : int;
  plan_inv : int;
  bad_plan : int;  (* cache hits whose plan or payload differed from serial *)
}

(* The serving-shaped op: one stmt-cache probe-or-record plus one
   plan-cache probe-or-store, against caches shared by all domains.  The
   plan-cache payload is the block index, so a hit can verify it was
   served the entry stored under its own key. *)
let stress ~domains ~total () =
  let blocks, plans, keys = Lazy.force material in
  let nb = Array.length blocks in
  let cache = Cote.Stmt_cache.create ~shared:true () in
  let pcache = Cote.Plan_cache.create ~shared:true () in
  let outcomes =
    P.Pool.map_indexed ~domains total (fun i ->
        let j = i mod nb in
        let s =
          match Cote.Stmt_cache.lookup cache blocks.(j) with
          | Some _ -> `Hit
          | None ->
            Cote.Stmt_cache.record cache blocks.(j) 1e-3;
            `Miss
        in
        let p =
          match Cote.Plan_cache.lookup pcache ~key:keys.(j) blocks.(j) with
          | Cote.Plan_cache.Hit { plan; payload } ->
            if payload = j && String.equal (plan_bits plan) (plan_bits plans.(j))
            then `Hit
            else `Bad
          | Cote.Plan_cache.Miss ->
            Cote.Plan_cache.store pcache ~key:keys.(j) blocks.(j)
              ~plan:plans.(j) j;
            `Miss
          | Cote.Plan_cache.Invalidated _ -> `Inv
        in
        (s, p))
  in
  let tally =
    Array.fold_left
      (fun acc (s, p) ->
        {
          stmt_hit = (acc.stmt_hit + match s with `Hit -> 1 | `Miss -> 0);
          stmt_miss = (acc.stmt_miss + match s with `Hit -> 0 | `Miss -> 1);
          plan_hit = (acc.plan_hit + match p with `Hit -> 1 | _ -> 0);
          plan_miss = (acc.plan_miss + match p with `Miss -> 1 | _ -> 0);
          plan_inv = (acc.plan_inv + match p with `Inv -> 1 | _ -> 0);
          bad_plan = (acc.bad_plan + match p with `Bad -> 1 | _ -> 0);
        })
      {
        stmt_hit = 0;
        stmt_miss = 0;
        plan_hit = 0;
        plan_miss = 0;
        plan_inv = 0;
        bad_plan = 0;
      }
      outcomes
  in
  (cache, pcache, tally)

(* Registry readings of the caches' process-wide counters; the tests
   that compare them run with collection on and take deltas. *)
let counter = Obs.Registry.counter_value Obs.Registry.default

let lookups () =
  ( counter "stmt_cache.hits" + counter "stmt_cache.misses",
    counter "plan_cache.hits" + counter "plan_cache.misses"
    + counter "plan_cache.invalidations" )

let check_accounting ~domains () =
  let total = 2_000 in
  let blocks, plans, keys = Lazy.force material in
  let nb = Array.length blocks in
  let s0, p0 = lookups () in
  let cache, pcache, y =
    Obs.Control.with_enabled true (fun () -> stress ~domains ~total ())
  in
  let s1, p1 = lookups () in
  (* Exact accounting: every lookup landed in exactly one bucket, both as
     seen by the callers and as counted by the caches. *)
  Alcotest.(check int) "stmt hits+misses = lookups" total (y.stmt_hit + y.stmt_miss);
  Alcotest.(check int) "stmt cache counters agree" total (s1 - s0);
  Alcotest.(check int)
    "plan hits+misses+invalidations = lookups" total
    (y.plan_hit + y.plan_miss + y.plan_inv + y.bad_plan);
  Alcotest.(check int) "plan cache counters agree" total (p1 - p0);
  (* Stable environment, no stats bumps: nothing may invalidate. *)
  Alcotest.(check int) "no invalidations" 0 y.plan_inv;
  (* Every served hit was the serial plan with the right payload. *)
  Alcotest.(check int) "every hit bit-identical to serial" 0 y.bad_plan;
  (* No lost updates: after the dust settles every key is present, and a
     final probe serves exactly the serially chosen plan. *)
  Array.iteri
    (fun j b ->
      (match Cote.Stmt_cache.lookup cache b with
      | Some v -> Alcotest.(check (float 0.0)) "recorded time survives" 1e-3 v
      | None -> Alcotest.failf "stmt entry %d lost" j);
      match Cote.Plan_cache.lookup pcache ~key:keys.(j) b with
      | Cote.Plan_cache.Hit { plan; payload } ->
        Alcotest.(check int) "payload survives" j payload;
        Alcotest.(check string)
          "plan bit-for-bit" (plan_bits plans.(j)) (plan_bits plan)
      | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ ->
        Alcotest.failf "plan entry %d lost" j)
    blocks;
  Alcotest.(check int) "stmt cache holds every signature" nb
    (Cote.Stmt_cache.size cache);
  Alcotest.(check int) "plan cache holds every key" nb
    (Cote.Plan_cache.size pcache)

(* The striping rule under both caches, over every capacity a config can
   plausibly carry: exact capacity shares, the stripe-count rule, stable
   key routing, and a fold that visits each stripe exactly once. *)
type probe = { id : int; share : int; mutable visits : int }

let striped_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Striped: shares, stripe count, routing, fold"
       ~count:300
       QCheck2.Gen.(
         triple (int_range 1 600) bool (list_size (int_range 0 20) (small_string ?gen:None)))
       (fun (capacity, shared, keys) ->
         let n = Cote.Striped.count ~shared ~capacity in
         let shares = List.init n (Cote.Striped.share ~capacity ~count:n) in
         let next = ref 0 in
         let st =
           Cote.Striped.create ~shared ~capacity "stmt_cache" (fun share ->
               incr next;
               { id = !next - 1; share; visits = 0 })
         in
         let visited =
           Cote.Striped.fold st
             (fun acc p ->
               p.visits <- p.visits + 1;
               (p.id, p.share) :: acc)
             []
         in
         let route k = Cote.Striped.with_key st k (fun p -> p.id) in
         n = (if shared then min 8 capacity else 1)
         && List.fold_left ( + ) 0 shares = capacity
         && List.for_all (fun c -> c >= 1) shares
         && List.fold_left max 0 shares - List.fold_left min capacity shares <= 1
         && List.rev visited = List.mapi (fun i c -> (i, c)) shares
         && Cote.Striped.fold st (fun ok p -> ok && p.visits = 1) true
         && List.for_all
              (fun k -> route k = Hashtbl.hash k mod n && route k = route k)
              keys))

(* The bounded stripe every cache keeps, against a reference model: an
   association list, most recently used first, that a new key into a
   full table cuts to the capacity.  [find] and [replace] touch; [peek],
   [mem] and [remove] leave the order alone. *)
type lru_op =
  | Find of int
  | Peek of int
  | Replace of int * int
  | Remove of int

let lru_property =
  let module L = Cote.Striped.Lru in
  let key = QCheck2.Gen.int_range 0 7 in
  let op =
    QCheck2.Gen.(
      oneof
        [
          map (fun k -> Find k) key;
          map (fun k -> Peek k) key;
          map2 (fun k v -> Replace (k, v)) key small_nat;
          map (fun k -> Remove k) key;
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Striped.Lru: matches a most-recent-first list" ~count:300
       QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 60) op))
       (fun (cap, ops) ->
         let l = L.create cap in
         let model = ref [] in
         let step = function
           | Find k ->
             let want = List.assoc_opt k !model in
             Option.iter (fun v -> model := (k, v) :: List.remove_assoc k !model) want;
             L.find l k = want
           | Peek k -> L.peek l k = List.assoc_opt k !model && L.mem l k = List.mem_assoc k !model
           | Replace (k, v) ->
             let rest = List.remove_assoc k !model in
             let evicts = (not (List.mem_assoc k !model)) && List.length rest >= cap in
             model := (k, v) :: (if evicts then List.filteri (fun i _ -> i < cap - 1) rest else rest);
             L.replace l k v = evicts
           | Remove k ->
             L.remove l k;
             model := List.remove_assoc k !model;
             true
         in
         List.for_all (fun o -> step o && L.length l = List.length !model) ops
         && List.sort compare (L.fold (fun k v acc -> (k, v) :: acc) l [])
            = List.sort compare !model))

let suite =
  [
    striped_property;
    lru_property;
    t "4-domain striped stress: accounting, lost updates, plan identity"
      (check_accounting ~domains:4);
    t "serial run through the striped cache is deterministic" (fun () ->
        (* At one domain the hit/miss split is exact: first touch of each
           key misses, every revisit hits. *)
        let total = 500 in
        let blocks, _, _ = Lazy.force material in
        let nb = Array.length blocks in
        let _, _, y = stress ~domains:1 ~total () in
        Alcotest.(check int) "misses" nb y.stmt_miss;
        Alcotest.(check int) "hits" (total - nb) y.stmt_hit;
        Alcotest.(check int) "plan misses" nb y.plan_miss);
    t "concurrent stores never break the LRU capacity bound" (fun () ->
        let blocks, plans, _ = Lazy.force material in
        let total = 600 in
        (* Capacity 8 fills all 8 stripes with one entry each; capacity 3
           caps the cache at 3 stripes. *)
        List.iter
          (fun capacity ->
            let pcache =
              Cote.Plan_cache.create ~shared:true
                ~config:{ Cote.Plan_cache.slack = 0.5; capacity }
                ()
            in
            let e0 = counter "plan_cache.evictions"
            and m0 = counter "plan_cache.misses" in
            (* Distinct key per op: every lookup misses and every store
               lands in a full stripe once warm, so eviction runs
               constantly under four domains. *)
            Obs.Control.with_enabled true (fun () ->
                let (_ : unit array) =
                  P.Pool.map_indexed ~domains:4 total (fun i ->
                      let key = Printf.sprintf "k%d" i in
                      match Cote.Plan_cache.lookup pcache ~key blocks.(0) with
                      | Cote.Plan_cache.Hit _ -> ()
                      | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ ->
                        Cote.Plan_cache.store pcache ~key blocks.(0)
                          ~plan:plans.(0) ())
                in
                ());
            let size = Cote.Plan_cache.size pcache in
            Alcotest.(check bool)
              (Printf.sprintf "size %d <= capacity %d" size capacity)
              true (size <= capacity);
            (* Each stripe evicts exactly on overflow: stores - resident =
               evictions, with no slack for double-frees or lost
               evictions. *)
            Alcotest.(check int) "evictions reconcile exactly" (total - size)
              (counter "plan_cache.evictions" - e0);
            Alcotest.(check int) "misses = distinct keys" total
              (counter "plan_cache.misses" - m0))
          [ 8; 3 ]);
    t "lock audit reconciles with the traffic that produced it" (fun () ->
        let reg = Obs.Registry.default in
        let acq () = Obs.Registry.counter_value reg "lock.stmt_cache.acquisitions" in
        let contended () = Obs.Registry.counter_value reg "lock.stmt_cache.contended" in
        let wait = Obs.Registry.histogram reg "lock.stmt_cache.wait_s" in
        let total = 1_000 in
        let a0 = acq () and c0 = contended () and n0 = Obs.Histo.count wait in
        let s0 = Obs.Histo.sum wait in
        Obs.Control.with_enabled true (fun () ->
            let _, _, y = stress ~domains:4 ~total () in
            ignore y);
        let da = acq () - a0 and dc = contended () - c0 in
        (* Every op acquires a stmt-cache stripe at least once (the
           lookup), misses acquire again to record. *)
        Alcotest.(check bool)
          (Printf.sprintf "acquisitions %d >= ops %d" da total)
          true (da >= total);
        Alcotest.(check bool) "contended subset of acquisitions" true
          (dc >= 0 && dc <= da);
        (* The wait histogram records one observation per instrumented
           acquire — zero for the uncontended ones — so count tracks
           acquisitions and sum stays finite and non-negative. *)
        Alcotest.(check int) "one wait observation per acquisition" da
          (Obs.Histo.count wait - n0);
        let dw = Obs.Histo.sum wait -. s0 in
        Alcotest.(check bool) "wait sum sane" true (dw >= 0.0 && Float.is_finite dw));
    t "disabled obs leaves the audit untouched" (fun () ->
        let reg = Obs.Registry.default in
        let acq () = Obs.Registry.counter_value reg "lock.stmt_cache.acquisitions" in
        let before = acq () in
        Obs.Control.with_enabled false (fun () ->
            let _, _, y = stress ~domains:2 ~total:200 () in
            Alcotest.(check int) "stress still correct" 200
              (y.stmt_hit + y.stmt_miss));
        Alcotest.(check int) "no acquisitions recorded" before (acq ()));
  ]
