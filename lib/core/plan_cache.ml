module O = Qopt_optimizer
module Obs = Qopt_obs

(* Process-wide metrics shared by every cache instance, like Stmt_cache's
   (no-ops unless Qopt_obs collection is on). *)
let m_hits = Obs.Registry.counter Obs.Registry.default "plan_cache.hits"

let m_misses = Obs.Registry.counter Obs.Registry.default "plan_cache.misses"

let m_invalidations =
  Obs.Registry.counter Obs.Registry.default "plan_cache.invalidations"

let m_evictions = Obs.Registry.counter Obs.Registry.default "plan_cache.evictions"

let m_size = Obs.Registry.gauge Obs.Registry.default "plan_cache.size"

type config = {
  slack : float;
  capacity : int;
}

let default_config = { slack = 0.5; capacity = 512 }

type invalidation =
  | Envelope
  | Stats_generation

let invalidation_string = function
  | Envelope -> "envelope"
  | Stats_generation -> "stats_generation"

type 'a outcome =
  | Hit of { plan : O.Plan.t; payload : 'a }
  | Miss
  | Invalidated of invalidation

type 'a entry = {
  e_plan : O.Plan.t;
  e_payload : 'a;
  e_envelope : (string * float * float) array;
      (* (pred signature, lo, hi), sorted — the validity region *)
  e_deps : (string * int) array;  (* dependent table, generation at store *)
}

(* A shared cache is {!Striped} like {!Stmt_cache}; each stripe is a
   self-contained cache — its own {!Striped.Lru} of its capacity share and
   its own copy of the per-table statistics generations.  Duplicating the
   generations per stripe keeps every lookup single-lock (no shared
   generation table to consult); {!bump_stats} walks the stripes one at a
   time, so a lookup racing a bump sees each stripe either before or
   after its flush — never a torn state within one stripe. *)
type 'a stripe = {
  tbl : (string, 'a entry) Striped.Lru.t;
  gens : (string, int) Hashtbl.t;  (* per-table statistics generation *)
}

type 'a t = {
  cfg : config;
  strs : 'a stripe Striped.t;
}

let create ?(shared = false) ?(config = default_config) () =
  {
    cfg = config;
    strs =
      Striped.create ~shared ~capacity:config.capacity "plan_cache" (fun cap ->
          { tbl = Striped.Lru.create cap; gens = Hashtbl.create 16 });
  }

(* Estimated selectivity of every local predicate across all blocks,
   labelled by predicate signature and sorted: duplicate signatures (the
   same column compared twice) pair up positionally, smallest selectivity
   first, on both the store and the lookup side. *)
let selectivities block =
  let acc = ref [] in
  O.Query_block.iter_blocks
    (fun b ->
      List.iter
        (fun p ->
          if not (O.Pred.is_join p) then
            acc :=
              ( Stmt_cache.pred_signature b p,
                O.Cardinality.local_selectivity O.Cardinality.Full b p )
              :: !acc)
        b.O.Query_block.preds)
    block;
  Array.of_list (List.sort compare !acc)

let dep_tables block =
  let acc = ref [] in
  O.Query_block.iter_blocks
    (fun b ->
      for q = 0 to O.Query_block.n_quantifiers b - 1 do
        acc :=
          (O.Query_block.quantifier b q).O.Quantifier.table
            .Qopt_catalog.Table.name
          :: !acc
      done)
    block;
  List.sort_uniq String.compare !acc

let generation_unlocked s name =
  Option.value ~default:0 (Hashtbl.find_opt s.gens name)

let size t = Striped.fold t.strs (fun acc s -> acc + Striped.Lru.length s.tbl) 0

(* The size gauge needs a cross-stripe sweep; refresh it outside any
   stripe lock so no operation ever holds two locks. *)
let set_size t = if !Obs.Control.on then Obs.Gauge.set m_size (float_of_int (size t))

let store t ?key block ~plan payload =
  let key = match key with Some k -> k | None -> Stmt_cache.signature block in
  (* Selectivity estimation is pure over the block and the (immutable)
     histograms it references: compute outside the lock. *)
  let envelope =
    Array.map
      (fun (sg, s) -> (sg, s *. (1.0 -. t.cfg.slack), s *. (1.0 +. t.cfg.slack)))
      (selectivities block)
  in
  let deps = dep_tables block in
  Striped.with_key t.strs key (fun s ->
      let e =
        {
          e_plan = plan;
          e_payload = payload;
          e_envelope = envelope;
          e_deps =
            Array.of_list
              (List.map (fun n -> (n, generation_unlocked s n)) deps);
        }
      in
      if Striped.Lru.replace s.tbl key e then Obs.Counter.incr m_evictions);
  set_size t

let within_envelope sels env =
  Array.length sels = Array.length env
  &&
  let ok = ref true in
  Array.iteri
    (fun i (sg, s) ->
      let sg', lo, hi = env.(i) in
      if not (String.equal sg sg' && lo <= s && s <= hi) then ok := false)
    sels;
  !ok

let revalidate e sels gen_of =
  if Array.exists (fun (n, g) -> gen_of n <> g) e.e_deps then
    Some Stats_generation
  else if not (within_envelope sels e.e_envelope) then Some Envelope
  else None

let lookup t ?key block =
  let key = match key with Some k -> k | None -> Stmt_cache.signature block in
  let sels = selectivities block in
  let outcome =
    Striped.with_key t.strs key (fun s ->
        (* [find] touches the entry; an invalid one is removed anyway. *)
        match Striped.Lru.find s.tbl key with
        | None ->
          Obs.Counter.incr m_misses;
          Miss
        | Some e -> (
          match revalidate e sels (generation_unlocked s) with
          | Some why ->
            Striped.Lru.remove s.tbl key;
            Obs.Counter.incr m_invalidations;
            Invalidated why
          | None ->
            Obs.Counter.incr m_hits;
            Hit { plan = e.e_plan; payload = e.e_payload }))
  in
  (match outcome with Invalidated _ -> set_size t | Hit _ | Miss -> ());
  outcome

let bump_stats t table =
  let flushed =
    Striped.fold t.strs
      (fun acc s ->
        Hashtbl.replace s.gens table (generation_unlocked s table + 1);
        let victims =
          Striped.Lru.fold
            (fun k e acc ->
              if Array.exists (fun (n, _) -> String.equal n table) e.e_deps
              then k :: acc
              else acc)
            s.tbl []
        in
        List.iter (Striped.Lru.remove s.tbl) victims;
        acc + List.length victims)
      0
  in
  if flushed > 0 then begin
    Obs.Counter.add m_invalidations flushed;
    set_size t
  end;
  flushed

(* Every stripe's generations move in lock step under {!bump_stats}, so
   any one stripe answers for the cache: the table name's own. *)
let generation t name =
  Striped.with_key t.strs name (fun s -> generation_unlocked s name)

let envelope t key =
  Striped.with_key t.strs key (fun s ->
      Option.map (fun e -> Array.to_list e.e_envelope) (Striped.Lru.peek s.tbl key))
