module Bitset = Qopt_util.Bitset
module Obs = Qopt_obs

(* Process-wide MEMO metrics (no-ops unless Qopt_obs is enabled). *)
let m_entries = Obs.Registry.counter Obs.Registry.default "memo.entries"

let m_inserted = Obs.Registry.counter Obs.Registry.default "memo.plans_inserted"

let m_pruned = Obs.Registry.counter Obs.Registry.default "memo.plans_pruned"

let m_dom_checks =
  Obs.Registry.counter Obs.Registry.default "memo.dominance_checks"

let m_list_len = Obs.Registry.histogram Obs.Registry.default "memo.plan_list_len"

let m_order_len = Obs.Registry.histogram Obs.Registry.default "memo.order_list_len"

type counts = {
  mutable nljn : int;
  mutable mgjn : int;
  mutable hsjn : int;
}

let counts_zero () = { nljn = 0; mgjn = 0; hsjn = 0 }

let counts_total c = c.nljn + c.mgjn + c.hsjn

let counts_get c = function
  | Join_method.NLJN -> c.nljn
  | Join_method.MGJN -> c.mgjn
  | Join_method.HSJN -> c.hsjn

let counts_add c m n =
  match m with
  | Join_method.NLJN -> c.nljn <- c.nljn + n
  | Join_method.MGJN -> c.mgjn <- c.mgjn + n
  | Join_method.HSJN -> c.hsjn <- c.hsjn + n

(* The per-plan property signature is fully interned: the normalized order
   and the canonical partition key live in the owning MEMO's [Prop_id]
   table, so dominance tests are integer comparisons and never walk a
   column list. *)
type saved_plan = {
  sp_plan : Plan.t;
  sp_norm : int;
  sp_osig : int;
  sp_pkey : int;
  sp_pint : bool;
  sp_pipe : bool;
}

(* Cached answer of one [best_plan_satisfying] query: the canonical columns
   of the queried order (for re-testing newly inserted plans) and the
   current cheapest satisfying plan.  Maintained incrementally on insert;
   the binding is evicted when its plan is dominance-dropped. *)
type sat_slot = {
  ss_kind : Order_prop.kind;
  ss_cols : Colref.t list;
  mutable ss_best : saved_plan option;
}

type entry = {
  tables : Bitset.t;
  mutable saved : saved_plan array;
  mutable n_saved : int;
  mutable best : saved_plan option;
  mutable best_pipe : saved_plan option;
  sat_cache : (int, sat_slot) Hashtbl.t;
  osig_cache : (int, int) Hashtbl.t;
  pprop_cache : (int, int * bool) Hashtbl.t;
  mutable width_cache : float;
  mutable card_cache : float option;
  mutable equiv_cache : Equiv.t option;
  mutable app_orders_cache : Order_prop.t list option;
  mutable app_canon_cache : (Order_prop.kind * Colref.t list) list option;
  mutable neigh_cache : Bitset.t option;
  mutable i_orders : Order_prop.t list;
  mutable i_parts : Partition_prop.t list;
  mutable i_pipe : bool;
  mutable propagated_once : bool;
}

type stats = {
  mutable entries_created : int;
  mutable joins_enumerated : int;
  generated : counts;
  mutable scan_plans : int;
  mutable pruned : int;
}

(* Per-size entry storage: a growable array in creation order, so the
   enumerator's inner loops walk a flat array instead of re-materializing a
   [List.rev] of a prepend list on every (size, split) visit. *)
type bucket = {
  mutable items : entry array;
  mutable len : int;
}

let bucket_push b e =
  if b.len = Array.length b.items then begin
    let grown = Array.make (max 8 (2 * Array.length b.items)) e in
    Array.blit b.items 0 grown 0 b.len;
    b.items <- grown
  end;
  b.items.(b.len) <- e;
  b.len <- b.len + 1

(* A forked view ([fork]) shares every structure of its parent but counts
   into its own [kept] and [sts], and is [shared]: it takes [intern_lock]
   around the property table and [sat_lock] around the satisfying-plan
   caches of finished entries, the two structures that tasks on other
   domains touch at the same time.  The parent itself never locks. *)
type t = {
  blk : Query_block.t;
  tbl : (int, entry) Hashtbl.t;
  by_size : bucket array; (* creation order per size *)
  intern : Prop_id.t;
  q_orders : Order_prop.t list option array;
      (* per quantifier: [Interesting.orders_for_table], derived once *)
  mutable kept : int; (* running kept-plan count across all entries *)
  mutable sel : Cardinality.ctx option; (* created by the first estimate *)
  sts : stats;
  shared : bool;
  intern_lock : Mutex.t;
  sat_lock : Mutex.t;
}

let fresh_stats () =
  {
    entries_created = 0;
    joins_enumerated = 0;
    generated = counts_zero ();
    scan_plans = 0;
    pruned = 0;
  }

let create blk =
  let n = Query_block.n_quantifiers blk in
  {
    blk;
    tbl = Hashtbl.create 256;
    by_size = Array.init (n + 1) (fun _ -> { items = [||]; len = 0 });
    intern = Prop_id.create ();
    q_orders = Array.make n None;
    kept = 0;
    sel = None;
    sts = fresh_stats ();
    shared = false;
    intern_lock = Mutex.create ();
    sat_lock = Mutex.create ();
  }

let fork t = { t with kept = 0; sts = fresh_stats (); shared = true }

(* A view creates no entries, enumerates no joins and plans no scans:
   its join plans are all it adds. *)
let absorb t view =
  t.kept <- t.kept + view.kept;
  let s = t.sts and v = view.sts in
  counts_add s.generated Join_method.NLJN v.generated.nljn;
  counts_add s.generated Join_method.MGJN v.generated.mgjn;
  counts_add s.generated Join_method.HSJN v.generated.hsjn;
  s.pruned <- s.pruned + v.pruned

let block t = t.blk

let stats t = t.sts

let intern_cols t cols =
  if t.shared then
    Mutex.protect t.intern_lock (fun () -> Prop_id.id_of_cols t.intern cols)
  else Prop_id.id_of_cols t.intern cols

let cols_of_id t id =
  if t.shared then
    Mutex.protect t.intern_lock (fun () -> Prop_id.cols_of_id t.intern id)
  else Prop_id.cols_of_id t.intern id

let find_opt t set = Hashtbl.find_opt t.tbl (Bitset.to_int set)

let find_or_create t set =
  match find_opt t set with
  | Some e -> (e, false)
  | None ->
    let e =
      {
        tables = set;
        saved = [||];
        n_saved = 0;
        best = None;
        best_pipe = None;
        sat_cache = Hashtbl.create 4;
        osig_cache = Hashtbl.create 8;
        pprop_cache = Hashtbl.create 4;
        width_cache = -1.0;
        card_cache = None;
        equiv_cache = None;
        app_orders_cache = None;
        app_canon_cache = None;
        neigh_cache = None;
        i_orders = [];
        i_parts = [];
        i_pipe = false;
        propagated_once = false;
      }
    in
    Hashtbl.add t.tbl (Bitset.to_int set) e;
    bucket_push t.by_size.(Bitset.cardinal set) e;
    t.sts.entries_created <- t.sts.entries_created + 1;
    Obs.Counter.incr m_entries;
    (e, true)

let iter_entries_of_size t k f =
  if k >= 0 && k < Array.length t.by_size then begin
    let b = t.by_size.(k) in
    (* Snapshot the length: entries created by the caller while iterating
       always have a strictly larger size, but freezing [len] keeps the
       traversal independent of that invariant. *)
    let len = b.len in
    for i = 0 to len - 1 do
      f b.items.(i)
    done
  end

let neighborhood t (e : entry) =
  match e.neigh_cache with
  | Some nb -> nb
  | None ->
    let nb =
      Bitset.diff
        (Bitset.fold
           (fun q acc -> Bitset.union acc (Query_block.neighbors t.blk q))
           e.tables Bitset.empty)
        e.tables
    in
    e.neigh_cache <- Some nb;
    nb

let iter_entries f t = Hashtbl.iter (fun _ e -> f e) t.tbl

let n_entries t = Hashtbl.length t.tbl

let equiv_of t e =
  match e.equiv_cache with
  | Some eq -> eq
  | None ->
    let preds =
      List.filter
        (fun p -> Pred.is_join p && Pred.applicable_within p e.tables)
        t.blk.Query_block.preds
    in
    let eq = Equiv.of_preds preds in
    e.equiv_cache <- Some eq;
    eq

let selectivity t mode =
  match t.sel with
  | Some c when Cardinality.ctx_mode c = mode -> c
  | Some _ | None ->
    let c = Cardinality.context mode t.blk in
    t.sel <- Some c;
    c

let card_of t mode e =
  match e.card_cache with
  | Some c -> c
  | None ->
    let c = Cardinality.card (selectivity t mode) e.tables in
    e.card_cache <- Some c;
    c

let width_of t e =
  if e.width_cache >= 0.0 then e.width_cache
  else begin
    let w = Cost_model.row_width t.blk e.tables in
    e.width_cache <- w;
    w
  end

(* The interesting orders applicable to (and unretired at) the entry, and
   their canonical (equivalence-normalized, groupings sorted) column lists
   for cheap per-plan signatures: derived together, once per entry. *)
let orders_for_table t q =
  match t.q_orders.(q) with
  | Some l -> l
  | None ->
    let l = Interesting.orders_for_table t.blk q in
    t.q_orders.(q) <- Some l;
    l

let derive_applicable t e =
  let equiv = equiv_of t e in
  let candidates =
    Bitset.fold
      (fun q acc ->
        List.fold_left
          (fun acc o ->
            if Interesting.order_retired t.blk equiv ~tables:e.tables o then acc
            else o :: acc)
          acc
          (orders_for_table t q))
      e.tables []
  in
  let kept = Order_prop.dedup_canonical equiv (List.rev candidates) in
  let orders = List.map fst kept in
  e.app_orders_cache <- Some orders;
  e.app_canon_cache <-
    Some (List.map (fun ((o : Order_prop.t), cols) -> (o.Order_prop.kind, cols)) kept);
  orders

let applicable_orders t e =
  match e.app_orders_cache with
  | Some l -> l
  | None -> derive_applicable t e

let applicable_canon t e =
  match e.app_canon_cache with
  | Some l -> l
  | None ->
    ignore (derive_applicable t e);
    Option.get e.app_canon_cache

let rec is_prefix want have =
  match (want, have) with
  | [], _ -> true
  | _ :: _, [] -> false
  | w :: want', h :: have' -> Colref.equal w h && is_prefix want' have'

let canon_satisfied kind cols normalized_plan_order =
  match kind with
  | Order_prop.Join_key | Order_prop.Ordering -> is_prefix cols normalized_plan_order
  | Order_prop.Grouping ->
    let k = List.length cols in
    if List.length normalized_plan_order < k then false
    else
      let prefix = List.filteri (fun i _ -> i < k) normalized_plan_order in
      Colref.list_equal (List.sort Colref.compare prefix) cols

(* Kept plans are stored oldest-first and compacted in place on pruning, so
   [plans] rebuilds the legacy newest-first list: scan-order consumers (the
   driver's tie-breaks, the COTE's property walks) see the exact sequence
   the list-based MEMO produced. *)
let plans e =
  let n = e.n_saved in
  List.init n (fun i -> e.saved.(n - 1 - i).sp_plan)

let best_plan e =
  match e.best with
  | Some sp -> Some sp.sp_plan
  | None -> None

let best_pipelinable_plan t e =
  if t.blk.Query_block.first_n <> None then
    match e.best_pipe with
    | Some sp -> Some sp.sp_plan
    | None -> None
  else begin
    (* Without a top-N clause [sp_pipe] is uniformly false (pipelinability
       is not pruning-protected), so the cache holds nothing: scan. *)
    let best = ref None in
    for i = 0 to e.n_saved - 1 do
      let sp = e.saved.(i) in
      if Plan.pipelinable sp.sp_plan then
        match !best with
        | Some (b : Plan.t) when b.Plan.cost < sp.sp_plan.Plan.cost -> ()
        | Some _ | None -> best := Some sp.sp_plan
    done;
    !best
  end

let kind_tag = function
  | Order_prop.Join_key -> 0
  | Order_prop.Grouping -> 1
  | Order_prop.Ordering -> 2

let best_plan_satisfying_unlocked t e (order : Order_prop.t) =
  let equiv = equiv_of t e in
  let ccols = Order_prop.canonical equiv order in
  let oid = (3 * intern_cols t ccols) + kind_tag order.Order_prop.kind in
  let slot =
    match Hashtbl.find_opt e.sat_cache oid with
    | Some slot -> slot
    | None ->
      (* First query of this order at this entry: one scan, then the slot
         stays current incrementally.  Oldest-first with <= replacement
         reproduces the list scan's newest-among-cheapest tie-break. *)
      let best = ref None in
      for i = 0 to e.n_saved - 1 do
        let sp = e.saved.(i) in
        if
          canon_satisfied order.Order_prop.kind ccols
            (cols_of_id t sp.sp_norm)
        then
          match !best with
          | Some b when b.sp_plan.Plan.cost < sp.sp_plan.Plan.cost -> ()
          | Some _ | None -> best := Some sp
      done;
      let slot =
        { ss_kind = order.Order_prop.kind; ss_cols = ccols; ss_best = !best }
      in
      Hashtbl.add e.sat_cache oid slot;
      slot
  in
  match slot.ss_best with
  | Some sp -> Some sp.sp_plan
  | None -> None

(* A shared view queries finished lower-level entries that tasks on other
   domains query too, and the first query of an order fills the entry's
   [sat_cache]. *)
let best_plan_satisfying t e order =
  if t.shared then
    Mutex.protect t.sat_lock (fun () -> best_plan_satisfying_unlocked t e order)
  else best_plan_satisfying_unlocked t e order

(* Interned order-satisfaction bitmask of a normalized plan order, cached
   per (entry, order id): every distinct physical order pays the
   list-walking test once per entry instead of once per insertion. *)
let osig_of t e norm_id =
  match Hashtbl.find_opt e.osig_cache norm_id with
  | Some s -> s
  | None ->
    let normalized = cols_of_id t norm_id in
    let s = ref 0 in
    List.iteri
      (fun i (kind, cols) ->
        if canon_satisfied kind cols normalized then s := !s lor (1 lsl i))
      (applicable_canon t e);
    Hashtbl.add e.osig_cache norm_id !s;
    !s

let ptag = function
  | Partition_prop.Hash -> 0
  | Partition_prop.Range -> 1

(* Canonical partition id + interestingness, cached per raw (keys, kind).
   The cache key is the *raw* key list: interestingness of a Range
   partition depends on the un-normalized key sequence (its ORDER BY prefix
   test), so raw-equal partitions are the exact reuse class. *)
let pkey_of t e (p : Partition_prop.t) =
  let raw =
    (2 * intern_cols t p.Partition_prop.keys)
    + ptag p.Partition_prop.kind
  in
  match Hashtbl.find_opt e.pprop_cache raw with
  | Some v -> v
  | None ->
    let equiv = equiv_of t e in
    let pid =
      (2 * intern_cols t (Partition_prop.canonical equiv p))
      + ptag p.Partition_prop.kind
    in
    let pint = Interesting.partition_interesting t.blk equiv ~tables:e.tables p in
    let v = (pid, pint) in
    Hashtbl.add e.pprop_cache raw v;
    v

(* The per-plan property signature, computed once at insertion.  [norm] is
   the pre-interned id of the plan's normalized order when the generator
   already computed it (Plan_gen interns each join plan's order once at
   construction); otherwise it is derived here. *)
let signature ?norm t e (plan : Plan.t) =
  let norm_id =
    match norm with
    | Some id -> id
    | None ->
      intern_cols t (Equiv.normalize_cols (equiv_of t e) plan.Plan.order)
  in
  let osig = osig_of t e norm_id in
  let sp_pkey, sp_pint =
    match plan.Plan.partition with
    | None -> (Prop_id.none, false)
    | Some p -> pkey_of t e p
  in
  let sp_pipe = t.blk.Query_block.first_n <> None && Plan.pipelinable plan in
  { sp_plan = plan; sp_norm = norm_id; sp_osig = osig; sp_pkey; sp_pint; sp_pipe }

(* Dominance on signatures: [a] dominates [b] when it is no more expensive,
   satisfies a superset of the interesting orders [b] satisfies, and carries
   a compatible partition (equal keys when either partition is
   interesting).  All property comparisons are integer equality on interned
   ids. *)
let dominates a b =
  a.sp_plan.Plan.cost <= b.sp_plan.Plan.cost
  && a.sp_osig land b.sp_osig = b.sp_osig
  && (a.sp_pipe || not b.sp_pipe)
  && (if a.sp_pkey = Prop_id.none then b.sp_pkey = Prop_id.none
      else
        b.sp_pkey <> Prop_id.none
        && ((not (a.sp_pint || b.sp_pint)) || a.sp_pkey = b.sp_pkey))

let push_saved e sp =
  let n = e.n_saved in
  if n = Array.length e.saved then begin
    let grown = Array.make (max 4 (2 * Array.length e.saved)) sp in
    Array.blit e.saved 0 grown 0 n;
    e.saved <- grown
  end;
  e.saved.(n) <- sp;
  e.n_saved <- n + 1

(* Incremental cache maintenance for a surviving insertion.  The [<=]
   replacement rule mirrors the legacy newest-first scans; a cached best
   that was just dominance-dropped is always replaced by the same rule,
   because its dominator is [sp] and dominance implies [sp] costs no
   more. *)
let update_bests t e sp dropped =
  (match e.best with
  | Some b when sp.sp_plan.Plan.cost > b.sp_plan.Plan.cost -> ()
  | Some _ | None -> e.best <- Some sp);
  (if sp.sp_pipe then
     match e.best_pipe with
     | Some b when sp.sp_plan.Plan.cost > b.sp_plan.Plan.cost -> ()
     | Some _ | None -> e.best_pipe <- Some sp);
  if Hashtbl.length e.sat_cache > 0 then begin
    (match dropped with
    | [] -> ()
    | ds ->
      (* A slot whose plan was dropped is evicted, not patched: the
         dominator need not satisfy the slot's order (the order may lie
         outside the osig bitmask), so the next query rescans. *)
      Hashtbl.filter_map_inplace
        (fun _ slot ->
          match slot.ss_best with
          | Some b when List.memq b ds -> None
          | Some _ | None -> Some slot)
        e.sat_cache);
    let norm_cols = cols_of_id t sp.sp_norm in
    Hashtbl.iter
      (fun _ slot ->
        if canon_satisfied slot.ss_kind slot.ss_cols norm_cols then
          match slot.ss_best with
          | Some b when sp.sp_plan.Plan.cost > b.sp_plan.Plan.cost -> ()
          | Some _ | None -> slot.ss_best <- Some sp)
      e.sat_cache
  end

let insert_plan ?norm t e plan =
  let sp = signature ?norm t e plan in
  Obs.Counter.incr m_inserted;
  let checks = ref 0 in
  let n = e.n_saved in
  let dominated = ref false in
  let i = ref 0 in
  while (not !dominated) && !i < n do
    incr checks;
    if dominates e.saved.(!i) sp then dominated := true;
    incr i
  done;
  (if !dominated then begin
     t.sts.pruned <- t.sts.pruned + 1;
     Obs.Counter.incr m_pruned
   end
   else begin
     (* Compact the survivors in place, collecting the dropped plans for
        cache eviction. *)
     let dropped = ref [] in
     let j = ref 0 in
     for k = 0 to n - 1 do
       let kept = e.saved.(k) in
       incr checks;
       if dominates sp kept then dropped := kept :: !dropped
       else begin
         if !j <> k then e.saved.(!j) <- kept;
         incr j
       end
     done;
     e.n_saved <- !j;
     push_saved e sp;
     let ndrop = n - !j in
     if ndrop > 0 then begin
       t.sts.pruned <- t.sts.pruned + ndrop;
       Obs.Counter.add m_pruned ndrop
     end;
     t.kept <- t.kept + 1 - ndrop;
     update_bests t e sp !dropped
   end);
  Obs.Counter.add m_dom_checks !checks;
  if !Obs.Control.on then begin
    (* Property-list growth: kept-plan count and interesting-order list
       lengths after this insertion. *)
    Obs.Histo.observe m_list_len (float_of_int e.n_saved);
    Obs.Histo.observe m_order_len
      (float_of_int (List.length (applicable_orders t e)))
  end

let kept_plans t = t.kept

let memo_bytes t = float_of_int (kept_plans t) *. Plan.approx_bytes
