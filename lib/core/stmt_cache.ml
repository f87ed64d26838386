module O = Qopt_optimizer
module Obs = Qopt_obs

(* Process-wide cache metrics, shared by every cache instance (no-ops
   unless Qopt_obs is enabled). *)
let m_hits = Obs.Registry.counter Obs.Registry.default "stmt_cache.hits"

let m_misses = Obs.Registry.counter Obs.Registry.default "stmt_cache.misses"

let m_size = Obs.Registry.gauge Obs.Registry.default "stmt_cache.size"

let m_hit_rate = Obs.Registry.gauge Obs.Registry.default "stmt_cache.hit_rate_pct"

let update_hit_rate () =
  if !Obs.Control.on then begin
    let h = Obs.Counter.value m_hits and m = Obs.Counter.value m_misses in
    if h + m > 0 then
      Obs.Gauge.set m_hit_rate (float_of_int h /. float_of_int (h + m) *. 100.0)
  end

(* A shared cache is striped: the signature hash picks one of [stripes]
   independently locked tables, so concurrent domains only serialize when
   they touch the same stripe.  Each stripe keeps its own hit/miss tallies
   (summed on read) — a cross-stripe total would need a second shared
   cell, which is exactly the contention the stripes exist to remove.
   A key is (tag, shape): the shape is the caller's key string — shared
   with the caller, never copied — or the block's {!signature}. *)
type stripe = {
  tbl : (string option * string, float) Hashtbl.t;
  mutable s_hits : int;
  mutable s_misses : int;
  lock : Obs.Lock.t option;
}

type t = { stripes : stripe array }

let default_stripes = 8

let create ?(shared = false) ?stripes () =
  let n =
    if not shared then 1
    else
      match stripes with
      | Some n when n >= 1 -> min n 64
      | Some _ | None -> default_stripes
  in
  {
    stripes =
      Array.init n (fun _ ->
          {
            tbl = Hashtbl.create 64;
            s_hits = 0;
            s_misses = 0;
            lock = (if shared then Some (Obs.Lock.create "stmt_cache") else None);
          });
  }

let stripes t = Array.length t.stripes

let stripe_of t key =
  t.stripes.(Hashtbl.hash key mod Array.length t.stripes)

let with_stripe s f =
  match s.lock with
  | None -> f ()
  | Some l -> Obs.Lock.with_lock l f

let pred_sig block p =
  let col (c : O.Colref.t) =
    Printf.sprintf "%s.%s"
      (O.Query_block.quantifier block c.O.Colref.q).O.Quantifier.table
        .Qopt_catalog.Table.name
      c.O.Colref.col
  in
  match p with
  | O.Pred.Eq_join (l, r) ->
    let a = col l and b = col r in
    if a <= b then Printf.sprintf "J:%s=%s" a b else Printf.sprintf "J:%s=%s" b a
  | O.Pred.Local_cmp (c, op, _) ->
    (* Literal values are abstracted away: "similar" queries differ only in
       constants.  The operator is not — folding Lt with Le (or Gt with
       Ge) let [a < 5] serve a recorded actual for [a <= 5] and paired
       their plan-cache envelope labels positionally. *)
    Printf.sprintf "L:%s%s" (col c)
      (match op with
      | O.Pred.Eq -> "="
      | O.Pred.Lt -> "<"
      | O.Pred.Le -> "<="
      | O.Pred.Gt -> ">"
      | O.Pred.Ge -> ">=")
  | O.Pred.Local_in (c, n) -> Printf.sprintf "I:%s:%d" (col c) n
  | O.Pred.Expensive (ts, sel, cost) ->
    (* Selectivity and per-tuple cost are part of the predicate's
       identity, not literals of a template: two expensive predicates
       over the same tables but with different parameters price (and
       place) differently.  %h renders floats exactly, so distinct
       parameters can never collapse through decimal rounding. *)
    Printf.sprintf "X:%s:s%h:c%h"
      (Format.asprintf "%a" Qopt_util.Bitset.pp ts)
      sel cost

let rec block_sig (b : O.Query_block.t) =
  let tables =
    List.sort String.compare
      (List.init (O.Query_block.n_quantifiers b) (fun q ->
           (O.Query_block.quantifier b q).O.Quantifier.table
             .Qopt_catalog.Table.name))
  in
  let preds = List.sort String.compare (List.map (pred_sig b) b.O.Query_block.preds) in
  let children = List.map block_sig b.O.Query_block.children in
  Printf.sprintf "[%s|%s|g%d|o%d|n%s|oj%d|{%s}]"
    (String.concat "," tables) (String.concat ";" preds)
    (List.length b.O.Query_block.group_by)
    (List.length b.O.Query_block.order_by)
    (match b.O.Query_block.first_n with None -> "-" | Some n -> string_of_int n)
    (List.length b.O.Query_block.outer_joins)
    (String.concat "" children)

let signature = block_sig

let pred_signature = pred_sig

(* A recorded actual only transfers to a structurally identical query
   compiled under the same conditions: the optional tag (the server passes
   the chosen optimization level) partitions the key space so an elapsed
   measured at a downgraded level never refines a full-level estimate. *)
let key_of ?tag ?key block =
  (tag, match key with Some k -> k | None -> signature block)

let lookup t ?tag ?key block =
  (* The signature is pure over the block; compute it (and the stripe
     choice) outside the lock so concurrent lookups serialize only on
     their stripe's table probe and bookkeeping. *)
  let key = key_of ?tag ?key block in
  let s = stripe_of t key in
  with_stripe s (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | Some seconds ->
        s.s_hits <- s.s_hits + 1;
        Obs.Counter.incr m_hits;
        update_hit_rate ();
        Some seconds
      | None ->
        s.s_misses <- s.s_misses + 1;
        Obs.Counter.incr m_misses;
        update_hit_rate ();
        None)

(* Refinement in one call: a recorded actual beats the model's estimate,
   the model's estimate stands when the cache has never seen the shape.
   The server's evaluation path and the fleet router's routing estimate
   share this rule, so "estimate once, refine from observed actuals"
   means the same thing at both layers. *)
let refine t ?tag ?key block ~model_s =
  match lookup t ?tag ?key block with
  | Some seconds -> seconds
  | None -> model_s

let size_unmerged t =
  Array.fold_left
    (fun acc s -> acc + with_stripe s (fun () -> Hashtbl.length s.tbl))
    0 t.stripes

let record t ?tag ?key block seconds =
  let key = key_of ?tag ?key block in
  let s = stripe_of t key in
  with_stripe s (fun () -> Hashtbl.replace s.tbl key seconds);
  (* The size gauge sweeps every stripe; set it outside any stripe lock so
     a record never holds two locks at once. *)
  if !Obs.Control.on then
    Obs.Gauge.set m_size (float_of_int (size_unmerged t))

let size = size_unmerged

let hits t =
  Array.fold_left (fun acc s -> acc + with_stripe s (fun () -> s.s_hits)) 0 t.stripes

let misses t =
  Array.fold_left
    (fun acc s -> acc + with_stripe s (fun () -> s.s_misses))
    0 t.stripes
