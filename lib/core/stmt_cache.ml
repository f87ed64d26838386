module O = Qopt_optimizer
module Obs = Qopt_obs

(* Process-wide cache metrics, shared by every cache instance (no-ops
   unless Qopt_obs is enabled). *)
let m_hits = Obs.Registry.counter Obs.Registry.default "stmt_cache.hits"

let m_misses = Obs.Registry.counter Obs.Registry.default "stmt_cache.misses"

let m_size = Obs.Registry.gauge Obs.Registry.default "stmt_cache.size"

(* A key is (tag, shape): the shape is the caller's key string — shared
   with the caller, never copied — or the block's {!signature}.  A shared
   cache spreads the keys over {!Striped} stripes, each a
   {!Striped.Lru} bounded by its share of [capacity]. *)
type t = (string option * string, float) Striped.Lru.t Striped.t

(* Eight times the plan cache's default 512 entries (Plan_cache builds on
   this module, so the figure is written out): room for every template of
   a pool several plan caches wide, so refinement keeps its hits. *)
let capacity = 4096

let create ?(shared = false) () =
  Striped.create ~shared ~capacity "stmt_cache" Striped.Lru.create

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
     their stripe's table probe. *)
  let key = key_of ?tag ?key block in
  Striped.with_key t key (fun s ->
      match Striped.Lru.find s key with
      | Some _ as hit ->
        Obs.Counter.incr m_hits;
        hit
      | None ->
        Obs.Counter.incr m_misses;
        None)

(* Uncounted and untouched: the server asks it of a finished compile just
   before recording, so it must move neither the hit rate nor the LRU
   order. *)
let mem t ?tag ?key block =
  let key = key_of ?tag ?key block in
  Striped.with_key t key (fun s -> Striped.Lru.mem s key)

(* Refinement in one call: a recorded actual beats the model's estimate,
   the model's estimate stands when the cache has never seen the shape.
   The server's evaluation path and the fleet router's routing estimate
   share this rule, so "estimate once, refine from observed actuals"
   means the same thing at both layers. *)
let refine t ?tag ?key block ~model_s =
  match lookup t ?tag ?key block with
  | Some seconds -> seconds
  | None -> model_s

let size t = Striped.fold t (fun acc s -> acc + Striped.Lru.length s) 0

let record t ?tag ?key block seconds =
  let key = key_of ?tag ?key block in
  Striped.with_key t key (fun s -> ignore (Striped.Lru.replace s key seconds));
  (* The size gauge sweeps every stripe; set it outside any stripe lock so
     a record never holds two locks at once. *)
  if !Obs.Control.on then Obs.Gauge.set m_size (float_of_int (size t))
