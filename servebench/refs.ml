(* Reference compiles, outside every timed region: a direct
   [Optimizer.optimize] of the same SQL, which a DP-regime reply that did
   not come from the plan cache must match bit for bit, and whose cost is
   the denominator of plan_cost_ratio. *)

module O = Qopt_optimizer
module W = Qopt_workloads

(* built eagerly: references are computed on two domains at once *)
let warehouse = W.Warehouse.schema ~partitioned:false

let giant = W.Giant.schema ()

let schema = function "giant" -> giant | _ -> warehouse

let bind ~schema:name sql = Qopt_sql.Binder.parse_and_bind (schema name) sql

type t = { plan : string option; cost : float; card : float }

(* What a compile reply carries of a chosen plan. *)
let of_best = function
  | Some p ->
    {
      plan = Some (Format.asprintf "%a" O.Plan.pp_compact p);
      cost = p.O.Plan.cost;
      card = p.O.Plan.card;
    }
  | None -> { plan = None; cost = 0.0; card = 0.0 }

let compute (q : Gen.request) =
  of_best (O.Optimizer.optimize O.Env.serial (bind ~schema:q.schema q.sql)).O.Optimizer.best

(* All references, the work split over two domains. *)
let compute_all (qs : Gen.request array) =
  let n = Array.length qs in
  let out = Array.make n (of_best None) in
  let part k () =
    let i = ref k in
    while !i < n do
      out.(!i) <- compute qs.(!i);
      i := !i + 2
    done
  in
  let d = Domain.spawn (part 1) in
  part 0 ();
  Domain.join d;
  out

let matches (r : t) (b : Qopt_server.Proto.compile_body) =
  r.plan = b.Qopt_server.Proto.c_plan
  && Int64.equal (Int64.bits_of_float r.cost) (Int64.bits_of_float b.c_cost)
  && Int64.equal (Int64.bits_of_float r.card) (Int64.bits_of_float b.c_card)
