(* End-to-end metrics of one live run, and the checks every run must
   pass: reply correctness against direct compiles, and the server's own
   stats counters reconciling with what this client sent and received. *)

module Srv = Qopt_server
module P = Srv.Proto

let metric name unit v =
  (name, Qopt_util.Json.Obj [ ("value", Qopt_util.Json.Num v); ("unit", Qopt_util.Json.Str unit) ])

type run = {
  workload : string;
  seed : int;
  seconds : float;
  t0 : float;  (* start of the timed region *)
  t_end : float;
  warm : Live.run;  (* warm-up of the measured server *)
  timed : Live.run;
  before : Qopt_util.Json.t;  (* stats at t0 *)
  after : Qopt_util.Json.t;  (* stats after the timed region drained *)
  rss_mb : float;
  setup_times : float array;
}

let compiled s = match s.Live.outcome with Live.Compiled b -> Some b | _ -> None

let is_dp_compile b = b.P.c_regime = "dp" && not b.P.c_plan_cached

(* Sent/received tallies the server's counters must reproduce. *)
type tally = { sent : int; ok : int; rejected : int; cancelled : int; errored : int; lost : int }

let tally (r : Live.run) =
  let count f = Array.fold_left (fun n s -> if f s.Live.outcome then n + 1 else n) 0 r.Live.samples in
  {
    sent = r.Live.sent;
    ok = count (function Live.Compiled _ -> true | _ -> false);
    rejected = count (( = ) Live.Rejected);
    cancelled = count (( = ) Live.Cancelled);
    errored = count (function Live.Errored _ -> true | _ -> false);
    lost = r.Live.lost;
  }

(* The reconciliation identity over the timed region.  The second stats
   poll counts itself as one more request. *)
let reconcile run =
  let t = tally run.timed in
  let d f = int_of_float (Live.delta ~before:run.before ~after:run.after f) in
  let router name =
    int_of_float (Live.counter run.after name -. Live.counter run.before name)
  in
  let field name doc = Live.num doc [ name ] in
  let expect =
    if run.workload = "fleet" then
      [
        ("fleet.requests", router "fleet.requests", t.sent + 1);
        ("fleet.compiles", router "fleet.compiles", t.ok);
        ("fleet.rejected", router "fleet.rejected", t.rejected);
        ("fleet.cancelled", router "fleet.cancelled", t.cancelled);
        ("fleet.errors", router "fleet.errors", t.errored);
      ]
    else
      [
        ("requests", d (field "requests"), t.sent + 1);
        ( "compiles+plan_hits",
          d (fun doc -> field "compiles" doc +. field "plan_hits" doc),
          t.ok );
        ("rejected", d (field "rejected"), t.rejected);
        ("cancelled", d (field "cancelled"), t.cancelled);
        ("errors", d (field "errors"), t.errored);
      ]
  in
  List.filter_map
    (fun (name, server, client) ->
      if server = client then None
      else Some (Printf.sprintf "stats %s delta %d, client counted %d" name server client))
    expect

(* Reference compiles for every distinct SQL among the DP-regime compile
   replies of [runs] (cached or not); returns a lookup from request index
   ([None] for every other request).  A spanning-tree reply has no
   reference: its DP blew the serving budget, and an unbudgeted DP of a
   20-table star or clique does not finish. *)
let references ~gen runs =
  let by_sql = Hashtbl.create 1024 in
  List.iter
    (fun (r : Live.run) ->
      Array.iter
        (fun s ->
          match compiled s with
          | Some b when b.P.c_regime = "dp" ->
            let q = gen s.Live.idx in
            if not (Hashtbl.mem by_sql q) then Hashtbl.replace by_sql q (Hashtbl.length by_sql)
          | _ -> ())
        r.Live.samples)
    runs;
  let qs = Array.make (Hashtbl.length by_sql) { Gen.sql = ""; schema = "" } in
  Hashtbl.iter (fun q k -> qs.(k) <- q) by_sql;
  let refs = Refs.compute_all qs in
  fun idx -> Option.map (fun k -> refs.(k)) (Hashtbl.find_opt by_sql (gen idx))

(* Replies whose plan differs from the direct compile of the same SQL. *)
let wrong ~reference (r : Live.run) =
  Array.fold_left
    (fun n s ->
      match compiled s with
      | Some b when is_dp_compile b -> (
        match reference s.Live.idx with
        | Some rf when Refs.matches rf b -> n
        | _ -> n + 1)
      | _ -> n)
    0 r.Live.samples

(* The paper's accuracy: |predicted - actual| / actual over DP compiles
   with at least one join (single-table compiles predict 0). *)
let cote_errors runs =
  List.concat_map
    (fun (r : Live.run) ->
      Array.to_list r.Live.samples
      |> List.filter_map (fun s ->
             match compiled s with
             | Some b when is_dp_compile b && b.P.c_joins >= 1 && b.P.c_elapsed_s > 0.0 ->
               Some
                 (Float.abs (b.P.c_predicted_s -. b.P.c_elapsed_s) /. b.P.c_elapsed_s
                 *. 100.0)
             | _ -> None))
    runs
  |> Array.of_list

let end_to_end ~gen run =
  let reference = references ~gen [ run.warm; run.timed ] in
  let wrong_timed = wrong ~reference run.timed in
  let wrong_warm = wrong ~reference run.warm in
  let t = tally run.timed in
  let failed = t.rejected + t.cancelled + t.errored + t.lost + wrong_timed in
  let samples = run.timed.Live.samples in
  let latencies_ms = Array.map (fun s -> s.Live.latency *. 1000.0) samples in
  (* qps and p50 are medians over one-second slices of the timed region,
     so a second of host noise does not move them; so is p99 when every
     slice has the 1000 samples a p99 needs.  A slice rate is only a
     median worth taking with 100 completions in every slice; below that
     (giant) qps is the rate over the whole region. *)
  let slices = max 10 (int_of_float (Float.round (run.t_end -. run.t0))) in
  let slice_s = (run.t_end -. run.t0) /. float_of_int slices in
  let slice t = int_of_float ((t -. run.t0) /. slice_s) in
  let done_in = Array.make slices 0 and sent_in = Array.make slices [] in
  Array.iter
    (fun (s : Live.sample) ->
      let k = slice (s.Live.sent +. s.Live.latency) in
      if compiled s <> None && k < slices then done_in.(k) <- done_in.(k) + 1;
      let k = min (slices - 1) (slice s.Live.sent) in
      sent_in.(k) <- (s.Live.latency *. 1000.0) :: sent_in.(k))
    samples;
  let rate =
    if Array.for_all (fun n -> n >= 100) done_in then
      Pct.median (Array.map float_of_int done_in) /. slice_s
    else float_of_int (Array.fold_left ( + ) 0 done_in) /. (run.t_end -. run.t0)
  in
  let qps = rate *. (1.0 -. (float_of_int wrong_timed /. float_of_int (max 1 t.ok))) in
  let sent_in = Array.map Array.of_list sent_in in
  let p50 = Pct.median (Array.map Pct.median sent_in) in
  let tail_q, tail =
    if Array.for_all (fun a -> Pct.tail_q (Array.length a) = 0.99) sent_in then
      (0.99, Pct.median (Array.map Pct.p99 sent_in))
    else Pct.tail latencies_ms
  in
  let cote = cote_errors [ run.warm; run.timed ] in
  let ratios, excluded =
    Array.fold_left
      (fun (rs, ex) s ->
        match compiled s with
        | None -> (rs, ex)
        | Some b -> (
          match reference s.Live.idx with
          | Some rf when rf.Refs.cost > 0.0 -> ((b.P.c_cost /. rf.Refs.cost) :: rs, ex)
          | _ -> (rs, ex + 1)))
      ([], 0) samples
  in
  let ratios = Array.of_list ratios in
  let problems = reconcile run in
  List.iter (fun p -> prerr_endline ("servebench: " ^ p)) problems;
  if Array.length cote = 0 then prerr_endline "servebench: no DP join compiles to score";
  Printf.printf
    "%s seed=%d sent=%d compiled=%d fail_pct=%.3f wrong=%d+%d lost=%d tail=p%.1f(n=%d) \
     cote_err_pct=%.2f(n=%d) plan_cost_n=%d excluded_pct=%.1f setup_s=[%s]\n"
    run.workload run.seed t.sent t.ok
    (100.0 *. float_of_int failed /. float_of_int (max 1 t.sent))
    wrong_warm wrong_timed t.lost (tail_q *. 100.0) (Array.length latencies_ms)
    (Pct.median cote) (Array.length cote) (Array.length ratios)
    (100.0 *. float_of_int excluded /. float_of_int (max 1 (t.ok)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") run.setup_times)));
  let correct =
    problems = [] && wrong_timed = 0 && wrong_warm = 0 && Array.length cote > 0
    && Array.length ratios > 0 && t.sent > 0
  in
  ( correct,
    t.sent,
    failed,
    [
      metric "setup_s" "s" (Pct.median run.setup_times);
      metric "qps" "1/s" qps;
      metric "p50_ms" "ms" p50;
      metric "p99_ms" "ms" tail;
      metric "plan_cost_ratio" "x" (Pct.geomean ratios);
      metric "peak_rss_mb" "MB" run.rss_mb;
    ] )
