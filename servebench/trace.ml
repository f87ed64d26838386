(* The traced run: per-layer metrics.

   Two sources.  The live run just made supplies reply fields (queue and
   compile seconds, cache outcomes) and `stats` counter deltas.  Then the
   same request stream is replayed in this process, calling each layer's
   public entry point in the order the server calls them, with one span
   per call; spans are kept in memory and written out at the end.  The
   replay runs untraced, traced and untraced again: the traced wall time
   against the mean of the other two is the tracing overhead. *)

module O = Qopt_optimizer
module J = Qopt_util.Json
module Srv = Qopt_server
module P = Srv.Proto
module Timer = Qopt_util.Timer

let now = Timer.monotonic_now

type stage =
  | Request  (* the root span of one request *)
  | Decode
  | Parse
  | Template
  | Bind
  | Pc_lookup
  | Estimate
  | Sc_lookup
  | Regime
  | Dp
  | Spanning_tree
  | Sc_record
  | Pc_store
  | Encode
  | Fleet_parse_bind
  | Fleet_estimate

let stage_name = function
  | Request -> "request"
  | Decode -> "server.decode"
  | Parse -> "sqlfront.parse"
  | Template -> "sqlfront.template"
  | Bind -> "sqlfront.bind"
  | Pc_lookup -> "plan_cache.lookup"
  | Estimate -> "cote.estimate"
  | Sc_lookup -> "stmt_cache.lookup"
  | Regime -> "regime.decide"
  | Dp -> "optimizer.compile"
  | Spanning_tree -> "spanning_tree.compile"
  | Sc_record -> "stmt_cache.record"
  | Pc_store -> "plan_cache.store"
  | Encode -> "server.encode"
  | Fleet_parse_bind -> "fleet.parse_bind"
  | Fleet_estimate -> "fleet.estimate"

(* One span: (request, stage, start, end).  The parent of every stage
   span is its request's root span ([Request]), which has none. *)
type spans = {
  mutable on : bool;
  mutable req : int array;
  mutable st : stage array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
}

let spans () = { on = false; req = [||]; st = [||]; t0 = [||]; t1 = [||]; n = 0 }

let push sp req st t0 t1 =
  if sp.n = Array.length sp.req then begin
    let grow a d = Array.append a (Array.make (max 1024 (Array.length a)) d) in
    sp.req <- grow sp.req 0;
    sp.st <- grow sp.st Request;
    sp.t0 <- grow sp.t0 0.0;
    sp.t1 <- grow sp.t1 0.0
  end;
  sp.req.(sp.n) <- req;
  sp.st.(sp.n) <- st;
  sp.t0.(sp.n) <- t0;
  sp.t1.(sp.n) <- t1;
  sp.n <- sp.n + 1

let span sp ~req st f =
  if not sp.on then f ()
  else begin
    let t0 = now () in
    let r = f () in
    push sp req st t0 (now ());
    r
  end

let write_spans sp file =
  let oc = open_out file in
  output_string oc "request\tstage\tstart_s\tend_s\tparent\n";
  for k = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%s\n" sp.req.(k) (stage_name sp.st.(k)) sp.t0.(k)
      sp.t1.(k) (if sp.st.(k) = Request then "-" else "request")
  done;
  close_out oc

(* What the replay learned about one request beyond its spans. *)
type compile_info =
  | Dp_info of O.Optimizer.result * float  (* result, allocated MB *)
  | St_info of O.Optimizer.fallback
  | Cache_hit

type ctx = {
  fleet : bool;
  model : Cote.Time_model.t;
  budget : O.Budget.t;
  pc : unit Cote.Plan_cache.t;
  sc : Cote.Stmt_cache.t;
  sp : spans;
  mutable aborts : int;  (* Budget.Exceeded out of the estimate *)
  infos : (int, compile_info) Hashtbl.t;  (* request -> what compiled it *)
}

let env = O.Env.serial

let greedy_predicted block =
  let q = ref 0 and e = ref 0 in
  O.Query_block.iter_blocks
    (fun b ->
      q := !q + O.Query_block.n_quantifiers b;
      e := !e + O.Spanning_tree.edge_count b)
    block;
  Cote.Greedy_model.predict Cote.Greedy_model.default ~quantifiers:!q ~edges:!e ~restarts:0

(* The compile reply's wire bytes, as the server renders them. *)
let encode id best =
  let r = Refs.of_best best in
  J.to_string
    (P.reply_to_json
       (P.R_compile
          ( id,
            {
              P.c_plan = r.Refs.plan;
              c_cost = r.Refs.cost;
              c_card = r.Refs.card;
              c_joins = 0;
              c_kept = 0;
              c_entries = 0;
              c_elapsed_s = 0.0;
              c_predicted_s = 0.0;
              c_level = "dp_default";
              c_queue_s = 0.0;
              c_cache_hit = false;
              c_plan_cached = false;
              c_regime = "dp";
            } )))

(* One request through the layers, in the server's order
   (Server.handle_compile, compile_cold, run_dp / run_fallback). *)
let serve ctx ~req (q : Gen.request) =
  let sp = ctx.sp in
  let payload =
    J.to_string
      (P.request_to_json
         (P.Compile
            { id = req; sql = q.Gen.sql; schema = Some q.Gen.schema; deadline_ms = None;
              estimate_hint_s = None }))
  in
  let schema = Refs.schema q.Gen.schema in
  span sp ~req Request (fun () ->
      let sql =
        span sp ~req Decode (fun () ->
            match Result.bind (J.parse payload) P.request_of_json with
            | Ok (P.Compile { sql; _ }) -> sql
            | _ -> failwith "replay: request did not decode")
      in
      if ctx.fleet then begin
        (* the router parses, binds and estimates once before forwarding *)
        let block =
          span sp ~req Fleet_parse_bind (fun () ->
              Qopt_sql.Binder.bind schema (Qopt_sql.Parser.parse sql))
        in
        span sp ~req Fleet_estimate (fun () ->
            ignore (Cote.Predict.compile_time ~model:ctx.model env block))
      end;
      let ast = span sp ~req Parse (fun () -> Qopt_sql.Parser.parse sql) in
      let key =
        span sp ~req Template (fun () -> q.Gen.schema ^ "|" ^ Qopt_sql.Template.key_of ast)
      in
      let block =
        span sp ~req Bind (fun () ->
            Qopt_sql.Binder.bind ~name:(Printf.sprintf "q%d" req) schema ast)
      in
      match span sp ~req Pc_lookup (fun () -> Cote.Plan_cache.lookup ctx.pc ~key block) with
      | Cote.Plan_cache.Hit { plan; _ } ->
        Hashtbl.replace ctx.infos req Cache_hit;
        span sp ~req Encode (fun () -> ignore (encode req (Some plan)))
      | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ ->
        (* fleet backends trust the router's hint and skip their own pass *)
        let dp_s =
          if ctx.fleet then Some 0.0
          else
            span sp ~req Estimate (fun () ->
                match
                  Cote.Predict.compile_time ~budget:ctx.budget ~knobs:O.Knobs.default
                    ~model:ctx.model env block
                with
                | p -> Some p.Cote.Predict.seconds
                | exception O.Budget.Exceeded _ ->
                  ctx.aborts <- ctx.aborts + 1;
                  None)
        in
        (* the statement cache refines the DP prediction; a greedy
           admission looks up its own tag *)
        let dp_s =
          Option.map
            (fun p ->
              span sp ~req Sc_lookup (fun () ->
                  Option.value ~default:p
                    (Cote.Stmt_cache.lookup ctx.sc ~tag:"dp_default" block)))
            dp_s
        in
        let decision =
          span sp ~req Regime (fun () ->
              Cote.Regime.decide ~dp_s ~greedy_s:(greedy_predicted block) ())
        in
        let tag =
          match decision.Cote.Regime.d_regime with
          | Cote.Regime.Dp -> "dp_default"
          | Cote.Regime.Greedy | Cote.Regime.Dp_budget_fallback ->
            ignore (span sp ~req Sc_lookup (fun () -> Cote.Stmt_cache.lookup ctx.sc ~tag:"greedy" block));
            "greedy"
        in
        let fallback () =
          let fb =
            span sp ~req Spanning_tree (fun () -> O.Optimizer.optimize_fallback env ~restarts:0 block)
          in
          (St_info fb, fb.O.Optimizer.fb_best, fb.O.Optimizer.fb_elapsed)
        in
        let info, best, elapsed =
          match decision.Cote.Regime.d_regime with
          | Cote.Regime.Dp -> (
            let a0 = Gc.allocated_bytes () in
            match
              span sp ~req Dp (fun () ->
                  O.Optimizer.optimize env ~budget:ctx.budget ~knobs:O.Knobs.default block)
            with
            | r ->
              ( Dp_info (r, (Gc.allocated_bytes () -. a0) /. 1048576.0),
                r.O.Optimizer.best,
                r.O.Optimizer.elapsed )
            | exception O.Budget.Exceeded _ -> fallback ())
          | Cote.Regime.Greedy | Cote.Regime.Dp_budget_fallback -> fallback ()
        in
        Hashtbl.replace ctx.infos req info;
        span sp ~req Sc_record (fun () -> Cote.Stmt_cache.record ctx.sc ~tag block elapsed);
        (match best with
        | Some plan -> span sp ~req Pc_store (fun () -> Cote.Plan_cache.store ctx.pc ~key block ~plan ())
        | None -> ());
        span sp ~req Encode (fun () -> ignore (encode req best)))

(* Replay warm-up (untraced) then the timed requests [timed] (indices in
   send order), stopping after [limit] requests or [budget_s] of wall
   time.  Returns the number replayed and their wall time. *)
let replay ctx ~gen ~warm ~timed ~traced ~limit ~budget_s =
  ctx.sp.on <- false;
  for i = 0 to warm - 1 do serve ctx ~req:i (gen i) done;
  ctx.sp.on <- traced;
  let t0 = now () in
  let n = ref 0 in
  while !n < min limit (Array.length timed) && now () -. t0 < budget_s do
    serve ctx ~req:timed.(!n) (gen timed.(!n));
    incr n
  done;
  ctx.sp.on <- false;
  (!n, now () -. t0)

let fresh ~fleet ~model =
  let sp = spans () in
  {
    fleet;
    model;
    budget = (if fleet then O.Budget.unlimited else O.Budget.make ~max_memo_entries:Live.memo_budget ());
    pc = Cote.Plan_cache.create ~shared:true ~config:Cote.Plan_cache.default_config ();
    sc = Cote.Stmt_cache.create ~shared:true ();
    sp;
    aborts = 0;
    infos = Hashtbl.create 1024;
  }

let per_layer ~gen (run : Report.run) =
  let fleet = run.Report.workload = "fleet" in
  let model = Qopt_experiments.Common.model_for env in
  let timed =
    Array.map (fun s -> s.Live.idx) run.Report.timed.Live.samples |> fun a ->
    Array.sort compare a;
    a
  in
  let warm = Array.length run.Report.warm.Live.samples in
  let budget_s = run.Report.seconds /. 3.0 in
  (* untraced, traced, untraced again: the first fixes how many requests
     all three cover, and the mean of the two untraced walls is the base
     of the tracing overhead, so warming from one replay to the next does
     not read as overhead *)
  let plain ~limit ~budget_s =
    replay (fresh ~fleet ~model) ~gen ~warm ~timed ~traced:false ~limit ~budget_s
  in
  let n, plain_wall = plain ~limit:max_int ~budget_s in
  let ctx = fresh ~fleet ~model in
  let _, traced_wall =
    replay ctx ~gen ~warm ~timed ~traced:true ~limit:n ~budget_s:infinity
  in
  let _, plain_wall' = plain ~limit:n ~budget_s:infinity in
  let plain_wall = (plain_wall +. plain_wall') /. 2.0 in
  write_spans ctx.sp (Printf.sprintf "_servebench/spans-%s.tsv" run.Report.workload);
  (* per-stage durations in microseconds, and per-request wall *)
  let by_stage = Hashtbl.create 16 in
  let root = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  for k = 0 to ctx.sp.n - 1 do
    let d = ctx.sp.t1.(k) -. ctx.sp.t0.(k) in
    let r = ctx.sp.req.(k) and st = ctx.sp.st.(k) in
    Hashtbl.replace by_stage st
      ((d *. 1e6) :: Option.value ~default:[] (Hashtbl.find_opt by_stage st));
    if st = Request then Hashtbl.replace root r d
    else
      Hashtbl.replace children r (d +. Option.value ~default:0.0 (Hashtbl.find_opt children r))
  done;
  let z v = if Float.is_nan v then 0.0 else v in
  let med st = z (Pct.median (Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_stage st)))) in
  let wall = Hashtbl.fold (fun _ d acc -> acc +. d) root 0.0 in
  let unaccounted =
    Hashtbl.fold
      (fun r d acc -> acc +. (d -. Option.value ~default:0.0 (Hashtbl.find_opt children r)))
      root 0.0
  in
  (* optimizer and spanning-tree figures over the traced requests *)
  let dps = ref [] and sts = ref [] and est_dp = ref 0.0 and comp_dp = ref 0.0 in
  let mismatches = ref 0 in
  let live = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      match s.Live.outcome with
      | Live.Compiled b when Report.is_dp_compile b -> Hashtbl.replace live s.Live.idx b
      | _ -> ())
    run.Report.timed.Live.samples;
  for k = 0 to n - 1 do
    match Hashtbl.find_opt ctx.infos timed.(k) with
    | Some (Dp_info (r, mb)) ->
      dps := (r, mb) :: !dps;
      comp_dp := !comp_dp +. r.O.Optimizer.elapsed;
      (match Hashtbl.find_opt live timed.(k) with
      | Some b ->
        if not (Refs.matches (Refs.of_best r.O.Optimizer.best) b) then incr mismatches
      | None -> ())
    | Some (St_info fb) -> sts := fb :: !sts
    | Some Cache_hit | None -> ()
  done;
  (* COTE time over DP compiles: the estimate spans of requests that ran DP *)
  for k = 0 to ctx.sp.n - 1 do
    if ctx.sp.st.(k) = Estimate then
      match Hashtbl.find_opt ctx.infos ctx.sp.req.(k) with
      | Some (Dp_info _) -> est_dp := !est_dp +. (ctx.sp.t1.(k) -. ctx.sp.t0.(k))
      | _ -> ()
  done;
  let dps = Array.of_list !dps and sts = Array.of_list !sts in
  let over_dp f = z (Pct.median (Array.map f dps)) in
  let bucket f = over_dp (fun (r, _) -> f r.O.Optimizer.breakdown *. 1000.0) in
  let over_st f = z (Pct.median (Array.map f sts)) in
  (* live reply fields *)
  let samples = Array.append run.Report.warm.Live.samples run.Report.timed.Live.samples in
  let bodies =
    Array.to_list samples
    |> List.filter_map (fun s ->
           match s.Live.outcome with Live.Compiled b -> Some (s, b) | _ -> None)
  in
  let cold = List.filter (fun (_, b) -> not b.P.c_plan_cached) bodies in
  let arr f l = Array.of_list (List.map f l) in
  let queue_ms = arr (fun (_, b) -> b.P.c_queue_s *. 1000.0) cold in
  let overhead_ms =
    arr
      (fun (s, b) -> (s.Live.latency -. b.P.c_queue_s -. b.P.c_elapsed_s) *. 1000.0)
      bodies
  in
  let server_compile_ms =
    arr (fun (_, b) -> b.P.c_elapsed_s *. 1000.0)
      (List.filter (fun (_, b) -> Report.is_dp_compile b) cold)
  in
  let stmt_hits = List.length (List.filter (fun (_, b) -> b.P.c_cache_hit) cold) in
  let tail a = z (snd (Pct.tail a)) in
  let before = run.Report.before and after = run.Report.after in
  let d name = Live.delta ~before ~after (fun doc -> Live.num doc [ name ]) in
  let dc name = Live.delta ~before ~after (fun doc -> Live.counter doc name) in
  let router name = Live.counter after name -. Live.counter before name in
  let lock f = 1000.0 *. Live.delta ~before ~after (fun doc -> Live.histo_sum doc ("lock." ^ f ^ ".wait_s")) in
  let pc_lookups = dc "plan_cache.hits" +. dc "plan_cache.misses" +. dc "plan_cache.invalidations" in
  let pct a b = if b > 0.0 then 100.0 *. a /. b else 0.0 in
  let skew =
    if not fleet then 0.0
    else
      let per =
        List.map2
          (fun b a -> Live.num a [ "compiles" ] +. Live.num a [ "plan_hits" ] -. Live.num b [ "compiles" ] -. Live.num b [ "plan_hits" ])
          (Live.servers before) (Live.servers after)
      in
      let mx = List.fold_left Float.max 0.0 per in
      let mean = List.fold_left ( +. ) 0.0 per /. float_of_int (max 1 (List.length per)) in
      if mean > 0.0 then mx /. mean else 0.0
  in
  let m = Report.metric in
  let metrics =
    [
      m "server.decode_us" "us" (med Decode);
      m "server.encode_us" "us" (med Encode);
      m "sqlfront.parse_us" "us" (med Parse);
      m "sqlfront.template_us" "us" (med Template);
      m "sqlfront.bind_us" "us" (med Bind);
      m "plan_cache.lookup_us" "us" (med Pc_lookup);
      m "plan_cache.store_us" "us" (med Pc_store);
      m "plan_cache.hit_pct" "%" (pct (dc "plan_cache.hits") pc_lookups);
      m "plan_cache.evictions" "count" (dc "plan_cache.evictions");
      m "plan_cache.invalidations" "count" (dc "plan_cache.invalidations");
      m "stmt_cache.lookup_us" "us" (med Sc_lookup);
      m "stmt_cache.hit_pct" "%" (pct (float_of_int stmt_hits) (float_of_int (List.length cold)));
      m "cote.estimate_us" "us" (med Estimate);
      m "cote.err_pct" "%" (z (Pct.median (Report.cote_errors [ run.Report.warm; run.Report.timed ])));
      m "cote.overhead_pct" "%" (pct !est_dp !comp_dp);
      m "cote.budget_aborts" "count" (float_of_int ctx.aborts);
      m "regime.dp" "count" (d "regime_dp");
      m "regime.greedy" "count" (d "regime_greedy");
      m "regime.fallbacks" "count" (d "regime_fallbacks");
      m "optimizer.compile_ms" "ms" (over_dp (fun (r, _) -> r.O.Optimizer.elapsed *. 1000.0));
      m "optimizer.nljn_ms" "ms" (bucket (fun b -> b.O.Instrument.s_nljn));
      m "optimizer.mgjn_ms" "ms" (bucket (fun b -> b.O.Instrument.s_mgjn));
      m "optimizer.hsjn_ms" "ms" (bucket (fun b -> b.O.Instrument.s_hsjn));
      m "optimizer.save_ms" "ms" (bucket (fun b -> b.O.Instrument.s_save));
      m "optimizer.card_ms" "ms" (bucket (fun b -> b.O.Instrument.s_card));
      m "optimizer.scan_ms" "ms" (bucket (fun b -> b.O.Instrument.s_scan));
      m "optimizer.other_ms" "ms" (bucket (fun b -> b.O.Instrument.s_other));
      m "optimizer.joins" "count" (over_dp (fun (r, _) -> float_of_int r.O.Optimizer.joins));
      m "optimizer.generated" "count"
        (over_dp (fun (r, _) ->
             let g = r.O.Optimizer.generated in
             float_of_int (g.O.Memo.nljn + g.O.Memo.mgjn + g.O.Memo.hsjn)));
      m "optimizer.kept" "count" (over_dp (fun (r, _) -> float_of_int r.O.Optimizer.kept));
      m "optimizer.entries" "count" (over_dp (fun (r, _) -> float_of_int r.O.Optimizer.entries));
      m "optimizer.alloc_mb" "MB" (over_dp snd);
      m "spanning_tree.compile_ms" "ms" (over_st (fun fb -> fb.O.Optimizer.fb_elapsed *. 1000.0));
      m "spanning_tree.joins" "count" (over_st (fun fb -> float_of_int fb.O.Optimizer.fb_joins));
      m "server.queue_ms_p50" "ms" (z (Pct.median queue_ms));
      m "server.queue_ms_p99" "ms" (tail queue_ms);
      m "server.compile_ms" "ms" (z (Pct.median server_compile_ms));
      m "server.overhead_ms_p50" "ms" (z (Pct.median overhead_ms));
      m "server.overhead_ms_p99" "ms" (tail overhead_ms);
      m "admission.reject_pct" "%" (pct (d "rejected") (d "requests"));
      m "server.downgrades" "count" (d "downgrades");
      m "lock.server_state.wait_ms" "ms" (lock "server_state");
      m "lock.sched.wait_ms" "ms" (lock "sched");
      m "lock.plan_cache.wait_ms" "ms" (lock "plan_cache");
      m "lock.stmt_cache.wait_ms" "ms" (lock "stmt_cache");
      m "fleet.overhead_ms" "ms" (if fleet then z (Pct.median overhead_ms) else 0.0);
      m "fleet.estimate_us" "us" (med Fleet_estimate);
      m "fleet.affinity_pct" "%" (pct (router "fleet.affinity_hits") (router "fleet.affinity_total"));
      m "fleet.retries" "count" (router "fleet.retries");
      m "fleet.failovers" "count" (router "fleet.failovers");
      m "fleet.backend_skew" "x" skew;
      m "trace.unaccounted_pct" "%" (pct unaccounted wall);
      m "trace.overhead_pct" "%" (pct (traced_wall -. plain_wall) plain_wall);
      m "trace.requests" "count" (float_of_int n);
    ]
  in
  let problems = Report.reconcile run in
  List.iter (fun p -> prerr_endline ("servebench: " ^ p)) problems;
  if !mismatches > 0 then
    prerr_endline (Printf.sprintf "servebench: %d replayed compiles differ from live replies" !mismatches);
  let t = Report.tally run.Report.timed in
  let failed = t.Report.rejected + t.Report.cancelled + t.Report.errored + t.Report.lost in
  (problems = [] && !mismatches = 0 && n > 0, t.Report.sent, failed, metrics)
