(* servebench: the serving benchmark of record.

     main.exe --workload repeat|adhoc|giant --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics against a live server;
   --trace 1 measures the per-layer metrics (a live run for reply fields
   and stats deltas, then an in-process traced replay of the same
   request stream; on adhoc, all of it again through a fleet).  The last
   line of stdout is the JSON result. *)

module J = Qopt_util.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("servebench: " ^ s); exit 2) fmt

let args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " repeat | adhoc | giant");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed region");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "servebench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Gen.workloads) then
    fail "--workload must be one of %s" (String.concat ", " Gen.workloads);
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  (!workload, !seed, float_of_int !seconds, !trace = 1)

(* Requests sent before the timed region, once per set-up: every repeat
   template gets compiled, the adhoc and fleet caches get a first layer,
   and one full giant rotation runs. *)
let warmup = function
  | "giant" -> 10
  | _ -> 160

(* Both cores run optimizer work for this long before the first server
   starts.  On the 2-vCPU reference VM, a run that starts after the host
   has idled for half a minute otherwise reads p50 ~2.5x lower, p99 ~2x
   higher and qps ~10% lower than the runs that follow it; ten seconds
   of two busy threads beforehand remove the difference. *)
let host_warmup_s = 3.0

let host_warmup () =
  let until = Live.now () +. host_warmup_s in
  let work () =
    let k = ref 0 in
    while Live.now () < until do
      ignore (Refs.compute (Gen.adhoc ~seed:0 !k));
      incr k
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d

(* Set-up is measured this many times per run and reported as the median;
   the last server set up is the one measured. *)
let setup_rounds = 3

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.int attempted);
            ("failed", J.int failed);
            ("metrics", J.Obj metrics);
          ]))

(* A run must end within 180 s; a wedged server must not hold it. *)
let watchdog_s = 170

(* Whatever ends the run early (the watchdog, a signal, an exception)
   kills every server it started first. *)
let abort code msg =
  Live.kill_children ();
  prerr_endline ("servebench: " ^ msg);
  exit code

(* One live measurement of [workload]: set up [rounds] servers one after
   the other (each timed from spawn through warm-up; all but the last are
   stopped again), then drive the last one for [seconds], read its stats
   and stop it.  On repeat, this process and the servers run pinned to a
   CPU each (Live.pin_for) until the last server has stopped. *)
let live_run ~exe ~dir ~workload ~seed ~seconds ~rounds =
  let gen = Gen.for_workload workload ~seed in
  let warm = warmup workload in
  let pin = Live.pin_for workload in
  let setup ~round =
    let t0 = Live.now () in
    let p =
      Live.start ?pin ~exe ~workload ~sock:(Printf.sprintf "%s/%s%d" dir workload round)
        ~log:(dir ^ "/server.log") ()
    in
    let w = Live.drive ~addr:p.Live.addr ~gen ~first:0 ~stop:(fun i _ -> i >= warm) in
    (p, w, Live.now () -. t0)
  in
  let rec setups k acc =
    let p, w, s = setup ~round:k in
    if k = rounds then (p, w, List.rev (s :: acc))
    else begin
      Live.stop p;
      setups (k + 1) (s :: acc)
    end
  in
  let proc, warm_run, setup_times = setups 1 [] in
  match
    let before = Live.stats proc in
    let t0 = Live.now () in
    let t_end = t0 +. seconds in
    let timed =
      Live.drive ~addr:proc.Live.addr ~gen ~first:warm ~stop:(fun _ t -> t >= t_end)
    in
    let after = Live.stats proc in
    let backends = Live.backend_pids after in
    let rss =
      List.fold_left (fun acc pid -> acc +. Live.vm_hwm_mb pid) 0.0 (proc.Live.pid :: backends)
    in
    Live.stop ~extra:backends proc;
    Option.iter Live.unpin pin;
    { Report.workload; seed; seconds; t0; t_end; warm = warm_run; timed; before; after;
      rss_mb = rss; setup_times = Array.of_list setup_times }
  with
  | run -> run
  | exception e ->
    Live.stop proc;
    raise e

(* The fleet layer is traced on the adhoc stream: after the single-server
   trace, the same stream goes through `qopt fleet` for half as long, and
   its `fleet.*` figures replace the single server's (which are 0). *)
let fleet_share = 0.5

let with_fleet (c, a, f, metrics) (fc, fa, ff, fleet_metrics) =
  let is_fleet = String.starts_with ~prefix:"fleet." in
  ( c && fc,
    a + fa,
    f + ff,
    List.map
      (fun (name, v) -> if is_fleet name then (name, List.assoc name fleet_metrics) else (name, v))
      metrics )

let run () =
  let workload, seed, seconds, trace = args () in
  List.iter
    (fun (signal, name) ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> abort 3 name)))
    [ (Sys.sigalrm, "watchdog expired"); (Sys.sigterm, "terminated"); (Sys.sigint, "interrupted") ];
  ignore (Unix.alarm watchdog_s);
  (* the load generator keeps every reply: a larger minor heap and a lazier
     major GC keep its own pauses out of the latencies it measures *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 400 };
  let exe = "_build/default/bin/qopt.exe" in
  if not (Sys.file_exists exe) then fail "%s is not built" exe;
  (match Checks.run () with
  | [] -> ()
  | errs -> fail "self-check failed: %s" (String.concat "; " errs));
  let dir = Printf.sprintf "_servebench/%d" (Unix.getpid ()) in
  (try Unix.mkdir "_servebench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  host_warmup ();
  let gen = Gen.for_workload workload ~seed in
  let live workload seconds ~rounds = live_run ~exe ~dir ~workload ~seed ~seconds ~rounds in
  let result =
    if not trace then Report.end_to_end ~gen (live workload seconds ~rounds:setup_rounds)
    else begin
      let traced = Trace.per_layer ~gen (live workload seconds ~rounds:1) in
      if workload <> "adhoc" then traced
      else
        with_fleet traced
          (Trace.per_layer ~gen (live "fleet" (seconds *. fleet_share) ~rounds:1))
    end
  in
  (try Unix.unlink (dir ^ "/server.log") with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let correct, attempted, failed, metrics = result in
  print_result ~correct ~attempted ~failed metrics

let () =
  match run () with
  | () -> ()
  | exception e -> abort 2 ("run failed: " ^ Printexc.to_string e)
