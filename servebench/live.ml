(* The live side of the benchmark: spawn a real `qopt serve` (or `qopt
   fleet`), drive it over its Unix socket from this one process, and read
   its `stats` counters. *)

module Srv = Qopt_server
module J = Qopt_util.Json
module Timer = Qopt_util.Timer

let now = Timer.monotonic_now

(* One MEMO budget for every single-server workload.  Every adhoc query
   stays under it (at most 10 tables over the tree-shaped foreign-key
   graph: the worst case, a 10-table star, is 2^9 + 9 = 521 entries), and
   so does every giant chain and cycle in the mix (a 24-chain is 300
   entries, a 22-cycle 463); every giant star, clique and 6-branch
   snowflake blows it (a 20-table star has 2^19 + 19) and is served by
   the spanning tree.  The COTE pass aborts at the budget, so its cost on
   those shapes grows with the budget: ~20-40 ms at 600, ~0.2-0.9 s at
   2000. *)
let memo_budget = 600

(* Closed loop: 2 connections (one per core of the reference host), each
   keeping [window] requests outstanding, so a request can queue behind
   the other connection's compile.  A deeper window lets shortest-job-
   first starve the 9-10-table adhoc queries for a stretch that varies
   from run to run: with 2 per connection, adhoc p99 spread over ten
   seeds with an IQR of 55% of its median; with 1 it is 9%. *)
let connections = 2

let window = 1

type proc = { pid : int; addr : Srv.Server.addr }

(* ------------------------------------------------------------------ *)
(* CPU placement                                                        *)
(* ------------------------------------------------------------------ *)

(* On repeat the server and the load generator each get a CPU of their
   own.  Left to the scheduler, the threads of the two processes share
   and swap the two vCPUs of the reference VM, and a run's qps depends on
   where they settle: interleaved ten-second runs read 17.7k-24.2k qps
   unpinned, 15.7k-22.3k with both processes on one CPU, and 17.3k-18.5k
   with the server on one CPU and the load generator on the other.
   Adhoc and giant are compile-bound and steady without it, and there the
   server keeps both CPUs for compiling beside its connection threads. *)
type pin = { server_cpu : int; all : int list }

(* "0-1,4" -> [0; 1; 4] *)
let parse_cpu_list l =
  String.split_on_char ',' (String.trim l)
  |> List.concat_map (fun r ->
         match String.split_on_char '-' r with
         | [ a ] -> [ int_of_string a ]
         | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
         | _ -> [])

let allowed_cpus () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> []
        | Some line -> (
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = "Cpus_allowed_list" ->
            parse_cpu_list (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> go ())
      in
      go ())

(* [taskset argv], waited for; false if it is missing or fails. *)
let taskset args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      match Unix.create_process "taskset" (Array.of_list ("taskset" :: args)) devnull devnull devnull with
      | pid -> ( match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      | exception Unix.Unix_error _ -> false)

(* Moves every thread of this process onto [cpus]; threads and domains
   created later inherit the placement. *)
let place_self cpus =
  taskset
    [ "-a"; "-p"; "-c"; String.concat "," (List.map string_of_int cpus);
      string_of_int (Unix.getpid ()) ]

(* Pins this process for a repeat run, if the host has two CPUs and
   taskset works; the server is then started on the other CPU. *)
let pin_for workload =
  match (workload, allowed_cpus ()) with
  | "repeat", (server_cpu :: client_cpu :: _ as all) when place_self [ client_cpu ] ->
    Some { server_cpu; all }
  | _ -> None

let unpin p = ignore (place_self p.all)

(* Every process this run started and has not seen exit, for the
   watchdog to kill. *)
let children = ref []

let watch pids = children := List.sort_uniq compare (pids @ !children)

let server_argv ~workload ~sock =
  if workload = "fleet" then
    [| "qopt"; "fleet"; "-s"; sock; "--backends"; "2"; "--workers"; "1";
       "--plan-cache"; "--model"; "calibrated"; "--affinity" |]
  else
    [| "qopt"; "serve"; "-s"; sock; "--workers"; "1"; "--plan-cache";
       "--model"; "calibrated"; "--max-memo-entries"; string_of_int memo_budget |]

let alive pid = try Unix.kill pid 0; true with Unix.Unix_error _ -> false

(* Reaps [pid] if it is our child; fleet backends are the router's
   children, and only signal 0 can tell whether they are gone. *)
let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> not (alive pid)

(* Spawn, then dial until the socket accepts a connection and answers a
   stats request. *)
let start ?pin ~exe ~workload ~sock ~log () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = server_argv ~workload ~sock in
  let pid =
    match pin with
    | None -> Unix.create_process exe argv devnull devnull logfd
    | Some p ->
      (* taskset execs the server in place: the pid is the server's *)
      let args = Array.sub argv 1 (Array.length argv - 1) in
      Unix.create_process "taskset"
        (Array.append [| "taskset"; "-c"; string_of_int p.server_cpu; exe |] args)
        devnull devnull logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  watch [ pid ];
  let addr = `Unix sock in
  let deadline = now () +. 120.0 in
  let rec dial () =
    match Srv.Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ ->
      if exited pid then failwith ("server exited during start-up; see " ^ log);
      if now () > deadline then failwith "server never listened";
      Thread.delay 0.002;
      dial ()
  in
  let c = dial () in
  let ok =
    match Srv.Client.request c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
    | Some (Srv.Proto.R_stats _) -> true
    | _ -> false
  in
  Srv.Client.close c;
  if not ok then failwith "server did not answer stats";
  { pid; addr }

(* ------------------------------------------------------------------ *)
(* stats documents                                                      *)
(* ------------------------------------------------------------------ *)

let path doc keys =
  List.fold_left (fun d k -> Option.bind d (J.member k)) (Some doc) keys

let num doc keys = Option.value ~default:0.0 (Option.bind (path doc keys) J.get_float)

let counter doc name = num doc [ "metrics"; "counters"; name ]

let histo_sum doc name = num doc [ "metrics"; "histograms"; name; "sum" ]

(* The per-server documents: the server's own, or each fleet backend's. *)
let servers doc =
  match path doc [ "backends" ] with
  | Some (J.Arr bs) -> List.filter_map (fun b -> J.member "stats" b) bs
  | _ -> [ doc ]

(* Sum of a per-server quantity over servers, after minus before. *)
let delta ~before ~after f =
  let total doc = List.fold_left (fun acc s -> acc +. f s) 0.0 (servers doc) in
  total after -. total before

let backend_pids doc =
  match path doc [ "backends" ] with
  | Some (J.Arr bs) ->
    List.filter_map (fun b -> Option.bind (J.member "pid" b) J.get_int) bs
  | _ -> []

let stats p =
  let c = Srv.Client.connect p.addr in
  Fun.protect
    ~finally:(fun () -> Srv.Client.close c)
    (fun () ->
      match Srv.Client.request c (Srv.Proto.Stats { id = Srv.Client.fresh_id c }) with
      | Some (Srv.Proto.R_stats (_, doc)) ->
        watch (backend_pids doc);
        doc
      | _ -> failwith "stats request failed")

(* Peak resident set of a live process, MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())

let wait_gone ~timeout pid =
  let deadline = now () +. timeout in
  let rec go () =
    if exited pid then true
    else if now () > deadline then false
    else (Thread.delay 0.01; go ())
  in
  go ()

(* Graceful shutdown request; SIGKILL whatever is still there after it.
   [extra] are processes the server spawned (fleet backends), which the
   router shuts down itself but which are checked all the same. *)
let stop ?(extra = []) p =
  (try
     let c = Srv.Client.connect p.addr in
     ignore (Srv.Client.request c (Srv.Proto.Shutdown { id = Srv.Client.fresh_id c }));
     Srv.Client.close c
   with _ -> ());
  if not (wait_gone ~timeout:20.0 p.pid) then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_gone ~timeout:5.0 p.pid)
  end;
  List.iter
    (fun pid ->
      if not (wait_gone ~timeout:5.0 pid) then
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    extra;
  children := List.filter (fun pid -> not (List.mem pid (p.pid :: extra))) !children

(* Direct children of [pid], from /proc: a fleet router's backends. *)
let children_of pid =
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some p -> (
           match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" p) In_channel.input_all with
           | stat ->
             (* "pid (comm) state ppid ...": comm may hold spaces *)
             let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
             Scanf.sscanf after "%_s %d" (fun ppid -> if ppid = pid then Some p else None)
           | exception _ -> None))

let kill_children () =
  let all = List.concat_map (fun pid -> pid :: children_of pid) !children in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) all;
  List.iter (fun pid -> ignore (wait_gone ~timeout:2.0 pid)) all

(* ------------------------------------------------------------------ *)
(* Closed-loop load generator                                           *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Compiled of Srv.Proto.compile_body
  | Rejected
  | Cancelled
  | Errored of string

type sample = { idx : int; sent : float; latency : float; outcome : outcome }

type run = { samples : sample array; sent : int; lost : int }

(* Each connection keeps [window] requests outstanding and sends the next
   request only when a reply arrives.  Request indices come from one
   shared counter; [stop i t] says whether index [i], due at time [t], is
   past the end of the run. *)
let drive ~addr ~(gen : int -> Gen.request) ~first ~stop =
  let next = Atomic.make first in
  let sent = Atomic.make 0 in
  let results = Array.make connections ([], 0) in
  let conn k () =
    let c = Srv.Client.connect addr in
    let pending = Hashtbl.create 16 in
    let samples = ref [] in
    let lost = ref 0 in
    let send () =
      let i = Atomic.fetch_and_add next 1 in
      if not (stop i (now ())) then begin
        let q = gen i in
        let id = Srv.Client.fresh_id c in
        Hashtbl.replace pending id (i, now ());
        Atomic.incr sent;
        try
          Srv.Client.send c
            (Srv.Proto.Compile
               { id; sql = q.Gen.sql; schema = Some q.Gen.schema; deadline_ms = None;
                 estimate_hint_s = None })
        with _ -> ()
      end
    in
    for _ = 1 to window do send () done;
    let rec loop () =
      if Hashtbl.length pending > 0 then
        match Srv.Client.recv c with
        | None -> lost := Hashtbl.length pending
        | Some reply ->
          let t = now () in
          let id = Srv.Proto.reply_id reply in
          (match Hashtbl.find_opt pending id with
          | None -> ()
          | Some (i, t0) ->
            Hashtbl.remove pending id;
            let outcome =
              match reply with
              | Srv.Proto.R_compile (_, b) ->
                (* a cached plan is never checked against a fresh compile:
                   drop its rendering to keep the sample small *)
                Compiled (if b.Srv.Proto.c_plan_cached then { b with c_plan = None } else b)
              | Srv.Proto.R_rejected _ -> Rejected
              | Srv.Proto.R_cancelled _ -> Cancelled
              | Srv.Proto.R_error { message; _ } -> Errored message
              | r -> Errored (J.to_string (Srv.Proto.reply_to_json r))
            in
            samples := { idx = i; sent = t0; latency = t -. t0; outcome } :: !samples;
            send ());
          loop ()
    in
    loop ();
    Srv.Client.close c;
    results.(k) <- (!samples, !lost)
  in
  let threads = Array.init connections (fun k -> Thread.create (conn k) ()) in
  Array.iter Thread.join threads;
  {
    samples = Array.of_list (List.concat_map fst (Array.to_list results));
    sent = Atomic.get sent;
    lost = Array.fold_left (fun acc (_, l) -> acc + l) 0 results;
  }
