module O = Qopt_optimizer
module J = Qopt_util.Json
module Obs = Qopt_obs
module Sql = Qopt_sql

type addr = [ `Unix of string | `Tcp of string * int ]

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

(* An atomic flag, not a [lazy]: client threads dial concurrently, and a
   lazy forced by two threads at once raises [Lazy.Undefined]. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let inet_addr host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with Not_found -> Unix.inet_addr_of_string host

(* Runs [f ()], closing [fd] again if it raises. *)
let close_on_error fd f =
  try f ()
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let listen addr =
  ignore_sigpipe ();
  let fd, sockaddr =
    match addr with
    | `Unix path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (fd, Unix.ADDR_INET (inet_addr host, port))
  in
  close_on_error fd (fun () ->
      Unix.bind fd sockaddr;
      Unix.listen fd 64);
  fd

let dial addr =
  ignore_sigpipe ();
  let domain, sockaddr =
    match addr with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (inet_addr host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  close_on_error fd (fun () -> Unix.connect fd sockaddr);
  fd

(* ------------------------------------------------------------------ *)
(* Front-end failures                                                  *)
(* ------------------------------------------------------------------ *)

let error_message = function
  | Failure msg | Sql.Parser.Error msg | Sql.Binder.Error msg | Invalid_argument msg ->
    Some msg
  | Sql.Lexer.Error (msg, at) -> Some (Printf.sprintf "%s (at byte %d)" msg at)
  | O.Budget.Exceeded b -> Some (Format.asprintf "%a" O.Budget.pp_blown b)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* [c_open] is the fd's ownership: read by [send] and [hang_up], cleared
   by [close] — all under [c_wlock], and the fd is closed under it too,
   so no reply or shutdown can reach a descriptor the kernel has already
   handed to the next client.  [c_tasks] counts live [spawn]ed threads
   (also under [c_wlock]); [close] waits for it to reach zero. *)
type conn = {
  c_fd : Unix.file_descr;
  c_oc : out_channel;
  c_wlock : Mutex.t;
  mutable c_open : bool;
  mutable c_tasks : int;
  c_idle : Condition.t;
  c_on_error : unit -> unit;
}

let send_encoded conn payload =
  try
    Mutex.protect conn.c_wlock (fun () ->
        if conn.c_open then Wire.write conn.c_oc payload)
  with Sys_error _ | Unix.Unix_error _ -> ()

let send conn reply = send_encoded conn (J.to_string (Proto.reply_to_json reply))

let close conn =
  Mutex.protect conn.c_wlock (fun () ->
      while conn.c_tasks > 0 do
        Condition.wait conn.c_idle conn.c_wlock
      done;
      conn.c_open <- false;
      (* The in_channel and out_channel share the fd: closing it once is
         the whole teardown. *)
      try Unix.close conn.c_fd with Unix.Unix_error _ -> ())

(* Wakes a connection thread blocked mid-read at shutdown. *)
let hang_up conn =
  Mutex.protect conn.c_wlock (fun () ->
      if conn.c_open then
        try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let fail conn id e =
  match error_message e with
  | Some message ->
    conn.c_on_error ();
    send conn (Proto.R_error { id; message })
  | None -> raise e

let spawn conn ~id f =
  let finished () =
    Mutex.protect conn.c_wlock (fun () ->
        conn.c_tasks <- conn.c_tasks - 1;
        if conn.c_tasks = 0 then Condition.broadcast conn.c_idle)
  in
  let task () =
    Fun.protect ~finally:finished (fun () ->
        match f () with () -> () | exception e -> fail conn id e)
  in
  Mutex.protect conn.c_wlock (fun () -> conn.c_tasks <- conn.c_tasks + 1);
  match Thread.create task () with
  | (_ : Thread.t) -> ()
  | exception e ->
    finished ();
    raise e

let conn_loop conn ic handle =
  let rec loop () =
    match Wire.read ic with
    | None -> ()
    | Some payload ->
      (match J.parse payload with
      | Error msg -> send conn (Proto.R_error { id = 0; message = msg })
      | Ok doc -> (
        match Proto.request_of_json doc with
        | Error msg -> send conn (Proto.R_error { id = 0; message = msg })
        | Ok req -> (
          match handle conn req with
          | () -> ()
          | exception e -> fail conn (Proto.request_id req) e)));
      loop ()
  in
  try loop () with
  | Wire.Framing_error msg -> send conn (Proto.R_error { id = 0; message = msg })
  | Sys_error _ | Unix.Unix_error _ | End_of_file -> ()

let serve ?(tick = ignore) ~listen:addr ~on_ready ~shutting ~handle ~on_error ~drain () =
  let listen_fd =
    try listen addr
    with e ->
      drain ();
      raise e
  in
  let lock = Mutex.create () in
  let live = ref [] in
  let start fd =
    let conn =
      {
        c_fd = fd;
        c_oc = Unix.out_channel_of_descr fd;
        c_wlock = Mutex.create ();
        c_open = true;
        c_tasks = 0;
        c_idle = Condition.create ();
        c_on_error = on_error;
      }
    in
    let run () =
      Fun.protect
        ~finally:(fun () ->
          close conn;
          Mutex.protect lock (fun () ->
              live := List.filter (fun (c, _) -> c != conn) !live))
        (fun () -> conn_loop conn (Unix.in_channel_of_descr fd) handle)
    in
    (* Registered under [lock] before the thread can unregister itself. *)
    Mutex.protect lock (fun () -> live := (conn, Thread.create run ()) :: !live)
  in
  (* Accept with a poll timeout so a shutdown request (handled on a
     connection thread) stops the loop within one tick — closing a
     listening fd does not reliably wake a blocked accept. *)
  let rec accept_loop () =
    if not (shutting ()) then begin
      (match Unix.select [ listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | fd, _ -> start fd
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      tick ();
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match addr with
      | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | `Tcp _ -> ());
      drain ();
      let conns = Mutex.protect lock (fun () -> !live) in
      List.iter (fun (conn, _) -> hang_up conn) conns;
      List.iter (fun (_, thread) -> Thread.join thread) conns)
    (fun () ->
      on_ready ();
      accept_loop ())

(* ------------------------------------------------------------------ *)
(* The request front end                                               *)
(* ------------------------------------------------------------------ *)

let resolve_schema ~who schemas name =
  match name with
  | None -> (
    match schemas with
    | (n, s) :: _ -> (n, s)
    | [] -> failwith (who ^ " has no schemas configured"))
  | Some n -> (
    match List.assoc_opt n schemas with
    | Some s -> (n, s)
    | None ->
      failwith
        (Printf.sprintf "unknown schema %S (known: %s)" n
           (String.concat ", " (List.map fst schemas))))

(* ------------------------------------------------------------------ *)
(* The statement text map                                              *)
(* ------------------------------------------------------------------ *)

let m_shape_hits = Obs.Registry.counter Obs.Registry.default "frontdoor.shape_hits"

let m_shape_entries = Obs.Registry.gauge Obs.Registry.default "frontdoor.shape_entries"

(* Keyed by (schema, masked text); the value is the statement's template
   key and shape.  Neither depends on plan validity or statistics, so an
   entry never goes stale: the map needs a bound, not invalidation. *)
type shape_entry = {
  s_key : string;
  s_shape : Sql.Ast.select;
}

type shapes = (string * string, shape_entry) Cote.Striped.Lru.t Cote.Striped.t

let shapes ~capacity =
  Cote.Striped.create ~shared:true ~capacity "frontdoor" Cote.Striped.Lru.create

let entries shapes = Cote.Striped.fold shapes (fun n st -> n + Cote.Striped.Lru.length st) 0

let find_shape shapes text =
  Cote.Striped.with_key shapes text (fun st -> Cote.Striped.Lru.find st text)

type ticket = {
  t_text : string * string;
  t_key : string;
  t_shape : Sql.Ast.select;
}

type prepared = {
  p_schema : string;
  p_key : string;
  p_block : O.Query_block.t;
  p_ticket : ticket option;
}

let admit shapes p =
  match p.p_ticket with
  | None -> ()
  | Some tk ->
    Cote.Striped.with_key shapes tk.t_text (fun st ->
        if not (Cote.Striped.Lru.mem st tk.t_text) then
          ignore
            (Cote.Striped.Lru.replace st tk.t_text { s_key = tk.t_key; s_shape = tk.t_shape }));
    (* The gauge sweeps every stripe: outside the stripe's lock, so no
       operation holds two. *)
    if !Obs.Control.on then Obs.Gauge.set m_shape_entries (float_of_int (entries shapes))

(* Key on the template, not the block signature: the template also
   separates string- from numeric-literal statements, and envelope and
   generation revalidation cannot tell same-SQL twins in different schemas
   apart.  (Dependent table names inside the plan cache stay unqualified:
   a stats bump for one schema's table then flushes its same-named twins
   too, which is conservative, never stale.)

   With a map, a text whose masked form is in it skips the parser and the
   template key: its literals refill the stored shape, which yields the
   AST the parser would (the tokens agree but for literal values, and the
   entry's literals were exactly its template's parameters).  A parsed
   text carries its admission ticket when the same holds for it. *)
let prepare ?shapes ~who schemas ~id ~sql ~schema =
  let schema_name, schema = resolve_schema ~who schemas schema in
  let bind ast = Sql.Binder.bind ~name:(Printf.sprintf "q%d" id) schema ast in
  let masked =
    match shapes with
    | None -> None
    | Some m -> (
      match Sql.Lexer.shape sql with
      | None -> None
      | Some (text, literals) ->
        let text = (schema_name, text) in
        Some (text, literals, find_shape m text))
  in
  match masked with
  | Some (_, literals, Some e) ->
    Obs.Counter.incr m_shape_hits;
    {
      p_schema = schema_name;
      p_key = e.s_key;
      p_block = bind (Sql.Template.instantiate e.s_shape literals);
      p_ticket = None;
    }
  | Some (_, _, None) | None ->
    let ast = Sql.Parser.parse sql in
    let tpl = Sql.Template.normalize ast in
    let key = schema_name ^ "|" ^ tpl.Sql.Template.key in
    let p_ticket =
      match masked with
      | Some (text, literals, None)
        when List.compare_lengths literals tpl.Sql.Template.params = 0
             && List.for_all2
                  (fun l p -> l = p.Sql.Template.p_value)
                  literals tpl.Sql.Template.params ->
        Some { t_text = text; t_key = key; t_shape = tpl.Sql.Template.shape }
      | Some _ | None -> None
    in
    { p_schema = schema_name; p_key = key; p_block = bind ast; p_ticket }

type evaluation = {
  ev_choice : Level.chosen;
  ev_predicted_s : float;
  ev_cache_hit : bool;
}

(* The statement cache refines the predicted seconds (a recorded actual
   beats the model) while the COTE pass still supplies the plan-count
   fields of the reply. *)
let evaluate env ~model ~levels ~downgrade_s ~budget cache ~key block =
  let choice =
    Level.select ~levels ~downgrade_s ~predict:(fun knobs ->
        Cote.Predict.compile_time ~budget ~knobs ~model env block)
  in
  let cached =
    Cote.Stmt_cache.lookup cache ~tag:choice.Level.level.Cote.Multi_level.level_name
      ~key block
  in
  {
    ev_choice = choice;
    ev_predicted_s = Option.value ~default:choice.Level.predicted_s cached;
    ev_cache_hit = cached <> None;
  }

let estimate_reply id ev =
  let e = ev.ev_choice.Level.prediction.Cote.Predict.estimate in
  Proto.R_estimate
    ( id,
      {
        Proto.e_predicted_s = ev.ev_predicted_s;
        e_level = ev.ev_choice.Level.level.Cote.Multi_level.level_name;
        e_cache_hit = ev.ev_cache_hit;
        e_joins = e.Cote.Estimator.joins;
        e_nljn = e.Cote.Estimator.nljn;
        e_mgjn = e.Cote.Estimator.mgjn;
        e_hsjn = e.Cote.Estimator.hsjn;
        e_entries = e.Cote.Estimator.entries;
        e_estimation_s = e.Cote.Estimator.elapsed;
      } )

let model_fields ~(model : Cote.Time_model.t) ~fit_s =
  [
    ( "model",
      J.Obj
        [
          ("c_nljn", J.Num model.c_nljn);
          ("c_mgjn", J.Num model.c_mgjn);
          ("c_hsjn", J.Num model.c_hsjn);
          ("c_join", J.Num model.c_join);
        ] );
    ("model_fit_s", J.Num fit_s);
  ]
