module J = Qopt_util.Json

type request =
  | Estimate of { id : int; sql : string; schema : string option }
  | Compile of {
      id : int;
      sql : string;
      schema : string option;
      deadline_ms : float option;
      estimate_hint_s : float option;
    }
  | Stats of { id : int }
  | Shutdown of { id : int }

type estimate_body = {
  e_predicted_s : float;
  e_level : string;
  e_cache_hit : bool;
  e_joins : int;
  e_nljn : int;
  e_mgjn : int;
  e_hsjn : int;
  e_entries : int;
  e_estimation_s : float;
}

type compile_body = {
  c_plan : string option;
  c_cost : float;
  c_card : float;
  c_joins : int;
  c_kept : int;
  c_entries : int;
  c_elapsed_s : float;
  c_predicted_s : float;
  c_level : string;
  c_queue_s : float;
  c_cache_hit : bool;
  c_plan_cached : bool;
  c_regime : string;
}

type reply =
  | R_estimate of int * estimate_body
  | R_compile of int * compile_body
  | R_rejected of {
      id : int;
      reason : string;
      estimate_us : float;
      retry_after_us : float option;
    }
  | R_cancelled of {
      id : int;
      reason : string;
      estimate_us : float;
      queue_s : float;
    }
  | R_error of { id : int; message : string }
  | R_stats of int * J.t
  | R_ok of int

let request_id = function
  | Estimate { id; _ } | Compile { id; _ } | Stats { id } | Shutdown { id } -> id

let reply_id = function
  | R_estimate (id, _)
  | R_compile (id, _)
  | R_rejected { id; _ }
  | R_cancelled { id; _ }
  | R_error { id; _ }
  | R_stats (id, _)
  | R_ok id ->
    id

(* The fleet router multiplexes many client connections over one channel
   per backend, remapping request ids both ways; this rebuilds a reply
   under the id the originating client used. *)
let with_reply_id reply id =
  match reply with
  | R_estimate (_, e) -> R_estimate (id, e)
  | R_compile (_, c) -> R_compile (id, c)
  | R_rejected r -> R_rejected { r with id }
  | R_cancelled r -> R_cancelled { r with id }
  | R_error r -> R_error { r with id }
  | R_stats (_, body) -> R_stats (id, body)
  | R_ok _ -> R_ok id

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let request_to_json = function
  | Estimate { id; sql; schema } ->
    J.Obj
      [
        ("op", J.Str "estimate"); ("id", J.int id); ("sql", J.Str sql);
        ("schema", J.opt (fun s -> J.Str s) schema);
      ]
  | Compile { id; sql; schema; deadline_ms; estimate_hint_s } ->
    J.Obj
      ([
         ("op", J.Str "compile"); ("id", J.int id); ("sql", J.Str sql);
         ("schema", J.opt (fun s -> J.Str s) schema);
         ("deadline_ms", J.opt (fun f -> J.Num f) deadline_ms);
       ]
      (* Only emitted when present, so requests from hint-less clients
         are byte-identical to the pre-fleet wire format. *)
      @
      match estimate_hint_s with
      | None -> []
      | Some s -> [ ("estimate_hint_s", J.Num s) ])
  | Stats { id } -> J.Obj [ ("op", J.Str "stats"); ("id", J.int id) ]
  | Shutdown { id } -> J.Obj [ ("op", J.Str "shutdown"); ("id", J.int id) ]

let reply_to_json = function
  | R_estimate (id, e) ->
    J.Obj
      [
        ("op", J.Str "estimate"); ("id", J.int id);
        ("predicted_s", J.Num e.e_predicted_s); ("level", J.Str e.e_level);
        ("cache_hit", J.Bool e.e_cache_hit); ("joins", J.int e.e_joins);
        ("nljn", J.int e.e_nljn); ("mgjn", J.int e.e_mgjn);
        ("hsjn", J.int e.e_hsjn); ("entries", J.int e.e_entries);
        ("estimation_s", J.Num e.e_estimation_s);
      ]
  | R_compile (id, c) ->
    J.Obj
      [
        ("op", J.Str "compile"); ("id", J.int id);
        ("plan", J.opt (fun s -> J.Str s) c.c_plan); ("cost", J.Num c.c_cost);
        ("card", J.Num c.c_card); ("joins", J.int c.c_joins);
        ("kept", J.int c.c_kept); ("entries", J.int c.c_entries);
        ("elapsed_s", J.Num c.c_elapsed_s);
        ("predicted_s", J.Num c.c_predicted_s); ("level", J.Str c.c_level);
        ("queue_s", J.Num c.c_queue_s); ("cache_hit", J.Bool c.c_cache_hit);
        ("plan_cached", J.Bool c.c_plan_cached);
        ("regime", J.Str c.c_regime);
      ]
  | R_rejected { id; reason; estimate_us; retry_after_us } ->
    J.Obj
      ([
         ("op", J.Str "rejected"); ("id", J.int id); ("reason", J.Str reason);
         ("estimate_us", J.Num estimate_us);
       ]
      @
      match retry_after_us with
      | None -> []
      | Some us -> [ ("retry_after_us", J.Num us) ])
  | R_cancelled { id; reason; estimate_us; queue_s } ->
    J.Obj
      [
        ("op", J.Str "cancelled"); ("id", J.int id); ("reason", J.Str reason);
        ("estimate_us", J.Num estimate_us); ("queue_s", J.Num queue_s);
      ]
  | R_error { id; message } ->
    J.Obj
      [ ("op", J.Str "error"); ("id", J.int id); ("message", J.Str message) ]
  | R_stats (id, body) ->
    J.Obj [ ("op", J.Str "stats"); ("id", J.int id); ("stats", body) ]
  | R_ok id -> J.Obj [ ("op", J.Str "ok"); ("id", J.int id) ]

(* Everything of an encoded compile reply up to its id: the object opens
   with ["op"] then ["id"], as [reply_to_json] orders them. *)
let compile_head = {|{"op":"compile","id":|}

let compile_tail c =
  let with_id0 = J.to_string (reply_to_json (R_compile (0, c))) in
  let head = String.length compile_head + 1 in
  assert (String.sub with_id0 0 head = compile_head ^ "0");
  String.sub with_id0 head (String.length with_id0 - head)

(* [J] renders an integral number below 1e15 in magnitude with ["%.0f"],
   which for an int id is its decimal digits: [string_of_int] gives the
   same bytes without the encoder's buffer and format. *)
let encode_compile ~id tail =
  let digits =
    if id > -1_000_000_000_000_000 && id < 1_000_000_000_000_000 then string_of_int id
    else J.to_string (J.int id)
  in
  String.concat "" [ compile_head; digits; tail ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let field_int j key = Option.bind (J.member key j) J.get_int

let field_string j key = Option.bind (J.member key j) J.get_string

let field_float j key = Option.bind (J.member key j) J.get_float

let field_bool j key = Option.bind (J.member key j) J.get_bool

let id_of j = Option.value ~default:0 (field_int j "id")

let request_of_json j =
  match field_string j "op" with
  | None -> Error "request has no \"op\" field"
  | Some op -> (
    let id = id_of j in
    match op with
    | "estimate" -> (
      match field_string j "sql" with
      | None -> Error "estimate request has no \"sql\" field"
      | Some sql -> Ok (Estimate { id; sql; schema = field_string j "schema" }))
    | "compile" -> (
      match field_string j "sql" with
      | None -> Error "compile request has no \"sql\" field"
      | Some sql ->
        Ok
          (Compile
             {
               id;
               sql;
               schema = field_string j "schema";
               deadline_ms = field_float j "deadline_ms";
               estimate_hint_s = field_float j "estimate_hint_s";
             }))
    | "stats" -> Ok (Stats { id })
    | "shutdown" -> Ok (Shutdown { id })
    | op -> Error (Printf.sprintf "unknown request op %S" op))

let reply_of_json j =
  let req f what = match f with Some v -> v | None -> failwith what in
  match field_string j "op" with
  | None -> Error "reply has no \"op\" field"
  | Some op -> (
    let id = id_of j in
    try
      match op with
      | "estimate" ->
        Ok
          (R_estimate
             ( id,
               {
                 e_predicted_s = req (field_float j "predicted_s") "predicted_s";
                 e_level = req (field_string j "level") "level";
                 e_cache_hit = req (field_bool j "cache_hit") "cache_hit";
                 e_joins = req (field_int j "joins") "joins";
                 e_nljn = req (field_int j "nljn") "nljn";
                 e_mgjn = req (field_int j "mgjn") "mgjn";
                 e_hsjn = req (field_int j "hsjn") "hsjn";
                 e_entries = req (field_int j "entries") "entries";
                 e_estimation_s =
                   req (field_float j "estimation_s") "estimation_s";
               } ))
      | "compile" ->
        Ok
          (R_compile
             ( id,
               {
                 c_plan = field_string j "plan";
                 c_cost = req (field_float j "cost") "cost";
                 c_card = req (field_float j "card") "card";
                 c_joins = req (field_int j "joins") "joins";
                 c_kept = req (field_int j "kept") "kept";
                 c_entries = req (field_int j "entries") "entries";
                 c_elapsed_s = req (field_float j "elapsed_s") "elapsed_s";
                 c_predicted_s = req (field_float j "predicted_s") "predicted_s";
                 c_level = req (field_string j "level") "level";
                 c_queue_s = req (field_float j "queue_s") "queue_s";
                 c_cache_hit = req (field_bool j "cache_hit") "cache_hit";
                 c_plan_cached =
                   Option.value ~default:false (field_bool j "plan_cached");
                 c_regime =
                   Option.value ~default:"dp" (field_string j "regime");
               } ))
      | "rejected" ->
        Ok
          (R_rejected
             {
               id;
               reason = req (field_string j "reason") "reason";
               estimate_us = req (field_float j "estimate_us") "estimate_us";
               (* Absent on replies from pre-hint servers. *)
               retry_after_us = field_float j "retry_after_us";
             })
      | "cancelled" ->
        Ok
          (R_cancelled
             {
               id;
               reason = req (field_string j "reason") "reason";
               estimate_us = req (field_float j "estimate_us") "estimate_us";
               queue_s = req (field_float j "queue_s") "queue_s";
             })
      | "error" ->
        Ok (R_error { id; message = req (field_string j "message") "message" })
      | "stats" ->
        Ok (R_stats (id, Option.value ~default:J.Null (J.member "stats" j)))
      | "ok" -> Ok (R_ok id)
      | op -> Error (Printf.sprintf "unknown reply op %S" op)
    with Failure missing ->
      Error (Printf.sprintf "%s reply missing field %S" op missing))
