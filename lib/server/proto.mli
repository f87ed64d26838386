(** The compile-service wire protocol: requests and replies as JSON
    documents (framed by {!Wire}).

    Every request carries a client-chosen [id] echoed in its reply, so a
    client may pipeline requests on one connection and match replies even
    when shortest-estimated-job-first scheduling completes them out of
    order.

    Requests:
    {v
      {"op":"estimate","id":1,"sql":"SELECT ...","schema":"warehouse"}
      {"op":"compile","id":2,"sql":"...","schema":null,"deadline_ms":500}
      {"op":"stats","id":3}
      {"op":"shutdown","id":4}
    v}

    Replies are one of [estimate], [compile], [rejected] (admission
    control), [cancelled] (deadline or shutdown), [error] (parse/bind
    failure), [stats], or [ok] (shutdown acknowledgement). *)

module J = Qopt_util.Json

type request =
  | Estimate of { id : int; sql : string; schema : string option }
  | Compile of {
      id : int;
      sql : string;
      schema : string option;
      deadline_ms : float option;  (** relative to arrival, milliseconds *)
      estimate_hint_s : float option;
          (** predicted compilation seconds, computed upstream (the fleet
              router estimates once and forwards); a server started with
              trust-hints admits on this instead of re-running its own
              COTE pass.  Only rendered when present, so hint-less
              requests are byte-identical to the pre-fleet format. *)
    }
  | Stats of { id : int }
  | Shutdown of { id : int }

type estimate_body = {
  e_predicted_s : float;  (** predicted compilation seconds (COTE) *)
  e_level : string;  (** optimization level the prediction is for *)
  e_cache_hit : bool;  (** statement-cache refinement used *)
  e_joins : int;
  e_nljn : int;
  e_mgjn : int;
  e_hsjn : int;
  e_entries : int;
  e_estimation_s : float;  (** what the estimation itself cost *)
}

type compile_body = {
  c_plan : string option;  (** compact plan rendering, [None] if no plan *)
  c_cost : float;
  c_card : float;
  c_joins : int;
  c_kept : int;
  c_entries : int;
  c_elapsed_s : float;  (** actual compilation seconds *)
  c_predicted_s : float;  (** what the COTE predicted at admission *)
  c_level : string;
  c_queue_s : float;  (** time spent queued before a worker picked it up *)
  c_cache_hit : bool;
  c_plan_cached : bool;
      (** served from the plan cache — no optimizer pass ran at all
          (parsed with a [false] default, so older servers interoperate) *)
  c_regime : string;
      (** which compile regime produced the plan: ["dp"], ["greedy"], or
          ["dp_budget_fallback"] ({!Cote.Regime}) — parsed with a ["dp"]
          default, so older servers interoperate *)
}

type reply =
  | R_estimate of int * estimate_body
  | R_compile of int * compile_body
  | R_rejected of {
      id : int;
      reason : string;
      estimate_us : float;
      retry_after_us : float option;
          (** server's advice on how long to back off before retrying,
              derived from its admission state (how much estimated work
              is in flight).  Absent for rejections that retrying cannot
              cure (per-request ceiling, shutdown) and on replies from
              older servers; only rendered when present. *)
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

val request_id : request -> int

val reply_id : reply -> int

val with_reply_id : reply -> int -> reply
(** The same reply under a different id — the fleet router remaps ids
    when multiplexing many client connections over one backend channel. *)

val request_to_json : request -> J.t

val request_of_json : J.t -> (request, string) result

val reply_to_json : reply -> J.t

val compile_tail : compile_body -> string
(** A compile reply encoded once for any id: the bytes of
    [J.to_string (reply_to_json (R_compile (id, c)))] that follow the
    id. *)

val encode_compile : id:int -> string -> string
(** [encode_compile ~id (compile_tail c)] is
    [J.to_string (reply_to_json (R_compile (id, c)))], byte for byte. *)

val reply_of_json : J.t -> (reply, string) result
