module J = Qopt_util.Json
module Timer = Qopt_util.Timer

type link = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = {
  addr : Frontdoor.addr;
  attempts : int;
  backoff_s : float;
  mutable link : link option;  (* None between a drop and the next redial *)
  mutable pending : Proto.reply list;  (* buffered out-of-order, oldest first *)
  mutable next_id : int;
}

type outcome = Reply of Proto.reply | Timeout | Closed

let link_of fd =
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Connect failures worth sleeping on: the server may still be binding
   (fleet slow-start), restarting, or draining a backlog.  ENOENT covers
   a Unix socket whose file has not been created yet. *)
let retryable = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE
  | Unix.EAGAIN ->
    true
  | _ -> false

let dial_backoff ~attempts ~backoff_s addr =
  let rec go n delay =
    match Frontdoor.dial addr with
    | fd -> link_of fd
    | exception Unix.Unix_error (e, _, _) when n + 1 < attempts && retryable e
      ->
      Thread.delay delay;
      go (n + 1) (Float.min (delay *. 2.0) 1.0)
  in
  go 0 backoff_s

let connect ?(attempts = 1) ?(backoff_s = 0.02) addr =
  let attempts = max 1 attempts in
  let link = dial_backoff ~attempts ~backoff_s addr in
  { addr; attempts; backoff_s; link = Some link; pending = []; next_id = 1 }

let drop t =
  match t.link with
  | None -> ()
  | Some l ->
    t.link <- None;
    (try Unix.close l.fd with Unix.Unix_error _ -> ())

(* Redial lazily: the link lost to an EPIPE (or an explicit drop) comes
   back on the next send, with the same backoff schedule as connect.
   Replies already buffered in [pending] were fully received and stay
   valid; replies still in flight on the dead connection are gone — the
   caller's request/request_timeout observes that as [Closed]. *)
let ensure t =
  match t.link with
  | Some l -> l
  | None ->
    let l = dial_backoff ~attempts:t.attempts ~backoff_s:t.backoff_s t.addr in
    t.link <- Some l;
    l

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let write_req l req = Wire.write l.oc (J.to_string (Proto.request_to_json req))

let send t req =
  let l = ensure t in
  try write_req l req
  with Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    (* The server went away under us (a fleet backend being killed, a
       restart): reconnect with backoff and resend once.  A second
       failure propagates — the address is genuinely dead. *)
    drop t;
    write_req (ensure t) req

let read_one_link l =
  match Wire.read l.ic with
  | None -> None
  | Some payload -> (
    match J.parse payload with
    | Error msg -> raise (Wire.Framing_error ("bad reply JSON: " ^ msg))
    | Ok doc -> (
      match Proto.reply_of_json doc with
      | Error msg -> raise (Wire.Framing_error ("bad reply: " ^ msg))
      | Ok reply -> Some reply))

let recv t =
  match t.pending with
  | reply :: rest ->
    t.pending <- rest;
    Some reply
  | [] -> (
    match t.link with
    | None -> None
    | Some l -> (
      match read_one_link l with
      | Some _ as r -> r
      | None ->
        drop t;
        None
      | exception (Sys_error _ | End_of_file | Wire.Framing_error _) ->
        (* A torn frame (the peer died mid-reply) is as dead as an EOF:
           nothing after the tear can be re-synchronized. *)
        drop t;
        None))

let request t req =
  send t req;
  let want = Proto.request_id req in
  let matches r = Proto.reply_id r = want in
  match List.partition matches t.pending with
  | hit :: _, rest ->
    t.pending <- rest;
    Some hit
  | [], _ ->
    let rec wait () =
      match recv t with
      | None -> None
      | Some r when matches r -> Some r
      | Some r ->
        t.pending <- t.pending @ [ r ];
        wait ()
    in
    wait ()

(* A timed wait on a buffered channel.  A blocked channel read cannot be
   interrupted from the inside (the runtime retries reads until data
   arrives), so the deadline is enforced from the outside: a watcher
   thread half-closes the socket's read side when the budget runs out,
   which surfaces in the reader as an EOF.  The clock then classifies
   what the reader saw — an end-of-stream at or past the deadline is the
   watcher's doing ([Timeout]); earlier, it is the peer dying
   ([Closed]).  Either way the connection is dropped: a timeout may have
   torn a frame in the channel buffer, and a late reply on a kept socket
   would desync every later id. *)
let request_timeout ?(timeout_s = 5.0) t req =
  let want = Proto.request_id req in
  let matches r = Proto.reply_id r = want in
  match send t req with
  | exception (Sys_error _ | Unix.Unix_error _) -> Closed
  | () -> (
    match List.partition matches t.pending with
    | hit :: _, rest ->
      t.pending <- rest;
      Reply hit
    | [], _ -> (
      match t.link with
      | None -> Closed
      | Some l ->
        let deadline = Timer.monotonic_now () +. timeout_s in
        let lock = Mutex.create () in
        let settled = ref false in
        (* [settled] is flipped under [lock] before the fd can be closed,
           so the watcher never shuts down a recycled descriptor. *)
        let (_ : Thread.t) =
          Thread.create
            (fun () ->
              Thread.delay timeout_s;
              Mutex.protect lock (fun () ->
                  if not !settled then
                    try Unix.shutdown l.fd Unix.SHUTDOWN_RECEIVE
                    with Unix.Unix_error _ -> ()))
            ()
        in
        let settle () = Mutex.protect lock (fun () -> settled := true) in
        let dead () =
          let timed_out = Timer.monotonic_now () >= deadline -. 0.01 in
          settle ();
          drop t;
          if timed_out then Timeout else Closed
        in
        let rec wait () =
          match read_one_link l with
          | Some r when matches r ->
            settle ();
            Reply r
          | Some r ->
            t.pending <- t.pending @ [ r ];
            wait ()
          | None -> dead ()
          | exception (Sys_error _ | End_of_file | Wire.Framing_error _) ->
            dead ()
        in
        wait ()))

let close t = drop t
