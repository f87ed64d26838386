(** Blocking client for the compile service.

    One connection, one thread of control.  Requests may be pipelined:
    [send] writes without waiting, [recv] returns the next reply off the
    wire, and [request] waits for the reply whose [id] matches —
    buffering any out-of-order replies (SJF reorders completions) for
    later [recv]/[request] calls.

    The client owns its reconnection: a send onto a connection the
    server has closed (EPIPE, reset) redials the stored address — with
    the same exponential backoff schedule as [connect] — and resends
    once.  Replies that were in flight on the dead connection are lost;
    the caller observes that as [None] / [Closed], never a raised
    exception from deep inside a read. *)

type t

type outcome =
  | Reply of Proto.reply
  | Timeout  (** deadline passed; the connection was dropped *)
  | Closed  (** peer closed or reset mid-wait; the connection was dropped *)

val connect : ?attempts:int -> ?backoff_s:float -> Frontdoor.addr -> t
(** Dial, retrying connect-refused/not-yet-bound failures up to
    [attempts] times (default 1 — fail fast) with exponential backoff
    starting at [backoff_s] (default 20ms, capped at 1s).  The settings
    are remembered for implicit redials.  Raises [Unix.Unix_error] once
    the attempts are exhausted. *)

val send : t -> Proto.request -> unit
(** Write one request.  A dead connection is redialed (with the
    connect-time backoff schedule) and the request resent once; a second
    failure raises. *)

val recv : t -> Proto.reply option
(** Next reply: a buffered one if any, else read from the socket.
    [None] on EOF or a read error — the connection is dropped (a later
    [send] redials), never half-usable. *)

val request : t -> Proto.request -> Proto.reply option
(** [send] then read until the reply matching the request's [id]
    arrives; replies to other ids are buffered in arrival order. *)

val request_timeout :
  ?timeout_s:float -> t -> Proto.request -> outcome
(** [request] with a wall-clock budget (default 5s) over the whole wait,
    shared across any out-of-order replies buffered on the way.  On
    [Timeout] or [Closed] the connection is dropped: a timeout can tear
    a frame in the channel buffer, and a late reply on a kept socket
    would desync every later exchange. *)

val fresh_id : t -> int
(** Monotonically increasing per-connection request ids, from 1. *)

val close : t -> unit
