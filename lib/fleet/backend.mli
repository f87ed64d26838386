(** One managed compile backend: an exec'd [qopt serve] process (or an
    externally started server) behind a single multiplexed connection.

    The router shares one connection per backend across all its client
    requests: {!rpc} remaps each request onto a fresh channel id, a
    dedicated reader thread matches replies back to waiters, and waiters
    sleep on the channel condvar — woken by the reader when their reply
    lands, or by the router watchdog's {!tick} so deadline waits can
    re-check the clock (OCaml's [Condition] has no timed wait).

    Health: a backend is either in rotation (connected) or down.  A
    channel failure never blocks dispatch — {!rpc} reports [Unreachable]
    and the router routes around the backend.  When the reader sees the
    backend hang up (a killed process closes its socket), the backend
    leaves rotation at once, with or without traffic to notice.  Readmission goes through
    {!try_probe}: at most one prober at a time, only after a cool-down,
    and the backend must answer a stats round trip before re-entering
    rotation; a dead spawned process is reaped and respawned by the
    probe. *)

module Srv = Qopt_server

type launch =
  | Spawn of { exe : string; argv : string array }
      (** exec a fresh server process ([Unix.create_process] — safe in
          multi-domain programs, unlike [Unix.fork]) *)
  | External  (** already running; never spawned, reaped, or respawned *)

type spec = { sp_addr : Srv.Frontdoor.addr; sp_launch : launch }

type outcome =
  | Reply of Srv.Proto.reply
  | Timeout
      (** deadline passed; the channel stays usable (the late reply is
          dropped by id when it arrives) *)
  | Unreachable
      (** no channel, or it died mid-request — the request was not, or
          may not have been, processed; callers fail over *)

type t

val create : int -> spec -> t
(** Not yet started: out of rotation until {!start} or a probe. *)

val index : t -> int

val addr : t -> Srv.Frontdoor.addr

val pid : t -> int option
(** The spawned process id, if this backend was spawned and has not
    been reaped. *)

val is_up : t -> bool

val inflight : t -> int
(** Requests currently awaiting replies here (load-balance signal). *)

val routed : t -> int
(** Compile dispatches ever routed here (affinity observation). *)

val note_routed : t -> unit

val start : ?attempts:int -> t -> bool
(** Spawn (when [Spawn]) and connect, retrying the dial up to
    [attempts] times (default 100, exponential backoff from 20ms capped
    at 250ms — covers a cold server start).  [false] if the backend
    never became reachable. *)

val rpc :
  t -> timeout_s:float -> (int -> Srv.Proto.request) -> outcome
(** [rpc t ~timeout_s mk] allocates a channel id, sends [mk id], and
    waits for the matching reply.  [mk] must put the given id into the
    request — the router's client-facing ids are remapped through it. *)

val tick : t -> unit
(** Watchdog hook: wake the channel's waiters to re-check deadlines. *)

val mark_down : t -> unit
(** Take the backend out of rotation and close its channel; pending
    {!rpc}s observe [Unreachable].  Also reaps an exited spawned
    process.  Idempotent. *)

val try_probe : t -> probe_after_s:float -> bool
(** Attempt readmission if the backend has been down at least
    [probe_after_s] and no other probe is running: reap/respawn (when
    [Spawn]), reconnect, and require a stats round trip.
    [true] iff the backend is back in rotation. *)

val shutdown : ?timeout_s:float -> t -> unit
(** Best-effort [Shutdown] request, close the channel, and wait for a
    spawned process to exit — escalating to SIGKILL at [timeout_s]
    (default 5s). *)
