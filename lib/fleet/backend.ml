module J = Qopt_util.Json
module Timer = Qopt_util.Timer
module Srv = Qopt_server

type launch = Spawn of { exe : string; argv : string array } | External

type spec = { sp_addr : Srv.Frontdoor.addr; sp_launch : launch }

type outcome = Reply of Srv.Proto.reply | Timeout | Unreachable

(* One multiplexed connection to a backend: many router-side requests in
   flight at once, matched back to their waiters by the remapped request
   id.  A single reader thread drains replies; waiters sleep on the
   channel condvar, woken by the reader (fast path) or by the router's
   watchdog tick (so deadline waits cannot sleep past their deadline by
   more than one tick). *)
type slot = { mutable sl_reply : Srv.Proto.reply option }

type chan = {
  ch_fd : Unix.file_descr;
  ch_ic : in_channel;
  ch_oc : out_channel;
  ch_wlock : Mutex.t;  (* frame writes are atomic under this *)
  ch_lock : Mutex.t;  (* pending table, next_id, closed flag *)
  ch_cond : Condition.t;
  ch_pending : (int, slot) Hashtbl.t;
  mutable ch_next_id : int;
  mutable ch_closed : bool;
}

type t = {
  index : int;
  spec : spec;
  lock : Mutex.t;  (* chan/pid/down_since/probing/counters *)
  mutable chan : chan option;
  mutable pid : int option;
  mutable down_since : float option;  (* None while in rotation *)
  mutable probing : bool;  (* one probe at a time, outside [lock] *)
  mutable inflight : int;
  mutable routed : int;  (* compile dispatches sent here, ever *)
}

let create index spec =
  {
    index;
    spec;
    lock = Mutex.create ();
    chan = None;
    pid = None;
    down_since = Some 0.0;  (* not yet started = out of rotation *)
    probing = false;
    inflight = 0;
    routed = 0;
  }

let index t = t.index

let addr t = t.spec.sp_addr

let pid t = Mutex.protect t.lock (fun () -> t.pid)

let is_up t = Mutex.protect t.lock (fun () -> t.down_since = None)

let inflight t = Mutex.protect t.lock (fun () -> t.inflight)

let routed t = Mutex.protect t.lock (fun () -> t.routed)

let note_routed t = Mutex.protect t.lock (fun () -> t.routed <- t.routed + 1)

(* ------------------------------------------------------------------ *)
(* Channel plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let close_chan ch =
  Mutex.protect ch.ch_lock (fun () ->
      ch.ch_closed <- true;
      Condition.broadcast ch.ch_cond);
  try Unix.close ch.ch_fd with Unix.Unix_error _ -> ()

(* [on_lost ch] runs once the reader has closed [ch] on a hang-up or a
   bad frame: the backend owning it may be dead even if no request is
   waiting to notice. *)
let reader ~on_lost ch () =
  let fail () =
    Mutex.protect ch.ch_lock (fun () ->
        ch.ch_closed <- true;
        Condition.broadcast ch.ch_cond);
    on_lost ch
  in
  let rec loop () =
    match Srv.Wire.read ch.ch_ic with
    | None -> fail ()
    | exception (Sys_error _ | End_of_file | Srv.Wire.Framing_error _) ->
      fail ()
    | Some payload -> (
      match Result.bind (J.parse payload) Srv.Proto.reply_of_json with
      | Error _ -> fail ()
      | Ok reply ->
        Mutex.protect ch.ch_lock (fun () ->
            (match
               Hashtbl.find_opt ch.ch_pending (Srv.Proto.reply_id reply)
             with
            | Some slot -> slot.sl_reply <- Some reply
            | None -> (* late reply to a timed-out id: drop it *) ());
            Condition.broadcast ch.ch_cond);
        loop ())
  in
  loop ()

let open_chan ~attempts ~on_lost addr =
  let rec go n delay =
    match Srv.Frontdoor.dial addr with
    | fd ->
      let ch =
        {
          ch_fd = fd;
          ch_ic = Unix.in_channel_of_descr fd;
          ch_oc = Unix.out_channel_of_descr fd;
          ch_wlock = Mutex.create ();
          ch_lock = Mutex.create ();
          ch_cond = Condition.create ();
          ch_pending = Hashtbl.create 32;
          ch_next_id = 1;
          ch_closed = false;
        }
      in
      ignore (Thread.create (reader ~on_lost ch) ());
      Some ch
    | exception Unix.Unix_error _ when n + 1 < attempts ->
      Thread.delay delay;
      go (n + 1) (Float.min (delay *. 2.0) 0.25)
    | exception Unix.Unix_error _ -> None
  in
  go 0 0.02

(* The watchdog's tick: wake any deadline waiters so they can re-check
   the clock (OCaml's Condition has no timed wait). *)
let tick t =
  match Mutex.protect t.lock (fun () -> t.chan) with
  | None -> ()
  | Some ch -> Mutex.protect ch.ch_lock (fun () -> Condition.broadcast ch.ch_cond)

(* ------------------------------------------------------------------ *)
(* Process lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let spawn_process exe argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close null with Unix.Unix_error _ -> ())
    (fun () -> Unix.create_process exe argv null null Unix.stderr)

(* Reap an exited child so a killed backend never lingers as a zombie;
   leaves a still-running pid alone. *)
let reap_locked t =
  match t.pid with
  | None -> ()
  | Some pid -> (
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> t.pid <- None
    | exception Unix.Unix_error _ -> t.pid <- None)

let mark_down_locked t =
  let ch = t.chan in
  t.chan <- None;
  if t.down_since = None then t.down_since <- Some (Timer.monotonic_now ());
  reap_locked t;
  ch

let mark_down t = Option.iter close_chan (Mutex.protect t.lock (fun () -> mark_down_locked t))

(* The reader of [ch] lost its backend.  Only the channel in rotation
   takes the backend down: a failed probe's channel, or one replaced by a
   respawn, closes without touching the live one. *)
let lost t ch =
  Option.iter close_chan
    (Mutex.protect t.lock (fun () ->
         match t.chan with
         | Some c when c == ch -> mark_down_locked t
         | Some _ | None -> None))

let install t ch =
  Mutex.protect t.lock (fun () ->
      t.chan <- Some ch;
      t.down_since <- None)

let start ?(attempts = 100) t =
  (match t.spec.sp_launch with
  | External -> ()
  | Spawn { exe; argv } ->
    let pid = spawn_process exe argv in
    Mutex.protect t.lock (fun () -> t.pid <- Some pid));
  match open_chan ~attempts ~on_lost:(lost t) t.spec.sp_addr with
  | Some ch ->
    install t ch;
    true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let rpc_chan ch ~timeout_s mk =
  let alloc =
    Mutex.protect ch.ch_lock (fun () ->
        if ch.ch_closed then None
        else begin
          let id = ch.ch_next_id in
          ch.ch_next_id <- id + 1;
          let slot = { sl_reply = None } in
          Hashtbl.replace ch.ch_pending id slot;
          Some (id, slot)
        end)
  in
  match alloc with
  | None -> Unreachable
  | Some (id, slot) -> (
    let wrote =
      try
        Mutex.protect ch.ch_wlock (fun () ->
            Srv.Wire.write ch.ch_oc
              (J.to_string (Srv.Proto.request_to_json (mk id))));
        true
      with Sys_error _ | Unix.Unix_error _ -> false
    in
    if not wrote then begin
      Mutex.protect ch.ch_lock (fun () ->
          Hashtbl.remove ch.ch_pending id;
          ch.ch_closed <- true;
          Condition.broadcast ch.ch_cond);
      Unreachable
    end
    else begin
      let deadline = Timer.monotonic_now () +. timeout_s in
      Mutex.protect ch.ch_lock (fun () ->
          let rec wait () =
            match slot.sl_reply with
            | Some reply ->
              Hashtbl.remove ch.ch_pending id;
              Reply reply
            | None ->
              if ch.ch_closed then begin
                Hashtbl.remove ch.ch_pending id;
                Unreachable
              end
              else if Timer.monotonic_now () >= deadline then begin
                (* The compile may still finish on the backend; leaving
                   the id removed makes the late reply an unknown id the
                   reader drops, so the channel stays usable. *)
                Hashtbl.remove ch.ch_pending id;
                Timeout
              end
              else begin
                Condition.wait ch.ch_cond ch.ch_lock;
                wait ()
              end
          in
          wait ())
    end)

let rpc t ~timeout_s mk =
  match Mutex.protect t.lock (fun () -> t.chan) with
  | None -> Unreachable
  | Some ch ->
    Mutex.protect t.lock (fun () -> t.inflight <- t.inflight + 1);
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.lock (fun () -> t.inflight <- t.inflight - 1))
      (fun () -> rpc_chan ch ~timeout_s mk)

(* ------------------------------------------------------------------ *)
(* Probing / readmission                                               *)
(* ------------------------------------------------------------------ *)

(* One prober at a time, and only after [probe_after_s] down-time: every
   other dispatcher sees the backend as down and routes around it rather
   than queueing on a probe.  A probe reaps + respawns a dead Spawn
   process, reconnects, and must complete a stats round trip before the
   backend re-enters rotation. *)
let try_probe t ~probe_after_s =
  let claimed =
    Mutex.protect t.lock (fun () ->
        match t.down_since with
        | Some since
          when (not t.probing)
               && Timer.monotonic_now () -. since >= probe_after_s ->
          t.probing <- true;
          true
        | _ -> false)
  in
  if not claimed then false
  else begin
    let finish up =
      Mutex.protect t.lock (fun () ->
          t.probing <- false;
          if not up then t.down_since <- Some (Timer.monotonic_now ()));
      up
    in
    (match t.spec.sp_launch with
    | External -> ()
    | Spawn { exe; argv } ->
      let dead =
        Mutex.protect t.lock (fun () ->
            reap_locked t;
            t.pid = None)
      in
      if dead then
        let pid = spawn_process exe argv in
        Mutex.protect t.lock (fun () -> t.pid <- Some pid));
    match open_chan ~attempts:8 ~on_lost:(lost t) t.spec.sp_addr with
    | None -> finish false
    | Some ch -> (
      match
        rpc_chan ch ~timeout_s:2.0 (fun id -> Srv.Proto.Stats { id })
      with
      | Reply (Srv.Proto.R_stats _) ->
        install t ch;
        finish true
      | Reply _ | Timeout | Unreachable ->
        close_chan ch;
        finish false)
  end

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

let shutdown ?(timeout_s = 5.0) t =
  (match rpc t ~timeout_s:1.0 (fun id -> Srv.Proto.Shutdown { id }) with
  | Reply _ | Timeout | Unreachable -> ());
  mark_down t;
  match Mutex.protect t.lock (fun () -> t.pid) with
  | None -> ()
  | Some pid ->
    let deadline = Timer.monotonic_now () +. timeout_s in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Timer.monotonic_now () >= deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
        end
        else begin
          Thread.delay 0.02;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    Mutex.protect t.lock (fun () -> t.pid <- None)
