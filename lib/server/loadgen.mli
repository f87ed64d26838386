(** Load generator for the compile service.

    Drives a running server with a mixed compile workload and reports
    latency percentiles, throughput, and structured-outcome counts —
    the numbers behind the SJF-vs-FIFO tail-latency claim and the
    admission-control reject rate.

    Two submission shapes:
    - {b closed-loop}: [clients] connections, each submitting its share
      of the mix back-to-back (a new request the moment the previous
      reply lands);
    - {b burst}: one pipelined connection sends the whole mix up front,
      then collects replies — this is the shape where scheduling policy
      shows up in the percentiles, because the queue is actually deep. *)

type outcome = Compiled | Rejected | Cancelled | Errored

type summary = {
  sent : int;
  compiled : int;
  rejected : int;
  cancelled : int;
  errored : int;
  wall_s : float;  (** first send to last reply *)
  latencies_s : float array;
      (** per-compiled-request send-to-reply seconds, unsorted *)
  qps : float;  (** compiled replies per wall-clock second *)
}

val percentile : float array -> float -> float
(** [percentile lats 0.95]: nearest-rank percentile of a copy of the
    array (input left unsorted).  0.0 on an empty array. *)

val classify : Proto.reply -> outcome
(** Structured-outcome bucket of a reply (anything that is neither a
    compile, a rejection, nor a cancellation counts as [Errored]). *)

val summarize :
  sent:int -> wall_s:float -> outcome list -> float list -> summary
(** Fold a run's outcomes and per-compile latencies into a {!summary} —
    exposed so external drivers (the fleet scenario) aggregate with the
    same arithmetic as {!run_burst}/{!run_closed}. *)

val warehouse_mix : smalls:int -> bigs:int -> string list
(** A workload over {!Qopt_workloads}' warehouse schema: [smalls]
    single-table point queries (sub-millisecond compiles) interleaved
    with [bigs] 8-table star joins (tens of milliseconds).  Bigs are
    placed at the {e front} of the list, so a FIFO server makes every
    small wait behind them while SJF jumps the smalls ahead — the
    experiment in the README's Serving section. *)

val run_burst :
  ?deadline_ms:float -> addr:Frontdoor.addr -> sql:string list -> unit -> summary
(** Pipeline all of [sql] on one connection, then collect one reply per
    request (out-of-order safe: replies are matched by id). *)

val run_closed :
  ?deadline_ms:float ->
  ?clients:int ->
  addr:Frontdoor.addr ->
  sql:string list ->
  unit ->
  summary
(** [clients] (default 4) threads, each submitting a round-robin share
    of [sql] one-at-a-time. *)
