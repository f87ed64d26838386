(** Fleet-aware load scenario: mixed tenants, bursty arrivals, optional
    slow start.

    [tenants] concurrent connections each pipeline [bursts] bursts of
    the warehouse mix, with the small/big split jittered per
    (tenant, burst) under a fixed [seed] — so at any moment the fleet
    sees a blend of latency-tier and throughput-tier work from several
    independent queues, rather than one synchronized wave.  With
    [slow_start_s > 0], tenant [i] holds off [i * slow_start_s] seconds
    before connecting (and dials with retries), modelling clients that
    arrive while backends are still warming up.

    Deterministic under a fixed config: the per-tenant RNG is a local
    LCG, never the global [Random] state. *)

module Srv = Qopt_server

type config = {
  tenants : int;  (** concurrent client connections *)
  bursts : int;  (** pipelined bursts per tenant *)
  smalls : int;  (** base small-query count per burst (jittered) *)
  bigs : int;  (** base big-join count per burst (jittered) *)
  pause_s : float;  (** idle gap between a tenant's bursts *)
  slow_start_s : float;  (** per-tenant connect stagger *)
  seed : int;
}

val default_config : config
(** 4 tenants x 3 bursts of ~24 smalls + ~2 bigs, 20ms pauses, no slow
    start, seed 42. *)

val run : config -> addr:Srv.Frontdoor.addr -> Srv.Loadgen.summary
(** Run every tenant to completion against [addr] (a fleet router or a
    single server — the wire protocol is identical) and aggregate all
    bursts into one {!Srv.Loadgen.summary}. *)
