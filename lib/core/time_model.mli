(** The compilation-time model (Section 3.5):

    [T = T_inst × Σ_t (C_t × P_t)]

    where [P_t] is the estimated number of generated join plans of type [t]
    and [C_t] the per-plan instruction count.  We fold [T_inst] into the
    coefficients, so each [c_*] is in seconds per plan.  Coefficients come
    from non-negative least-squares regression over a training workload
    ({!Calibrate}); they must be re-fitted when the optimizer changes —
    exactly as the paper notes for new DB2 releases.

    A per-join term is also available: the paper's baseline — estimating
    time from the number of joins alone ("the number of joins" metric of
    Ono-Lohman that Figure 6(a) shows to be ~20x worse) — is a time model
    with only [c_join] set. *)

module O = Qopt_optimizer

type t = {
  c_nljn : float;  (** seconds per generated NLJN plan *)
  c_mgjn : float;
  c_hsjn : float;
  c_join : float;  (** seconds per enumerated join (baseline model) *)
}

val make : ?c_join:float -> c_nljn:float -> c_mgjn:float -> c_hsjn:float -> unit -> t

val joins_only : float -> t
(** The Ono-Lohman-style baseline: every join costs the same. *)

val predict : t -> Estimator.estimate -> float
(** Predicted compilation seconds for an estimate. *)

val predict_counts :
  t -> nljn:float -> mgjn:float -> hsjn:float -> joins:float -> float

val ratios : t -> float * float * float
(** [(c_mgjn : c_nljn : c_hsjn)] normalized so the smallest non-zero
    coefficient is 1 — comparable to the paper's reported 5:2:4 (serial)
    and 6:1:2 (parallel) ratios. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The exact text form, ["c_nljn=H,c_mgjn=H,c_hsjn=H,c_join=H"] with
    each coefficient printed as a hexadecimal float ([%h]), so
    [of_string (to_string t) = Some t] bit for bit.  [qopt fleet] hands
    its fitted model to every backend it spawns this way. *)

val of_string : string -> t option
(** Parse {!to_string}'s form: the four [name=float] fields in that
    order, comma-separated; [None] on anything else. *)
