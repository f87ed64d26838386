module Obs = Qopt_obs

type t =
  | Dp
  | Greedy
  | Dp_budget_fallback

let to_string = function
  | Dp -> "dp"
  | Greedy -> "greedy"
  | Dp_budget_fallback -> "dp_budget_fallback"

let of_string = function
  | "dp" -> Some Dp
  | "greedy" -> Some Greedy
  | "dp_budget_fallback" -> Some Dp_budget_fallback
  | _ -> None

type decision = {
  d_regime : t;
  d_dp_s : float option;  (** None: DP estimate itself blew the budget *)
  d_greedy_s : float;
  d_margin_s : float;
}

(* Quality first: DP whenever its prediction fits the deadline (or there is
   no deadline and DP is feasible at all).  The greedy regime is for the
   cases DP cannot serve — its estimate pass blew the resource budget, or
   its predicted time misses the deadline.  The margin is the headroom that
   drove the choice: chosen-regime slack against the deadline when one is
   set, otherwise DP's predicted slowdown over greedy. *)
let decide ?deadline_s ~dp_s ~greedy_s () =
  let d_regime, d_margin_s =
    match (dp_s, deadline_s) with
    | None, Some d -> (Greedy, d -. greedy_s)
    | None, None -> (Greedy, 0.0)
    | Some dp, Some d -> if dp <= d then (Dp, d -. dp) else (Greedy, d -. greedy_s)
    | Some dp, None -> (Dp, dp -. greedy_s)
  in
  { d_regime; d_dp_s = dp_s; d_greedy_s = greedy_s; d_margin_s }

let predicted_s d =
  match d.d_regime with
  | Dp -> ( match d.d_dp_s with Some s -> s | None -> d.d_greedy_s)
  | Greedy | Dp_budget_fallback -> d.d_greedy_s

(* Process-wide (a no-op unless Qopt_obs is enabled).  The regime counts
   are the server's [stats] fields, kept per server. *)
let m_margin = Obs.Registry.gauge Obs.Registry.default "regime.decision_margin_s"

let record d = Obs.Gauge.set m_margin d.d_margin_s

let pp ppf r = Format.pp_print_string ppf (to_string r)
