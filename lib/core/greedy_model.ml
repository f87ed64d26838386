module O = Qopt_optimizer
module Regression = Qopt_util.Regression

type t = {
  g_quant : float;
  g_edge : float;
  g_restart : float;
}

let make ~g_quant ~g_edge ~g_restart () = { g_quant; g_edge; g_restart }

(* Fitted on the giant workload shapes (chain/cycle/star/snowflake/clique at
   20-50 tables) on the reference container: the spanning-tree sweep is
   edge-dominated (sorting + union-find + 6 costed joins per accepted edge),
   quantifiers add the scan-plan pass, and each restart re-runs the sweep.
   Re-fit with [fit] for a new environment, exactly like the DP model. *)
let default = { g_quant = 6e-5; g_edge = 1.5e-5; g_restart = 3e-3 }

let predict t ~quantifiers ~edges ~restarts =
  (t.g_quant *. float_of_int quantifiers)
  +. (t.g_edge *. float_of_int edges)
  +. (t.g_restart *. float_of_int restarts)

let predict_fallback t (fb : O.Optimizer.fallback) =
  predict t ~quantifiers:fb.O.Optimizer.fb_quantifiers
    ~edges:fb.O.Optimizer.fb_edges ~restarts:fb.O.Optimizer.fb_restarts

type observation = {
  gob_quant : float;
  gob_edges : float;
  gob_restarts : float;
  gob_seconds : float;
}

let fit observations =
  if observations = [] then invalid_arg "Greedy_model.fit: no observations";
  let xs =
    Array.of_list
      (List.map
         (fun o -> [| o.gob_quant; o.gob_edges; o.gob_restarts |])
         observations)
  in
  let ys = Array.of_list (List.map (fun o -> o.gob_seconds) observations) in
  let c = Regression.fit_nonneg xs ys in
  { g_quant = c.(0); g_edge = c.(1); g_restart = c.(2) }

let pp ppf t =
  Format.fprintf ppf "Gq=%.3gus Ge=%.3gus Gr=%.3gus" (t.g_quant *. 1e6)
    (t.g_edge *. 1e6) (t.g_restart *. 1e6)
