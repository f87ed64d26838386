module O = Qopt_optimizer
module Regression = Qopt_util.Regression
module Timer = Qopt_util.Timer

type observation = {
  obs_nljn : float;
  obs_mgjn : float;
  obs_hsjn : float;
  obs_joins : float;
  obs_seconds : float;
  obs_t_nljn : float;
  obs_t_mgjn : float;
  obs_t_hsjn : float;
}

let measure ?knobs ?(repeats = 3) ?runner env block =
  let result, seconds =
    Timer.time_median ~repeats (fun () ->
        O.Optimizer.optimize env ?knobs ?runner block)
  in
  {
    obs_nljn = float_of_int result.O.Optimizer.generated.O.Memo.nljn;
    obs_mgjn = float_of_int result.O.Optimizer.generated.O.Memo.mgjn;
    obs_hsjn = float_of_int result.O.Optimizer.generated.O.Memo.hsjn;
    obs_joins = float_of_int result.O.Optimizer.joins;
    obs_seconds = seconds;
    obs_t_nljn = result.O.Optimizer.breakdown.O.Instrument.s_nljn;
    obs_t_mgjn = result.O.Optimizer.breakdown.O.Instrument.s_mgjn;
    obs_t_hsjn = result.O.Optimizer.breakdown.O.Instrument.s_hsjn;
  }

let fit ?(with_join_term = false) observations =
  if observations = [] then invalid_arg "Calibrate.fit: no observations";
  let features o =
    if with_join_term then [| o.obs_nljn; o.obs_mgjn; o.obs_hsjn; o.obs_joins |]
    else [| o.obs_nljn; o.obs_mgjn; o.obs_hsjn |]
  in
  let xs = Array.of_list (List.map features observations) in
  let ys = Array.of_list (List.map (fun o -> o.obs_seconds) observations) in
  let c = Regression.fit_nonneg xs ys in
  Time_model.make ~c_nljn:c.(0) ~c_mgjn:c.(1) ~c_hsjn:c.(2)
    ?c_join:(if with_join_term then Some c.(3) else None)
    ()

let refit ?ridge ?(with_join_term = false) ~previous observations =
  (* Online recalibration must never kill the serving path: a degenerate
     training batch (empty, or rank-deficient — e.g. every query produced
     proportional plan counts) keeps the previous coefficients instead of
     raising. *)
  match observations with
  | [] -> previous
  | _ -> (
    let features o =
      if with_join_term then [| o.obs_nljn; o.obs_mgjn; o.obs_hsjn; o.obs_joins |]
      else [| o.obs_nljn; o.obs_mgjn; o.obs_hsjn |]
    in
    let xs = Array.of_list (List.map features observations) in
    let ys = Array.of_list (List.map (fun o -> o.obs_seconds) observations) in
    (* Solvable (full-rank) normal equations are the health check; the
       coefficients themselves come from the usual non-negative fit.  An
       optional ridge dampens the check for callers that would rather
       accept a near-singular window than keep a drifted model. *)
    match Regression.fit_result ?ridge xs ys with
    | Error _ -> previous
    | Ok _ -> (
      match fit ~with_join_term observations with
      | m -> m
      | exception (Failure _ | Invalid_argument _) -> previous))

let fit_joins_only observations =
  if observations = [] then invalid_arg "Calibrate.fit_joins_only: no observations";
  let xs = Array.of_list (List.map (fun o -> [| o.obs_joins |]) observations) in
  let ys = Array.of_list (List.map (fun o -> o.obs_seconds) observations) in
  let c = Regression.fit_nonneg xs ys in
  Time_model.joins_only c.(0)

let fit_instrumented observations =
  if observations = [] then invalid_arg "Calibrate.fit_instrumented: no observations";
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 observations in
  let per_plan time count =
    let c = sum count in
    if c <= 0.0 then 0.0 else sum time /. c
  in
  let cn = per_plan (fun o -> o.obs_t_nljn) (fun o -> o.obs_nljn) in
  let cm = per_plan (fun o -> o.obs_t_mgjn) (fun o -> o.obs_mgjn) in
  let ch = per_plan (fun o -> o.obs_t_hsjn) (fun o -> o.obs_hsjn) in
  (* Inflate proportionally so the model accounts for total compilation time
     (plan saving, enumeration, scans ride along with plan generation). *)
  let modeled =
    sum (fun o -> (cn *. o.obs_nljn) +. (cm *. o.obs_mgjn) +. (ch *. o.obs_hsjn))
  in
  let inflate = if modeled <= 0.0 then 1.0 else sum (fun o -> o.obs_seconds) /. modeled in
  Time_model.make ~c_nljn:(cn *. inflate) ~c_mgjn:(cm *. inflate)
    ~c_hsjn:(ch *. inflate) ()

let calibrate ?knobs ?repeats ?with_join_term env blocks =
  fit ?with_join_term (List.map (measure ?knobs ?repeats env) blocks)
