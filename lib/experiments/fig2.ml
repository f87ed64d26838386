(** Figure 2: compilation-time breakdown for a customer workload.

    The paper reports MGJN 37%, NLJN 34%, HSJN 5%, plan saving 16%, other
    8% on DB2 — i.e. >90% of compilation spent generating and saving join
    plans.  We reproduce the breakdown on the real2 stand-in workload. *)

module O = Qopt_optimizer
module W = Qopt_workloads
module Tablefmt = Qopt_util.Tablefmt

(* The summed breakdown of the real2_s compiles. *)
let total () =
  let env = Common.serial in
  let measured = Common.measure_workload env (Common.workload env "real2") in
  List.fold_left
    (fun acc m -> O.Instrument.merge acc m.Common.m_real.O.Optimizer.breakdown)
    O.Instrument.zero measured

let pct_of (total : O.Instrument.snapshot) x =
  if total.O.Instrument.s_total <= 0.0 then 0.0
  else x /. total.O.Instrument.s_total *. 100.0

let gen_save_pct total =
  pct_of total
    (total.O.Instrument.s_mgjn +. total.O.Instrument.s_nljn
   +. total.O.Instrument.s_hsjn +. total.O.Instrument.s_save)

let other_pct total =
  pct_of total
    (total.O.Instrument.s_card +. total.O.Instrument.s_scan
   +. total.O.Instrument.s_other)

(* (generating+saving %, other %) — the figure's two headline shares, which
   the bench reports so CI can hold the paper's premise. *)
let shares () =
  let total = total () in
  (gen_save_pct total, other_pct total)

let run () =
  let total = total () in
  let pct = pct_of total in
  let t =
    Tablefmt.create
      ~title:
        "fig2: compilation time breakdown, real2_s (paper: MGJN 37%, NLJN 34%, \
         HSJN 5%, plan saving 16%, other 8%)"
      [ ("category", Tablefmt.Left); ("share", Tablefmt.Right) ]
  in
  let join_gen_and_save = gen_save_pct total in
  Tablefmt.add_row t [ "MGJN plan generation"; Tablefmt.fpct (pct total.O.Instrument.s_mgjn) ];
  Tablefmt.add_row t [ "NLJN plan generation"; Tablefmt.fpct (pct total.O.Instrument.s_nljn) ];
  Tablefmt.add_row t [ "HSJN plan generation"; Tablefmt.fpct (pct total.O.Instrument.s_hsjn) ];
  Tablefmt.add_row t [ "plan saving (MEMO)"; Tablefmt.fpct (pct total.O.Instrument.s_save) ];
  Tablefmt.add_row t
    [ "other (enum, card, scans, rest)"; Tablefmt.fpct (other_pct total) ];
  Tablefmt.add_sep t;
  Tablefmt.add_row t
    [ "join plan generation + saving"; Tablefmt.fpct join_gen_and_save ];
  Tablefmt.print t;
  Format.printf
    "paper shape check: join plan generation+saving should dominate (>80%%): \
     measured %.1f%%@.@."
    join_gen_and_save
