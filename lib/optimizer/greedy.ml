module Bitset = Qopt_util.Bitset
module Table = Qopt_catalog.Table

let scan_plan env params selectivity q =
  let block = Cardinality.ctx_block selectivity in
  let table = (Query_block.quantifier block q).Quantifier.table in
  let tables = Bitset.singleton q in
  let card = Cardinality.card selectivity tables in
  let sel = card /. Float.max 1.0 table.Table.row_count in
  let partition =
    if Env.is_parallel env then
      match Interesting.physical_partition block q with
      | Some p -> Some p
      | None ->
        Some (Partition_prop.hash [ Colref.make q (List.hd (Table.column_names table)) ])
    else None
  in
  (* Cheapest access path: sequential scan or a filtered index probe. *)
  let seq_cost = Cost_model.seq_scan params table in
  match Interesting.filter_indexes block q with
  | idx :: _ when Cost_model.index_scan params table ~sel < seq_cost ->
    {
      Plan.op = Plan.Index_scan (q, idx);
      tables;
      order = List.map (fun col -> Colref.make q col) idx.Qopt_catalog.Index.columns;
      partition;
      card;
      cost = Cost_model.index_scan params table ~sel;
    }
  | _ :: _ | [] ->
    {
      Plan.op = Plan.Seq_scan q;
      tables;
      order = [];
      partition;
      card;
      cost = seq_cost;
    }

(* [sel] is the caller's selectivity context with the list indices of
   [preds] (see [Cost_model.join_context]); without it the histograms are
   read on the spot. *)
let cheapest_join ?sel params block ~outer ~inner ~preds ~out_card =
  let ctx =
    Cost_model.join_context ?sel params block ~preds ~inner_card:inner.Plan.card
  in
  let probe =
    Cost_model.inner_probe_cost ?sel:(Option.map fst sel) params block ~preds
      ~inner_tables:inner.Plan.tables
  in
  let candidates =
    [
      ( Join_method.NLJN,
        Cost_model.nljn params block ~ctx ~probe ~outer ~inner ~out_card (),
        outer.Plan.order );
      ( Join_method.MGJN,
        Cost_model.mgjn params block ~ctx ~outer ~inner ~out_card
          ~sort_outer:true ~sort_inner:true (),
        [] );
      ( Join_method.HSJN,
        Cost_model.hsjn params block ~ctx ~outer ~inner ~out_card (),
        [] );
    ]
  in
  let method_, cost, order =
    List.fold_left
      (fun ((_, bc, _) as best) ((_, c, _) as cand) -> if c < bc then cand else best)
      (List.hd candidates) (List.tl candidates)
  in
  {
    Plan.op = Plan.Join (method_, outer, inner, preds);
    tables = Bitset.union outer.Plan.tables inner.Plan.tables;
    order;
    partition = outer.Plan.partition;
    card = out_card;
    cost;
  }

let optimize env block =
  let params = Cost_model.params env in
  let n = Query_block.n_quantifiers block in
  if n = 0 then None
  else begin
    let sel = Cardinality.context Cardinality.Full block in
    let components = ref [] in
    for q = n - 1 downto 0 do
      components := scan_plan env params sel q :: !components
    done;
    let crossing a b =
      Query_block.crossing_preds_indexed block a.Plan.tables b.Plan.tables
    in
    let rec loop comps =
      match comps with
      | [] -> None
      | [ only ] -> Some only
      | _ :: _ :: _ ->
        (* Choose the pair with the smallest join result, preferring
           connected pairs over Cartesian products. *)
        let best = ref None in
        List.iteri
          (fun i a ->
            List.iteri
              (fun k b ->
                if k > i then begin
                  let tagged = crossing a b in
                  let union = Bitset.union a.Plan.tables b.Plan.tables in
                  let card = Cardinality.card sel union in
                  let connected = tagged <> [] in
                  let better =
                    match !best with
                    | None -> true
                    | Some (bconn, bcard, _, _, _) ->
                      if connected && not bconn then true
                      else if connected = bconn then card < bcard
                      else false
                  in
                  if better then best := Some (connected, card, a, b, tagged)
                end)
              comps)
          comps;
        (match !best with
        | None -> None
        | Some (_, card, a, b, tagged) ->
          (* Cost both directions and keep the cheaper join. *)
          let preds = List.map snd tagged and sel = (sel, List.map fst tagged) in
          let j1 = cheapest_join ~sel params block ~outer:a ~inner:b ~preds ~out_card:card in
          let j2 = cheapest_join ~sel params block ~outer:b ~inner:a ~preds ~out_card:card in
          let joined = if j1.Plan.cost <= j2.Plan.cost then j1 else j2 in
          let rest =
            List.filter (fun c -> c != a && c != b) comps
          in
          loop (joined :: rest))
    in
    loop !components
  end
