module Bitset = Qopt_util.Bitset
module Rng = Qopt_util.Rng
module Timer = Qopt_util.Timer

type result = {
  st_plan : Plan.t option;
  st_elapsed : float;
  st_edges : int;
  st_restarts : int;
  st_joins : int;
}

let edge_count block =
  let n = Query_block.n_quantifiers block in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let nb = Query_block.neighbors block i in
    for j = i + 1 to n - 1 do
      if Bitset.mem j nb then incr count
    done
  done;
  !count

(* Everything cardinality-related, read from one selectivity context per
   block.  Cardinality factorizes exactly across components — the
   correlation back-off groups by quantifier pair, and the pairs crossing a
   merge are disjoint from the pairs inside either side — so singleton
   cardinalities plus the context's per-pair back-off products reproduce
   [Cardinality.card] incrementally, without a rescan of the block's
   predicates per edge and per merge (quadratic poison on a 1200-edge
   clique). *)
type card_ctx = {
  cc_sel : Cardinality.ctx;
  cc_singleton : float array;  (* cardinality of each 1-table set *)
  cc_spanning_locals : (int * Pred.t) list;
      (* non-join preds spanning several quantifiers (expensive UDFs), with
         their list index: applied when a merge first makes them
         applicable *)
}

let card_context block =
  let sel = Cardinality.context Cardinality.Full block in
  let cc_singleton =
    Array.init (Query_block.n_quantifiers block) (fun q ->
        Cardinality.card sel (Bitset.singleton q))
  in
  let cc_spanning_locals =
    List.filter
      (fun (_, p) -> (not (Pred.is_join p)) && Bitset.cardinal (Pred.tables p) > 1)
      (List.mapi (fun i p -> (i, p)) block.Query_block.preds)
  in
  { cc_sel = sel; cc_singleton; cc_spanning_locals }

(* Cardinality of joining two component plans: both sides' cardinalities
   already include their internal predicates, so only the crossing pairs'
   selectivities (and any multi-table local predicate that just became
   applicable) remain. *)
let merged_card cc a_tables a_card b_tables b_card preds =
  let jsel =
    (* [preds] holds every predicate of every crossing pair: one factor per
       distinct pair. *)
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc p ->
        match Pred.qpair p with
        | Some ((a, b) as key) when not (Hashtbl.mem seen key) ->
          Hashtbl.replace seen key ();
          acc *. Cardinality.pair_sel cc.cc_sel a b
        | Some _ | None -> acc)
      1.0 preds
  in
  let union = Bitset.union a_tables b_tables in
  let locals =
    List.fold_left
      (fun acc (i, p) ->
        if
          Pred.applicable_within p union
          && (not (Pred.applicable_within p a_tables))
          && not (Pred.applicable_within p b_tables)
        then acc *. Cardinality.local_sel cc.cc_sel i
        else acc)
      1.0 cc.cc_spanning_locals
  in
  Float.max 1e-6 (a_card *. b_card *. jsel *. locals)

(* The join graph as a weighted edge list: one edge per adjacent quantifier
   pair, weighted by the estimated cardinality of joining just that pair —
   the spanning-tree heuristic's stand-in for "how much data flows through
   this join". *)
let graph_edges cc block =
  let n = Query_block.n_quantifiers block in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let nb = Query_block.neighbors block i in
    for j = n - 1 downto i + 1 do
      if Bitset.mem j nb then begin
        let jsel = Cardinality.pair_sel cc.cc_sel i j in
        let w =
          Float.max 1e-6 (cc.cc_singleton.(i) *. cc.cc_singleton.(j) *. jsel)
        in
        acc := (i, j, w) :: !acc
      end
    done
  done;
  !acc

(* Weight order with a deterministic (i, j) tie-break so equal-cardinality
   edges — common in symmetric cliques — never make the result depend on
   sort stability. *)
let by_weight (i1, j1, w1) (i2, j2, w2) =
  match Float.compare w1 w2 with
  | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
  | c -> c

let cheaper (a : Plan.t) (b : Plan.t) = if a.Plan.cost <= b.Plan.cost then a else b

(* One construction attempt over a (possibly perturbed) edge list.  The
   Kruskal sweep *is* the MST: processing edges in weight order and merging
   only when the endpoints live in different components selects exactly the
   minimum-spanning-tree edges, and each merge immediately becomes a join
   operator over the two component plans.  All predicates crossing the two
   components (not just the tree edge's) are applied at the merge, so the
   plan evaluates every join predicate exactly once. *)
let attempt env params cc block edges joins =
  let n = Query_block.n_quantifiers block in
  let comps = Array.init n (fun q -> Some (Greedy.scan_plan env params cc.cc_sel q)) in
  let parent = Array.init n (fun q -> q) in
  let rec find q =
    if parent.(q) = q then q
    else begin
      let r = find parent.(q) in
      parent.(q) <- r;
      r
    end
  in
  let merge a b tagged =
    let preds = List.map snd tagged in
    let card =
      merged_card cc a.Plan.tables a.Plan.card b.Plan.tables b.Plan.card preds
    in
    let sel = (cc.cc_sel, List.map fst tagged) in
    joins := !joins + 2;
    cheaper
      (Greedy.cheapest_join ~sel params block ~outer:a ~inner:b ~preds ~out_card:card)
      (Greedy.cheapest_join ~sel params block ~outer:b ~inner:a ~preds ~out_card:card)
  in
  List.iter
    (fun (i, j, _) ->
      let ri = find i and rj = find j in
      if ri <> rj then begin
        match (comps.(ri), comps.(rj)) with
        | Some a, Some b ->
          let preds =
            Query_block.crossing_preds_indexed block a.Plan.tables b.Plan.tables
          in
          comps.(ri) <- Some (merge a b preds);
          comps.(rj) <- None;
          parent.(rj) <- ri
        | _ -> assert false
      end)
    edges;
  (* A disconnected join graph leaves several components; finish with
     Cartesian merges, smallest cardinality product first (Greedy's rule
     once it has no connected pair left). *)
  let rec collapse = function
    | [] -> None
    | [ only ] -> Some only
    | comps ->
      let best = ref None in
      List.iteri
        (fun x (a : Plan.t) ->
          List.iteri
            (fun y (b : Plan.t) ->
              if y > x then begin
                let card = a.Plan.card *. b.Plan.card in
                match !best with
                | Some (bcard, _, _) when bcard <= card -> ()
                | Some _ | None -> best := Some (card, a, b)
              end)
            comps)
        comps;
      (match !best with
      | None -> None
      | Some (_, a, b) ->
        let preds =
          Query_block.crossing_preds_indexed block a.Plan.tables b.Plan.tables
        in
        let joined = merge a b preds in
        collapse (joined :: List.filter (fun c -> c != a && c != b) comps))
  in
  collapse (Array.to_list comps |> List.filter_map Fun.id)

let optimize ?(seed = 0) ?(restarts = 0) env block =
  let params = Cost_model.params env in
  let n = Query_block.n_quantifiers block in
  let joins = ref 0 in
  let plan, elapsed =
    Timer.time (fun () ->
        if n = 0 then None
        else begin
          let cc = card_context block in
          let edges = graph_edges cc block in
          let base = List.sort by_weight edges in
          let best = ref (attempt env params cc block base joins) in
          let rng = Rng.create seed in
          for _ = 1 to restarts do
            (* Multiplicative jitter in [0.5, 1.5): reorders near-ties
               without letting a huge join masquerade as a small one. *)
            let perturbed =
              List.map (fun (i, j, w) -> (i, j, w *. (0.5 +. Rng.float rng 1.0))) edges
            in
            let candidate =
              attempt env params cc block (List.sort by_weight perturbed) joins
            in
            match (!best, candidate) with
            | Some b, Some c -> if c.Plan.cost < b.Plan.cost then best := candidate
            | None, Some _ -> best := candidate
            | _, None -> ()
          done;
          !best
        end)
  in
  {
    st_plan = plan;
    st_elapsed = elapsed;
    st_edges = edge_count block;
    st_restarts = restarts;
    st_joins = !joins;
  }
