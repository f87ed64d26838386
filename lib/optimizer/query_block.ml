module Bitset = Qopt_util.Bitset
module Table = Qopt_catalog.Table

type outer_join = {
  oj_preserved : Bitset.t;
  oj_null : Bitset.t;
}

(* The precomputed join-graph index.  [adj_neighbors.(q)] is the set of
   quantifiers sharing a join predicate with [q]; [adj_pair_preds] maps a
   packed quantifier pair (min shifted by 6 bits, which fits because
   Bitset.max_elt = 61) to that edge's predicates tagged with their index in
   the original [preds] list, ascending.  Derived solely from [quantifiers]
   and [preds] in [make]; functional updates that leave those two fields
   untouched remain valid. *)
type adjacency = {
  adj_neighbors : Bitset.t array;
  adj_pair_preds : (int, (int * Pred.t) list) Hashtbl.t;
}

type t = {
  name : string;
  quantifiers : Quantifier.t array;
  preds : Pred.t list;
  group_by : Colref.t list;
  order_by : Colref.t list;
  outer_joins : outer_join list;
  children : t list;
  first_n : int option;
  adj : adjacency;
}

let pair_key a b = if a < b then (a lsl 6) lor b else (b lsl 6) lor a

let build_adjacency quantifiers preds =
  let n = Array.length quantifiers in
  let adj_neighbors = Array.make n Bitset.empty in
  let adj_pair_preds = Hashtbl.create (max 16 (List.length preds)) in
  List.iteri
    (fun i p ->
      match Pred.qpair p with
      | None -> ()
      | Some (a, b) ->
        adj_neighbors.(a) <- Bitset.add b adj_neighbors.(a);
        adj_neighbors.(b) <- Bitset.add a adj_neighbors.(b);
        let key = pair_key a b in
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt adj_pair_preds key)
        in
        Hashtbl.replace adj_pair_preds key ((i, p) :: prev))
    preds;
  (* Per-edge lists were built by prepending: restore ascending pred-list
     order once, so lookups return predicates exactly as a scan of [preds]
     would. *)
  Hashtbl.filter_map_inplace
    (fun _ l -> Some (List.rev l))
    adj_pair_preds;
  { adj_neighbors; adj_pair_preds }

let n_quantifiers t = Array.length t.quantifiers

let quantifier t i = t.quantifiers.(i)

let all_tables t = Bitset.full (n_quantifiers t)

let check_colref t what (c : Colref.t) =
  if c.q < 0 || c.q >= n_quantifiers t then
    invalid_arg
      (Printf.sprintf "Query_block(%s): %s references unknown quantifier Q%d"
         t.name what c.q);
  let table = (quantifier t c.q).Quantifier.table in
  if not (Table.mem_column table c.col) then
    invalid_arg
      (Printf.sprintf "Query_block(%s): %s references unknown column %s.%s"
         t.name what table.Table.name c.col)

let validate t =
  List.iter
    (fun p ->
      match p with
      | Pred.Eq_join (l, r) ->
        check_colref t "join predicate" l;
        check_colref t "join predicate" r
      | Pred.Local_cmp (c, _, _) | Pred.Local_in (c, _) ->
        check_colref t "local predicate" c
      | Pred.Expensive (ts, sel, _) ->
        if sel <= 0.0 || sel > 1.0 then
          invalid_arg "Query_block: expensive predicate selectivity out of (0,1]";
        if not (Bitset.subset ts (all_tables t)) then
          invalid_arg "Query_block: expensive predicate references unknown quantifier")
    t.preds;
  List.iter (check_colref t "GROUP BY") t.group_by;
  List.iter (check_colref t "ORDER BY") t.order_by;
  List.iter
    (fun oj ->
      if not (Bitset.subset oj.oj_preserved (all_tables t))
         || not (Bitset.subset oj.oj_null (all_tables t))
         || not (Bitset.disjoint oj.oj_preserved oj.oj_null)
      then invalid_arg "Query_block: malformed outer join sides")
    t.outer_joins;
  Array.iteri
    (fun i (q : Quantifier.t) ->
      if q.Quantifier.id <> i then
        invalid_arg "Query_block: quantifier ids must match their positions";
      if not (Bitset.subset q.Quantifier.deps (all_tables t))
         || Bitset.mem i q.Quantifier.deps
      then invalid_arg "Query_block: malformed dependency set")
    t.quantifiers

let make ?(name = "q") ?(group_by = []) ?(order_by = []) ?(outer_joins = [])
    ?(children = []) ?first_n ~quantifiers ~preds () =
  (match first_n with
  | Some n when n <= 0 -> invalid_arg "Query_block: first_n must be positive"
  | Some _ | None -> ());
  let quantifiers = Array.of_list quantifiers in
  (* Validate against a placeholder index first: adjacency construction
     indexes arrays by quantifier id, so malformed blocks must be rejected
     with [validate]'s diagnostics before the index is built. *)
  let t =
    {
      name;
      quantifiers;
      preds;
      group_by;
      order_by;
      outer_joins;
      children;
      first_n;
      adj = { adj_neighbors = [||]; adj_pair_preds = Hashtbl.create 1 };
    }
  in
  validate t;
  { t with adj = build_adjacency quantifiers preds }

let neighbors t q = t.adj.adj_neighbors.(q)

let pair_preds t a b =
  Option.value ~default:[] (Hashtbl.find_opt t.adj.adj_pair_preds (pair_key a b))

let crossing_preds_indexed t s l =
  (* Indexed lookup: walk the edges from members of [s] into [l] instead of
     scanning the block's full predicate list.  Multi-edge results are
     re-sorted by original predicate index so the list is identical to what
     [List.filter (fun p -> Pred.crosses p s l) t.preds] returns. *)
  let tagged =
    Bitset.fold
      (fun q acc ->
        Bitset.fold
          (fun nb acc ->
            match Hashtbl.find_opt t.adj.adj_pair_preds (pair_key q nb) with
            | None -> acc
            | Some ps -> ps :: acc)
          (Bitset.inter (neighbors t q) l)
          acc)
      s []
  in
  match tagged with
  | [] -> []
  | [ ps ] -> ps
  | several ->
    List.sort
      (fun (i, _) (j, _) -> Stdlib.compare (i : int) j)
      (List.concat several)

let crossing_preds t s l = List.map snd (crossing_preds_indexed t s l)

let join_preds t = List.filter Pred.is_join t.preds

let local_preds t = List.filter (fun p -> not (Pred.is_join p)) t.preds

let column t (c : Colref.t) =
  Table.find_column (quantifier t c.q).Quantifier.table c.col

(* The EnumerateCsg recursion of DPccp (Moerkotte and Neumann): from each
   quantifier, highest first, grow by every non-empty subset of the
   neighbourhood not yet excluded.  It meets each connected set once, and
   stops as soon as the count passes [limit]. *)
let connected_sets_exceed t limit =
  let n = n_quantifiers t in
  let adj = Array.init n (fun q -> Bitset.to_int (neighbors t q)) in
  let count = ref 0 in
  let emit () =
    incr count;
    if !count > limit then raise_notrace Exit
  in
  let neigh s = Bitset.fold (fun q acc -> acc lor adj.(q)) (Bitset.of_int s) 0 in
  let rec each_subset nb f sub =
    if sub <> 0 then begin
      f sub;
      each_subset nb f ((sub - 1) land nb)
    end
  in
  let rec grow s excluded =
    let nb = neigh s land lnot (s lor excluded) in
    each_subset nb (fun _ -> emit ()) nb;
    each_subset nb (fun sub -> grow (s lor sub) (excluded lor nb)) nb
  in
  match
    for i = n - 1 downto 0 do
      emit ();
      grow (1 lsl i) ((1 lsl (i + 1)) - 1)
    done
  with
  | () -> false
  | exception Exit -> true

let is_connected t =
  let n = n_quantifiers t in
  if n <= 1 then true
  else begin
    let reached = ref (Bitset.singleton 0) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun p ->
          match Pred.join_cols p with
          | None -> ()
          | Some (l, r) ->
            let has_l = Bitset.mem l.Colref.q !reached in
            let has_r = Bitset.mem r.Colref.q !reached in
            if has_l && not has_r then begin
              reached := Bitset.add r.Colref.q !reached;
              changed := true
            end
            else if has_r && not has_l then begin
              reached := Bitset.add l.Colref.q !reached;
              changed := true
            end)
        t.preds
    done;
    Bitset.cardinal !reached = n
  end

let rec iter_blocks f t =
  List.iter (iter_blocks f) t.children;
  f t

let total_quantifiers t =
  let n = ref 0 in
  iter_blocks (fun b -> n := !n + n_quantifiers b) t;
  !n

let pp ppf t =
  Format.fprintf ppf "block %s: %d tables, %d preds, %d gb, %d ob, %d oj, %d sub"
    t.name (n_quantifiers t) (List.length t.preds) (List.length t.group_by)
    (List.length t.order_by)
    (List.length t.outer_joins)
    (List.length t.children)
