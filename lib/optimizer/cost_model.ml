module Bitset = Qopt_util.Bitset
module Table = Qopt_catalog.Table
module Column = Qopt_catalog.Column
module Histogram = Qopt_catalog.Histogram

type params = {
  io_page : float;
  cpu_tuple : float;
  cpu_cmp : float;
  cpu_hash : float;
  cpu_probe : float;
  buffer_pages : float;
  sort_mem_pages : float;
  net_tuple : float;
  nodes : int;
}

let params env =
  {
    io_page = 1.0;
    cpu_tuple = 0.01;
    cpu_cmp = 0.002;
    cpu_hash = 0.004;
    cpu_probe = 0.006;
    buffer_pages = 10_000.0;
    sort_mem_pages = 2_000.0;
    net_tuple = 0.02;
    nodes = Env.nodes env;
  }

let page_size = 4096.0

let pages_of ~rows ~width = Float.max 1.0 (rows *. width /. page_size)

let per_node p x = x /. float_of_int p.nodes

(* ------------------------------------------------------------------ *)
(* Per-join logical context (computed once per join, shared by plans)  *)
(* ------------------------------------------------------------------ *)

type join_ctx = {
  matches_per_outer : float;
  skew : float;
}

(* The most-loaded-node factor of hash-partitioning on a join column: the
   equality share probed at bucket boundaries as a proxy for the heaviest
   hash partition. *)
let skew_of p block l =
  let col = Query_block.column block l in
  let h = col.Column.histogram in
  let n = Histogram.bucket_count h in
  let max_share = ref (1.0 /. float_of_int p.nodes) in
  for i = 0 to n - 1 do
    let v = float_of_int i *. (Histogram.distinct h /. float_of_int n) in
    let share = Histogram.sel_eq h v in
    if share > !max_share then max_share := share
  done;
  Float.min (float_of_int p.nodes) (!max_share *. float_of_int p.nodes)

(* The first join predicate's left column, with its list index when [ids]
   (parallel to [preds]) supplies one. *)
let rec first_join preds ids =
  match preds with
  | [] -> None
  | pr :: rest -> (
    let i, ids = match ids with i :: ids -> (Some i, ids) | [] -> (None, []) in
    match Pred.join_cols pr with
    | Some (l, _) -> Some (l, i)
    | None -> first_join rest ids)

let join_context ?sel p block ~preds ~inner_card =
  let jsel =
    match sel with
    | Some (c, ids) -> Cardinality.raw_join_product c ids
    | None ->
      List.fold_left
        (fun acc pr -> acc *. Cardinality.raw_join_selectivity block pr)
        1.0 preds
  in
  let skew =
    if p.nodes <= 1 then 1.0
    else
      match first_join preds (match sel with Some (_, ids) -> ids | None -> []) with
      | None -> 1.0
      | Some (l, i) -> (
        let compute () = skew_of p block l in
        match (sel, i) with
        | Some (c, _), Some i -> Cardinality.join_skew c i compute
        | _ -> compute ())
  in
  { matches_per_outer = Float.max 1e-9 (jsel *. inner_card); skew }

(* ------------------------------------------------------------------ *)
(* Detailed per-plan models                                            *)
(* ------------------------------------------------------------------ *)

(* Iterative buffer-pool model: the expected hit ratio of repeatedly probing
   [pages] hot pages through a pool of [buffer] pages, solved by fixpoint
   iteration (in the spirit of the Mackert-Lohman LRU approximations that
   commercial estimators evaluate per plan). *)
let buffer_hit_ratio p ~pages =
  let frac = p.buffer_pages /. Float.max 1.0 pages in
  let h = ref (Float.min 1.0 frac) in
  for _ = 1 to 224 do
    h := 1.0 -. exp (-.frac *. (0.5 +. (0.5 *. !h)))
  done;
  Float.min 1.0 !h

(* Device model: integrate seek + rotational delay over the access pattern —
   a per-plan evaluation standing in for the "sophisticated disk drive"
   modelling the paper credits for cost-model weight. *)
let device_io_time p ~pages ~random_frac =
  let segments = 160 in
  let total = ref 0.0 in
  for i = 1 to segments do
    let x = float_of_int i /. float_of_int segments in
    let seek = 0.3 +. (0.7 *. (1.0 -. exp (-3.0 *. x *. random_frac))) in
    total := !total +. (seek /. float_of_int segments)
  done;
  pages *. p.io_page *. !total

(* Multi-pass external-merge simulation: walk the passes explicitly, with a
   diminishing merge fan-in as runs lengthen. *)
let sort_io p ~pages =
  if pages <= p.sort_mem_pages then 0.0
  else begin
    let io = ref 0.0 in
    let remaining = ref pages in
    let fan_in = ref 16.0 in
    while !remaining > p.sort_mem_pages do
      io := !io +. (2.0 *. pages *. p.io_page);
      remaining := !remaining /. Float.max 2.0 !fan_in;
      fan_in := Float.max 2.0 (!fan_in *. 0.75)
    done;
    !io
  end

let sort p ~rows ~width =
  let rows = Float.max 1.0 rows in
  let n = per_node p rows in
  let cpu = n *. log (n +. 2.0) /. log 2.0 *. p.cpu_cmp in
  let pages = pages_of ~rows:n ~width in
  cpu +. sort_io p ~pages

let row_width block tables =
  Bitset.fold
    (fun q acc ->
      let t = (Query_block.quantifier block q).Quantifier.table in
      acc +. float_of_int (Table.row_width t))
    tables 16.0

(* Hash-partition model: size the hash table, walk the (up to 16) build
   partitions and accumulate the spill fraction of each. *)
let hash_build_model p ~rows ~width =
  let build_pages = pages_of ~rows ~width in
  let partitions = 32 in
  let per_part = build_pages /. float_of_int partitions in
  let spill = ref 0.0 in
  for i = 1 to partitions do
    (* Skewed partition sizes: geometric-ish decay around the mean. *)
    let factor = 1.0 +. (0.6 *. exp (-0.35 *. float_of_int i)) in
    let pages_i = per_part *. factor in
    if pages_i > p.sort_mem_pages /. float_of_int partitions then
      spill := !spill +. (2.0 *. pages_i *. p.io_page)
  done;
  let bucket_cpu = rows *. p.cpu_hash in
  !spill +. bucket_cpu

(* Common per-plan work: output width and projection cost — evaluated per
   plan because the output schema is plan-specific.  The width is either
   handed down by the caller (the generator memoizes it per MEMO entry) or
   derived from the table set. *)
let output_cost p ~width ~out_card =
  per_node p (out_card *. p.cpu_tuple *. (0.5 +. (width /. 256.0)))

let width_or block tables = function
  | Some w -> w
  | None -> row_width block tables

let table_pages (table : Table.t) = table.Table.page_count

let inner_probe_cost ?sel p block ~preds ~inner_tables =
  if Bitset.cardinal inner_tables <> 1 then None
  else begin
    let q = Bitset.min_elt inner_tables in
    let table = (Query_block.quantifier block q).Quantifier.table in
    let join_col =
      List.find_map
        (fun pr ->
          match Pred.join_cols pr with
          | Some (l, r) ->
            if l.Colref.q = q then Some l.Colref.col
            else if r.Colref.q = q then Some r.Colref.col
            else None
          | None -> None)
        preds
    in
    match join_col with
    | None -> None
    | Some col ->
      if Table.index_providing table [ col ] <> None then
        let hit () =
          buffer_hit_ratio p ~pages:(Float.max 1.0 (table_pages table *. 0.05))
        in
        let hit =
          match sel with
          | Some c -> Cardinality.probe_hit c q hit
          | None -> hit ()
        in
        Some ((2.0 *. p.io_page *. (1.0 -. hit)) +. (3.0 *. p.cpu_probe))
      else None
  end

let nljn p block ~ctx ~probe ?width_outer ?width_inner ?width_out ~outer ~inner
    ~out_card () =
  let open Plan in
  let inner_width = width_or block inner.tables width_inner in
  let inner_pages = pages_of ~rows:inner.card ~width:inner_width in
  let hit = buffer_hit_ratio p ~pages:inner_pages in
  let reread = device_io_time p ~pages:inner_pages ~random_frac:(1.0 -. hit) in
  (* Block nested loops over a materialized inner: the inner is re-read once
     per outer *block*, not per outer row. *)
  let outer_pages =
    pages_of ~rows:(per_node p outer.card)
      ~width:(width_or block outer.tables width_outer)
  in
  let rescans =
    Float.max 0.0 (ceil (outer_pages /. (p.buffer_pages *. 0.5)) -. 1.0)
  in
  let rescan_cost = rescans *. ((inner.cost *. 0.3) +. reread) *. (1.0 -. hit) in
  (* The inner is either block-rescanned or index-probed per outer row,
     whichever the access paths make cheaper. *)
  let inner_access =
    let scan_strategy = inner.cost +. rescan_cost in
    match probe with
    | None -> scan_strategy
    | Some per_probe ->
      Float.min scan_strategy (per_node p (outer.card *. per_probe) +. (3.0 *. p.io_page))
  in
  let probe_cpu =
    per_node p (outer.card *. (p.cpu_probe +. (ctx.matches_per_outer *. p.cpu_tuple *. 0.05)))
  in
  (outer.cost +. inner_access +. probe_cpu
  +. output_cost p
       ~width:
         (width_or block (Bitset.union outer.tables inner.tables) width_out)
       ~out_card)
  *. ctx.skew

let mgjn p block ~ctx ?width_outer ?width_inner ?width_out ~outer ~inner
    ~out_card ~sort_outer ~sort_inner () =
  let open Plan in
  let width_o = width_or block outer.tables width_outer in
  let width_i = width_or block inner.tables width_inner in
  (* The sort model is evaluated for both inputs even when an input arrives
     sorted: the optimizer compares enforced vs natural access anyway. *)
  let sort_o = sort p ~rows:outer.card ~width:width_o in
  let sort_i = sort p ~rows:inner.card ~width:width_i in
  let sort_cost =
    (if sort_outer then sort_o else 0.0) +. if sort_inner then sort_i else 0.0
  in
  let pages_o = pages_of ~rows:outer.card ~width:width_o in
  let pages_i = pages_of ~rows:inner.card ~width:width_i in
  let hit_o = buffer_hit_ratio p ~pages:pages_o in
  let hit_i = buffer_hit_ratio p ~pages:pages_i in
  let stream_io =
    device_io_time p ~pages:pages_o ~random_frac:(1.0 -. hit_o)
    +. device_io_time p ~pages:pages_i ~random_frac:(1.0 -. hit_i)
  in
  let merge_cpu =
    per_node p
      ((outer.card +. inner.card) *. p.cpu_cmp *. (2.0 -. ((hit_o +. hit_i) /. 2.0))
      +. (outer.card *. ctx.matches_per_outer *. p.cpu_tuple *. 0.1))
  in
  (outer.cost +. inner.cost +. sort_cost +. merge_cpu +. (stream_io *. 0.05)
  +. output_cost p
       ~width:
         (width_or block (Bitset.union outer.tables inner.tables) width_out)
       ~out_card)
  *. ctx.skew

let hsjn p block ~ctx ?width_inner ?width_out ~outer ~inner ~out_card () =
  let open Plan in
  let width_i = width_or block inner.tables width_inner in
  let build = hash_build_model p ~rows:(per_node p inner.card) ~width:width_i in
  let pages_i = pages_of ~rows:inner.card ~width:width_i in
  let hit = buffer_hit_ratio p ~pages:pages_i in
  let probe_io = device_io_time p ~pages:pages_i ~random_frac:(1.0 -. hit) in
  let probe_cpu =
    per_node p
      (outer.card *. (p.cpu_probe *. (1.5 -. (0.5 *. hit))
                     +. (ctx.matches_per_outer *. p.cpu_tuple *. 0.05)))
  in
  (outer.cost +. inner.cost +. build +. probe_cpu +. (probe_io *. 0.02)
  +. output_cost p
       ~width:
         (width_or block (Bitset.union outer.tables inner.tables) width_out)
       ~out_card)
  *. ctx.skew

let seq_scan p (t : Table.t) =
  per_node p ((t.Table.page_count *. p.io_page) +. (t.Table.row_count *. p.cpu_tuple))

let index_scan p (t : Table.t) ~sel =
  let matched = t.Table.row_count *. sel in
  let fetch_pages = Float.min t.Table.page_count matched in
  let hit = buffer_hit_ratio p ~pages:t.Table.page_count in
  per_node p
    ((3.0 *. p.io_page)
    +. (fetch_pages *. (1.0 -. hit) *. p.io_page)
    +. (matched *. p.cpu_tuple *. 1.5))

let repartition p ~rows ~width =
  let msg_cpu = rows *. p.net_tuple in
  let bytes_cost = rows *. width *. 1e-5 in
  per_node p (msg_cpu +. bytes_cost)

let broadcast p ~rows ~width =
  float_of_int p.nodes *. repartition p ~rows ~width
