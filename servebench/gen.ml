(* Request generators for the traffic mixes.

   Every request is a pure function of (workload, seed, index): the load
   loop asks for request [i] when it is about to send it, the traced
   replay asks for the same [i] and gets the same bytes, and nothing is
   held in memory beyond what was sent.  The server only ever sees the
   generated SQL text. *)

module Rng = Qopt_util.Rng

type request = {
  sql : string;
  schema : string;
}

let rng ~seed ~stream i =
  (* splitmix64 scrambles its seed, so a linear mix of the three inputs is
     enough to give every (seed, stream, index) its own sequence *)
  Rng.create ((seed * 1_000_003) + (stream * 7_919) + i)

(* ------------------------------------------------------------------ *)
(* repeat: ~8 warehouse templates, literals inside the envelope         *)
(* ------------------------------------------------------------------ *)

(* The four single-table smalls of Loadgen and the 2-5-table join
   templates of the recalibration bench.  Every literal sits in an
   equality on a uniform column, so its estimated selectivity never
   changes and the plan-cache envelope always holds: after the first
   compile of each template every request is a hit. *)
let repeat_templates =
  [|
    ("SELECT s.s_store_name FROM store s WHERE s.s_market_id = %d", 1, 10);
    ("SELECT i.i_item_sk FROM item i WHERE i.i_category_id = %d", 1, 20);
    ("SELECT c.c_customer_sk FROM customer c WHERE c.c_birth_year = %d", 1900, 1999);
    ("SELECT d.d_date_sk FROM date_dim d WHERE d.d_year = %d", 1900, 2099);
    ( "SELECT ss.ss_quantity FROM store_sales ss, date_dim d WHERE \
       ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = %d",
      1900, 2099 );
    ( "SELECT ss.ss_quantity FROM store_sales ss, item i, store s WHERE \
       ss.ss_item_sk = i.i_item_sk AND ss.ss_store_sk = s.s_store_sk AND \
       i.i_category_id = %d",
      1, 20 );
    ( "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, customer c, \
       promotion p WHERE ss.ss_sold_date_sk = d.d_date_sk AND \
       ss.ss_customer_sk = c.c_customer_sk AND ss.ss_promo_sk = p.p_promo_sk \
       AND c.c_birth_year = %d",
      1900, 1999 );
    ( "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, time_dim t, \
       item i, household_demographics hd WHERE ss.ss_sold_date_sk = \
       d.d_date_sk AND ss.ss_sold_time_sk = t.t_time_sk AND ss.ss_item_sk = \
       i.i_item_sk AND ss.ss_hdemo_sk = hd.hd_demo_sk AND d.d_year = %d",
      1900, 2099 );
  |]

let repeat ~seed i =
  let r = rng ~seed ~stream:1 i in
  let k = Rng.int r (Array.length repeat_templates) in
  let tpl, lo, hi = repeat_templates.(k) in
  {
    sql = Printf.sprintf (Scanf.format_from_string tpl "%d") (Rng.int_range r lo hi);
    schema = "warehouse";
  }

(* ------------------------------------------------------------------ *)
(* adhoc: seeded walks over the warehouse foreign-key graph             *)
(* ------------------------------------------------------------------ *)

type table = {
  name : string;
  alias : string;
  filters : (string * int * int) list;  (* column, literal range lo..hi *)
  groups : string list;  (* columns worth grouping by *)
}

let t name alias filters groups = { name; alias; filters; groups }

let tables =
  [|
    t "date_dim" "d" [ ("d_year", 1900, 2099); ("d_moy", 1, 12); ("d_qoy", 1, 4) ]
      [ "d_year"; "d_moy" ];
    t "time_dim" "t" [ ("t_hour", 0, 23) ] [ "t_hour" ];
    t "store" "s" [ ("s_market_id", 1, 10) ] [ "s_state"; "s_city" ];
    t "item" "i"
      [ ("i_category_id", 1, 20); ("i_class_id", 1, 100); ("i_current_price", 1, 300) ]
      [ "i_category_id"; "i_brand_id" ];
    t "customer" "c" [ ("c_birth_year", 1900, 1999) ] [ "c_birth_year" ];
    t "customer_address" "ca" [ ("ca_zip", 1, 10000) ] [ "ca_state" ];
    t "customer_demographics" "cd" [ ("cd_education", 1, 7) ]
      [ "cd_gender"; "cd_marital_status" ];
    t "household_demographics" "hd" [ ("hd_dep_count", 0, 9) ] [ "hd_buy_potential" ];
    t "income_band" "ib" [ ("ib_lower_bound", 0, 200) ] [ "ib_lower_bound" ];
    t "promotion" "p" [ ("p_channel_email", 0, 1) ] [ "p_category" ];
    t "warehouse" "w" [] [ "w_state" ];
    t "ship_mode" "sm" [] [ "sm_type" ];
    t "reason" "r" [] [ "r_reason_desc" ];
    t "store_sales" "ss" [ ("ss_quantity", 1, 100); ("ss_sales_price", 1, 20000) ] [];
    t "store_returns" "sr" [ ("sr_return_amt", 1, 5000) ] [];
    t "catalog_sales" "cs" [ ("cs_quantity", 1, 100) ] [];
    t "web_sales" "ws" [ ("ws_sales_price", 1, 20000) ] [];
    t "inventory" "inv" [ ("inv_quantity_on_hand", 1, 1000) ] [];
  |]

let table_index name =
  let rec go i = if tables.(i).name = name then i else go (i + 1) in
  go 0

(* The warehouse schema's foreign keys, (from, from_col, to, to_col). *)
let fkeys =
  [|
    ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk");
    ("store_sales", "ss_sold_time_sk", "time_dim", "t_time_sk");
    ("store_sales", "ss_item_sk", "item", "i_item_sk");
    ("store_sales", "ss_customer_sk", "customer", "c_customer_sk");
    ("store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk");
    ("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk");
    ("store_sales", "ss_addr_sk", "customer_address", "ca_address_sk");
    ("store_sales", "ss_store_sk", "store", "s_store_sk");
    ("store_sales", "ss_promo_sk", "promotion", "p_promo_sk");
    ("store_returns", "sr_returned_date_sk", "date_dim", "d_date_sk");
    ("store_returns", "sr_item_sk", "item", "i_item_sk");
    ("store_returns", "sr_customer_sk", "customer", "c_customer_sk");
    ("store_returns", "sr_reason_sk", "reason", "r_reason_sk");
    ("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk");
    ("catalog_sales", "cs_item_sk", "item", "i_item_sk");
    ("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk");
    ("catalog_sales", "cs_warehouse_sk", "warehouse", "w_warehouse_sk");
    ("catalog_sales", "cs_ship_mode_sk", "ship_mode", "sm_ship_mode_sk");
    ("catalog_sales", "cs_promo_sk", "promotion", "p_promo_sk");
    ("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk");
    ("web_sales", "ws_item_sk", "item", "i_item_sk");
    ("web_sales", "ws_bill_customer_sk", "customer", "c_customer_sk");
    ("web_sales", "ws_promo_sk", "promotion", "p_promo_sk");
    ("web_sales", "ws_ship_mode_sk", "ship_mode", "sm_ship_mode_sk");
    ("inventory", "inv_date_sk", "date_dim", "d_date_sk");
    ("inventory", "inv_item_sk", "item", "i_item_sk");
    ("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk");
    ("customer", "c_current_addr_sk", "customer_address", "ca_address_sk");
    ("customer", "c_current_cdemo_sk", "customer_demographics", "cd_demo_sk");
    ("customer", "c_current_hdemo_sk", "household_demographics", "hd_demo_sk");
    ("household_demographics", "hd_income_band_sk", "income_band",
     "ib_income_band_sk");
  |]

let facts = [| "store_sales"; "store_returns"; "catalog_sales"; "web_sales"; "inventory" |]

(* Table counts cycle through a fixed 40-slot schedule: request i gets a
   template of slot i mod 40, so every run sends the same sequence of
   sizes.  Compile time grows steeply with the count (~0.5 ms at 3
   tables, 30-250 ms at 10, depending on how star-like the walk is), so
   the schedule is weighted toward small joins: 10 tables is 1 slot in
   40. *)
let adhoc_sizes =
  [| 3; 4; 3; 5; 3; 4; 6; 3; 4; 5; 3; 7; 4; 3; 5; 4; 6; 3; 8; 4;
     3; 5; 4; 3; 6; 4; 3; 5; 9; 4; 3; 4; 5; 3; 7; 4; 3; 6; 10; 5 |]

(* Templates per size slot.  The pool, 40 x 40 = 1600 templates (3x the
   512-entry plan cache), is generated from a constant seed, and a run of
   ~1600 requests walks through all of it: the plan cache sees misses,
   stores and LRU evictions, and every seed sends the same multiset of
   shapes.  With shapes drawn from the run seed instead, the number of
   heavy star-like 9-10-table walks a run happened to draw set p99 alone
   (IQR 60% of the median over ten seeds).  The run seed picks the order
   in which each slot's templates come and every literal. *)
let adhoc_variants = 40

let pool_seed = 0x5eed

type shape = {
  sh_tables : int list;  (* indices into [tables], in join order *)
  sh_joins : (string * string) list;  (* qualified column pairs *)
  sh_filters : (int * string * int * int * bool) list;
      (* table, column, lo, hi, is_range *)
  sh_group : (int * string) list;
  sh_measure : (int * string) option;
  sh_order : bool;
}

let alias t = tables.(t).alias

let adhoc_shape template =
  let r = rng ~seed:pool_seed ~stream:2 template in
  let n = adhoc_sizes.(template mod Array.length adhoc_sizes) in
  let start =
    if Rng.int r 4 = 0 then Rng.int r (Array.length tables)
    else table_index (Rng.pick r facts)
  in
  let chosen = ref [ start ] and joins = ref [] in
  while List.length !chosen < n do
    let frontier =
      Array.to_list fkeys
      |> List.filter_map (fun (ft, fc, tt, tc) ->
             let fi = table_index ft and ti = table_index tt in
             let fin = List.mem fi !chosen and tin = List.mem ti !chosen in
             if fin && not tin then Some (ti, (fi, fc, ti, tc))
             else if tin && not fin then Some (fi, (fi, fc, ti, tc))
             else None)
      |> Array.of_list
    in
    let next, (fi, fc, ti, tc) = Rng.pick r frontier in
    chosen := !chosen @ [ next ];
    joins := (alias fi ^ "." ^ fc, alias ti ^ "." ^ tc) :: !joins
  done;
  let filters =
    List.concat_map
      (fun t ->
        match tables.(t).filters with
        | [] -> []
        | _ when Rng.int r 3 = 0 -> []
        | cols ->
          let c, lo, hi = Rng.pick_list r cols in
          [ (t, c, lo, hi, Rng.int r 3 = 0) ])
      !chosen
  in
  let groupable =
    List.concat_map (fun t -> List.map (fun g -> (t, g)) tables.(t).groups) !chosen
  in
  let group =
    if groupable = [] || Rng.int r 3 = 0 then []
    else Rng.sample r (1 + Rng.int r 2) groupable
  in
  let measure =
    List.find_map
      (fun t ->
        match tables.(t).name with
        | "store_sales" -> Some (t, "ss_quantity")
        | "catalog_sales" -> Some (t, "cs_quantity")
        | "web_sales" -> Some (t, "ws_sales_price")
        | "store_returns" -> Some (t, "sr_return_amt")
        | "inventory" -> Some (t, "inv_quantity_on_hand")
        | _ -> None)
      !chosen
  in
  {
    sh_tables = !chosen;
    sh_joins = List.rev !joins;
    sh_filters = filters;
    sh_group = group;
    sh_measure = measure;
    sh_order = Rng.bool r;
  }

let qualified (t, c) = alias t ^ "." ^ c

(* A column to project when there is neither grouping nor a measure:
   every table has a grouping or a filter column. *)
let plain_column t =
  match tables.(t) with
  | { groups = g :: _; _ } -> g
  | { filters = (c, _, _) :: _; _ } -> c
  | { name; _ } -> invalid_arg ("no plain column for " ^ name)

let adhoc ~seed i =
  let slots = Array.length adhoc_sizes in
  let slot = i mod slots in
  let offset = Rng.int (rng ~seed ~stream:5 slot) adhoc_variants in
  let sh = adhoc_shape (slot + (slots * ((offset + (i / slots)) mod adhoc_variants))) in
  let r = rng ~seed ~stream:3 i in
  let select =
    match (sh.sh_group, sh.sh_measure) with
    | [], Some m -> [ qualified m ]
    | [], None -> [ qualified (List.hd sh.sh_tables, plain_column (List.hd sh.sh_tables)) ]
    | g, Some m -> List.map qualified g @ [ "SUM(" ^ qualified m ^ ")" ]
    | g, None -> List.map qualified g @ [ "COUNT(*)" ]
  in
  let from = List.map (fun t -> tables.(t).name ^ " " ^ alias t) sh.sh_tables in
  let where =
    List.map (fun (a, b) -> a ^ " = " ^ b) sh.sh_joins
    @ List.map
        (fun (t, c, lo, hi, range) ->
          let v = Rng.int_range r lo hi in
          Printf.sprintf "%s %s %d" (qualified (t, c)) (if range then "<" else "=") v)
        sh.sh_filters
  in
  let group =
    match sh.sh_group with
    | [] -> ""
    | g -> " GROUP BY " ^ String.concat ", " (List.map qualified g)
  in
  let order =
    match (sh.sh_order, sh.sh_group) with
    | false, _ -> ""
    | true, [] -> " ORDER BY " ^ List.hd select
    | true, g :: _ -> " ORDER BY " ^ qualified g
  in
  {
    sql =
      Printf.sprintf "SELECT %s FROM %s WHERE %s%s%s" (String.concat ", " select)
        (String.concat ", " from) (String.concat " AND " where) group order;
    schema = "warehouse";
  }

(* ------------------------------------------------------------------ *)
(* giant: 20-50-table shapes against the giant schema                   *)
(* ------------------------------------------------------------------ *)

type giant_shape = Chain | Cycle | Star | Clique | Snowflake

(* A fixed 10-slot rotation of (shape, sizes): stars, cliques and
   snowflakes blow the MEMO budget and go to the spanning-tree regime;
   the chain and the cycle stay under it and run budgeted DP.  DP on a
   chain grows ~n^3 (20 tables ~80 ms, 28 ~200 ms, 50 ~700 ms) while a
   spanning-tree request costs ~20-40 ms, so the DP slots are 2 in 10 and
   at the low end of the size range: otherwise a run would complete too
   few requests to have a tail at all. *)
let giant_slots =
  [|
    (Star, [| 20; 30; 40; 50 |]);
    (Clique, [| 20; 25; 30 |]);
    (Snowflake, [| 20; 30; 40; 50 |]);
    (Chain, [| 20; 22; 24 |]);
    (Star, [| 25; 35; 45 |]);
    (Snowflake, [| 24; 36; 48 |]);
    (Clique, [| 22; 26 |]);
    (Cycle, [| 20; 22 |]);
    (Star, [| 22; 32; 42 |]);
    (Snowflake, [| 28; 44 |]);
  |]

let giant_edges shape n =
  match shape with
  | Chain -> List.init (n - 1) (fun i -> (i, i + 1))
  | Cycle -> (0, n - 1) :: List.init (n - 1) (fun i -> (i, i + 1))
  | Star -> List.init (n - 1) (fun i -> (0, i + 1))
  | Snowflake ->
    (* six branches filled round-robin, as Giant.Snowflake 6 *)
    List.init (n - 1) (fun i ->
        let m = i + 1 in
        if m <= 6 then (0, m) else (m - 6, m))
  | Clique ->
    List.concat
      (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k))))

let giant ~seed i =
  let r = rng ~seed ~stream:4 i in
  let slot = i mod Array.length giant_slots in
  let shape, sizes = giant_slots.(slot) in
  let n = sizes.(i / Array.length giant_slots mod Array.length sizes) in
  let pool = Array.init 62 Fun.id in
  Rng.shuffle r pool;
  let cols = [| "j1"; "j2"; "j3"; "j4"; "j5" |] in
  let joins =
    List.map
      (fun (a, b) ->
        let c = Rng.pick r cols in
        Printf.sprintf "a%d.%s = a%d.%s" a c b c)
      (giant_edges shape n)
  in
  {
    sql =
      Printf.sprintf "SELECT a0.v1 FROM %s WHERE %s AND a0.v2 = %d ORDER BY a0.v1"
        (String.concat ", " (List.init n (fun k -> Printf.sprintf "g%d a%d" pool.(k) k)))
        (String.concat " AND " joins)
        (1 + Rng.int r 9);
    schema = "giant";
  }

(* The workloads the benchmark runs.  "fleet" is not one of them: the
   adhoc trace (see Main) sends the adhoc stream through `qopt fleet` to
   measure the fleet layer, but the fleet's end-to-end figures are not a
   workload of record.  Through the fleet, adhoc qps and p99 spread over
   ten seeds by up to 14% of their medians, and a router and two
   backends on two cores made its runs the longest; the 3:1 repeat:adhoc
   interleave it was first meant to send spread p50 by 31% and qps by
   21%. *)
let workloads = [ "repeat"; "adhoc"; "giant" ]

let for_workload = function
  | "repeat" -> repeat
  | "adhoc" | "fleet" -> adhoc
  | "giant" -> giant
  | w -> invalid_arg ("unknown workload " ^ w)
