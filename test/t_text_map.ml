(* The statement text map in front of the parser.

   A plan-cache hit is prepared from its literal-masked text: the
   statement's literals refill a cached template shape, skipping the
   parser and the template key.  That is sound only if

   - [Lexer.shape] yields the statement's literals in the template's
     parameter order, and fails exactly where [Lexer.tokenize] does;
   - [Template.instantiate] inverts [Template.normalize];
   - two statements with one masked text parse to one shape;
   - the fast and the parsed path of [Frontdoor.prepare] agree on the key,
     the block signature and the plan-cache envelope;
   - a statement whose literals are not its parameters (LIMIT n) never
     enters the map.

   Statements come from the repo's own corpora (Loadgen, the repeat
   templates of the serving benchmark, tpch, real1/real2) and from random
   walks over the warehouse foreign keys with JOIN ... ON, IN lists,
   EXISTS / IN subqueries and string literals. *)

module O = Qopt_optimizer
module C = Qopt_catalog
module W = Qopt_workloads
module A = Qopt_sql.Ast
module Lexer = Qopt_sql.Lexer
module Parser = Qopt_sql.Parser
module Template = Qopt_sql.Template
module Fd = Qopt_server.Frontdoor

let t name f = Alcotest.test_case name `Quick f

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let schema = W.Warehouse.schema ~partitioned:false

let schemas = [ ("warehouse", schema) ]

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* The serving benchmark's repeat templates. *)
let repeat_templates =
  [
    "SELECT s.s_store_name FROM store s WHERE s.s_market_id = %d";
    "SELECT i.i_item_sk FROM item i WHERE i.i_category_id = %d";
    "SELECT ss.ss_quantity FROM store_sales ss, item i, store s WHERE \
     ss.ss_item_sk = i.i_item_sk AND ss.ss_store_sk = s.s_store_sk AND \
     i.i_category_id = %d";
    "SELECT ss.ss_quantity FROM store_sales ss, date_dim d, time_dim t, \
     item i, household_demographics hd WHERE ss.ss_sold_date_sk = \
     d.d_date_sk AND ss.ss_sold_time_sk = t.t_time_sk AND ss.ss_item_sk = \
     i.i_item_sk AND ss.ss_hdemo_sk = hd.hd_demo_sk AND d.d_year = %d";
  ]

let corpus =
  let sqls (w : W.Workload.t) =
    List.filter_map (fun (q : W.Workload.query) -> q.W.Workload.sql) w.W.Workload.queries
  in
  List.map
    (fun tpl -> (schema, Printf.sprintf (Scanf.format_from_string tpl "%d") 1999))
    repeat_templates
  @ List.map (fun s -> (schema, s)) (Qopt_server.Loadgen.warehouse_mix ~smalls:4 ~bigs:1)
  @ List.map (fun s -> (schema, s)) (sqls (W.Warehouse.real1_w ~partitioned:false))
  @ List.map (fun s -> (schema, s)) (sqls (W.Warehouse.real2_w ~partitioned:false))
  @
  let tpch = W.Tpch.all ~partitioned:false in
  List.map (fun s -> (tpch.W.Workload.schema, s)) (sqls tpch)

let fkeys = Array.of_list (C.Schema.fkeys schema)

let columns name = Array.of_list (C.Table.column_names (C.Schema.find_table schema name))

let gen_literal =
  let open QCheck2.Gen in
  oneof
    [
      map (fun n -> A.Num (float_of_int n)) (int_range 0 5000);
      map (fun n -> A.Num (float_of_int n +. 0.5)) (int_range 0 99);
      (* the masks, digits, dots and spaces inside a string stay literal *)
      map
        (fun s -> A.Str s)
        (string_size
           ~gen:(oneofl [ 'a'; 'Z'; '1'; '.'; ' '; '?'; '$'; '('; '=' ])
           (int_range 0 6));
    ]

(* A walk over the warehouse foreign keys: [n] tables aliased t0..t(n-1),
   each joined by a comma FROM item and a WHERE equality or by JOIN (or
   LEFT JOIN) ... ON, plus comparison and IN-list filters and at most one
   EXISTS or IN subquery over a table of the walk. *)
let gen_select =
  let open QCheck2.Gen in
  let* start = int_range 0 (Array.length fkeys - 1) in
  let* n = int_range 1 4 in
  let* picks =
    list_repeat 8 (pair (int_range 0 (Array.length fkeys - 1)) (int_range 0 2))
  in
  let tables = ref [ fkeys.(start).C.Fkey.from_table ] in
  let from = ref [ { A.t_name = List.hd !tables; t_alias = Some "t0" } ] in
  let joins = ref [] and join_preds = ref [] in
  let alias name =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = name then Printf.sprintf "t%d" i else go (i + 1) rest
    in
    go 0 !tables
  in
  List.iter
    (fun (k, how) ->
      if List.length !tables < n then
        let fk = fkeys.(k) in
        let a = fk.C.Fkey.from_table and b = fk.C.Fkey.to_table in
        let known x = List.mem x !tables in
        let ca = List.hd fk.C.Fkey.from_cols and cb = List.hd fk.C.Fkey.to_cols in
        let step =
          if known a && not (known b) then Some (a, ca, b, cb)
          else if known b && not (known a) then Some (b, cb, a, ca)
          else None
        in
        match step with
        | None -> ()
        | Some (old_t, old_c, new_t, new_c) ->
          let old_alias = alias old_t in
          tables := !tables @ [ new_t ];
          let new_alias = alias new_t in
          let pred =
            A.Cmp_cols (A.col ~table:old_alias old_c, A.Eq, A.col ~table:new_alias new_c)
          in
          let tref = { A.t_name = new_t; t_alias = Some new_alias } in
          if how = 0 then begin
            from := !from @ [ tref ];
            join_preds := !join_preds @ [ pred ]
          end
          else
            let j_kind = if how = 1 then A.Inner else A.Left_outer in
            joins := !joins @ [ { A.j_kind; j_table = tref; j_on = [ pred ] } ])
    picks;
  let tables = !tables in
  let gen_col =
    let* i = int_range 0 (List.length tables - 1) in
    let cols = columns (List.nth tables i) in
    let+ c = int_range 0 (Array.length cols - 1) in
    A.col ~table:(Printf.sprintf "t%d" i) cols.(c)
  in
  let gen_filter =
    let* c = gen_col in
    oneof
      [
        (let* op = oneofl [ A.Eq; A.Lt; A.Le; A.Gt; A.Ge ] in
         let+ l = gen_literal in
         A.Cmp_lit (c, op, l));
        (let+ ls = list_size (int_range 1 4) gen_literal in
         A.In_list (c, ls));
      ]
  in
  let* filters = list_size (int_range 0 3) gen_filter in
  (* filters on join ON clauses too, so ON literals precede WHERE ones *)
  let* on_filter = option gen_filter in
  let joins =
    match (!joins, on_filter) with
    | j :: rest, Some f -> { j with A.j_on = j.A.j_on @ [ f ] } :: rest
    | js, _ -> js
  in
  let* sub = int_range 0 3 in
  let* sub_lit = gen_literal in
  let subquery =
    let cols = columns (List.hd tables) in
    let c0 = cols.(0) and c1 = cols.(Array.length cols - 1) in
    let inner =
      {
        A.sel_items = [ A.Col_item (A.col ~table:"sq" c0) ];
        sel_from = [ { A.t_name = List.hd tables; t_alias = Some "sq" } ];
        sel_joins = [];
        sel_where = [ A.Cmp_lit (A.col ~table:"sq" c1, A.Ge, sub_lit) ];
        sel_group_by = [];
        sel_order_by = [];
        sel_limit = None;
      }
    in
    match sub with
    | 0 ->
      [
        A.Exists
          {
            inner with
            A.sel_where =
              A.Cmp_cols (A.col ~table:"sq" c0, A.Eq, A.col ~table:"t0" c0)
              :: inner.A.sel_where;
          };
      ]
    | 1 -> [ A.In_subquery (A.col ~table:"t0" c0, inner) ]
    | _ -> []
  in
  let* group = bool in
  let first = A.col ~table:"t0" (columns (List.hd tables)).(0) in
  return
    {
      A.sel_items = [ A.Col_item first ];
      sel_from = !from;
      sel_joins = joins;
      sel_where = !join_preds @ filters @ subquery;
      sel_group_by = (if group then [ first ] else []);
      sel_order_by = [];
      sel_limit = None;
    }

(* A second assignment of literals of the same types: the same statement
   with other parameter values. *)
let gen_relit (tpl : Template.t) =
  let open QCheck2.Gen in
  flatten_l
    (List.map
       (fun (p : Template.param) ->
         match p.Template.p_type with
         | Template.P_num -> map (fun n -> A.Num (float_of_int n)) (int_range 0 3000)
         | Template.P_str ->
           map (fun s -> A.Str s)
             (string_size ~gen:(oneofl [ 'b'; '7'; ' '; '$' ]) (int_range 0 4)))
       tpl.Template.params)

(* Two texts of one statement shape, differing in literal values. *)
let gen_pair =
  let open QCheck2.Gen in
  let* sel = gen_select in
  let tpl = Template.normalize sel in
  let+ lits = gen_relit tpl in
  (A.to_string sel, A.to_string (Template.instantiate tpl.Template.shape lits))

let values (tpl : Template.t) =
  List.map (fun (p : Template.param) -> p.Template.p_value) tpl.Template.params

let rec has_limit (s : A.select) =
  s.A.sel_limit <> None
  || List.exists
       (function
         | A.Exists s | A.In_subquery (_, s) -> has_limit s
         | A.Cmp_cols _ | A.Cmp_lit _ | A.In_list _ -> false)
       (s.A.sel_where @ List.concat_map (fun j -> j.A.j_on) s.A.sel_joins)

(* The literals of [sql] are its template's parameters, and refilling the
   template with them gives back the parsed statement. *)
let shape_agrees sql =
  let ast = Parser.parse sql in
  let tpl = Template.normalize ast in
  match Lexer.shape sql with
  | None -> false
  | Some (_, lits) ->
    (has_limit ast || lits = values tpl)
    && Template.instantiate tpl.Template.shape (values tpl) = ast

let tokenize_ok s =
  match Lexer.tokenize s with _ -> true | exception Lexer.Error _ -> false

(* Bytes near SQL: mutations of corpus statements and short random runs
   over an alphabet heavy in quotes, digits, dots and marks. *)
let gen_fuzz =
  let open QCheck2.Gen in
  let alphabet =
    [ '\''; '.'; '1'; '9'; 'a'; '_'; ' '; '('; '<'; '='; '?'; '$'; '-'; '\xe9'; '\n' ]
  in
  oneof
    [
      string_size ~gen:(oneofl alphabet) (int_range 0 24);
      string_size ~gen:char (int_range 0 24);
      (let* _, sql = oneofl corpus in
       let* edits =
         list_size (int_range 1 3)
           (pair (int_range 0 (String.length sql - 1)) (oneofl alphabet))
       in
       return
         (let b = Bytes.of_string sql in
          List.iter (fun (i, c) -> Bytes.set b i c) edits;
          Bytes.to_string b));
    ]

let lexer_tests =
  [
    t "corpus: shape literals are the template's parameters, in order" (fun () ->
        List.iter
          (fun (_, sql) ->
            if not (shape_agrees sql) then Alcotest.failf "disagrees: %s" sql)
          corpus);
    t "the mask keeps number and string literals apart" (fun () ->
        let masked sql = Option.map fst (Lexer.shape sql) in
        Alcotest.(check (option string))
          "masked" (Some "SELECT a FROM t WHERE a = ? AND b = $ AND c IN (?, $)")
          (masked "SELECT a FROM t WHERE a = 1.5 AND b = 'x y' AND c IN (7, '')");
        Alcotest.(check bool) "num vs str" true
          (masked "SELECT a FROM t WHERE a = 1" <> masked "SELECT a FROM t WHERE a = '1'");
        Alcotest.(check (option string)) "digits inside identifiers stay"
          (Some "SELECT t1.c2 FROM t1 WHERE t1.c2 = ?")
          (masked "SELECT t1.c2 FROM t1 WHERE t1.c2 = 30"));
    t "shape fails where tokenize does" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) s false (tokenize_ok s);
            Alcotest.(check bool) s true (Lexer.shape s = None))
          [ "SELECT 'open"; "SELECT 1.2.3"; "SELECT a ? b"; "SELECT $"; "a - 1" ]);
    prop "walks: shape literals are the template's parameters, in order" gen_select
      (fun sel -> shape_agrees (A.to_string sel));
    prop "walks: instantiate inverts normalize" gen_select (fun sel ->
        let tpl = Template.normalize sel in
        Template.instantiate tpl.Template.shape (values tpl) = sel);
    prop "equal masked texts parse to one shape" gen_pair (fun (sql1, sql2) ->
        match (Lexer.shape sql1, Lexer.shape sql2) with
        | Some (m1, _), Some (m2, lits2) ->
          m1 = m2
          &&
          let shape1 = (Template.normalize (Parser.parse sql1)).Template.shape in
          Template.instantiate shape1 lits2 = Parser.parse sql2
        | _ -> false);
    prop "fuzz: shape is None exactly where tokenize raises" ~count:2000 gen_fuzz (fun s ->
        (Lexer.shape s = None) = not (tokenize_ok s));
  ]

(* ------------------------------------------------------------------ *)
(* The template key's printer                                          *)
(* ------------------------------------------------------------------ *)

(* The [Format] printer [Ast.to_string] was before it wrote into a
   [Buffer]: the key's reference text. *)
module Format_printer = struct
  let pp_col ppf (c : A.col) =
    match c.A.c_table with
    | None -> Format.pp_print_string ppf c.A.c_name
    | Some t -> Format.fprintf ppf "%s.%s" t c.A.c_name

  let pp_literal ppf = function
    | A.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f
      else Format.fprintf ppf "%g" f
    | A.Str s -> Format.fprintf ppf "'%s'" s

  let cmp_string = function
    | A.Eq -> "="
    | A.Lt -> "<"
    | A.Le -> "<="
    | A.Gt -> ">"
    | A.Ge -> ">="

  let pp_table_ref ppf (t : A.table_ref) =
    match t.A.t_alias with
    | None -> Format.pp_print_string ppf t.A.t_name
    | Some a -> Format.fprintf ppf "%s %s" t.A.t_name a

  let sep s ppf () = Format.pp_print_string ppf s

  let rec pp_condition ppf = function
    | A.Cmp_cols (a, op, b) ->
      Format.fprintf ppf "%a %s %a" pp_col a (cmp_string op) pp_col b
    | A.Cmp_lit (c, op, l) ->
      Format.fprintf ppf "%a %s %a" pp_col c (cmp_string op) pp_literal l
    | A.In_list (c, ls) ->
      Format.fprintf ppf "%a IN (%a)" pp_col c
        (Format.pp_print_list ~pp_sep:(sep ", ") pp_literal)
        ls
    | A.Exists s -> Format.fprintf ppf "EXISTS (%a)" pp_select s
    | A.In_subquery (c, s) -> Format.fprintf ppf "%a IN (%a)" pp_col c pp_select s

  and pp_sel_item ppf = function
    | A.Star -> Format.pp_print_string ppf "*"
    | A.Col_item c -> pp_col ppf c
    | A.Agg (f, c) -> Format.fprintf ppf "%s(%a)" f pp_col c

  and pp_select ppf (s : A.select) =
    Format.fprintf ppf "SELECT %a FROM %a"
      (Format.pp_print_list ~pp_sep:(sep ", ") pp_sel_item)
      s.A.sel_items
      (Format.pp_print_list ~pp_sep:(sep ", ") pp_table_ref)
      s.A.sel_from;
    List.iter
      (fun (j : A.join_clause) ->
        Format.fprintf ppf " %s %a ON %a"
          (match j.A.j_kind with A.Inner -> "JOIN" | A.Left_outer -> "LEFT JOIN")
          pp_table_ref j.A.j_table
          (Format.pp_print_list ~pp_sep:(sep " AND ") pp_condition)
          j.A.j_on)
      s.A.sel_joins;
    (match s.A.sel_where with
    | [] -> ()
    | conds ->
      Format.fprintf ppf " WHERE %a"
        (Format.pp_print_list ~pp_sep:(sep " AND ") pp_condition)
        conds);
    (match s.A.sel_group_by with
    | [] -> ()
    | cols ->
      Format.fprintf ppf " GROUP BY %a" (Format.pp_print_list ~pp_sep:(sep ", ") pp_col) cols);
    (match s.A.sel_order_by with
    | [] -> ()
    | cols ->
      Format.fprintf ppf " ORDER BY %a" (Format.pp_print_list ~pp_sep:(sep ", ") pp_col) cols);
    match s.A.sel_limit with
    | None -> ()
    | Some n -> Format.fprintf ppf " LIMIT %d" n

  let to_string s = Format.asprintf "%a" pp_select s
end

(* A walk dressed with what the walks leave out: star and aggregate items,
   ORDER BY, LIMIT, and a filter on any float, special values too. *)
let gen_dressed =
  let open QCheck2.Gen in
  let* sel = gen_select in
  let* items =
    list_size (int_range 1 3)
      (oneofl
         [ A.Star; A.Agg ("COUNT", A.col "x"); A.Col_item (A.col ~table:"t0" "y") ])
  in
  let* order = bool in
  let* limit = option (int_range (-5) 100_000) in
  let* f =
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; 1e15; -1e15; 1e15 -. 1.0; 0.1; nan; infinity; neg_infinity ];
      ]
  in
  let where = A.Cmp_lit (A.col "z", A.Lt, A.Num f) :: sel.A.sel_where in
  return
    {
      sel with
      A.sel_items = items;
      sel_where = where;
      sel_order_by = (if order then [ A.col ~table:"t0" "y"; A.col "x" ] else []);
      sel_limit = limit;
    }

let prints_alike sel =
  A.to_string sel = Format_printer.to_string sel
  && (Template.normalize sel).Template.key
     = Format_printer.to_string (Template.normalize sel).Template.shape

let printer_tests =
  [
    t "corpus: the key printer writes what the Format printer wrote" (fun () ->
        List.iter
          (fun (_, sql) ->
            if not (prints_alike (Parser.parse sql)) then
              Alcotest.failf "prints differently: %s" sql)
          corpus);
    prop "walks: the key printer writes what the Format printer wrote" ~count:300
      gen_dressed prints_alike;
  ]

(* ------------------------------------------------------------------ *)
(* Frontdoor.prepare through the map                                   *)
(* ------------------------------------------------------------------ *)

let prepare ?shapes ?(schemas = schemas) ?schema sql =
  Fd.prepare ?shapes ~who:"test" schemas ~id:1 ~sql ~schema

(* The envelope depends on the block alone, not on the plan stored. *)
let any_plan =
  lazy
    (Option.get
       (O.Optimizer.optimize O.Env.serial
          (prepare "SELECT s.s_store_name FROM store s").Fd.p_block)
         .O.Optimizer.best)

let envelope (p : Fd.prepared) =
  let pc = Cote.Plan_cache.create () in
  Cote.Plan_cache.store pc ~key:p.Fd.p_key p.Fd.p_block ~plan:(Lazy.force any_plan) ();
  Cote.Plan_cache.envelope pc p.Fd.p_key

(* [sql2] through a map that admitted [sql1], against [sql2] parsed. *)
let paths_agree sql1 sql2 =
  let m = Fd.shapes ~capacity:4 in
  let p1 = prepare ~shapes:m sql1 in
  Fd.admit m p1;
  let fast = prepare ~shapes:m sql2 and slow = prepare sql2 in
  p1.Fd.p_ticket <> None
  && fast.Fd.p_ticket = None
  && fast.Fd.p_key = slow.Fd.p_key
  && Cote.Stmt_cache.signature fast.Fd.p_block = Cote.Stmt_cache.signature slow.Fd.p_block
  && envelope fast = envelope slow

let limit_sql n =
  Printf.sprintf "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 3 LIMIT %d" n

let prepare_tests =
  [
    prop "fast and parsed prepare agree across literal variations" ~count:40 gen_pair
      (fun (sql1, sql2) -> paths_agree sql1 sql2);
    t "repeat templates: fast and parsed prepare agree" (fun () ->
        List.iter
          (fun tpl ->
            let sql v = Printf.sprintf (Scanf.format_from_string tpl "%d") v in
            Alcotest.(check bool) tpl true (paths_agree (sql 1999) (sql 7)))
          repeat_templates);
    t "a LIMIT statement never enters the map" (fun () ->
        let m = Fd.shapes ~capacity:4 in
        let p = prepare ~shapes:m (limit_sql 5) in
        Alcotest.(check bool) "no ticket" true (p.Fd.p_ticket = None);
        Fd.admit m p;
        Alcotest.(check int) "empty" 0 (Fd.entries m);
        (match prepare ~shapes:m (limit_sql 0) with
        | _ -> Alcotest.fail "LIMIT 0 prepared"
        | exception Parser.Error msg ->
          Alcotest.(check string) "parser's error"
            "expected a positive LIMIT count, found num(0)" msg));
    t "a text admitted under one schema is parsed again under another" (fun () ->
        let schemas = [ ("w1", schema); ("w2", schema) ] in
        let m = Fd.shapes ~capacity:4 in
        let sql = "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 3" in
        Fd.admit m (prepare ~shapes:m ~schemas ~schema:"w1" sql);
        let p1 = prepare ~shapes:m ~schemas ~schema:"w1" sql
        and p2 = prepare ~shapes:m ~schemas ~schema:"w2" sql in
        Alcotest.(check bool) "w1 from the map" true (p1.Fd.p_ticket = None);
        Alcotest.(check bool) "w2 parsed" true (p2.Fd.p_ticket <> None);
        Alcotest.(check string) "w2 key"
          ("w2|" ^ Template.key_of (Parser.parse sql))
          p2.Fd.p_key);
    t "the map holds at most its capacity, evicting the least recently used" (fun () ->
        let m = Fd.shapes ~capacity:1 in
        let a = "SELECT s.s_store_name FROM store s WHERE s.s_market_id = 3"
        and b = "SELECT i.i_item_sk FROM item i WHERE i.i_category_id = 4" in
        Fd.admit m (prepare ~shapes:m a);
        Fd.admit m (prepare ~shapes:m b);
        Alcotest.(check int) "one entry" 1 (Fd.entries m);
        let from_map sql = (prepare ~shapes:m sql).Fd.p_ticket = None in
        Alcotest.(check bool) "b from the map" true (from_map b);
        Alcotest.(check bool) "a evicted" false (from_map a));
    t "a text the lexer rejects fails as it did without the map" (fun () ->
        let m = Fd.shapes ~capacity:4 in
        match prepare ~shapes:m "SELECT 'open" with
        | _ -> Alcotest.fail "prepared"
        | exception Lexer.Error (msg, at) ->
          Alcotest.(check (pair string int))
            "lexer error" ("unterminated string literal", 7) (msg, at));
  ]

let suite = lexer_tests @ printer_tests @ prepare_tests
