(* Lexer, parser, pretty-printer and binder. *)

module Sql = Qopt_sql
module O = Qopt_optimizer
module C = Qopt_catalog
module Bitset = Qopt_util.Bitset

let t name f = Alcotest.test_case name `Quick f

let lexer_tests =
  [
    t "tokenizes keywords case-insensitively" (fun () ->
        match Sql.Lexer.tokenize "select FROM Where" with
        | [ Sql.Lexer.Kw "SELECT"; Kw "FROM"; Kw "WHERE"; Eof ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    t "identifiers lowercased" (fun () ->
        match Sql.Lexer.tokenize "Foo.BAR" with
        | [ Sql.Lexer.Ident "foo"; Dot; Ident "bar"; Eof ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    t "numbers and operators" (fun () ->
        match Sql.Lexer.tokenize "x >= 1.5" with
        | [ Sql.Lexer.Ident "x"; Op ">="; Number 1.5; Eof ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    t "string literals" (fun () ->
        match Sql.Lexer.tokenize "'CA'" with
        | [ Sql.Lexer.String "CA"; Eof ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    t "unterminated string raises" (fun () ->
        try
          ignore (Sql.Lexer.tokenize "'oops");
          Alcotest.fail "expected Lexer.Error"
        with Sql.Lexer.Error _ -> ());
    t "unexpected character raises" (fun () ->
        try
          ignore (Sql.Lexer.tokenize "a # b");
          Alcotest.fail "expected Lexer.Error"
        with Sql.Lexer.Error _ -> ());
  ]

let parses sql = Sql.Parser.parse sql

let parser_tests =
  [
    t "simple select" (fun () ->
        let s = parses "SELECT a FROM t WHERE a = 1" in
        Alcotest.(check int) "items" 1 (List.length s.Sql.Ast.sel_items);
        Alcotest.(check int) "from" 1 (List.length s.Sql.Ast.sel_from);
        Alcotest.(check int) "where" 1 (List.length s.Sql.Ast.sel_where));
    t "join clauses and aliases" (fun () ->
        let s = parses "SELECT * FROM t a JOIN u b ON a.x = b.y LEFT JOIN v ON b.z = v.w" in
        Alcotest.(check int) "joins" 2 (List.length s.Sql.Ast.sel_joins);
        match s.Sql.Ast.sel_joins with
        | [ j1; j2 ] ->
          Alcotest.(check bool) "inner" true (j1.Sql.Ast.j_kind = Sql.Ast.Inner);
          Alcotest.(check bool) "left" true (j2.Sql.Ast.j_kind = Sql.Ast.Left_outer)
        | _ -> Alcotest.fail "expected two joins");
    t "group by and order by" (fun () ->
        let s = parses "SELECT a, COUNT(*) FROM t GROUP BY a, b ORDER BY a" in
        Alcotest.(check int) "group" 2 (List.length s.Sql.Ast.sel_group_by);
        Alcotest.(check int) "order" 1 (List.length s.Sql.Ast.sel_order_by));
    t "in list" (fun () ->
        let s = parses "SELECT a FROM t WHERE a IN (1, 2, 3)" in
        match s.Sql.Ast.sel_where with
        | [ Sql.Ast.In_list (_, ls) ] -> Alcotest.(check int) "3 literals" 3 (List.length ls)
        | _ -> Alcotest.fail "expected In_list");
    t "exists subquery" (fun () ->
        let s = parses "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a)" in
        match s.Sql.Ast.sel_where with
        | [ Sql.Ast.Exists sub ] -> Alcotest.(check int) "sub from" 1 (List.length sub.Sql.Ast.sel_from)
        | _ -> Alcotest.fail "expected Exists");
    t "in subquery" (fun () ->
        let s = parses "SELECT a FROM t WHERE a IN (SELECT b FROM u)" in
        match s.Sql.Ast.sel_where with
        | [ Sql.Ast.In_subquery _ ] -> ()
        | _ -> Alcotest.fail "expected In_subquery");
    t "column inequality comparison" (fun () ->
        let s = parses "SELECT a FROM t WHERE t.a < t.b" in
        match s.Sql.Ast.sel_where with
        | [ Sql.Ast.Cmp_cols (_, Sql.Ast.Lt, _) ] -> ()
        | _ -> Alcotest.fail "expected Cmp_cols Lt");
    t "aggregates" (fun () ->
        let s = parses "SELECT SUM(x), COUNT(*), MIN(t.y) FROM t" in
        Alcotest.(check int) "3 items" 3 (List.length s.Sql.Ast.sel_items));
    t "trailing input rejected" (fun () ->
        try
          ignore (parses "SELECT a FROM t garbage extra");
          Alcotest.fail "expected Parser.Error"
        with Sql.Parser.Error _ -> ());
    t "missing FROM rejected" (fun () ->
        try
          ignore (parses "SELECT a");
          Alcotest.fail "expected Parser.Error"
        with Sql.Parser.Error _ -> ());
    t "pretty-print round-trips" (fun () ->
        List.iter
          (fun sql ->
            let ast = parses sql in
            let printed = Sql.Ast.to_string ast in
            let reparsed = parses printed in
            Alcotest.(check string) ("round trip of " ^ sql) printed
              (Sql.Ast.to_string reparsed))
          [
            "SELECT a FROM t WHERE a = 1";
            "SELECT a, b FROM t u, v WHERE u.a = v.b AND u.c >= 10 GROUP BY a ORDER BY b";
            "SELECT * FROM t JOIN u ON t.a = u.b LEFT JOIN w ON u.c = w.d WHERE t.x IN (1, 2)";
            "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a)";
          ]);
  ]

(* Binder fixtures: two tables with a foreign-key-ish link plus a shared
   column name to exercise ambiguity. *)
let schema =
  C.Schema.of_tables
    [
      C.Table.make ~rows:1000.0 ~name:"emp" ~primary_key:[ "id" ]
        [
          C.Column.make ~rows:1000.0 "id";
          C.Column.make ~rows:1000.0 ~distinct:50.0 "dept_id";
          C.Column.make ~rows:1000.0 ~distinct:100.0 "salary";
          C.Column.make ~rows:1000.0 ~distinct:900.0 "name";
        ];
      C.Table.make ~rows:50.0 ~name:"dept" ~primary_key:[ "id" ]
        [
          C.Column.make ~rows:50.0 "id";
          C.Column.make ~rows:50.0 ~distinct:50.0 "name";
          C.Column.make ~rows:50.0 ~distinct:5.0 "region";
        ];
    ]

let bind sql = Sql.Binder.parse_and_bind schema sql

let binder_tests =
  [
    t "binds qualified columns" (fun () ->
        let b = bind "SELECT e.salary FROM emp e, dept d WHERE e.dept_id = d.id" in
        Alcotest.(check int) "2 quantifiers" 2 (O.Query_block.n_quantifiers b);
        Alcotest.(check int) "1 pred" 1 (List.length b.O.Query_block.preds));
    t "binds unqualified unique column" (fun () ->
        let b = bind "SELECT salary FROM emp WHERE salary >= 100" in
        Alcotest.(check int) "1 pred" 1 (List.length b.O.Query_block.preds));
    t "ambiguous unqualified column rejected" (fun () ->
        try
          ignore (bind "SELECT name FROM emp, dept");
          Alcotest.fail "expected Binder.Error"
        with Sql.Binder.Error _ -> ());
    t "unknown table rejected" (fun () ->
        try
          ignore (bind "SELECT x FROM nosuch");
          Alcotest.fail "expected Binder.Error"
        with Sql.Binder.Error _ -> ());
    t "unknown column rejected" (fun () ->
        try
          ignore (bind "SELECT emp.bogus FROM emp");
          Alcotest.fail "expected Binder.Error"
        with Sql.Binder.Error _ -> ());
    t "left join becomes outer-join constraint" (fun () ->
        let b = bind "SELECT e.salary FROM emp e LEFT JOIN dept d ON e.dept_id = d.id" in
        match b.O.Query_block.outer_joins with
        | [ oj ] ->
          Alcotest.(check bool) "preserved = {0}" true
            (Bitset.equal oj.O.Query_block.oj_preserved (Bitset.singleton 0));
          Alcotest.(check bool) "null = {1}" true
            (Bitset.equal oj.O.Query_block.oj_null (Bitset.singleton 1))
        | _ -> Alcotest.fail "expected one outer join");
    t "exists becomes child block" (fun () ->
        let b =
          bind
            "SELECT e.salary FROM emp e WHERE EXISTS (SELECT d.id FROM dept d \
             WHERE d.id = e.dept_id)"
        in
        Alcotest.(check int) "1 child" 1 (List.length b.O.Query_block.children);
        (* The correlated predicate stays out of the child. *)
        let child = List.hd b.O.Query_block.children in
        Alcotest.(check int) "no preds in child" 0 (List.length child.O.Query_block.preds));
    t "IN-subquery blocks the outer role" (fun () ->
        let b =
          bind "SELECT e.salary FROM emp e WHERE e.dept_id IN (SELECT d.id FROM dept d)"
        in
        Alcotest.(check bool) "outer blocked" false
          (O.Query_block.quantifier b 0).O.Quantifier.outer_allowed);
    t "string literal mapped into domain" (fun () ->
        let b = bind "SELECT e.salary FROM emp e WHERE e.name = 'alice'" in
        match b.O.Query_block.preds with
        | [ O.Pred.Local_cmp (_, O.Pred.Eq, v) ] ->
          Alcotest.(check bool) "in domain" true (v >= 0.0 && v < 900.0)
        | _ -> Alcotest.fail "expected Local_cmp");
    t "non-equality column pair becomes filter" (fun () ->
        let b = bind "SELECT e.salary FROM emp e WHERE e.salary < e.id" in
        match b.O.Query_block.preds with
        | [ O.Pred.Expensive (ts, sel, _) ] ->
          Alcotest.(check bool) "tables = {0}" true (Bitset.equal ts (Bitset.singleton 0));
          Alcotest.(check bool) "sel" true (sel > 0.0 && sel < 1.0)
        | _ -> Alcotest.fail "expected Expensive filter");
    t "a clique's join columns are physically shared" (fun () ->
        (* Each column of a 6-table clique appears in 5 Eq_joins (and g0.j1
           in the ORDER BY too); the binder hands out one colref per
           (quantifier, column), so equal sides are the same value. *)
        let n = 6 in
        let tables = List.init n (Printf.sprintf "g%d") in
        let joins =
          List.concat
            (List.init n (fun i ->
                 List.init (n - i - 1) (fun k ->
                     Printf.sprintf "g%d.j1 = g%d.j1" i (i + k + 1))))
        in
        let b =
          Sql.Binder.parse_and_bind (Qopt_workloads.Giant.schema ())
            ("SELECT g0.v1 FROM " ^ String.concat ", " tables ^ " WHERE "
            ^ String.concat " AND " joins ^ " ORDER BY g0.j1")
        in
        let sides =
          b.O.Query_block.order_by
          @ List.concat_map
              (function O.Pred.Eq_join (l, r) -> [ l; r ] | _ -> [])
              b.O.Query_block.preds
        in
        Alcotest.(check int) "every side collected" ((n * (n - 1)) + 1)
          (List.length sides);
        List.iter
          (fun a ->
            List.iter
              (fun c ->
                if O.Colref.equal a c then
                  Alcotest.(check bool)
                    (Format.asprintf "%a shared" O.Colref.pp a)
                    true (a == c))
              sides)
          sides);
    t "select list validated" (fun () ->
        try
          ignore (bind "SELECT emp.nothere FROM emp, dept WHERE emp.dept_id = dept.id");
          Alcotest.fail "expected Binder.Error"
        with Sql.Binder.Error _ -> ());
  ]

let suite = lexer_tests @ parser_tests @ binder_tests
