module C = Qopt_catalog
module O = Qopt_optimizer
module Bitset = Qopt_util.Bitset

exception Error of string

let errorf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type scope = {
  schema : C.Schema.t;
  quants : (string * C.Table.t) array;  (** alias, table — indexed by q id *)
  parent : scope option;
  colrefs : (string * O.Colref.t) list array;
      (** per q id: (column name as written, its one shared colref) *)
}

type resolved =
  | Here of O.Colref.t
  | Outer of int  (** levels up, for correlation detection *)

let table_of scope q = snd scope.quants.(q)

(* Every mention of a column in a scope resolves to one physical colref,
   so predicates, orders and the plans built from them share it instead of
   holding a copy per mention.  Colrefs are immutable and compared
   structurally, so the sharing changes memory only. *)
let intern_colref scope q name =
  match List.assoc_opt name scope.colrefs.(q) with
  | Some c -> c
  | None ->
    let c = O.Colref.make q name in
    scope.colrefs.(q) <- (name, c) :: scope.colrefs.(q);
    c

let rec resolve ?(depth = 0) scope (c : Ast.col) =
  let here =
    match c.Ast.c_table with
    | Some qualifier ->
      let found = ref None in
      Array.iteri
        (fun i (alias, (table : C.Table.t)) ->
          if String.equal alias qualifier || String.equal table.C.Table.name qualifier
          then
            match !found with
            | None -> found := Some i
            | Some _ -> errorf "ambiguous table qualifier %s" qualifier)
        scope.quants;
      Option.map
        (fun q ->
          if C.Table.mem_column (table_of scope q) c.Ast.c_name then
            intern_colref scope q c.Ast.c_name
          else
            errorf "column %s.%s does not exist" qualifier c.Ast.c_name)
        !found
    | None ->
      let found = ref None in
      Array.iteri
        (fun i (_, table) ->
          if C.Table.mem_column table c.Ast.c_name then
            match !found with
            | None -> found := Some i
            | Some _ -> errorf "ambiguous column %s" c.Ast.c_name)
        scope.quants;
      Option.map (fun q -> intern_colref scope q c.Ast.c_name) !found
  in
  match here with
  | Some colref -> if depth = 0 then Here colref else Outer depth
  | None -> begin
    match scope.parent with
    | Some parent -> resolve ~depth:(depth + 1) parent c
    | None ->
      errorf "unresolved column %s%s"
        (match c.Ast.c_table with Some t -> t ^ "." | None -> "")
        c.Ast.c_name
  end

let resolve_here scope c =
  match resolve scope c with
  | Here colref -> colref
  | Outer _ -> errorf "correlated reference %s not allowed here" c.Ast.c_name

(* Map a literal into the column's default [0, distinct) domain so that
   histogram selectivities stay meaningful. *)
let literal_value scope (colref : O.Colref.t) = function
  | Ast.Num f -> f
  | Ast.Str s ->
    let table = table_of scope colref.O.Colref.q in
    let col = C.Table.find_column table colref.O.Colref.col in
    let domain = Float.max 1.0 col.C.Column.distinct in
    float_of_int (Hashtbl.hash s mod int_of_float domain)

let cmp_op = function
  | Ast.Eq -> O.Pred.Eq
  | Ast.Lt -> O.Pred.Lt
  | Ast.Le -> O.Pred.Le
  | Ast.Gt -> O.Pred.Gt
  | Ast.Ge -> O.Pred.Ge

let rec bind_select ~name scope_parent schema (s : Ast.select) =
  let table_refs =
    s.Ast.sel_from @ List.map (fun j -> j.Ast.j_table) s.Ast.sel_joins
  in
  if table_refs = [] then errorf "empty FROM clause";
  let quants =
    Array.of_list
      (List.map
         (fun (tref : Ast.table_ref) ->
           match C.Schema.find_table_opt schema tref.Ast.t_name with
           | None -> errorf "unknown table %s" tref.Ast.t_name
           | Some table ->
             ( Option.value ~default:tref.Ast.t_name tref.Ast.t_alias,
               table ))
         table_refs)
  in
  let scope =
    {
      schema;
      quants;
      parent = scope_parent;
      colrefs = Array.make (Array.length quants) [];
    }
  in
  let preds = ref [] in
  let children = ref [] in
  let blocked_outer = ref Bitset.empty in
  let subquery_count = ref 0 in
  let handle_condition cond =
    match cond with
    | Ast.Cmp_cols (a, op, b) -> begin
      match (resolve scope a, resolve scope b) with
      | Here ca, Here cb ->
        if op = Ast.Eq then preds := O.Pred.Eq_join (ca, cb) :: !preds
        else begin
          (* Non-equality column comparison: a filter with a default
             selectivity; it never contributes a join-graph edge. *)
          let tables =
            Bitset.add cb.O.Colref.q (Bitset.singleton ca.O.Colref.q)
          in
          preds := O.Pred.Expensive (tables, 1.0 /. 3.0, 0.01) :: !preds
        end
      | Here c, Outer _ | Outer _, Here c ->
        (* A correlated predicate: the local column is constrained by a
           value from the enclosing query, restricting this quantifier's
           ability to serve as an outer. *)
        blocked_outer := Bitset.add c.O.Colref.q !blocked_outer
      | Outer _, Outer _ -> ()
    end
    | Ast.Cmp_lit (c, op, l) -> begin
      match resolve scope c with
      | Here colref ->
        preds :=
          O.Pred.Local_cmp (colref, cmp_op op, literal_value scope colref l)
          :: !preds
      | Outer _ -> ()
    end
    | Ast.In_list (c, ls) -> begin
      match resolve scope c with
      | Here colref -> preds := O.Pred.Local_in (colref, List.length ls) :: !preds
      | Outer _ -> ()
    end
    | Ast.Exists sub ->
      incr subquery_count;
      let child =
        bind_select
          ~name:(Printf.sprintf "%s$sub%d" name !subquery_count)
          (Some scope) schema sub
      in
      children := child :: !children
    | Ast.In_subquery (c, sub) -> begin
      incr subquery_count;
      let child =
        bind_select
          ~name:(Printf.sprintf "%s$sub%d" name !subquery_count)
          (Some scope) schema sub
      in
      children := child :: !children;
      match resolve scope c with
      | Here colref -> blocked_outer := Bitset.add colref.O.Colref.q !blocked_outer
      | Outer _ -> ()
    end
  in
  List.iter handle_condition s.Ast.sel_where;
  (* JOIN clauses: predicates plus outer-join constraints.  The preserved
     side of a LEFT JOIN is everything introduced before the clause. *)
  let n_from = List.length s.Ast.sel_from in
  let outer_joins = ref [] in
  List.iteri
    (fun i (j : Ast.join_clause) ->
      let qj = n_from + i in
      List.iter handle_condition j.Ast.j_on;
      match j.Ast.j_kind with
      | Ast.Inner -> ()
      | Ast.Left_outer ->
        let preserved = ref Bitset.empty in
        for k = 0 to qj - 1 do
          preserved := Bitset.add k !preserved
        done;
        outer_joins :=
          {
            O.Query_block.oj_preserved = !preserved;
            oj_null = Bitset.singleton qj;
          }
          :: !outer_joins)
    s.Ast.sel_joins;
  (* Validate select-list column references. *)
  List.iter
    (fun item ->
      match item with
      | Ast.Star -> ()
      | Ast.Col_item c -> ignore (resolve_here scope c)
      | Ast.Agg (_, c) -> if c.Ast.c_name <> "*" then ignore (resolve_here scope c))
    s.Ast.sel_items;
  let group_by = List.map (resolve_here scope) s.Ast.sel_group_by in
  let order_by = List.map (resolve_here scope) s.Ast.sel_order_by in
  let quantifiers =
    Array.to_list
      (Array.mapi
         (fun i (alias, table) ->
           O.Quantifier.make
             ~outer_allowed:(not (Bitset.mem i !blocked_outer))
             ~alias i table)
         quants)
  in
  O.Query_block.make ~name ~group_by ~order_by ~outer_joins:(List.rev !outer_joins)
    ~children:(List.rev !children) ?first_n:s.Ast.sel_limit ~quantifiers
    ~preds:(List.rev !preds) ()

let bind ?(name = "q") schema select = bind_select ~name None schema select

let parse_and_bind ?name schema sql = bind ?name schema (Parser.parse sql)
