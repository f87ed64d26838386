type ptype =
  | P_num
  | P_str

type param = {
  p_index : int;
  p_type : ptype;
  p_value : Ast.literal;
}

type t = {
  shape : Ast.select;
  params : param list;
  key : string;
}

(* Rebuild [select] with [f] applied to every literal, in traversal order:
   JOIN ON conditions first (FROM order), then WHERE, recursing into
   subqueries where they stand.  This is the clause order of the
   statement's text, and nothing else holds literals.  [List.map] applies
   [f] front to back. *)
let map_literals f select =
  let rec condition = function
    | Ast.Cmp_cols _ as c -> c
    | Ast.Cmp_lit (c, op, l) -> Ast.Cmp_lit (c, op, f l)
    | Ast.In_list (c, ls) -> Ast.In_list (c, List.map f ls)
    | Ast.Exists s -> Ast.Exists (sel s)
    | Ast.In_subquery (c, s) -> Ast.In_subquery (c, sel s)
  and sel s =
    let joins =
      List.map
        (fun j -> { j with Ast.j_on = List.map condition j.Ast.j_on })
        s.Ast.sel_joins
    in
    let where = List.map condition s.Ast.sel_where in
    { s with Ast.sel_joins = joins; sel_where = where }
  in
  sel select

(* One ordinal counter shared across nested subqueries: the placeholder
   sequence is a property of the whole statement, so two statements with
   the same structure always assign the same ordinals. *)
let normalize select =
  let params = ref [] in
  let next = ref 0 in
  let abstract lit =
    let idx = !next in
    incr next;
    let p_type = match lit with Ast.Num _ -> P_num | Ast.Str _ -> P_str in
    params := { p_index = idx; p_type; p_value = lit } :: !params;
    match p_type with
    | P_num -> Ast.Num (float_of_int idx)
    | P_str -> Ast.Str (Printf.sprintf "?%d" idx)
  in
  let shape = map_literals abstract select in
  { shape; params = List.rev !params; key = Ast.to_string shape }

let key_of select = (normalize select).key

let instantiate shape literals =
  let rest = ref literals in
  let fill _ =
    match !rest with
    | l :: tl ->
      rest := tl;
      l
    | [] -> invalid_arg "Template.instantiate: fewer literals than placeholders"
  in
  let select = map_literals fill shape in
  if !rest <> [] then
    invalid_arg "Template.instantiate: more literals than placeholders";
  select
